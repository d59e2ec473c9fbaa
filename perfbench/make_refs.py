"""Compute the reference totals of a range of seeds and store them in
perfbench/refs/, the benchmark data kept with the benchmark.

    python3 perfbench/make_refs.py 0 20            # seeds 0..20, every workload
    python3 perfbench/make_refs.py 0 20 cluster    # one workload

Each problem's reference comes from the oracle its group names: the exact
LP sequence, or exact single-path waterfilling.  A waterfill reference of up
to CROSS_CHECK_DEMANDS demands is also checked against the exact LP sequence
here, and a disagreement stops the script, so that the stored data does not
rest on waterfilling alone.  A seed without stored references still runs:
its references are computed during set-up and not stored.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]

from perfbench import harness, inputs  # noqa: E402

CROSS_CHECK_DEMANDS = 20


def main(first: int, last: int, workloads: list[str]) -> None:
    for workload in workloads or inputs.WORKLOADS:
        stored = harness.load_refs(workload)
        for seed in range(first, last + 1):
            for x in inputs.build_instances(workload, seed):
                oracle = x.group.reference
                if oracle is None:
                    continue
                totals = harness.reference_totals(x.problem, oracle)
                if oracle == "waterfill" and len(x.problem.demands) <= CROSS_CHECK_DEMANDS:
                    exact = harness.reference_totals(x.problem, "exact")
                    worst = max(abs(totals[k] - v) / max(1.0, abs(v)) for k, v in exact.items())
                    if worst > harness.EXACT_TOL:
                        raise SystemExit(
                            f"{workload} seed {seed} {x.group.name}[{x.index}]: waterfill "
                            f"misses the exact LP totals by {worst:.3g}"
                        )
                stored[x.fingerprint] = totals
            print(f"{workload} seed {seed}: {len(stored)} references", flush=True)
        harness.REFS_DIR.mkdir(exist_ok=True)
        path = harness.REFS_DIR / f"{workload}.json"
        path.write_text(json.dumps(stored, sort_keys=True, indent=0) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:])

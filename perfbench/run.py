"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wan-lp --seed 0 --seconds 35 --trace 0

From the root of a checkout.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` alternates untraced and traced sweeps and prints the per-layer
metrics, the per-allocator layer split, and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# The program is single-threaded; pin BLAS before numpy is imported so CPU
# time tracks wall time on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
from importlib import metadata
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be > 0")
    return value


def _line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<36} {value:>14.6g} {unit:<6} {note}".rstrip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=_seconds, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "fairalloc" / "__init__.py").is_file():
        print(f"error: no fairalloc sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]
    from perfbench import harness, inputs

    if args.workload not in inputs.WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(inputs.WORKLOADS)}")

    print(
        f"# env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={metadata.version('numpy')} scipy={metadata.version('scipy')} "
        f"blas_threads=1 loop=closed clients=1"
    )

    if args.trace:
        setup = harness.set_up(args.workload, args.seed)
        computed, computed_s = setup.computed, setup.computed_s
    else:
        setup, timing = harness.time_setup(args.workload, args.seed)
        computed, computed_s = timing.computed, timing.computed_s
    if computed:
        print(
            f"# reference miss: computed {computed} references in {computed_s:.2f} s "
            "(not stored; an allocator's output is not checked against its own)"
        )

    digest = inputs.inputs_fingerprint(setup.instances)
    recorded = json.loads((CHECKOUT / "perfbench" / "fingerprints.json").read_text())
    note = ""
    if str(args.seed) in recorded:
        same = recorded[str(args.seed)].get(args.workload) == digest
        note = " (matches the recorded fingerprint)" if same else " (DIFFERS from the recorded fingerprint)"
    print(f"# workload {args.workload} seed {args.seed}: {len(setup.instances)} problems, inputs sha256 {digest}{note}")
    for x in setup.instances:
        print(f"# problem {x.group.name}[{x.index}] D={len(x.problem.demands)} sha256 {x.fingerprint}")

    if args.trace:
        traced = harness.measure_traced(setup, args.seconds)
        metrics = harness.per_layer(traced)
        outcomes = traced.outcomes
        _print_split(harness.layer_split(traced.tracer), harness.LAYERS)
        for missing in traced.tracer.missing:
            print(f"# not traced (not found): {missing}")
        out = CHECKOUT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced.tracer.write_jsonl(spans)
        print(f"# {len(traced.tracer.spans)} spans of the first traced sweep written to {spans.relative_to(CHECKOUT)}")
    else:
        result = harness.measure(setup, args.seconds)
        metrics = harness.end_to_end(timing.scaled, result)
        outcomes = result.outcomes
        print(
            f"# measured {result.wall_s:.1f} s in {result.sweeps} sweeps, cpu/wall "
            f"{result.cpu_s / result.wall_s:.3f}, speed factor per sweep (median of its probes) "
            + " ".join(f"{f:.3f}" for f in result.speed)
        )
        print(f"# setup: n={len(timing.raw)}, unscaled median {statistics.median(timing.raw):.4g} s")
        for a in harness.ALLOCATORS:
            s = sorted(result.samples[a])
            _line(
                f"solve_s.{a}",
                statistics.median(s),
                "s",
                f"median of n={len(s)} (min {s[0]:.4g}, max {s[-1]:.4g}; "
                f"unscaled median {statistics.median(result.raw[a]):.4g} s)",
            )

    failed = [o for o in outcomes if o.error is not None]
    unchecked = sum(o.unchecked for o in outcomes)
    for o in failed[:20]:
        print(f"# FAILED {o.allocator} on {o.instance.group.name}[{o.instance.index}]: {o.error}")
    print(
        f"# attempted {len(outcomes)} calls, failed {len(failed)} "
        f"(failed_share {len(failed) / len(outcomes):.4g}), unchecked {unchecked}"
    )
    for name, (value, unit) in metrics.items():
        _line(name, value, unit)
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(outcomes),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def _print_split(split: dict[str, dict[str, float]], layers: tuple[str, ...]) -> None:
    print("# traced self time by layer (s), first traced sweep; layers sum to the wall time")
    print("# " + f"{'allocator':<20}{'wall':>9}" + "".join(f"{layer:>11}" for layer in layers))
    for allocator, row in split.items():
        cells = "".join(f"{row[layer]:>11.4f}" for layer in layers)
        gap = row["wall"] - sum(row[layer] for layer in layers)
        print(f"# {allocator:<20}{row['wall']:>9.4f}{cells}   (unaccounted {gap:.1e})")


if __name__ == "__main__":
    sys.exit(main())

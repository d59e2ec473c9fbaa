"""Span recorder for the traced run.

The program is not instrumented: ``Tracer.install`` wraps the public
functions of each layer where the calling module looks them up (for
example ``fairalloc.optimizers.build_feasible_alloc``), plus the
``SolveSession.solve`` method, and ``uninstall`` restores the originals.
Spans are kept in memory; ``write_jsonl`` writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass

LAYERS = ("bench", "model", "lp", "optimizers", "waterfill", "sortnet")

# (module the caller looks the name up in, attribute, span name).  A function
# looked up from two modules is wrapped in both under one span name.
TARGETS = (
    ("fairalloc.optimizers", "validate_problem", "model.validate_problem"),
    ("fairalloc.optimizers", "build_feasible_alloc", "lp.build_feasible_alloc"),
    ("fairalloc.lp", "SolveSession.solve", "lp.SolveSession.solve"),
    ("fairalloc.bench", "exact_sequential_max_min", "optimizers.exact_sequential_max_min"),
    ("fairalloc.bench", "one_shot_exact", "optimizers.one_shot_exact"),
    ("fairalloc.bench", "swan_sequence", "optimizers.swan_sequence"),
    ("fairalloc.bench", "geo_binner", "optimizers.geo_binner"),
    ("fairalloc.bench", "equi_depth_elastic", "optimizers.equi_depth_elastic"),
    ("fairalloc.bench", "equi_depth_multibin", "optimizers.equi_depth_multibin"),
    ("fairalloc.bench", "suggest_bin_config", "optimizers.suggest_bin_config"),
    ("fairalloc.bench", "build_subdemands", "waterfill.build_subdemands"),
    ("fairalloc.waterfill", "build_subdemands", "waterfill.build_subdemands"),
    ("fairalloc.bench", "approx_waterfill", "waterfill.approx_waterfill"),
    ("fairalloc.waterfill", "approx_waterfill", "waterfill.approx_waterfill"),
    ("fairalloc.bench", "single_path_waterfill", "waterfill.single_path_waterfill"),
    ("fairalloc.waterfill", "single_path_waterfill", "waterfill.single_path_waterfill"),
    ("fairalloc.bench", "adaptive_waterfill", "waterfill.adaptive_waterfill"),
    ("fairalloc.optimizers", "adaptive_waterfill", "waterfill.adaptive_waterfill"),
    ("fairalloc.optimizers", "build_sorting_network", "sortnet.build_sorting_network"),
)

ROOT = "bench.run_allocator"


@dataclass
class Span:
    id: int
    parent: int | None
    call: int  # shared by every span of one run_allocator call
    name: str
    start: float
    end: float = 0.0
    info: dict | None = None  # counts read at the boundary

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _lp_size(args, result) -> dict:
    lp = args[1]
    return {
        "rows": len(lp.constraints),
        "cols": len(lp.variables),
        "nnz": sum(len(c.coeffs) for c in lp.constraints),
    }


def _matrix_bytes(args, result) -> dict:
    matrix = result[0]
    return {"bytes": matrix.gamma.nbytes + matrix.consumption.nbytes}


def _aw_outcome(args, result) -> dict:
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _comparators(args, result) -> dict:
    return {"comparators": len(result.comparators)}


INFO = {
    "lp.SolveSession.solve": _lp_size,
    "waterfill.build_subdemands": _matrix_bytes,
    "waterfill.adaptive_waterfill": _aw_outcome,
    "sortnet.build_sorting_network": _comparators,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._calls = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._calls += 1
            span = Span(
                len(self.spans),
                parent.id if parent else None,
                parent.call if parent else self._calls,
                name,
                time.perf_counter(),
            )
            if parent is None:
                span.info = {"allocator": args[1]}
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if not hasattr(owner, leaf):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                row = {
                    "id": s.id,
                    "parent": s.parent,
                    "call": s.call,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                }
                if s.info:
                    row.update(s.info)
                fh.write(json.dumps(row) + "\n")

"""Result envelope shared by every allocator."""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Allocation, Problem, total_allocation

__all__ = ["AllocatorReport", "report_to_dict"]


@dataclass
class AllocatorReport:
    allocation: Allocation
    lp_solves: int
    iterations: int
    notes: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return bool(self.notes.get("converged", True))


def _jsonable(value):
    if isinstance(value, dict):
        out: dict = {}
        for k, v in value.items():
            if isinstance(k, tuple):  # (demand, path) nests, as rates do
                out.setdefault(str(k[0]), {})[str(k[1])] = _jsonable(v)
            else:
                out[str(k)] = _jsonable(v)
        return out
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return value


def report_to_dict(problem: Problem, report: AllocatorReport) -> dict:
    """JSON-friendly view: rates nested by demand, utility totals, counters.
    (demand, path)-keyed notes nest the same way, as {demand: {path: value}};
    the bulky theta trace is omitted (export it with theta_trace_csv
    instead)."""
    return {
        "rates": _jsonable(dict(sorted(report.allocation.rates.items()))),
        "totals": total_allocation(problem, report.allocation),
        "lp_solves": report.lp_solves,
        "iterations": report.iterations,
        "converged": report.converged,
        "notes": _jsonable(
            {k: v for k, v in report.notes.items() if k != "theta_trace"}
        ),
    }

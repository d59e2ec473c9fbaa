"""Command-line surface: solve a problem file with a named allocator,
generate random problems, run benchmark scenario files, and POP-partition a
problem into subproblems.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path as FsPath

from . import bench
from .generate import TRAFFIC_MODELS, TrafficSpec, generate_problem
from .model import validate_problem
from .report import report_to_dict

__all__ = ["cli_main", "main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairalloc",
        description="Max-min fair allocators over capacitated graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="allocate rates for a problem file")
    p_solve.add_argument("--input", required=True, help="problem JSON")
    p_solve.add_argument(
        "--allocator", required=True, choices=list(bench.ALLOCATOR_IDS)
    )
    p_solve.add_argument("--alpha", type=float, help="geometric bin growth factor")
    p_solve.add_argument("--u", type=float, help="minimum rate (first bin cap)")
    p_solve.add_argument("--bins", type=int, help="number of bins")
    p_solve.add_argument("--iterations", type=int, help="waterfill iterations")
    p_solve.add_argument("--slack", type=float, help="equi-depth boundary slack")
    p_solve.add_argument(
        "--inner", choices=["exact", "approx"], help="adaptive waterfill inner loop"
    )
    p_solve.add_argument("--output", required=True, help="report JSON destination")

    p_gen = sub.add_parser("gen", help="generate a random problem")
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--edges", type=int, required=True)
    p_gen.add_argument("--traffic", required=True, choices=list(TRAFFIC_MODELS))
    p_gen.add_argument("--scale", type=float, default=1.0)
    p_gen.add_argument("--paths", type=int, default=4, help="K shortest paths per pair")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", required=True)

    p_bench = sub.add_parser("bench", help="run a scenario file against the oracle")
    p_bench.add_argument("--scenarios", required=True, help="scenario JSON file")
    p_bench.add_argument("--output", required=True, help="CSV destination")
    p_bench.add_argument("--json", help="also write rows as JSON")

    p_part = sub.add_parser("partition", help="split a problem POP-style")
    p_part.add_argument("--input", required=True)
    p_part.add_argument("--k", type=int, required=True)
    p_part.add_argument("--split-threshold", type=float, default=0.75)
    p_part.add_argument("--seed", type=int, default=0)
    p_part.add_argument("--output-dir", required=True)
    return parser


_NOT_CONFIG = ("command", "input", "allocator", "output")


def _solve_config(args: argparse.Namespace) -> dict:
    """Every other `solve` flag given is an allocator config key; run_allocator
    rejects one the allocator does not read."""
    return {
        key: value
        for key, value in vars(args).items()
        if key not in _NOT_CONFIG and value is not None
    }


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = bench.load_problem(args.input)
    violations = validate_problem(problem)
    if violations:
        for v in violations:
            print(f"invalid problem: {v}", file=sys.stderr)
        return 1
    config = _solve_config(args)
    t0 = time.perf_counter()
    report = bench.run_allocator(problem, args.allocator, config)
    wall_ms = (time.perf_counter() - t0) * 1e3
    out = {
        "allocator": args.allocator,
        "config": config,
        "wall_ms": wall_ms,
        **report_to_dict(problem, report),
    }
    FsPath(args.output).write_text(json.dumps(out, indent=2) + "\n")
    totals = out["totals"]
    print(
        f"{args.allocator}: {len(totals)} demands, total rate "
        f"{sum(totals.values()):.6g}, {report.lp_solves} LP solves -> {args.output}"
    )
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = TrafficSpec(model=args.traffic, scale_factor=args.scale, seed=args.seed)
    problem = generate_problem(args.nodes, args.edges, spec, args.paths)
    bench.save_problem(args.output, problem)
    print(
        f"{args.traffic} x{args.scale:g}: {len(problem.resources)} links, "
        f"{len(problem.demands)} demands, {len(problem.paths)} paths -> {args.output}"
    )
    return 0


def _field(obj: object, key: str, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where}: missing field {key!r}")
    return obj[key]


def _cmd_bench(args: argparse.Namespace) -> int:
    spec_path = FsPath(args.scenarios)
    try:
        data = json.loads(spec_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{spec_path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    entries = _field(data, "scenarios", str(spec_path))
    if not isinstance(entries, list):
        raise ValueError(f"{spec_path}: 'scenarios' must be a list, got {type(entries).__name__}")
    scenarios = []
    problems: dict[str, object] = {}
    for i, entry in enumerate(entries):
        ppath = _field(entry, "problem", f"{spec_path} scenario {i}")
        resolved = str((spec_path.parent / ppath).resolve())
        if resolved not in problems:
            problems[resolved] = bench.load_problem(resolved)
        scenarios.append(
            bench.Scenario(
                label=entry.get("label", f"scenario-{i}"),
                problem=problems[resolved],
                allocator=_field(entry, "allocator", f"{spec_path} scenario {i}"),
                config=entry.get("config", {}),
            )
        )
    rows = bench.run_benchmark(scenarios)
    FsPath(args.output).write_text(bench.benchmark_csv(rows))
    if args.json:
        FsPath(args.json).write_text(
            json.dumps([row.__dict__ for row in rows], indent=2) + "\n"
        )
    errors = [r for r in rows if r.error]
    print(f"{len(rows)} rows ({len(errors)} errors) -> {args.output}")
    for r in errors:
        print(f"  {r.scenario}/{r.allocator}: {r.error}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_partition(args: argparse.Namespace) -> int:
    problem = bench.load_problem(args.input)
    parts = bench.pop_partition(
        problem, args.k, client_split_threshold=args.split_threshold, seed=args.seed
    )
    outdir = FsPath(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, part in enumerate(parts):
        bench.save_problem(outdir / f"part_{i}.json", part)
    sizes = ", ".join(str(len(p.demands)) for p in parts)
    print(f"{args.k} partitions (demand counts: {sizes}) -> {outdir}")
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    commands = {
        "solve": _cmd_solve,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
        "partition": _cmd_partition,
    }
    try:
        return commands[args.command](args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # console entry point
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()

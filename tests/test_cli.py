import json

import pytest

from fairalloc.bench import _CONFIG_KEYS, load_problem, save_problem
from fairalloc.cli import _build_parser, _solve_config, cli_main
from fairalloc.generate import TrafficSpec, generate_problem
from fairalloc.model import Demand, Path, Problem, Resource


@pytest.fixture
def worked_example_file(tmp_path, two_link_example):
    path = tmp_path / "worked.json"
    save_problem(path, two_link_example)
    return path


def test_solve_exact_reproduces_worked_example(worked_example_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main(
        ["solve", "--input", str(worked_example_file), "--allocator", "exact",
         "--output", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["totals"]["d1"] == pytest.approx(0.75)
    assert report["totals"]["d2"] == pytest.approx(0.75)
    assert report["lp_solves"] == report["iterations"]
    assert report["converged"]
    assert "LP solves" in capsys.readouterr().out


def test_solve_gb_defaults_u_and_echoes_it(worked_example_file, tmp_path):
    out = tmp_path / "report.json"
    code = cli_main(
        ["solve", "--input", str(worked_example_file), "--allocator", "gb",
         "--alpha", "2", "--output", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["lp_solves"] == 1
    ladder = report["notes"]["boundaries"]
    assert ladder[0] > 0  # u, defaulted and echoed
    assert ladder[1] == 2.0 * ladder[0]  # alpha


def test_solve_swan_at_a_fine_ladder(tmp_path):
    prob = tmp_path / "gravity.json"
    save_problem(prob, generate_problem(5, 7, TrafficSpec("gravity", 8.0, 0), 4))
    out = tmp_path / "report.json"
    code = cli_main(
        ["solve", "--input", str(prob), "--allocator", "swan", "--alpha", "1.05",
         "--output", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"] == {"alpha": 1.05}
    assert report["converged"]


def test_every_runner_parameter_is_a_solve_flag():
    flags = ["--alpha", "2", "--u", "1", "--bins", "3",
             "--iterations", "4", "--slack", "0.1", "--inner", "exact"]
    args = _build_parser().parse_args(
        ["solve", "--input", "x", "--allocator", "gb", "--output", "y", *flags]
    )
    forwarded = set(_solve_config(args))
    assert forwarded == {f[2:] for f in flags[::2]}
    assert forwarded == {key for keys in _CONFIG_KEYS.values() for key in keys}


def test_solve_rejects_a_flag_its_allocator_does_not_read(
    worked_example_file, tmp_path, capsys
):
    out = tmp_path / "report.json"
    code = cli_main(
        ["solve", "--input", str(worked_example_file), "--allocator", "swan",
         "--slack", "0.5", "--output", str(out)]
    )
    assert code == 1
    assert not out.exists()
    assert "['u', 'alpha', 'bins']" in capsys.readouterr().err


def test_solve_unknown_allocator_is_usage_error(worked_example_file, tmp_path):
    code = cli_main(
        ["solve", "--input", str(worked_example_file), "--allocator", "nope",
         "--output", str(tmp_path / "x.json")]
    )
    assert code == 2


def test_unknown_flag_is_usage_error(worked_example_file, tmp_path):
    code = cli_main(
        ["solve", "--input", str(worked_example_file), "--allocator", "exact",
         "--output", str(tmp_path / "x.json"), "--frobnicate", "1"]
    )
    assert code == 2


def test_solve_invalid_problem_fails_with_diagnostic(tmp_path, capsys):
    bad = Problem(
        [Resource("e1", -2.0)], [Path("p1", ["e1"])], [Demand("d1", ["p1"])]
    )
    path = tmp_path / "bad.json"
    save_problem(path, bad)
    code = cli_main(
        ["solve", "--input", str(path), "--allocator", "exact",
         "--output", str(tmp_path / "x.json")]
    )
    assert code == 1
    assert "capacity" in capsys.readouterr().err


def test_solve_refuses_repeated_ids_naming_the_file(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "resources": [{"id": "e", "capacity": 1.0}, {"id": "e", "capacity": 5.0}],
        "paths": [{"id": "p", "resources": ["e"]}],
        "demands": [{"id": "a", "paths": ["p"]}, {"id": "b", "paths": ["p"]}],
    }))
    with pytest.raises(ValueError, match="dup.json: duplicate resource id 'e'"):
        load_problem(path)
    code = cli_main(
        ["solve", "--input", str(path), "--allocator", "waterfill",
         "--output", str(tmp_path / "x.json")]
    )
    assert code == 1
    assert "dup.json: duplicate resource id 'e'" in capsys.readouterr().err


def test_solve_alpha_1_fails_with_its_message(worked_example_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main(
        ["solve", "--input", str(worked_example_file), "--allocator", "swan",
         "--alpha", "1", "--output", str(out)]
    )
    assert code == 1
    assert not out.exists()
    assert "alpha must be > 1" in capsys.readouterr().err


def test_gen_then_solve_round_trip(tmp_path):
    prob_file = tmp_path / "gen.json"
    code = cli_main(
        ["gen", "--nodes", "5", "--edges", "6", "--traffic", "uniform",
         "--scale", "3", "--paths", "2", "--seed", "4", "--output", str(prob_file)]
    )
    assert code == 0
    out = tmp_path / "report.json"
    code = cli_main(
        ["solve", "--input", str(prob_file), "--allocator", "adaptive-waterfill",
         "--iterations", "5", "--output", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["iterations"] <= 5


def test_gen_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--nodes", "5", "--edges", "6", "--traffic", "gravity",
            "--scale", "2", "--seed", "7"]
    assert cli_main(args + ["--output", str(a)]) == 0
    assert cli_main(args + ["--output", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_bench_three_scenarios_to_csv(worked_example_file, tmp_path):
    scen = tmp_path / "scenarios.json"
    scen.write_text(json.dumps({
        "scenarios": [
            {"label": "exact", "problem": "worked.json", "allocator": "exact"},
            {"label": "gb", "problem": "worked.json", "allocator": "gb",
             "config": {"alpha": 2.0}},
            {"label": "aw", "problem": "worked.json",
             "allocator": "adaptive-waterfill", "config": {"iterations": 8}},
        ]
    }))
    out = tmp_path / "bench.csv"
    code = cli_main(["bench", "--scenarios", str(scen), "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("scenario,allocator,fairness_geomean")


def test_bench_exits_1_and_lists_the_rows_that_failed(worked_example_file, tmp_path, capsys):
    # waterfill takes single-path problems only; the worked example has a
    # two-path demand, so that row fails and the other one runs
    scen = tmp_path / "scenarios.json"
    scen.write_text(json.dumps({
        "scenarios": [
            {"label": "ok", "problem": "worked.json", "allocator": "exact"},
            {"label": "bad", "problem": "worked.json", "allocator": "waterfill"},
        ]
    }))
    out = tmp_path / "bench.csv"
    assert cli_main(["bench", "--scenarios", str(scen), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert "2 rows (1 errors)" in captured.out
    assert captured.err.startswith("  bad/waterfill: ")
    assert len(out.read_text().strip().splitlines()) == 3


@pytest.mark.parametrize(
    "spec, after_path",
    [
        ({"runs": []}, ": missing field 'scenarios'"),
        ({"scenarios": [{"allocator": "exact"}]}, " scenario 0: missing field 'problem'"),
        (
            {"scenarios": [{"problem": "worked.json", "allocator": "exact"}, {"problem": "worked.json"}]},
            " scenario 1: missing field 'allocator'",
        ),
        ("{broken", ": invalid JSON at line 1: Expecting property name enclosed in double quotes"),
        ([{"scenarios": []}], ": expected an object, got list"),
        ({"scenarios": 5}, ": 'scenarios' must be a list, got int"),
        ({"scenarios": [5]}, " scenario 0: expected an object, got int"),
    ],
    ids=["scenarios", "problem", "allocator", "json", "top-level", "scenarios-list", "entry"],
)
def test_bench_names_the_file_and_the_missing_field(
    worked_example_file, tmp_path, capsys, spec, after_path
):
    scen = tmp_path / "scenarios.json"
    scen.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    out = tmp_path / "bench.csv"
    assert cli_main(["bench", "--scenarios", str(scen), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {scen}{after_path}\n"
    assert not out.exists()


def test_partition_writes_k_files(worked_example_file, tmp_path):
    outdir = tmp_path / "parts"
    code = cli_main(
        ["partition", "--input", str(worked_example_file), "--k", "3",
         "--seed", "1", "--output-dir", str(outdir)]
    )
    assert code == 0
    assert sorted(p.name for p in outdir.glob("*.json")) == [
        "part_0.json", "part_1.json", "part_2.json",
    ]


def test_missing_subcommand_is_usage_error():
    assert cli_main([]) == 2

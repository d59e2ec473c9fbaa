"""Every name a demo imports from fairalloc must exist (a cheap guard
against API removals that would break the demos, without running them).
The adaptive-waterfilling demo also runs: it is the only demo that reads the
theta trace, whose format a name check cannot see."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fairalloc":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert not missing, missing


def test_demos_found():
    assert len(DEMOS) >= 6


def test_adaptive_waterfilling_demo_runs():
    # The only demo that reads theta_trace and theta_trace_csv, so it runs.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "04_adaptive_waterfilling.py")],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    csv = out[out.index("iteration,demand,path,theta,rate") :].strip().splitlines()
    assert len(csv) == 1 + 6 * 3  # six iterations, three subdemands
    for line in csv[1:]:
        iteration, _, _, theta, rate = line.split(",")
        int(iteration), float(theta), float(rate)
    assert "converged: True" in out

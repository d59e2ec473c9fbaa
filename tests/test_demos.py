"""Every demo runs to completion as its own process, so an API change that
breaks one (a removed name, a dropped report note) fails here.  The
adaptive-waterfilling demo's output is also checked: it is the only demo
that prints the theta trace."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_demo(demo: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    assert _run_demo(demo).strip()


def test_demos_found():
    assert len(DEMOS) >= 6


def test_adaptive_waterfilling_demo_runs():
    # The only demo that reads theta_trace and theta_trace_csv.
    out = _run_demo(ROOT / "demos" / "04_adaptive_waterfilling.py")
    csv = out[out.index("iteration,demand,path,theta,rate") :].strip().splitlines()
    assert len(csv) == 1 + 6 * 3  # six iterations, three subdemands
    for line in csv[1:]:
        iteration, _, _, theta, rate = line.split(",")
        int(iteration), float(theta), float(rate)
    assert "converged: True" in out

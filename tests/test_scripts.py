"""Smoke runs of the experiment scripts."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_integrator_convergence_is_second_order():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "integrator_convergence.py"),
         "--T", "2", "--levels", "3"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    assert len(rows) == 3
    ratios = [float(row[2]) for row in rows[1:]]
    # the history integrator is second order: halving dt quarters the error
    assert all(3.8 <= r <= 4.2 for r in ratios), out

"""The repository's pytest settings, run on a probe suite in a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_not_internal_error(tmp_path):
    # every warning is an error, but the report of a falsified @given imports
    # libcst, which warns at import; the session must report the failure, show
    # the falsifying example and run on to the next test, not stop with an
    # INTERNALERROR (exit 3)
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_probe.py").write_text(PROBE)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_probe.py"], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out and "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out

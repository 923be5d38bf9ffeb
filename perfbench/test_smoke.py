"""Smoke test of the benchmark at tiny sizes (about a minute):

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_and_passes_every_check(workload):
    jobs = workloads.make_jobs(workload, seed=0, tiny=True)
    result = run.run_workload(workload, seed=0, seconds=0, trace=1, jobs=jobs)
    assert result["correct"] and result["failed"] == 0, result["problems"] or result["failures"]
    assert result["problems"] == {}
    assert result["missing"] == []
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        metrics = run.contract_line(result, trace)["metrics"]
        assert list(metrics) == [m["name"] for m in workloads.BENCHMARK[table]]
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    for name in ("job_s_tail", "failed_ratio", "wrong_ratio"):
        assert name in result["end_to_end"]
    import dispersia
    assert not hasattr(dispersia.dispersion.laplace, "__wrapped__"), "tracer left a binding"


@pytest.mark.parametrize("family, correct", [("sum", False), ("lorentz6", True)])
def test_mislabelled_medium_raises_wrong_ratio(family, correct):
    """A wrong verdict makes the run incorrect, except on the known-hard families."""
    jobs = workloads.make_jobs("verdict_sweep", seed=0, tiny=True)
    job = next(j for j in jobs if j.medium.passive)
    job.medium = dataclasses.replace(job.medium, family=family, m=job.medium.m + 2)
    result = run.run_workload("verdict_sweep", seed=0, seconds=0, trace=0, jobs=jobs)
    assert result["correct"] is correct
    assert result["end_to_end"]["wrong_ratio"]["value"] == 1 / len(jobs)
    kind = "known_hard_verdict" if correct else "verdict"
    assert [p["kind"] for p in result["problems"][job.name]] == [kind]


def _perturb_reference(monkeypatch):
    cavity = checks.cavity
    monkeypatch.setattr(checks, "cavity", lambda n: [(k, 1.01 * a) for k, a in cavity(n)])


def _report_zero_abscissa(monkeypatch):
    modal = run.import_package().modal
    abscissa = modal.spectral_abscissa
    monkeypatch.setattr(modal, "spectral_abscissa", lambda s: (0.0, abscissa(s)[1]))


@pytest.mark.parametrize("workload, sabotage", [("decay_chain", _perturb_reference),
                                                ("verdict_sweep", _report_zero_abscissa)])
def test_wrong_values_make_run_incorrect(monkeypatch, workload, sabotage):
    sabotage(monkeypatch)
    jobs = workloads.make_jobs(workload, seed=0, tiny=True)
    result = run.run_workload(workload, seed=0, seconds=0, trace=0, jobs=jobs)
    assert not result["correct"]
    assert result["end_to_end"]["wrong_ratio"]["value"] == 1.0


def test_refuses_to_run_without_package_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit):
        run.import_package()

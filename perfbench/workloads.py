"""Seeded job lists for the three workloads, and the timed body of one job.

A job drives the real CLI in-process through ``dispersia.cli.main(argv)`` on
config files written before timing starts.  The history integrator has no
CLI command, so ``sampled_history`` calls ``modal.step_history`` directly.

Every parameter that sets how much work a job does (mode count, step count,
output stride, term count and kinds, damping rates, k-grid size) comes from a
fixed design with seeded jitter or stratified draws, so different seeds give
job lists of nearly equal cost, while the media, the sizes within their
strata and the job order still come from the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from media import KNOWN_HARD_FAMILIES, Medium, Term, negative_high_frequency, passive_sum

# BENCHMARK.json at the repository root is the one list of workloads and metrics.
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])

DT = 0.02


@dataclass
class Job:
    name: str
    workload: str
    medium: Optional[Medium]
    params: dict = field(default_factory=dict)


def _strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """One draw from each of n equal strata of [lo, hi], returned in stratum order."""
    return lo + (np.arange(n) + rng.random(n)) * (hi - lo) / n


KINDS = ("debye", "lorentz", "drude")


def _random_terms(rng, n: int, slowest: float) -> list[Term]:
    """n terms of kinds in fixed proportion.  The slowest decay rate |Re z| is
    ``slowest`` (jittered 3 %), the others are stratified over [slowest, 4 slowest]:
    the class-K certificate's cost grows as that rate shrinks, so it is part of
    the design rather than left to chance."""
    offset = int(rng.integers(3))
    kinds = [KINDS[(i + offset) % 3] for i in rng.permutation(n)]
    rates = np.concatenate(([slowest * rng.uniform(0.97, 1.03)],
                            _strata(rng, n - 1, slowest, min(3.0, 4.0 * slowest))))
    freqs = rng.permutation(_strata(rng, n, 0.5, 3.0))
    terms = []
    for kind, rate, freq in zip(kinds, rates, freqs):
        beta = float(rng.uniform(0.2, 2.0))
        if kind == "lorentz":  # e^{-nu t / 2}
            terms.append(Term(kind, beta, 2.0 * float(rate), float(freq)))
        else:
            terms.append(Term(kind, beta, float(rate)))
    return [terms[i] for i in rng.permutation(n)]


# ---------------------------------------------------------------------------
# decay_chain: analyze -> simulate -> fit on a cavity

# (n_max, T, output_stride, terms, slowest rate) per job, from small to large.
# The seed jitters n_max and T by up to 5 %, so the mode-step count per pass
# (about 1.8 M) hardly depends on the seed; strides cover {1, 5, 10, 20}, a
# 20x range of trace rows.  An odd job count puts the median job inside one
# job's latencies rather than in the gap between two.
DC_DESIGN = ((12, 100, 1, 1, 0.5), (20, 80, 5, 2, 0.8), (30, 30, 20, 3, 0.4),
             (45, 60, 10, 1, 1.0), (65, 20, 1, 2, 0.6), (80, 40, 10, 2, 0.7),
             (90, 40, 5, 3, 0.5), (120, 25, 10, 1, 0.7), (150, 50, 20, 2, 0.4),
             (180, 20, 5, 3, 0.9), (200, 35, 10, 2, 0.6))
DC_TINY = ((3, 10, 1, 1, 0.8), (5, 12, 20, 2, 0.6))


def decay_chain_jobs(rng, tiny: bool = False) -> list[Job]:
    jobs = []
    for n_max, t_end, stride, n_terms, slowest in DC_TINY if tiny else DC_DESIGN:
        terms = _random_terms(rng, n_terms, slowest)
        medium = passive_sum("chain", terms, eps=float(rng.uniform(1.0, 2.0)),
                             mu=float(rng.uniform(1.0, 1.5)))
        n_max = min(200, int(round(n_max * rng.uniform(0.95, 1.05))))
        steps = 20 * int(round(t_end * rng.uniform(0.95, 1.05) / (20 * DT)))
        t_end = round(steps * DT, 9)
        jobs.append(Job("", "decay_chain", medium,
                        {"n_max": n_max, "T": t_end, "dt": DT, "stride": stride,
                         "window": (t_end / 5.0, t_end)}))
    return _named(rng, jobs, "dc")


# ---------------------------------------------------------------------------
# verdict_sweep: analyze -> spectrum over a k grid

# (terms, slowest rate) of the positive-weight sums and of the positive part
# of the non-passive media.  Term counts are dense in the middle, so that the
# median job does not jump between widely spaced costs.
SUM_DESIGN = ((1, 0.6), (2, 0.5), (2, 0.7), (3, 0.6), (3, 0.8), (4, 0.5),
              (4, 0.7), (5, 0.6), (6, 0.8), (7, 0.5), (8, 0.7), (10, 0.6))
NEGATIVE_DESIGN = ((1, 0.6), (2, 0.7), (2, 0.5), (3, 0.6))
N_SPLIT_SUMS = 4  # sums whose terms are shared between nu_e and nu_h
K_NUM = 32


def _known_hard_media(rng) -> list[Medium]:
    """Passive sums the floating-point passivity path is known to misjudge:
    six slowly damped Lorentz terms, and Debye sums of 6 to 10 terms with
    rates 10^(j/3)."""
    lorentz6, debye6, debye_many = KNOWN_HARD_FAMILIES
    w = rng.uniform(0.5, 2.0, 6)
    terms = [Term("lorentz", float(w[j - 1]), 0.1 * j, 3.0 * j) for j in range(1, 7)]
    many = int(rng.integers(7, 11))
    out = [passive_sum(lorentz6, terms)]
    for family, n in ((debye6, 6), (debye_many, many)):
        w = rng.uniform(0.5, 2.0, n)
        out.append(passive_sum(family, [Term("debye", float(w[j]), 10 ** (j / 3))
                                        for j in range(n)]))
    return out


def _negative_medium(rng, n: int, slowest: float) -> Medium:
    terms = _random_terms(rng, n, slowest)
    limit = sum(t.value_at_zero for t in terms)
    bad = Term("debye", -(limit + float(rng.uniform(0.2, 1.0))),
               float(rng.uniform(slowest, min(3.0, 4.0 * slowest))))
    order = list(terms) + [bad]
    rng.shuffle(order)
    return negative_high_frequency("negative_hf", order)


def verdict_sweep_jobs(rng, tiny: bool = False) -> list[Job]:
    media = []
    for j, i in enumerate(rng.permutation(2 if tiny else len(SUM_DESIGN))):
        n, slowest = ((1, 0.8), (3, 0.6))[i] if tiny else SUM_DESIGN[i]
        terms = _random_terms(rng, n, slowest)
        cut = n // 2 if j < N_SPLIT_SUMS else 0
        media.append(passive_sum("sum", terms[cut:], terms[:cut]))
    if not tiny:
        media += _known_hard_media(rng)
    negative = ((2, 0.6),) if tiny else NEGATIVE_DESIGN
    media += [_negative_medium(rng, n, slowest) for n, slowest in negative]
    jobs = []
    for medium in media:
        k_min, k_max = float(rng.uniform(0.5, 2.0)), float(rng.uniform(20.0, 100.0))
        jobs.append(Job("", "verdict_sweep", medium,
                        {"k_min": k_min, "k_max": k_max, "num": 4 if tiny else K_NUM}))
    return _named(rng, jobs, "vs")


# ---------------------------------------------------------------------------
# sampled_history: analyze (quadrature Laplace) -> simulate (exit 4) -> history

def gaussian_second_derivative_bound(delta: float) -> float:
    """max_t |(4 t^2 - 2) e^{-t^2}| e^{delta t}, on a fine grid."""
    t = np.linspace(0.0, 12.0, 240_001)
    return float(np.max(np.abs((4 * t**2 - 2) * np.exp(-t**2)) * np.exp(delta * t)))


def sampled_history_jobs(rng, tiny: bool = False) -> list[Job]:
    delta = float(rng.uniform(0.95, 1.05))  # the quadrature horizon is 60/delta
    C = gaussian_second_derivative_bound(delta) * float(rng.uniform(1.05, 1.5))
    params = {"C": C, "delta": delta, "dt": DT,
              "ks": [float(k) for k in _strata(rng, 1 if tiny else 3, 0.5, 8.0)],
              "steps": 50 if tiny else 3000,
              "omegas": [float(w) for w in _strata(rng, 3, 0.5, 10.0)],
              "debye": Term("debye", float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))}
    return _named(rng, [Job("", "sampled_history", None, params)], "sh")


def _named(rng, jobs: list[Job], prefix: str) -> list[Job]:
    jobs = [jobs[i] for i in rng.permutation(len(jobs))]
    for i, job in enumerate(jobs):
        family = job.medium.family if job.medium else "gaussian"
        job.name = f"{prefix}{i:02d}-{family}"
    return jobs


def make_jobs(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    maker = {"decay_chain": decay_chain_jobs, "verdict_sweep": verdict_sweep_jobs,
             "sampled_history": sampled_history_jobs}[workload]
    return maker(rng, tiny)


# ---------------------------------------------------------------------------
# job files and the timed body

def write_inputs(job: Job, d: Path) -> None:
    d.mkdir(parents=True, exist_ok=True)
    p = job.params
    if job.workload == "sampled_history":
        gauss = {"type": "sampled_builtin", "name": "gaussian", "C": p["C"], "delta": p["delta"]}
        medium = {"eps": 1.0, "mu": 1.0, "nu_e": gauss, "nu_h": {"type": "exp_poly", "terms": []}}
        run = {"medium": medium, "cavity": {"length": 1.0, "n_max": 10}, "dt": p["dt"], "T": 10.0}
    else:
        medium = job.medium.doc()
        if job.workload == "decay_chain":
            run = {"medium": medium, "cavity": {"length": 1.0, "n_max": p["n_max"]},
                   "dt": p["dt"], "T": p["T"], "output_stride": p["stride"]}
        else:
            run = {"medium": medium,
                   "k_range": {"k_min": p["k_min"], "k_max": p["k_max"], "num": p["num"]}}
    (d / "analyze.json").write_text(json.dumps({"medium": medium}))
    (d / "run.json").write_text(json.dumps(run))


OUTPUTS = ("report.json", "trace.csv", "fit.json", "spectrum.csv")


def run_job(job: Job, d: Path, dispersia) -> dict:
    """The timed body of one job.  Returns exit codes and in-memory results."""
    cli, modal = dispersia.cli, dispersia.modal
    f = lambda name: str(d / name)  # noqa: E731
    codes = {"analyze": cli.main(["analyze", "--config", f("analyze.json"),
                                  "--out", f("report.json")])}
    if job.workload == "verdict_sweep":
        codes["spectrum"] = cli.main(["spectrum", "--config", f("run.json"),
                                      "--out", f("spectrum.csv")])
        return {"codes": codes}
    codes["simulate"] = cli.main(["simulate", "--config", f("run.json"),
                                  "--out", f("trace.csv"), "--threads", "1"])
    if job.workload == "decay_chain":
        a, b = job.params["window"]
        codes["fit"] = cli.main(["fit", f("trace.csv"), "--window", f"{a!r},{b!r}",
                                 "--out", f("fit.json")])
        return {"codes": codes}
    p = job.params
    kernel = dispersia.SampledKernel(dispersia.GAUSSIAN.evaluator, C=p["C"],
                                     delta=p["delta"], name="gaussian")
    medium = dispersia.MediumSpec(1.0, 1.0, kernel, dispersia.ExpPolyKernel.zero())
    histories = []
    for k in p["ks"]:
        state = modal.initial_history(p["dt"], s_max=p["steps"] * p["dt"])
        for _ in range(p["steps"]):
            state = modal.step_history(medium, k, state, p["dt"])
        histories.append(np.stack([state.e_past.view(), state.h_past.view()]))
    return {"codes": codes, "histories": histories}


EXPECTED_CODES = {
    "decay_chain": {"analyze": {0, 3}, "simulate": {0}, "fit": {0, 5}},
    "verdict_sweep": {"analyze": {0, 3}, "spectrum": {0}},
    "sampled_history": {"analyze": {0, 3}, "simulate": {4}},
}


def unexpected_codes(job: Job, outcome: dict) -> list[str]:
    """Exit codes outside the command's normal outcomes for this input kind."""
    return [f"{cmd} exited {code}" for cmd, code in outcome["codes"].items()
            if code not in EXPECTED_CODES[job.workload][cmd]]


def mode_steps(job: Job) -> int:
    p = job.params
    return p["n_max"] * int(round(p["T"] / p["dt"])) if job.workload == "decay_chain" else 0


def trace_rows(job: Job) -> int:
    p = job.params
    if job.workload != "decay_chain":
        return 0
    return int(round(p["T"] / p["dt"])) // p["stride"] + 1


def history_steps(job: Job) -> int:
    p = job.params
    return len(p["ks"]) * p["steps"] if job.workload == "sampled_history" else 0


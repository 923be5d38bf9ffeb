"""Output checks that do not trust the code under test.

References are built here from the model equations and the construction
labels: the per-mode system is realized with one complex state per exponential
of nu' (modal.py uses real companion blocks), propagated with scipy's expm; the
Gaussian Laplace transform comes from the erfi closed form.  Checks run after
the timed passes.

Every problem has a kind ("verdict", "reference", "contract", "determinism"),
and every problem makes the run incorrect except a "known_hard_verdict": an
analyze verdict that differs from the label on one of the media built on
purpose in shapes the package's floating-point passivity path is known to
misjudge (media.KNOWN_HARD_FAMILIES).  Those count in wrong_ratio only.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm
from scipy.special import erfi

from media import KNOWN_HARD_FAMILIES, Medium, Term

ENERGY_RTOL = 1e-8       # trace vs reference energy, relative
ENERGY_BOUND_TOL = 1e-9  # E(t) <= E(0) (1 + tol), exact propagator
HISTORY_BOUND_TOL = 1e-6 # same bound for the quadrature integrator
LAPLACE_TOL = 1e-6       # quadrature Laplace vs closed form, absolute
HISTORY_RTOL = 1e-3      # second-order history scheme vs expm at dt = 0.002
ABSCISSA_TOL = 1e-8      # abscissa <= tol for passive media
EIG_RTOL = 1e-9          # abscissa vs reference eigenvalues, relative to max |eigenvalue|


@dataclass(frozen=True)
class Problem:
    kind: str
    what: str

    @property
    def gates(self) -> bool:
        """Whether this problem makes the run incorrect."""
        return self.kind != "known_hard_verdict"


def _p(kind, what):
    return [Problem(kind, what)]


def _mode_matrices(medium: Medium, ks) -> np.ndarray:
    """Stacked complex mode matrices for state (E, H, y_1..y_n), y_j' = z_j y_j + a_j field."""
    exps_e = [ae for t in medium.nu_e for ae in t.derivative_exponentials()]
    exps_h = [ah for t in medium.nu_h for ah in t.derivative_exponentials()]
    dim = 2 + len(exps_e) + len(exps_h)
    M = np.zeros((len(ks), dim, dim), dtype=complex)
    eps, mu = medium.eps, medium.mu
    M[:, 0, 0] = -sum(t.value_at_zero for t in medium.nu_e) / eps
    M[:, 1, 1] = -sum(t.value_at_zero for t in medium.nu_h) / mu
    M[:, 0, 1] = np.asarray(ks) / eps
    M[:, 1, 0] = -np.asarray(ks) / mu
    for slot, (exps, field, coef) in enumerate(((exps_e, 0, eps), (exps_h, 1, mu))):
        base = 2 + (len(exps_e) if slot else 0)
        for j, (a, z) in enumerate(exps):
            M[:, base + j, base + j] = z
            M[:, base + j, field] = a
            M[:, field, base + j] = -1.0 / coef
    return M


def reference_energy(medium: Medium, modes, t: float) -> float:
    """Sum over modes of (eps E^2 + mu H^2)/2 at time t, from expm(M t) x0."""
    ks = [k for k, _ in modes]
    M = _mode_matrices(medium, ks)
    x0 = np.zeros(M.shape[:2], dtype=complex)
    x0[:, 0] = [a for _, a in modes]
    x = np.einsum("nij,nj->ni", expm(M * t), x0)
    return float(np.sum(0.5 * (medium.eps * x[:, 0].real ** 2 + medium.mu * x[:, 1].real ** 2)))


def cavity(n_max: int):
    """The documented reference cavity: k_n = n pi / L, L = 1, amplitudes n^-1.5."""
    return [(n * math.pi, float(n) ** -1.5) for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# per-command checks

def check_analyze(d: Path, code: int, passive, strict, m, certified,
                  known_hard=False) -> list[Problem]:
    path = d / "report.json"
    if not path.is_file():
        return _p("contract", "analyze wrote no report")
    report = json.loads(path.read_text())
    out = []
    if code != (0 if report.get("passive") else 3):
        out += _p("contract", f"analyze exit {code} disagrees with passive={report.get('passive')}")
    if report.get("certified") is not certified:
        out += _p("contract", f"certified={report.get('certified')}, expected {certified}")
    got = (report.get("passive"), report.get("strictly_passive"), report.get("m"))
    want = (passive, strict if passive else False, m if passive else None)
    if got != want or code != (0 if passive else 3):
        kind = "known_hard_verdict" if known_hard else "verdict"
        out += _p(kind, f"analyze (passive, strict, m) = {got}, exit {code}; "
                        f"construction says {want}, exit {0 if passive else 3}")
    return out


def check_trace(d: Path, medium: Medium, p: dict) -> list[Problem]:
    path = d / "trace.csv"
    if not path.is_file():
        return _p("contract", "simulate wrote no trace")
    with path.open() as f:
        rows = list(csv.reader(f))
    if rows[0] != ["t", "energy", "history_norm"]:
        return _p("contract", f"bad trace header {rows[0]}")
    data = np.array([[float(x) for x in r] for r in rows[1:]])
    n_steps = int(round(p["T"] / p["dt"]))
    times = np.arange(0, n_steps + 1, p["stride"]) * p["dt"]
    if data.shape != (times.size, 3) or not np.allclose(data[:, 0], times, rtol=1e-12, atol=0):
        return _p("contract", f"trace has {data.shape[0]} rows or wrong times; expected {times.size}")
    energy = data[:, 1]
    out = []
    excess = float(np.max(energy / energy[0]) - 1.0)
    if not np.all(np.isfinite(energy)) or excess > ENERGY_BOUND_TOL:
        out += _p("reference", f"energy bound violated: max E(t)/E(0) - 1 = {excess:.3g}")
    modes = cavity(p["n_max"])
    for row in sorted({1, times.size // 2, times.size - 1}):
        ref = reference_energy(medium, modes, float(times[row]))
        rel = abs(energy[row] - ref) / abs(ref)
        if not rel <= ENERGY_RTOL:
            out += _p("reference", f"energy at t={times[row]:.6g} is {energy[row]:.17g}, "
                                   f"expm reference {ref:.17g} (rel {rel:.2e})")
    return out


def check_fit(d: Path, code: int) -> list[Problem]:
    path = d / "fit.json"
    if not path.is_file():
        return _p("contract", "fit wrote no report")
    kind = json.loads(path.read_text()).get("kind")
    if kind not in ("exponential", "polynomial", "inconclusive"):
        return _p("contract", f"fit kind {kind!r}")
    if code != (5 if kind == "inconclusive" else 0):
        return _p("contract", f"fit exit {code} disagrees with kind {kind}")
    return []


def fit_kind(d: Path):
    path = d / "fit.json"
    return json.loads(path.read_text()).get("kind") if path.is_file() else None


def check_spectrum(d: Path, medium: Medium, p: dict) -> list[Problem]:
    path = d / "spectrum.csv"
    if not path.is_file():
        return _p("contract", "spectrum wrote no table")
    with path.open() as f:
        rows = list(csv.reader(f))
    ks = np.linspace(p["k_min"], p["k_max"], p["num"])
    if rows[0] != ["k", "abscissa", "n_eigs"] or len(rows) != ks.size + 1:
        return _p("contract", f"spectrum table header {rows[0]} with {len(rows) - 1} rows")
    eigs = np.linalg.eigvals(_mode_matrices(medium, ks))
    out = []
    for (k, absc, n_eigs), want_k, ev in zip(rows[1:], ks, eigs):
        if abs(float(k) - want_k) > 1e-12 * want_k:
            out += _p("contract", f"spectrum k {k} != {want_k!r}")
        if int(n_eigs) != medium.mode_dim:
            out += _p("reference", f"n_eigs {n_eigs} at k={k}, mode dimension {medium.mode_dim}")
        ref = float(np.max(ev.real))
        if not abs(float(absc) - ref) <= EIG_RTOL * float(np.max(np.abs(ev))):
            out += _p("reference", f"abscissa {absc} at k={k}, reference eigenvalues give {ref!r}")
        if medium.passive and not float(absc) <= ABSCISSA_TOL:
            out += _p("reference", f"abscissa {absc} > 0 at k={k} for a passive medium")
    return out


def gaussian_laplace(w: float) -> complex:
    """L nu(i w) for nu = e^{-t^2}: (sqrt(pi)/2) e^{-w^2/4} (1 - i erfi(w/2))."""
    return 0.5 * math.sqrt(math.pi) * math.exp(-w * w / 4.0) * complex(1.0, -erfi(w / 2.0))


def check_gaussian_laplace(dispersia, p: dict) -> list[Problem]:
    kernel = dispersia.SampledKernel(dispersia.GAUSSIAN.evaluator, C=p["C"],
                                     delta=p["delta"], name="gaussian")
    out = []
    for w in p["omegas"]:
        got = dispersia.kernels.laplace(kernel, 1j * w)
        gap = abs(got - gaussian_laplace(w))
        if not gap <= LAPLACE_TOL:
            out += _p("reference", f"Gaussian laplace(i {w:.4g}) off the erfi form by {gap:.2e}")
    return out


def check_history_energy(histories) -> list[Problem]:
    out = []
    for h in histories:
        energy = 0.5 * (h[0] ** 2 + h[1] ** 2)
        excess = float(np.max(energy / energy[0]) - 1.0)
        if not np.all(np.isfinite(energy)) or excess > HISTORY_BOUND_TOL:
            out += _p("reference", f"history energy bound violated by {excess:.3g}")
    return out


def check_debye_history(dispersia, term: Term, k: float) -> list[Problem]:
    """The history integrator on a Debye medium against expm of the exact closure."""
    dt, steps = 0.002, 1000
    kernel = dispersia.ExpPolyKernel((dispersia.DampedTerm((term.beta,), (0.0,), -term.rate, 0.0),))
    package_medium = dispersia.MediumSpec(1.0, 1.0, kernel, dispersia.ExpPolyKernel.zero())
    state = dispersia.initial_history(dt, s_max=steps * dt)
    for _ in range(steps):
        state = dispersia.modal.step_history(package_medium, k, state, dt)
    medium = Medium("debye", (term,))
    x0 = np.zeros(medium.mode_dim, dtype=complex)
    x0[0] = 1.0
    ref = (expm(_mode_matrices(medium, [k])[0] * (steps * dt)) @ x0)[:2].real
    err = math.hypot(state.e - ref[0], state.h - ref[1]) / math.hypot(*ref)
    if not err <= HISTORY_RTOL:
        return _p("reference", f"Debye history run off expm by {err:.2e} (k={k:.4g})")
    return []


# ---------------------------------------------------------------------------

def check_job(job, d: Path, outcome: dict, dispersia) -> list[Problem]:
    """All checks of one completed job, from its files in d and its in-memory results."""
    codes, p = outcome["codes"], job.params
    if job.workload == "sampled_history":
        out = check_analyze(d, codes["analyze"], True, True, 0, certified=False)
        if (d / "trace.csv").exists():
            out += _p("contract", "simulate wrote a trace for a sampled kernel")
        out += check_gaussian_laplace(dispersia, p)
        out += check_history_energy(outcome["histories"])
        return out + check_debye_history(dispersia, p["debye"], p["ks"][0])
    m = job.medium
    out = check_analyze(d, codes["analyze"], m.passive, m.strictly_passive, m.m, certified=True,
                        known_hard=m.family in KNOWN_HARD_FAMILIES)
    if job.workload == "verdict_sweep":
        return out + check_spectrum(d, m, p)
    return out + check_trace(d, m, p) + check_fit(d, codes["fit"])


"""Frequency-axis analysis: rational form of i w L nu(i w) and passivity checks.

For exponential-polynomial kernels every decision is made on exact polynomial
data: nonnegativity on the real axis is decided from companion-matrix roots
with sign evaluation between them, never from grid sampling alone.  Sampled
kernels get a dense-grid check labelled as such.  On the imaginary axis
Re(i w L nu(i w)) = nu(0) - (1/w) int_0^inf sin(w s) nu''(s) ds, so each
sampled frequency costs one sine quadrature (``kernels.sampled_iw_real_part``).

Each call computes what it needs of a kernel once, either the omega_form or
the sampled real part on the 600-point grid (plus the 25-point tail grid of
the exponent fit), and shares it between the passivity, strict-passivity and
exponent steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .kernels import (
    ExpPolyKernel,
    Kernel,
    KernelError,
    SampledKernel,
    _trim,
    lambda_laplace_rational,
    laplace,  # not used here; kept importable as dispersion.laplace
    sampled_iw_real_part,
)


class PassivityError(KernelError):
    """Raised when a decay exponent is requested but does not exist."""


@dataclass(frozen=True)
class OmegaRational:
    """i w L nu(i w) = Pr(w)/Qr(w) + i Pi(w)/Qi(w) with real coefficients."""

    pr: tuple[float, ...]
    qr: tuple[float, ...]
    pi: tuple[float, ...]
    qi: tuple[float, ...]

    def real_part(self, w):
        return npoly.polyval(w, self.pr) / npoly.polyval(w, self.qr)

    def imag_part(self, w):
        return npoly.polyval(w, self.pi) / npoly.polyval(w, self.qi)

    def __call__(self, w):
        return self.real_part(w) + 1j * self.imag_part(w)

    @property
    def is_zero(self) -> bool:
        return not any(self.pr) and not any(self.pi)


_ZERO_FORM = OmegaRational((0.0,), (1.0,), (0.0,), (1.0,))


@dataclass(frozen=True)
class PassivityReport:
    passive: bool
    strictly_passive: Optional[bool] = None
    m: Optional[int] = None
    sigma_E: float = 0.0
    sigma_H: float = 0.0
    omega0: float = 0.0
    witnesses: tuple[float, ...] = ()
    certified: bool = True


def _poly_iw_split(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of A(i w) as real polynomials in w."""
    c = np.asarray(coeffs, dtype=float)
    re = np.zeros_like(c)
    im = np.zeros_like(c)
    for k, a in enumerate(c):
        r = k % 4
        if r == 0:
            re[k] = a
        elif r == 1:
            im[k] = a
        elif r == 2:
            re[k] = -a
        else:
            im[k] = -a
    return _trim(re), _trim(im)


def omega_form(kernel: ExpPolyKernel) -> OmegaRational:
    """Exact rational decomposition of w -> i w L nu(i w).

    The zero kernel maps to 0/1 + i 0/1.
    """
    if not isinstance(kernel, ExpPolyKernel):
        raise KernelError("omega_form needs an exponential-polynomial kernel")
    if kernel.is_zero:
        return _ZERO_FORM
    num, den = lambda_laplace_rational(kernel)
    ar, ai = _poly_iw_split(num)
    br, bi = _poly_iw_split(den)
    pr = npoly.polyadd(npoly.polymul(ar, br), npoly.polymul(ai, bi))
    pi = npoly.polysub(npoly.polymul(ai, br), npoly.polymul(ar, bi))
    q = npoly.polyadd(npoly.polymul(br, br), npoly.polymul(bi, bi))
    pr = _trim(pr, 1e-10)
    pi = _trim(pi, 1e-10)
    q = _trim(q, 1e-10)
    pr, pi, q = _cancel_common(pr, pi, q)
    lead = q[-1]
    pr = pr / lead
    pi = pi / lead
    q = q / lead
    return OmegaRational(tuple(pr), tuple(q), tuple(pi), tuple(q))


def _cancel_common(pr: np.ndarray, pi: np.ndarray, q: np.ndarray):
    """Deflate factors of q shared (as roots) by both numerators."""
    if q.size <= 1:
        return pr, pi, q
    roots = np.roots(q[::-1])
    changed = True
    while changed and q.size > 1:
        changed = False
        for r in roots:
            if q.size <= 1:
                break
            sq = npoly.polyval(r, np.abs(q)) or 1.0
            spr = npoly.polyval(abs(r), np.abs(pr)) or 1.0
            spi = npoly.polyval(abs(r), np.abs(pi)) or 1.0
            if (
                abs(npoly.polyval(r, q)) < 1e-10 * sq
                and abs(npoly.polyval(r, pr)) < 1e-10 * spr
                and abs(npoly.polyval(r, pi)) < 1e-10 * spi
            ):
                if abs(r.imag) < 1e-12 * (1 + abs(r)):
                    factor = np.array([-r.real, 1.0])
                else:
                    factor = np.array([abs(r) ** 2, -2 * r.real, 1.0])
                q2, rem_q = npoly.polydiv(q, factor)
                pr2, rem_pr = npoly.polydiv(pr, factor)
                pi2, rem_pi = npoly.polydiv(pi, factor)
                if (
                    np.max(np.abs(rem_q)) < 1e-9 * max(1.0, np.max(np.abs(q)))
                    and np.max(np.abs(rem_pr)) < 1e-9 * max(1.0, np.max(np.abs(pr)))
                    and np.max(np.abs(rem_pi)) < 1e-9 * max(1.0, np.max(np.abs(pi)))
                ):
                    q, pr, pi = _trim(q2, 1e-12), _trim(pr2, 1e-12), _trim(pi2, 1e-12)
                    roots = np.roots(q[::-1]) if q.size > 1 else np.array([])
                    changed = True
                    break
    return pr, pi, q


def _real_roots(coeffs: np.ndarray) -> np.ndarray:
    c = _trim(coeffs, 1e-12)
    if c.size <= 1:
        return np.array([])
    roots = np.roots(c[::-1])
    real = roots[np.abs(roots.imag) < 1e-10 * (1.0 + np.abs(roots))].real
    return np.sort(real)


def _poly_nonneg(coeffs: np.ndarray) -> tuple[bool, Optional[float]]:
    """Is p(w) >= 0 for all real w?  Returns (verdict, witness)."""
    c = _trim(coeffs, 1e-12)
    if c.size == 1:
        return (True, None) if c[0] >= 0 else (False, 0.0)
    scale = np.max(np.abs(c))
    if c[-1] < 0:
        w = 2.0 * _root_radius(c) + 1.0
        return False, w
    reals = _real_roots(c)
    probes = [0.0]
    if reals.size:
        probes.extend(0.5 * (reals[:-1] + reals[1:]))
        probes.append(reals[0] - 1.0)
        probes.append(reals[-1] + 1.0)
    for w in probes:
        val = npoly.polyval(w, c)
        tol = 1e-9 * scale * max(1.0, abs(w)) ** (c.size - 1)
        if val < -tol:
            return False, float(w)
    return True, None


def _poly_positive_off_zero(coeffs: np.ndarray) -> tuple[bool, Optional[float]]:
    """Is p(w) > 0 for all real w != 0?  A root at w = 0 is allowed."""
    c = _trim(coeffs, 1e-12)
    if c.size == 1:
        return (True, None) if c[0] > 0 else (False, 1.0)
    if c[-1] <= 0:
        return False, 2.0 * _root_radius(c) + 1.0
    reals = _real_roots(c)
    radius = _root_radius(c)
    nonzero = reals[np.abs(reals) > 1e-7 * (1.0 + radius)]
    if nonzero.size:
        return False, float(nonzero[np.argmax(np.abs(nonzero))])
    ok, witness = _poly_nonneg(c)
    if not ok:
        return False, witness
    return True, None


def _root_radius(coeffs: np.ndarray) -> float:
    c = _trim(coeffs, 1e-12)
    if c.size <= 1:
        return 0.0
    return float(np.max(np.abs(np.roots(c[::-1]))))


def _sampled_real_part(kernel: SampledKernel, wgrid: np.ndarray) -> np.ndarray:
    return np.array([sampled_iw_real_part(kernel, w) for w in wgrid])


_SAMPLED_GRID = np.geomspace(1e-2, 1e3, 600)


def _kernel_data(nu_e: Kernel, nu_h: Kernel) -> tuple:
    """What the decisions need of each kernel, computed once per call.

    An exponential-polynomial kernel gives its omega_form (the zero kernel the
    constant ``_ZERO_FORM``, without a call); a sampled kernel gives its real
    part on ``_SAMPLED_GRID``.
    """
    data = []
    for kernel in (nu_e, nu_h):
        if isinstance(kernel, ExpPolyKernel):
            data.append(_ZERO_FORM if kernel.is_zero else omega_form(kernel))
        else:
            data.append(_sampled_real_part(kernel, _SAMPLED_GRID))
    return tuple(data)


def _passivity(data: tuple) -> PassivityReport:
    witnesses: list[float] = []
    passive = True
    certified = True
    for item in data:
        if isinstance(item, OmegaRational):
            ok, witness = _poly_nonneg(np.asarray(item.pr))
            if not ok:
                passive = False
                witnesses.append(float(witness))
        else:
            certified = False
            bad = item < -1e-9
            if np.any(bad):
                passive = False
                witnesses.append(float(_SAMPLED_GRID[np.argmax(bad)]))
    return PassivityReport(passive=passive, witnesses=tuple(witnesses), certified=certified)


def check_passivity(nu_e: Kernel, nu_h: Kernel) -> PassivityReport:
    """Re(i w L nu(i w)) >= 0 for every real w, for both kernels."""
    return _passivity(_kernel_data(nu_e, nu_h))


def _combined_numerator(fe: OmegaRational, fh: OmegaRational):
    num = npoly.polyadd(
        npoly.polymul(np.asarray(fe.pr), np.asarray(fh.qr)),
        npoly.polymul(np.asarray(fh.pr), np.asarray(fe.qr)),
    )
    den = npoly.polymul(np.asarray(fe.qr), np.asarray(fh.qr))
    return _trim(num, 1e-10), _trim(den, 1e-10)


def _strict_passivity(data: tuple) -> PassivityReport:
    base = _passivity(data)
    fe, fh = data
    if not (isinstance(fe, OmegaRational) and isinstance(fh, OmegaRational)):
        vals = np.zeros_like(_SAMPLED_GRID)
        for item in data:
            if not isinstance(item, OmegaRational):
                vals += item
            elif item is not _ZERO_FORM:
                vals += item.real_part(_SAMPLED_GRID)
        strict = bool(np.all(vals > 0.0))
        witness = () if strict else (float(_SAMPLED_GRID[np.argmin(vals)]),)
        return replace(base, strictly_passive=strict and base.passive,
                       witnesses=base.witnesses + witness, certified=False)
    num, _ = _combined_numerator(fe, fh)
    ok, witness = _poly_positive_off_zero(num)
    strict = bool(ok and base.passive)
    extra = () if ok else (float(witness),)
    return replace(base, strictly_passive=strict, witnesses=base.witnesses + extra)


def check_strict_passivity(nu_e: Kernel, nu_h: Kernel) -> PassivityReport:
    """R(w) = Re(i w L nu_E) + Re(i w L nu_H) > 0 for all w != 0."""
    return _strict_passivity(_kernel_data(nu_e, nu_h))


def decay_exponent(nu_e: Kernel, nu_h: Kernel) -> PassivityReport:
    """Extract m, sigma_E, sigma_H, omega0 realizing the quantified bound
    |w|^m Re(i w L nu(i w)) >= sigma for |w| >= omega0."""
    data = _kernel_data(nu_e, nu_h)
    report = _strict_passivity(data)
    if not report.strictly_passive:
        raise PassivityError("decay exponent requires strict passivity")
    return _decay_exponent((nu_e, nu_h), data, report)


def _decay_exponent(kernels: tuple, data: tuple, report: PassivityReport) -> PassivityReport:
    """decay_exponent on the kernel data and strict-passivity report of one call."""
    fe, fh = data
    if not (isinstance(fe, OmegaRational) and isinstance(fh, OmegaRational)):
        return _decay_exponent_sampled(kernels, data, report)

    num, den = _combined_numerator(fe, fh)
    deficit = (den.size - 1) - (num.size - 1)
    ratio = num[-1] / den[-1]
    if deficit % 2 != 0:
        raise PassivityError(f"degree deficit {deficit} is odd: no decay exponent exists")
    if ratio <= 0:
        raise PassivityError("negative leading coefficient ratio: no decay exponent exists")
    m = deficit

    roots: list[float] = []
    per_field: dict[str, Optional[int]] = {}
    for label, form in (("E", fe), ("H", fh)):
        per_field[label] = _form_exponent(form)
        if per_field[label] is not None:
            roots.extend(np.abs(_real_roots(np.asarray(form.pr))))
    omega0 = 2.0 * (max(roots) if roots else 0.0) + 1.0

    wgrid = np.geomspace(omega0, 1e4, 4000)
    sig = {"E": 0.0, "H": 0.0}
    for label, form in (("E", fe), ("H", fh)):
        if per_field[label] is not None and per_field[label] == m:
            sig[label] = float(np.min(np.abs(wgrid) ** m * form.real_part(wgrid)))
    return replace(report, m=m, sigma_E=sig["E"], sigma_H=sig["H"], omega0=omega0)


def _decay_exponent_sampled(kernels: tuple, data: tuple,
                            report: PassivityReport) -> PassivityReport:
    """Asymptotic sampling fallback when no rational structure is available.

    m is fitted to the summed tail; each field's sigma follows the exact
    path's rule, nonzero only when that field's own exponent (its degree
    deficit, or for a sampled kernel the fit to its own tail) equals m.
    """
    wgrid = np.geomspace(10.0, 60.0, 25)
    tails, own = [], []
    for kernel, item in zip(kernels, data):
        if not isinstance(item, OmegaRational):
            vals = _sampled_real_part(kernel, wgrid)
            own.append(_fitted_exponent(wgrid, vals) if np.all(vals > 0) else None)
        elif item is _ZERO_FORM:
            vals = np.zeros_like(wgrid)
            own.append(None)
        else:
            vals = item.real_part(wgrid)
            own.append(_form_exponent(item))
        tails.append(vals)
    total = tails[0] + tails[1]
    if np.any(total <= 0):
        raise PassivityError("sampled real part not positive at large frequency")
    m = _fitted_exponent(wgrid, total)
    sig_e, sig_h = (float(np.min(np.abs(wgrid) ** m * vals)) if field_m == m else 0.0
                    for vals, field_m in zip(tails, own))
    return replace(report, m=m, sigma_E=sig_e, sigma_H=sig_h, omega0=10.0, certified=False)


def _fitted_exponent(wgrid: np.ndarray, vals: np.ndarray) -> int:
    """m from the log-log slope of a positive tail, vals ~ |w|^-m."""
    slope = np.polyfit(np.log(wgrid), np.log(vals), 1)[0]
    return max(0, int(round(-slope)))


def _form_exponent(form: OmegaRational) -> Optional[int]:
    """Degree deficit of Re(i w L nu(i w)) = pr/qr; None when pr vanishes."""
    pr = _trim(np.asarray(form.pr), 1e-12)
    if form.is_zero or (pr.size == 1 and pr[0] == 0.0):
        return None
    return (len(_trim(np.asarray(form.qr), 1e-12)) - 1) - (pr.size - 1)


def analyze(nu_e: Kernel, nu_h: Kernel) -> PassivityReport:
    """Full chain: passivity, strict passivity and (when it exists) the exponent.

    Each kernel's omega_form or sampled real part is computed once and shared
    by the three steps.
    """
    data = _kernel_data(nu_e, nu_h)
    report = _strict_passivity(data)
    if not report.strictly_passive:
        return report
    try:
        return _decay_exponent((nu_e, nu_h), data, report)
    except PassivityError:
        return report

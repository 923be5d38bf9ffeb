"""Frequency-axis analysis: Re(i w L nu(i w)) and the passivity decisions.

For exponential-polynomial kernels every verdict is exact.  From the integer
polynomials of ``kernels.laplace_rational``, lambda L nu(lambda) = A/B, and
with u = w^2, Re(i w L nu(i w)) = P(u) / D(u) with P(w^2) = Re(A(i w) B(-i w))
and D(w^2) = |B(i w)|^2 > 0.  Passivity asks for P = 0, or lc(P) > 0 and no
root of odd multiplicity in (0, inf); strict passivity for lc(N) > 0 and no
root in (0, inf) of N = P_E D_H + P_H D_E; and m = 2 (deg D_E D_H - deg N).
Roots come from Descartes' rule (no sign change, no positive root), else from
Descartes-rule bisection on integers, with a square-free split first only
when a repeated root shows; each polynomial's roots are isolated once per
call.  Floats only report the witness, omega0 and sigma; an ``OmegaRational``
is the exact pair (P, D) alone, and its ``real_part`` computes floats from it
on demand.
Sampled kernels get a dense-grid check labelled as such, from one panel
transform of nu'' for all its frequencies
(``kernels.sampled_iw_real_part``).

Each call computes what it needs of a kernel once and shares it between the
passivity, strict-passivity and exponent steps: an exp-poly kernel's
omega_form, or a sampled kernel's real part as one array on the 600-point
decision grid followed by the 25-point tail grid of the exponent fit.  A
mixed pair reads its exact field on the same 625 points through
``real_part``; ``certified`` is True exactly when both fields are exact.

Importing this module loads no numpy.  The exact decisions run on Python
ints; numpy is imported where arrays first appear: sigma's frequency grid of
a strictly passive exact medium, and the sampled grids, built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, Optional

from .kernels import (
    ExpPolyKernel,
    Kernel,
    KernelError,
    _poly_product,
    _poly_sum,
    laplace,  # not used here; perfbench/test_smoke.py reads dispersion.laplace
    laplace_rational,
    sampled_iw_real_part,
)

if TYPE_CHECKING:
    import numpy as np


class PassivityError(KernelError):
    """Raised when a decay exponent is requested but does not exist."""


@dataclass(frozen=True)
class OmegaRational:
    """Re(i w L nu(i w)) = p(u)/d(u) with u = w^2, as exact integer polynomials.

    Every decision reads ``p`` and ``d``.  ``real_part`` computes floats from
    them on demand; the form holds no float copy.
    """

    p: list[int]
    d: list[int]

    def real_part(self, w):
        """p(w^2) / d(w^2) at a float or array w: each coefficient divided by
        lc(d), correctly rounded, then Horner's rule in w^2."""
        def horner(c):
            acc = c[-1] / self.d[-1] + w * 0
            for v in reversed(c[:-1]):
                acc = v / self.d[-1] + acc * w * w
            return acc

        return horner(self.p) / horner(self.d)

    @cached_property
    def _roots(self) -> list[tuple[float, int]]:
        """(u, multiplicity) of the distinct roots of p in (0, inf); none for p = 0."""
        return _positive_roots(self.p)


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


def _real_product(a: list[int], b: list[int]) -> list[int]:
    """Re(a(i w) b(-i w)) as an exact polynomial in u = w^2: the term
    a_i b_j (i w)^i (-i w)^j is real when i + j = 2k, and is (-1)^(j + k) a_i b_j u^k."""
    out = [0] * ((len(a) + len(b)) // 2)
    for i, x in enumerate(a):
        if x:
            for j in range(i % 2, len(b), 2):
                k = (i + j) // 2
                out[k] += -x * b[j] if (j + k) % 2 else x * b[j]
    return _poly_sum(out)


def omega_form(kernel: ExpPolyKernel) -> OmegaRational:
    """w -> Re(i w L nu(i w)) as a rational function in u = w^2, exact, from
    ``laplace_rational``.  The zero kernel maps to 0/1."""
    if not isinstance(kernel, ExpPolyKernel):
        raise KernelError("omega_form needs an exponential-polynomial kernel")
    a, b = laplace_rational(kernel)
    return OmegaRational(_real_product(a, b), _real_product(b, b))


# ---------------------------------------------------------------------------
# exact real roots of integer polynomials (coefficient lists, ascending)

_SPLIT_DEPTH = 16  # halvings of p itself before the square-free split runs


def _deriv(c: list) -> list:
    return [i * v for i, v in enumerate(c)][1:]


def _gcd(a: list, b: list) -> list:
    """gcd of integer polynomials by a primitive remainder sequence, itself
    primitive with a positive leading coefficient."""
    def norm(c):
        c = _poly_sum(c)
        if not c[-1]:
            return c
        scale = math.gcd(*c) * (1 if c[-1] > 0 else -1)
        return [v // scale for v in c]

    a, b = norm(a), norm(b)
    while any(b):
        while any(a) and len(a) >= len(b):  # a <- pseudo-remainder of a by b
            shift = len(a) - len(b)
            a = norm([v * b[-1] - (a[-1] * b[i - shift] if i >= shift else 0)
                      for i, v in enumerate(a)])
        a, b = b, norm(a)
    return a


def _divexact(a: list, b: list) -> list:
    """a / b for a primitive b dividing a over the rationals (so over the integers)."""
    a, q = list(a), [0] * max(0, len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        q[k] = a[k + len(b) - 1] // b[-1]
        for i, v in enumerate(b):
            a[k + i] -= q[k] * v
    return q


def _squarefree_factors(f: list) -> list[tuple[int, list]]:
    """(i, g_i) with f = c prod g_i^i, the g_i square-free, pairwise coprime and
    of positive degree, by Yun's algorithm over the integers.

    A square-free f gives gcd(f, f') = 1 and so the one factor (1, f / c), c
    the content of f with the sign of lc(f).
    """
    df = _deriv(f)
    g = _gcd(f, df)
    b, c = _divexact(f, g), _divexact(df, g)
    out, mult = [], 1
    while len(b) > 1:
        d = _poly_sum(c, [-v for v in _deriv(b)])
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((mult, a))
        b, c, mult = _divexact(b, a), _divexact(d, a), mult + 1
    return out


def _variations(c: list) -> int:
    """Sign changes of a coefficient list, zeros skipped (Descartes' rule)."""
    signs = [v > 0 for v in c if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _shift1(c: list) -> list:
    """Coefficients of c(x + 1): synthetic division by x - 1, as running sums."""
    r = c[::-1]
    for n in range(len(r), 1, -1):
        r[:n] = accumulate(r[:n])
    return r[::-1]


def _simple_roots(g: list, depth: float = math.inf) -> Optional[list[float]]:
    """The roots of g in (0, inf), g(0) != 0, to double precision, when all are simple.

    Collins-Akritas bisection isolates them: every root is below a power of
    two 2^k (Fujiwara's bound), and the sign variations of
    (x + 1)^n q(1 / (x + 1)) bound the number of roots of q in (0, 1), counted
    with multiplicity, exactly when they are 0 or 1; other intervals are
    halved.  ``_refine`` then bisects each isolating interval on the sign of g.
    A repeated root keeps its interval above one variation at every depth, or
    is a double zero at a bisection point: None then, or once an interval is
    still unresolved after ``depth`` halvings.  A square-free g always gets
    its roots.
    """
    if _variations(g) == 0:
        return []
    # |g_(d-i) / g_d| < 2^b_i, and every root is below 2 max_i |g_(d-i) / g_d|^(1/i)
    d, top = len(g) - 1, abs(g[-1]).bit_length()
    k = 1 + max(-(-(abs(v).bit_length() - top + 1) // i) for i, v in enumerate(g[::-1]) if v and i)
    found, todo = [], [([v << k * i if k >= 0 else v << -k * (d - i) for i, v in enumerate(g)], 0, 0)]
    while todo:
        q, c, j = todo.pop()  # q(x) is g at (c + x) 2^(k - j), up to a positive factor
        if q[0] == 0:  # a root at the left end, the midpoint of an earlier interval
            if q[1] == 0:
                return None
            found.append((c, c, j))
            q = q[1:]
        sign_changes = _variations(_shift1(q[::-1]))
        if sign_changes == 1:
            found.append((c, c + 1, j))
        elif sign_changes > 1:
            if j >= depth:
                return None
            half = [v << (len(q) - 1 - i) for i, v in enumerate(q)]  # 2^n q(x / 2)
            todo += [(half, 2 * c, j + 1), (_shift1(half), 2 * c + 1, j + 1)]
    return [_refine(g, lo, hi, j - k) for lo, hi, j in found]


def _refine(g: list, lo: int, hi: int, e: int) -> float:
    """The simple root of g in (lo / 2^e, hi / 2^e) (or lo / 2^e itself
    when lo == hi), bisected to a relative width of 2^-60 and rounded."""
    def sign_at(c, num):  # sign of c(num / 2^e)
        v = 0
        for i, a in enumerate(reversed(c)):
            v = v * num + (a << (e * i))
        return (v > 0) - (v < 0)

    if e < 0:
        lo, hi, e = lo << -e, hi << -e, 0
    side = sign_at(g, lo) or sign_at(_deriv(g), lo)  # the sign of g just right of lo
    while lo != hi and (hi - lo) << 60 > lo:
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        mid = (lo + hi) // 2
        s = sign_at(g, mid)
        lo, hi = (mid, mid) if s == 0 else (mid, hi) if s == side else (lo, mid)
    return lo / (1 << e)


def _positive_roots(p) -> list[tuple[float, int]]:
    """(root, multiplicity) of every distinct root of the integer polynomial
    p in (0, inf), ascending; exact until the final rounding; none for p = 0.

    Descartes' rule comes first: with no sign change p has no positive root.
    Then p itself is bisected; only when that meets a repeated root does the
    square-free split run, and each of its factors is bisected.
    """
    if _variations(p) == 0:
        return []
    first = next(i for i, v in enumerate(p) if v)
    f = list(p[first:])
    simple = _simple_roots(f, _SPLIT_DEPTH)
    if simple is not None:
        return sorted((r, 1) for r in simple)
    return sorted((r, mult) for mult, g in _squarefree_factors(f) for r in _simple_roots(g))


def _beyond(roots: list[tuple[float, int]]) -> float:
    """A frequency w = 2 sqrt(u) + 1 with u past every root."""
    return 2.0 * math.sqrt(max([0.0] + [r for r, _ in roots])) + 1.0


def _negative_frequency(form: OmegaRational) -> Optional[float]:
    """None when Re(i w L nu(i w)) >= 0 for every w; else a w where it is < 0."""
    if not any(form.p):
        return None
    if form.p[-1] < 0:
        return _beyond(form._roots)
    odd = [r for r, mult in form._roots if mult % 2]
    if not odd:
        return None
    # p(u) < 0 between its largest odd-multiplicity root and the root before it
    before = max([0.0] + [r for r, _ in form._roots if r < odd[-1]])
    return math.sqrt(0.5 * (before + odd[-1]))


def _exponent(form: OmegaRational) -> Optional[int]:
    """Degree deficit of Re(i w L nu(i w)) in w; None when it vanishes."""
    return 2 * (len(form.d) - len(form.p)) if any(form.p) else None


_SPLIT = 600  # a field's values on _grids() split here into the two grids


@lru_cache(maxsize=1)
def _grids() -> np.ndarray:
    """The 600-point decision grid of passivity and strict passivity, then the
    25-point tail grid of the exponent fit, as one array built on first use."""
    import numpy as np

    return np.concatenate([np.geomspace(1e-2, 1e3, _SPLIT), np.geomspace(10.0, 60.0, 25)])


def _kernel_data(nu_e: Kernel, nu_h: Kernel) -> tuple:
    """What the decisions need of each kernel, computed once per call: an
    exponential-polynomial kernel's omega_form, or a sampled kernel's real
    part on _grids() from one ``sampled_iw_real_part`` call."""
    return tuple(omega_form(kernel) if isinstance(kernel, ExpPolyKernel)
                 else sampled_iw_real_part(kernel, _grids()) for kernel in (nu_e, nu_h))


def _on_grids(item) -> np.ndarray:
    """A field's Re(i w L nu(i w)) on _grids(), an exact form's through ``real_part``."""
    return item.real_part(_grids()) if isinstance(item, OmegaRational) else item


def _passivity(data: tuple) -> PassivityReport:
    witnesses: list[float] = []
    for item in data:
        if isinstance(item, OmegaRational):
            witness = _negative_frequency(item)
        else:
            bad = item[:_SPLIT] < -1e-9
            witness = float(_grids()[bad.argmax()]) if bad.any() else None
        if witness is not None:
            witnesses.append(witness)
    return PassivityReport(passive=not witnesses, witnesses=tuple(witnesses),
                           certified=all(isinstance(item, OmegaRational) for item in data))


def check_passivity(nu_e: Kernel, nu_h: Kernel) -> PassivityReport:
    """Re(i w L nu(i w)) >= 0 for every real w, for both kernels."""
    return _passivity(_kernel_data(nu_e, nu_h))


def _combined_numerator(fe: OmegaRational, fh: OmegaRational) -> list[int]:
    """N(u) with Re(i w L nu_E) + Re(i w L nu_H) = N(u) / (D_E(u) D_H(u))."""
    return _poly_sum(_poly_product(fe.p, fh.d), _poly_product(fh.p, fe.d))


def _strict_passivity(data: tuple) -> PassivityReport:
    base = _passivity(data)
    if not base.certified:
        vals = (_on_grids(data[0]) + _on_grids(data[1]))[:_SPLIT]
        strict = bool((vals > 0.0).all())
        witness = () if strict else (float(_grids()[vals.argmin()]),)
        return replace(base, strictly_passive=strict and base.passive,
                       witnesses=base.witnesses + witness)
    num = _combined_numerator(*data)
    # N is a field's own P when the other kernel is zero: reuse its isolated roots
    same = [form for form in data if form.p == num]
    roots = same[0]._roots if same else _positive_roots(num)
    ok = num[-1] > 0 and not roots
    # a root of N, or past every root where N < 0
    extra = () if ok else (math.sqrt(roots[-1][0]) if num[-1] > 0 else _beyond(roots),)
    return replace(base, strictly_passive=bool(ok and base.passive),
                   witnesses=base.witnesses + extra)


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
    return _decay_exponent(data, report)


def _decay_exponent(data: tuple, report: PassivityReport) -> PassivityReport:
    """decay_exponent on the kernel data and strict-passivity report of one call."""
    if not report.certified:
        return _decay_exponent_sampled(data, report)

    # each P is 0 or has lc(P) > 0 (strict passivity) and lc(D) > 0, so N's leading
    # terms cannot cancel: m = 2 (deg D_E D_H - deg N) is the least field exponent
    m = min(e for e in map(_exponent, data) if e is not None)
    omega0 = _beyond([r for form in data if any(form.p) for r in form._roots])
    import numpy as np  # sigma's grid: the exact path's one use of numpy

    wgrid = np.geomspace(omega0, 1e4, 4000)
    sig_e, sig_h = (float((wgrid ** m * form.real_part(wgrid)).min())
                    if _exponent(form) == m else 0.0 for form in data)
    return replace(report, m=m, sigma_E=sig_e, sigma_H=sig_h, omega0=omega0)


def _decay_exponent_sampled(data: tuple, report: PassivityReport) -> PassivityReport:
    """Asymptotic sampling fallback when no rational structure is available.

    m is fitted to the summed tail; each field's sigma follows the exact
    path's rule, nonzero only when that field's own exponent (its degree
    deficit, or for a sampled kernel the fit to its own tail) equals m.
    """
    wgrid = _grids()[_SPLIT:]
    tails = [_on_grids(item)[_SPLIT:] for item in data]
    own = [_exponent(item) if isinstance(item, OmegaRational)
           else _fitted_exponent(wgrid, vals) if (vals > 0).all() else None
           for item, vals in zip(data, tails)]
    total = tails[0] + tails[1]
    if (total <= 0).any():
        raise PassivityError("sampled real part not positive at large frequency")
    m = _fitted_exponent(wgrid, total)
    sig_e, sig_h = (float((abs(wgrid) ** m * vals).min()) if field_m == m else 0.0
                    for vals, field_m in zip(tails, own))
    return replace(report, m=m, sigma_E=sig_e, sigma_H=sig_h, omega0=10.0)


def _fitted_exponent(wgrid: np.ndarray, vals: np.ndarray) -> int:
    """m from the log-log slope of a positive tail, vals ~ |w|^-m."""
    import numpy as np

    slope = np.polyfit(np.log(wgrid), np.log(vals), 1)[0]
    return max(0, int(round(-slope)))


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
        return _decay_exponent(data, report)
    except PassivityError:
        return report

"""Susceptibility kernels: evaluation, decay certificates, Laplace transforms.

Two kernel representations are supported.  ``ExpPolyKernel`` stores finite
sums of damped polynomial oscillations (the family covering Debye, Lorentz
and Drude media) in a real cosine/sine form, so evaluation never leaves the
reals.  The family is closed under differentiation, so an exp-poly class-K
certificate is read off the terms of nu'' in closed form.  ``SampledKernel``
wraps a black-box evaluator together with a user-supplied exponential bound
on the second derivative; its Laplace values come from one Filon-Legendre
panel transform (``dispersia._sampled``).  Nothing here uses scipy.

Parsing, the exact derivative, ``certify_class_K`` and ``laplace_rational``
of an exp-poly kernel run on Python floats and ints, so importing this
module loads no numpy.  Evaluation on arrays, the builtin ``GAUSSIAN``'s too,
imports numpy when first called, and the sampled certificate and transforms
are imported from ``dispersia._sampled`` on first use.  ``KernelError`` is
defined in ``dispersia.medium``, so that ``io`` and ``cli`` name it without
loading this module, and is exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from numbers import Real
from typing import TYPE_CHECKING, Callable, Iterator, Union

from .medium import KernelError

if TYPE_CHECKING:
    import numpy as np


class NotInClassK(KernelError):
    """The kernel violates a decay condition (non-damped term), or its bound C
    on |nu''| e^{delta t} is beyond the float range."""


class CertificationFailure(KernelError):
    """A sampled kernel's claimed second-derivative bound fails on the check grid."""

    def __init__(self, message: str, t_violation: float):
        super().__init__(message)
        self.t_violation = t_violation


class UnsupportedPoint(KernelError):
    """Laplace transform requested at a point the sampled path cannot handle."""


@dataclass(frozen=True)
class DampedTerm:
    """One (p(t) cos(y t) + q(t) sin(y t)) e^{x t} contribution, x < 0.

    p and q are ascending coefficient tuples of one length, degree + 1: the
    trailing zeros of each are dropped and the shorter is padded with 0.0.
    The zero term is ((0.0,), (0.0,)).  Every field must be finite.
    """

    p: tuple[float, ...]
    q: tuple[float, ...]
    x: float
    y: float

    def __post_init__(self):
        p, q = ([float(v) for v in c] for c in (self.p, self.q))
        for name, values in (("p", p), ("q", q), ("x", (self.x,)), ("y", (self.y,))):
            if not all(map(math.isfinite, values)):
                raise KernelError(f"DampedTerm.{name} must be finite")
        for c in (p, q):
            while c and not c[-1]:
                c.pop()
        n = max(len(p), len(q), 1)
        object.__setattr__(self, "p", tuple(p + [0.0] * (n - len(p))))
        object.__setattr__(self, "q", tuple(q + [0.0] * (n - len(q))))
        if self.y < 0:
            raise KernelError("oscillation frequency must be >= 0 (fold conjugates)")
        if self.y == 0 and any(self.q):
            raise KernelError("sine coefficients are meaningless for y = 0")

    @property
    def degree(self) -> int:
        return len(self.p) - 1


@dataclass(frozen=True)
class ExpPolyKernel:
    """nu(t) = offset + sum_j (p_j(t) cos(y_j t) + q_j(t) sin(y_j t)) e^{x_j t}.

    The constant ``offset`` accommodates kernels such as the lossy Drude model
    beta*(1 - e^{-nu t}) whose value does not vanish at infinity; it drops out
    of every derivative, so the class-K conditions are untouched by it.  It is
    a float, or a ``fractions.Fraction`` where ``from_complex_terms`` summed
    constants whose float sum would round; float consumers read float(offset).
    """

    terms: tuple[DampedTerm, ...] = ()
    offset: Real = 0.0

    @property
    def is_zero(self) -> bool:
        return not self.terms and self.offset == 0.0

    def value_at_zero(self) -> float:
        return float(self.offset) + sum(t.p[0] for t in self.terms)

    def derivative(self) -> "ExpPolyKernel":
        """Exact term-wise derivative; again an ExpPolyKernel (offset drops).

        Raises KernelError if a coefficient of the derivative overflows.
        """
        new_terms = []
        for t in self.terms:
            p, q, x, y = t.p, t.q, t.x, t.y
            dp, dq = ([ell * c for ell, c in enumerate(coef[1:], 1)] + [0.0] for coef in (p, q))
            np_ = [d + x * a + y * b for d, a, b in zip(dp, p, q)]
            nq_ = [d + x * b - y * a for d, a, b in zip(dq, p, q)]
            if not all(map(math.isfinite, np_ + nq_)):
                raise KernelError("a coefficient of the derivative overflows the float range")
            if any(np_) or any(nq_):
                new_terms.append(DampedTerm(tuple(np_), tuple(nq_), x, y))
        return ExpPolyKernel(tuple(new_terms), 0.0)

    def __call__(self, t, order: int = 0):
        """nu at t, or its derivative of that order (term-wise, cached); a float t gives a float."""
        if order:
            return _nth_derivative(self, order)(t)
        import numpy as np
        from numpy.polynomial import polynomial as npoly

        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, float(self.offset), dtype=float)
        for term in self.terms:
            val = npoly.polyval(t, term.p) * np.cos(term.y * t)
            if term.y:
                val = val + npoly.polyval(t, term.q) * np.sin(term.y * t)
            out += val * np.exp(term.x * t)
        return out if out.shape else float(out)

    def complex_terms(self) -> Iterator[tuple[np.ndarray, complex]]:
        """Equivalent P_j(t) e^{z_j t} form with conjugate pairs listed explicitly.

        The constant offset is *not* included.
        """
        import numpy as np

        for t in self.terms:
            p, q = np.asarray(t.p, dtype=complex), np.asarray(t.q, dtype=complex)
            if t.y == 0:
                yield p, complex(t.x)
            else:
                c = (p - 1j * q) / 2.0
                yield c, complex(t.x, t.y)
                yield np.conj(c), complex(t.x, -t.y)

    @staticmethod
    def zero() -> "ExpPolyKernel":
        return ExpPolyKernel((), 0.0)

    @staticmethod
    def from_complex_terms(terms) -> "ExpPolyKernel":
        """Fold a conjugate-closed list of (complex poly coeffs, z) into real form.

        The coefficients are a nonempty list, tuple or 1-d array of numbers,
        or one number (a numpy scalar or a 0-d array too); a term with none
        is a KernelError that names it.  A term with z == 0 is only
        admissible as a real constant (degree 0 once trailing zeros are
        dropped); it becomes the kernel offset, summed exactly (a Fraction
        when the float sum would round, so that Drude constants cancelling
        their damped partners leave nu(0) = 0 exact).  Any other term needs
        Re z < 0, enforced at certification time.
        """
        constants: list[float] = []
        pending: list[tuple[list[complex], complex]] = []
        for index, (coeffs, z) in enumerate(terms):
            try:
                values = iter(coeffs)
            except TypeError:  # one number: iterating a scalar or a 0-d array fails
                values = (coeffs,)
            c = [complex(v) for v in values]
            z = complex(z)
            if not c:
                raise KernelError(f"term {index} (z = {z}) has no polynomial coefficients")
            if z == 0:
                while len(c) > 1 and c[-1] == 0:
                    c.pop()
                if len(c) > 1:
                    raise KernelError("z = 0 term must be a constant (Drude offset)")
                if abs(c[0].imag) > 1e-12 * (1 + abs(c[0])):
                    raise KernelError("z = 0 term must be real")
                constants.append(c[0].real)
            else:
                pending.append((c, z))

        used = [False] * len(pending)
        real_terms: list[DampedTerm] = []
        for i, (ci, zi) in enumerate(pending):
            if used[i]:
                continue
            used[i] = True
            if zi.imag == 0:
                if max(abs(v.imag) for v in ci) > 1e-12 * (1 + max(map(abs, ci))):
                    raise KernelError("real-exponent term has complex coefficients")
                real_terms.append(DampedTerm(tuple(v.real for v in ci), (0.0,), zi.real, 0.0))
                continue
            # find the conjugate partner, with np.allclose's test at rtol 1e-10, atol 1e-12
            conj = [v.conjugate() for v in ci]
            partner = None
            for j in range(i + 1, len(pending)):
                cj, zj = pending[j]
                if used[j] or len(cj) != len(ci):
                    continue
                if abs(zj - zi.conjugate()) <= 1e-12 * (1 + abs(zi)) and all(
                    a == b or abs(a - b) <= 1e-12 + 1e-10 * abs(b) for a, b in zip(cj, conj)
                ):
                    partner = j
                    break
            if partner is None:
                raise KernelError(
                    f"term with z = {zi} has no conjugate partner; kernel would be complex"
                )
            used[partner] = True
            c, z = (ci, zi) if zi.imag > 0 else (conj, zi.conjugate())
            p = tuple(2.0 * v.real for v in c)
            q = tuple(-2.0 * v.imag for v in c)
            real_terms.append(DampedTerm(p, q, z.real, z.imag))
        offset = math.fsum(constants)
        if math.fsum(constants + [-offset]) != 0.0:
            from fractions import Fraction

            offset = sum(map(Fraction, constants))
        return ExpPolyKernel(tuple(real_terms), offset)


def debye(beta: float = 1.0, tau: float = 1.0) -> ExpPolyKernel:
    """nu(t) = beta e^{-t/tau}."""
    return ExpPolyKernel((DampedTerm((beta,), (0.0,), -1.0 / tau, 0.0),))


def lorentz(beta: float = 1.0, nu0: float = 1.0, nu: float = 1.0) -> ExpPolyKernel:
    """nu(t) = beta sin(nu0 t) e^{-nu t / 2}."""
    return ExpPolyKernel((DampedTerm((0.0,), (beta,), -nu / 2.0, nu0),))


def drude(beta: float = 1.0, nu: float = 1.0) -> ExpPolyKernel:
    """nu(t) = beta (1 - e^{-nu t})."""
    return ExpPolyKernel((DampedTerm((-beta,), (0.0,), -nu, 0.0),), offset=beta)


# a sampled kernel's Laplace transforms integrate over [0, LAPLACE_HORIZON / delta]
LAPLACE_HORIZON = 60.0


@dataclass(frozen=True)
class SampledKernel:
    """Black-box kernel t -> (nu, nu', nu'') with a claimed |nu''| <= C e^{-delta t};
    equal to another only with the same evaluator, C, delta and name."""

    evaluator: Callable[[np.ndarray, int], np.ndarray]
    C: float = 1.0
    delta: float = 1.0
    name: str = "sampled"
    is_zero = False  # a black box is never known to vanish

    def __post_init__(self):
        if not (0 < self.C < math.inf and 0 < self.delta < math.inf):
            raise KernelError("decay certificate needs finite C > 0 and delta > 0, got "
                              f"C={self.C}, delta={self.delta}")
        if LAPLACE_HORIZON / self.delta == math.inf:
            raise KernelError(f"delta={self.delta} is too small: "
                              f"{LAPLACE_HORIZON:g}/delta overflows")

    def __call__(self, t, order: int = 0):
        import numpy as np

        return self.evaluator(np.asarray(t, dtype=float), order)

    def value_at_zero(self) -> float:
        return float(self(0.0, 0))


def _gaussian_eval(t: np.ndarray, order: int) -> np.ndarray:
    import numpy as np

    # e^{-t^2} is 0.0 beyond |t| = 27.3, so clipping at 40 changes no value and
    # keeps t^2 finite where it would overflow (and 0 * inf give NaN)
    t = np.clip(t, -40.0, 40.0)
    g = np.exp(-(t**2))
    if order == 0:
        return g
    if order == 1:
        return -2.0 * t * g
    return (4.0 * t**2 - 2.0) * g


# max_t |(4 t^2 - 2) e^{-t^2}| e^t = 3.3414 at t = 1.428, so C = 3.4 leaves margin
GAUSSIAN = SampledKernel(_gaussian_eval, C=3.4, delta=1.0, name="gaussian")

BUILTIN_SAMPLED: dict[str, Callable[[np.ndarray, int], np.ndarray]] = {"gaussian": _gaussian_eval}

Kernel = Union[ExpPolyKernel, SampledKernel]


@dataclass(frozen=True)
class ClassKCertificate:
    """|nu''(t)| <= C e^{-delta t} for all t >= 0."""

    C: float
    delta: float


@lru_cache(maxsize=1024)
def _nth_derivative(kernel: ExpPolyKernel, order: int) -> ExpPolyKernel:
    if order == 0:
        return kernel
    return _nth_derivative(kernel, order - 1).derivative()


def eval_kernel(kernel: Kernel, t, order: int = 0):
    """Evaluate nu, nu' or nu'' at t >= 0 through the kernel's own call.

    An ExpPolyKernel takes its derivatives by exact term-wise differentiation.
    """
    if order not in (0, 1, 2):
        raise KernelError(f"order must be 0, 1 or 2, got {order}")
    import numpy as np

    tarr = np.asarray(t, dtype=float)
    if np.any(tarr < 0):
        raise KernelError("kernel evaluation requires t >= 0")
    out = np.asarray(kernel(tarr, order), dtype=float)
    return out if out.shape else float(out)


def _require_damped(kernel: ExpPolyKernel) -> None:
    """NotInClassK, naming the first term's Re z, unless every term has Re z < 0.

    The rule of class K and of the Laplace transforms; ``modal.build_mode``
    closes a growing term too.
    """
    bad = next((t.x for t in kernel.terms if t.x >= 0), None)
    if bad is not None:
        raise NotInClassK(f"kernel has a non-damped term: Re z = {bad} >= 0")


def certify_class_K(kernel: Kernel) -> ClassKCertificate:
    """Produce (C, delta) with |nu''(t)| <= C e^{-delta t}, or raise.

    For ExpPolyKernel the rate is delta = 0.9 * min_j |x_j| and C is read off
    the terms (p_jl, q_jl) of nu'' = sum_j sum_l t^l (p_jl cos y_j t + q_jl sin
    y_j t) e^{x_j t}: by the triangle inequality and sup_t t^l e^{-a t} =
    (l / (a e))^l, C = sum_j sum_l hypot(p_jl, q_jl) (l / ((|x_j| - delta) e))^l
    bounds |nu''| e^{delta t} at every t, with no grid and no horizon.  A C that
    overflows raises NotInClassK.  For SampledKernel the user-supplied pair is
    spot-checked; a non-finite sample fails the certificate.
    """
    if isinstance(kernel, SampledKernel):
        from ._sampled import certify

        return certify(kernel)

    if not isinstance(kernel, ExpPolyKernel):
        raise KernelError(f"unknown kernel type {type(kernel)!r}")

    _require_damped(kernel)
    if not kernel.terms:
        # constant or zero kernel: nu'' vanishes identically
        return ClassKCertificate(1e-12, 1.0)

    delta = 0.9 * min(abs(t.x) for t in kernel.terms)
    C = 0.0
    try:
        terms = _nth_derivative(kernel, 2).terms
    except KernelError:  # a coefficient of nu'' overflows, and so does C
        terms, C = (), math.inf
    try:
        for t in terms:
            scale = (abs(t.x) - delta) * math.e
            # sup_s s^l e^{-(|x| - delta) s} = (l / ((|x| - delta) e))^l, with 0^0 = 1
            C += sum(math.hypot(p, q) * ((ell / scale) ** ell if ell else 1.0)
                     for ell, (p, q) in enumerate(zip(t.p, t.q)))
    except (OverflowError, ZeroDivisionError):  # a peak beyond the float range, or
        C = math.inf  # (|x| - delta) e rounded to 0
    if not math.isfinite(C):
        raise NotInClassK(f"the bound C on |nu''| e^{{delta t}} overflows at delta={delta:.6g}")
    return ClassKCertificate(C, delta)


def laplace(kernel: Kernel, lam: complex) -> complex:
    """Laplace transform L nu(lambda) for Re lambda >= 0.

    ExpPolyKernel uses the exact partial-fraction sum.  SampledKernel reads
    L nu(lambda) = (nu(0) + (nu'(0) + L nu''(lambda)) / lambda) / lambda, with
    L nu'' from the Filon-Legendre panel transform (``_sampled._filon_transform``) of
    e^{-Re lambda s} nu''(s) over [0, LAPLACE_HORIZON / delta]: nu itself need
    not be integrable on and near the imaginary axis, and at large Re lambda
    the transform, however coarse, is divided by lambda^2.  On the axis its real
    part, nu(0) - (1/w) int_0^inf sin(w s) nu''(s) ds, needs only the sine
    transform of nu''; ``sampled_iw_real_part`` evaluates that for many w at once.
    Each scalar call on a SampledKernel samples nu'' and builds its panels
    anew (about 0.4 ms on a 2-vCPU Xeon), so a loop over frequencies belongs in
    ``sampled_iw_real_part``.
    """
    lam = complex(lam)
    if lam.real < 0:
        raise UnsupportedPoint("Laplace transform only defined for Re lambda >= 0")
    if isinstance(kernel, ExpPolyKernel):
        _require_damped(kernel)
        if lam == 0 and kernel.offset != 0.0:
            raise UnsupportedPoint("pole at lambda = 0 (kernel has a constant part)")
        total = float(kernel.offset) / lam if kernel.offset else 0.0
        for coeffs, z in kernel.complex_terms():
            fact = 1.0
            for ell, c in enumerate(coeffs):
                if ell > 0:
                    fact *= ell
                total += c * fact / (lam - z) ** (ell + 1)
        return complex(total)

    from ._sampled import laplace as sampled_laplace

    return sampled_laplace(kernel, lam)


def sampled_iw_real_part(kernel: SampledKernel, w: float | np.ndarray) -> float | np.ndarray:
    """Re(i w L nu(i w)) = nu(0) - (1/w) int_0^{60/delta} sin(w s) nu''(s) ds.

    The same nu'' route and horizon as ``laplace`` on the imaginary axis, for
    every frequency of the array w at once: nu'' is sampled once, on panels
    that do not depend on w (``_sampled._filon_transform``).  A float w gives a float.
    """
    from ._sampled import iw_real_part

    return iw_real_part(kernel, w)


def _poly_sum(*polys: list[int]) -> list[int]:
    """Sum of exact polynomials, ascending lists of Python ints; the format's one
    trimming rule lives here: trailing zeros dropped, the zero polynomial [0]."""
    out = list(map(sum, zip_longest(*polys, fillvalue=0))) or [0]
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def _poly_product(*polys: list[int]) -> list[int]:
    """Product of exact polynomials, one accumulator list per factor with zero
    coefficients skipped; the empty product is [1]."""
    first, *rest = polys or ([1],)
    out = list(first)
    for b in rest:
        terms = [(j, v) for j, v in enumerate(b) if v]
        acc = [0] * (len(out) + len(b) - 1)
        for i, u in enumerate(out):
            if u:
                for j, v in terms:
                    acc[i + j] += u * v
        out = acc
    # trimmed factors give a nonzero leading coefficient; trim only otherwise
    return out if out[-1] else _poly_sum(out)


def laplace_rational(kernel: ExpPolyKernel) -> tuple[list[int], list[int]]:
    """Integer polynomials (A, B), ascending in lambda, with lambda L nu(lambda) = A/B.

    lambda L nu = offset + lambda sum_j sum_l c_jl l! / (lambda - z_j)^(l+1) is
    assembled exactly from the kernel's own floats, which are dyadic rationals:
    with one 2^s making every x_j, y_j an integer X_j, Y_j and one 2^t every
    coefficient, a pole is 2^s lambda - X_j, a conjugate pair the real quadratic
    (2^s lambda - X_j)^2 + Y_j^2, and terms with equal (x_j, y_j) are merged.
    B has no root with Re lambda >= 0, and a Drude constant adds no pole.  A
    and B are exact polynomials (``_poly_sum``) sharing no integer content.
    The zero kernel gives ([0], [1]).
    """
    _require_damped(kernel)

    def exponent(v) -> int:  # the power of two in the denominator of v
        return v.as_integer_ratio()[1].bit_length() - 1

    def scaled(v, e: int) -> int:  # v 2^e, exact for e >= exponent(v)
        num, den = v.as_integer_ratio()
        return num << (e - den.bit_length() + 1)

    s = max((exponent(v) for term in kernel.terms for v in (term.x, term.y)), default=0)
    t = max(exponent(v) for v in (kernel.offset, *(c for term in kernel.terms
                                                 for c in term.p + term.q)))
    groups: dict[tuple[float, float], list[list[int]]] = {}
    for term in kernel.terms:
        for acc, vals in zip(groups.setdefault((term.x, term.y), [[], []]), (term.p, term.q)):
            acc.extend([0] * (len(vals) - len(acc)))
            for ell, v in enumerate(vals):
                acc[ell] += scaled(v, t)

    num, den = [0], [1]
    for (x, y), (p, q) in groups.items():
        n = max((ell + 1 for c in (p, q) for ell, v in enumerate(c) if v), default=0)
        big_x, big_y = scaled(x, s), scaled(y, s)
        linear = [-big_x, 1 << s]
        pole = linear if big_y == 0 else _poly_sum(_poly_product(linear, linear), [big_y**2])
        # c_l l! / (lambda - z)^(l+1) = l! 2^(s (l+1)) h_l / pole^(l+1), with h_l = 2^t p_l
        # for a real pole and h_l = 2^t 2 Re[c_l (2^s lambda - X + iY)^(l+1)] for a pair;
        # the terms over pole^n are summed by Horner's rule
        part, re, im = [0], linear, [big_y]  # re + i im = (2^s lambda - X + iY)^(l+1)
        for ell in range(n):
            if big_y and ell:
                re, im = (_poly_sum(_poly_product(re, linear), [-big_y * v for v in im]),
                          _poly_sum(_poly_product(im, linear), [big_y * v for v in re]))
            head = [p[ell]] if big_y == 0 else _poly_sum([p[ell] * v for v in re],
                                                          [q[ell] * v for v in im])
            head = [(math.factorial(ell) << (s * (ell + 1))) * v for v in head]
            part = _poly_sum(_poly_product(part, pole), head) if ell else head
        factor = _poly_product(*[pole] * n)
        num = _poly_sum(_poly_product(num, factor), _poly_product(part, den))
        den = _poly_product(den, factor)

    offset = scaled(kernel.offset, t)
    a = _poly_sum([offset * v for v in den], [0] + num)
    b = [v << t for v in den]
    content = math.gcd(*a, *b)
    return [v // content for v in a], [v // content for v in b]

"""Per-mode reduction of the dispersive cavity system and its integrators.

Each divergence-free cavity eigenmode with curl eigenvalue k obeys a
2-component Volterra system; for exponential-polynomial kernels the memory
convolutions close exactly into auxiliary linear states (one companion block
per damped term), so the mode becomes a small constant-coefficient ODE that
is advanced with the matrix exponential (``expm``: Pade-13 scaling and
squaring in numpy, vectorized over a stack of mode matrices).  A
history-quadrature integrator is kept as the independent reference.
``MediumSpec``, ``ModalError`` and ``UnsupportedKernel`` (raised for a sampled
kernel, which has no finite closure) are defined in ``dispersia.medium`` and
``EnergyTrace`` in ``dispersia.energy_trace``, which need no numpy; all four
are exported here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .energy_trace import EnergyTrace
from .kernels import (
    ExpPolyKernel,
    KernelError,
    _poly_product,
    _poly_sum,
    eval_kernel,
    laplace_rational,
)
from .medium import MAX_COUNT as MAX_MODES, MediumSpec, ModalError, UnsupportedKernel


# doubles in one block of output states in run_multimode (128 KiB)
_BLOCK_ELEMENTS = 2**14


class HistoryTruncationError(ModalError):
    def __init__(self, message: str, s_max: float):
        super().__init__(message)
        self.s_max = s_max


@dataclass(frozen=True, eq=False)
class ModeSystem:
    """One mode's linear system; state = (E, H, companion blocks of nu_E', of nu_H')."""

    k: float
    A: np.ndarray
    medium: MediumSpec
    _propagators: dict = field(default_factory=dict, repr=False)  # dt -> exp(A dt)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A; ``build_modes`` fills them in from one stacked call."""
        return np.linalg.eigvals(self.A)

    def initial_state(self, amplitude: float = 1.0) -> np.ndarray:
        state = np.zeros(self.dim)
        state[0] = amplitude
        return state

    def energy(self, state: np.ndarray) -> float:
        return 0.5 * (self.medium.eps * state[0] ** 2 + self.medium.mu * state[1] ** 2)


def _wavenumber(k) -> float:
    """k as a float; ModalError naming k unless it is finite and nonnegative."""
    k = float(k)
    if not 0.0 <= k < math.inf:
        raise ModalError(f"mode wavenumber must be finite and nonnegative, got {k!r}")
    return k


def _require_closure(medium: MediumSpec) -> None:
    """UnsupportedKernel naming the first field of medium whose kernel has no finite closure."""
    for name in ("nu_e", "nu_h"):
        if not isinstance(getattr(medium, name), ExpPolyKernel):
            raise UnsupportedKernel(f"medium.{name}: the modal closure needs an exp_poly "
                                    "(exponential-polynomial) kernel; use step_history")


def build_mode(medium: MediumSpec, k: float) -> ModeSystem:
    """Exact finite closure of the per-mode Volterra system.

    eps E' = -nu_E(0) E - (memory read-out) + k H
    mu  H' = -nu_H(0) H - (memory read-out) - k E

    The memory y(t) = int_0^t nu'(t-s) f(s) ds of each field f is realized
    as linear states, one companion block per term of nu'.  A term of degree
    d gets d + 1 groups of r rows, r = 1 for a real exponent and r = 2 for a
    (cos, sin) pair.  Group l, the convolution of f with t^l / l! e^{x t}
    (cos y t, sin y t), turns by [[x, -y], [y, x]] (x alone when r = 1), is
    driven by group l - 1 (group 0 by f) and read out with l! (p_l, q_l).
    The entries are collected as Python floats and written in one assignment.
    An entry beyond the float range raises ModalError: every entry of row 0 is
    divided by eps and every entry of row 1 by mu, so the error names the
    first such row's divisor.
    """
    k = _wavenumber(k)
    _require_closure(medium)
    # on Python floats an overflowing entry is inf, reported below, with no numpy warning
    eps, mu = float(medium.eps), float(medium.mu)
    entries = [(0, 0, -medium.nu_e.value_at_zero() / eps),  # (row, column, value)
               (1, 1, -medium.nu_h.value_at_zero() / mu), (0, 1, k / eps), (1, 0, -k / mu)]
    pos = 2
    for slot, name, kern, coef in ((0, "nu_e", medium.nu_e, eps), (1, "nu_h", medium.nu_h, mu)):
        try:
            terms = kern.derivative().terms
        except KernelError as exc:
            raise ModalError(f"medium.{name}: {exc}") from exc
        for term in terms:
            x, y = term.x, term.y
            r = 1 if y == 0.0 else 2
            entries.append((pos, slot, 1.0))  # group 0 is driven by the field
            fact = 1.0  # l!
            for ell, read in enumerate(zip(term.p, term.q)):
                if ell:
                    fact *= ell
                    entries += [(pos + i, pos - r + i, 1.0) for i in range(r)]  # by group l - 1
                if r == 1:
                    entries.append((pos, pos, x))
                else:
                    entries += [(pos, pos, x), (pos, pos + 1, -y), (pos + 1, pos, y),
                                (pos + 1, pos + 1, x)]
                entries += [(slot, pos + i, -(read[i] * fact) / coef) for i in range(r)]
                pos += r
    rows, cols, vals = zip(*entries)
    if not all(map(math.isfinite, vals)):
        row = min(r for r, _, v in entries if not math.isfinite(v))
        where = f" of row {row}, divided by medium.{('eps', 'mu')[row]}," if row < 2 else ""
        raise ModalError(f"the mode matrix is not finite: an entry{where} overflows the float range")
    A = np.zeros((pos, pos))
    A[rows, cols] = vals
    return ModeSystem(k=k, A=A, medium=medium)


def _closure_stack(medium: MediumSpec, ks) -> np.ndarray:
    """The mode matrices for all ks, shape (n, d, d).

    Only the two coupling entries depend on k, so the closure is built once,
    at the largest k (where |k / eps| and |k / mu| are largest, so that
    build_mode's finiteness check covers every k), and those entries are
    rewritten per mode; A[i] is bit-identical to build_mode(medium, ks[i]).A.
    """
    ks = np.asarray(ks, dtype=float)
    bad = ~((ks >= 0) & (ks < np.inf))
    if bad.any():
        _wavenumber(ks[bad][0])
    A = np.repeat(build_mode(medium, ks.max(initial=0.0)).A[np.newaxis], ks.size, axis=0)
    A[:, 0, 1] = ks / medium.eps
    A[:, 1, 0] = -ks / medium.mu
    return A


def build_modes(medium: MediumSpec, ks) -> list[ModeSystem]:
    """build_mode for every k in ks, from one shared closure, with the
    eigenvalues of all modes from one stacked ``eigvals`` call (each slice is
    bit-identical to the mode's own call, but complex if any mode's are)."""
    A = _closure_stack(medium, ks)
    systems = [ModeSystem(float(k), a, medium) for k, a in zip(ks, A)]
    try:
        eigvals = np.linalg.eigvals(A)
    except np.linalg.LinAlgError:  # LAPACK's scaling overflows on entries near the float range
        raise ModalError("the eigenvalues of the mode matrices did not converge") from None
    for system, eigs in zip(systems, eigvals):
        system.__dict__["eigenvalues"] = eigs  # the cached_property's slot
    return systems


# degree-13 Pade coefficients b_k = C(13, k) (26 - k)! / 26!, so that b_0 = 1, and
# the 1-norm up to which they need no scaling (Higham, SIAM J. Matrix Anal.
# Appl. 26(4), 2005, table 2.3)
_PADE13 = tuple(math.comb(13, k) * math.factorial(26 - k) / math.factorial(26) for k in range(14))
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a (d, d) matrix or of each slice of an (n, d, d) stack.

    Pade-13 scaling and squaring, vectorized over the stack: each slice is
    scaled by its own power of two 2^-s, chosen from its 1-norm, and its
    Pade approximant is squared s times.  A slice's result does not depend on
    the other slices of the stack.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 2:
        return expm(a[np.newaxis])[0]
    if not np.all(np.isfinite(a)):
        raise ModalError("expm of a non-finite matrix")
    # s = max(0, ceil(log2(|a|_1 / theta))), exactly, from the binary exponent
    mant, expo = np.frexp(np.abs(a).sum(axis=1).max(axis=1) / _THETA13)
    s = np.maximum(expo - (mant == 0.5), 0)
    a = np.ldexp(a, -s[:, np.newaxis, np.newaxis])
    b = _PADE13
    ident = np.eye(a.shape[1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + ident
    r = np.linalg.solve(v - u, v + u)
    for j in range(int(s.max(initial=0))):
        sq = np.flatnonzero(s > j)  # the slices that still need squaring
        r[sq] = r[sq] @ r[sq]
    return r


def step_exact(system: ModeSystem, state: np.ndarray, dt: float) -> np.ndarray:
    """Advance by exp(A dt), which the mode holds per dt; exact for the closed linear system."""
    if dt <= 0:
        raise ModalError("dt must be positive")
    state = np.asarray(state, dtype=float)
    if state.shape != (system.dim,):
        raise ModalError(f"state dimension {state.shape} does not match system {system.dim}")
    if not np.all(np.isfinite(state)):
        raise ModalError("non-finite state")
    dt = float(dt)
    prop = system._propagators.get(dt)
    if prop is None:
        prop = system._propagators[dt] = expm(system.A * dt)
    return prop @ state


def spectral_abscissa(system: ModeSystem) -> tuple[float, np.ndarray]:
    """Max Re eigenvalue of the mode matrix, plus the full eigenvalue list."""
    eigs = system.eigenvalues
    return float(np.max(eigs.real)), eigs


def dispersion_roots(medium: MediumSpec, k: float) -> np.ndarray:
    """Roots of the per-mode characteristic equation
    lambda^2 (eps + L nu_E)(mu + L nu_H) + k^2 = 0, denominators cleared.

    The characteristic polynomial is assembled exactly in integers from
    ``laplace_rational`` and the floats eps, mu and k (finite and
    nonnegative, as in ``build_mode``), and rounded once."""
    _require_closure(medium)
    k = _wavenumber(k)
    # lambda (c + L nu) = (c_num lambda B + c_den A) / (c_den B) with c = c_num / c_den
    parts, dens = [], []
    for kern, coef in ((medium.nu_e, medium.eps), (medium.nu_h, medium.mu)):
        a, b = laplace_rational(kern)
        c_num, c_den = float(coef).as_integer_ratio()
        parts.append(_poly_sum(_poly_product([0, c_num], b), _poly_product([c_den], a)))
        dens.append(_poly_product([c_den], b))
    k_num, k_den = float(k).as_integer_ratio()
    char = _poly_sum(_poly_product([k_den**2], *parts), _poly_product([k_num**2], *dens))
    return np.roots([c / char[-1] for c in char[::-1]])


# steps of a history that step_history computes at once (see _next_block);
# each block applies the block map G, (2 B)^2 entries (512 KiB at B = 128),
# whose cost outgrows the saved per-block work beyond 128
_HISTORY_BLOCK = 128


@dataclass(eq=False)  # a mutable state: equal only to itself
class HistoryState:
    """Field history on the step grid of dt up to s_max from (e0, h0); also ``initial_history``.

    The fields are one (2, capacity) float array, row 0 E and row 1 H,
    grown geometrically from 1024 columns; its first n columns are the
    steps f_0..f_(n - 1) taken, and the columns from n on may hold steps
    that step_history has computed ahead and not yet taken.  e_past and
    h_past are read-only views of the rows' taken steps.  Per row, _peak
    is the largest |value| ever written, the steps ahead included, which
    bounds |f_j| for the far sums' scaling (see ``_hold_weights``).
    ``budget`` is the number of steps the horizon allows, the largest n with
    n dt <= s_max + 1e-12; it is set once, here, and every step and block
    reads it.  A history is one mode: its first step records the medium, k
    and _live, the rows whose kernel is not zero (see ``step_history``), and
    the values cached here (the lag weights of each row of _live, the block
    map and the steps computed ahead) belong to them.  ModalError unless dt
    is finite and positive, s_max, e0 and h0 are finite, and the horizon's
    step count (s_max + 1e-12) / dt is finite.
    """

    dt: float
    s_max: float
    e0: float = 1.0
    h0: float = 0.0
    budget: int = field(init=False)
    n: int = field(default=1, init=False)  # the steps taken, t = 0 included
    _fields: np.ndarray = field(default_factory=lambda: np.zeros((2, 1024)), init=False, repr=False)
    _peak: list = field(init=False, repr=False)  # per row
    _weights: dict = field(default_factory=dict, init=False, repr=False)  # see _hold_weights
    _medium: MediumSpec | None = field(default=None, init=False, repr=False)
    _k: float | None = field(default=None, init=False, repr=False)
    _live: tuple = field(default=(), init=False, repr=False)  # rows with memory
    _map: tuple | None = field(default=None, init=False, repr=False)  # (P, Q, G), see _block_map
    _ahead: int = field(default=0, init=False, repr=False)  # finite steps ahead, not yet taken

    def __post_init__(self):
        dt, s_max = self.dt, self.s_max
        if not (math.isfinite(dt) and dt > 0):
            raise ModalError(f"dt must be finite and positive, got {dt!r}")
        for name, value in (("s_max", s_max), ("e0", self.e0), ("h0", self.h0)):
            if not math.isfinite(value):
                raise ModalError(f"{name} must be finite, got {value!r}")
        end = s_max + 1e-12
        steps = end / dt
        if not math.isfinite(steps):
            raise ModalError(f"s_max must be a finite number of steps dt, got {s_max!r} / {dt!r}")
        # the rounded quotient can miss the largest n by a step either way, and
        # n dt rounds monotonically in n; from 2^53 on, n dt no longer tells
        # n from n + 1, and the quotient stands
        n = max(0, int(steps))
        if n < 2**53:
            while (n + 1) * dt <= end:
                n += 1
            while n and n * dt > end:
                n -= 1
        self.budget = n
        self._fields[:, 0] = self.e0, self.h0
        self._peak = [abs(float(self.e0)), abs(float(self.h0))]

    @property
    def e_past(self) -> np.ndarray:  # a read-only view
        return as_strided(self._fields[0, :self.n], writeable=False)

    @property
    def h_past(self) -> np.ndarray:
        return as_strided(self._fields[1, :self.n], writeable=False)

    @property
    def t(self) -> float:
        return (self.n - 1) * self.dt

    @property
    def e(self) -> float:
        return float(self._fields[0, self.n - 1])

    @property
    def h(self) -> float:
        return float(self._fields[1, self.n - 1])


initial_history = HistoryState


# per c, the weight of f_n in the sum y_c of step n, in units of dt nu'(c dt):
# in the block, the trapezoid end 1/2 plus the panel's c/2 (see _next_block),
# and the correction to the far sum at the block's first step, -1/2 + c/2
_NEAR_END = np.array([0.5, 0.75, 1.0])
_FAR_END = np.array([-0.5, -0.25])  # and 0 at c = 1
# samples per np.correlate of a far sum: OpenBLAS runs a dot product of more
# than 10000 elements on several threads, which on a busy host costs more
# than the product
_CORRELATE_MAX = 8192


def _step_matrix(medium: MediumSpec, nu0, g, k: float, dt: float) -> np.ndarray:
    """[P | Q], shape (2, 8), of one step of the four-stage scheme.

    (E, H) at t + dt is P (E, H) + Q (yE_0, yE_1/2, yE_1, yH_0, yH_1/2, yH_1),
    where y_c is a field's memory sum at the stage time t + c dt without the
    stage value's own term c g x, g = dt nu'(0) / 2, which belongs to P.  The
    scheme is linear, so the columns are the steps of the eight unit inputs,
    taken through the stage arithmetic below, the scheme's only statement.
    """
    eps, mu = float(medium.eps), float(medium.mu)
    nue0, nuh0 = nu0
    ge, gh = g
    e0, h0, ye0, ye1, ye2, yh0, yh1, yh2 = np.eye(8)
    # the stages at offsets c = 0, 1/2, 1/2, 1; the memory term at c is y_c + c g x
    de1 = (-nue0 * e0 - (ye0 + 0.0 * ge * e0) + k * h0) / eps
    dh1 = (-nuh0 * h0 - (yh0 + 0.0 * gh * h0) - k * e0) / mu
    e, h = e0 + 0.5 * dt * de1, h0 + 0.5 * dt * dh1
    de2 = (-nue0 * e - (ye1 + 0.5 * ge * e) + k * h) / eps
    dh2 = (-nuh0 * h - (yh1 + 0.5 * gh * h) - k * e) / mu
    e, h = e0 + 0.5 * dt * de2, h0 + 0.5 * dt * dh2
    de3 = (-nue0 * e - (ye1 + 0.5 * ge * e) + k * h) / eps
    dh3 = (-nuh0 * h - (yh1 + 0.5 * gh * h) - k * e) / mu
    e, h = e0 + dt * de3, h0 + dt * dh3
    de4 = (-nue0 * e - (ye2 + 1.0 * ge * e) + k * h) / eps
    dh4 = (-nuh0 * h - (yh2 + 1.0 * gh * h) - k * e) / mu
    e1 = e0 + dt / 6.0 * (de1 + 2 * de2 + 2 * de3 + de4)
    h1 = h0 + dt / 6.0 * (dh1 + 2 * dh2 + 2 * dh3 + dh4)
    return np.array([e1, h1])


def _far_scale(wmax: float, fmax: float, size: int, dt: float) -> int:
    """The power s >= 0 of the far sums' weight scaling 2^s (see ``_hold_weights``).

    With |w| < 2^a and |f| < 2^b (a, b the frexp exponents of the largest
    |w| and |f|) and at most size terms, every product and partial sum of
    2^s w against f is below 2^(s + a + b + size.bit_length()), finite for
    s = 1023 - a - b - size.bit_length(), the largest s this bound allows.
    So a product is subnormal only where the weights' and the fields'
    nonzero magnitudes together span most of the float range.  s is capped
    so that the scaled weights, below 2^(s + a), stay finite where the
    fields are small, and so that dt 2^-s is a normal float, and y dt 2^-s
    is the one rounding of the product that y dt was unscaled.  s = 0, the
    unscaled sums, where the bound is negative or either maximum is 0 or
    not finite.
    """
    if not (0.0 < wmax < math.inf and 0.0 < fmax < math.inf):
        return 0
    a, b = math.frexp(wmax)[1], math.frexp(fmax)[1]
    s = min(1023 - a - b - size.bit_length(), 1023 - a, math.frexp(dt)[1] + 1021)
    return max(0, s)


def _hold_weights(state: HistoryState, row: int, lags: int):
    """Hold state._weights[row], the record (s, ws, first, wmax) of the
    field in that row of the history: ws is 2^s nu'((m + c) dt) at the
    lags m = size..0, size >= lags, as one (2, size + 1) array, one row per
    c = 0, 1/2, lag-reversed (lag m in column size - m).  The row of c = 1
    is ws[0, :-1]: nu' at the float (m + 1) dt is the c = 0 weight of lag
    m + 1, so each nu'(j dt) is evaluated and held once.  No sum reads the
    c = 1/2 weight of the top lag, so it is not evaluated: ws[1, 0] is 0.
    s is ``_far_scale``'s power at the field's peak, first the first column
    nonzero in either row of ws (size + 1 if none is) and wmax the largest
    |nu'|.

    A short array doubles its lags, up to the lag of the horizon's last
    step, state.budget, in one kernel evaluation at the new half-lags
    j dt / 2 (c = 0 at j = 2 m, c = 1/2 at j = 2 m + 1); nothing is
    evaluated for lags no block has reached.  The far sums of the
    Gaussian's nu' run through weights that are subnormal (t ~ 26.7-27.3),
    and through products with the fields that are subnormal over a wider
    band; subnormal arithmetic is slow.  2^s lifts them into the normal
    range, and each product and partial sum is 2^s times its unscaled
    value, exactly, wherever that is normal.  A new s, after a growth or a
    larger peak, rescales ws by 2^(s - s_was), exactly both ways since
    s >= 0: ldexp(ws, -s) is nu'.
    """
    s_was, ws, first, wmax = state._weights.get(row, (0, np.zeros((2, 0)), 0, 0.0))
    size = ws.shape[1] - 1  # the top lag held, -1 if none
    top, v = size, None
    if size < lags:
        top = max(lags, min(2 * size, state.budget))
        # half-lags 2 top..2 size + 1, lag-reversed: c = 0 at the lags
        # top..size + 1, c = 1/2 at the lags top - 1..size (none below 0)
        kernel = (state._medium.nu_e, state._medium.nu_h)[row]
        v = eval_kernel(kernel, np.arange(2 * top, max(2 * size, -1), -1) * 0.5 * state.dt, 1)
        wmax = float(np.maximum(wmax, np.max(np.abs(v))))  # keeps a nan
    s = _far_scale(wmax, state._peak[row], top + 1, state.dt)
    if v is not None:
        new = top - size
        held = np.zeros((2, top + 1))
        np.ldexp(ws, s - s_was, out=held[:, new:])
        np.ldexp(v[::2], s, out=held[0, :new])
        np.ldexp(v[1::2], s, out=held[1, 1:1 + v.size // 2])  # fills ws[1, 0]
        nonzero = held[:, :new + 1].any(axis=0)  # the grown lags lead
        first = int(nonzero.argmax()) if nonzero.any() else first + new
        ws = held
    elif s != s_was:
        ws = np.ldexp(ws, s - s_was)
    state._weights[row] = (s, ws, first, wmax)


def _block_toeplitz(seq: np.ndarray, lag: int, n: int) -> np.ndarray:
    """The (2 n, 2 n) matrix of the 2 x 2 blocks X_(lag + i - j), i, j < n
    (lag - n + 1 >= 0), of a sequence X_0..X_(L - 1) held by rows and
    lag-reversed: seq, C-contiguous of shape (2, L, 2), is
    seq[a, L - 1 - l, b] = X_l[a, b].  The matrix's row 2 i + a is 2 n
    consecutive entries of seq[a], so the matrix is one copy of a window
    view."""
    rows = seq.reshape(2, -1)
    s0, s1 = rows.strides
    out = np.empty((n, 2, 2 * n))
    out[...] = as_strided(rows[:, rows.shape[1] - 2 - 2 * lag:], out.shape, (-2 * s1, s0, s1))
    return out.reshape(2 * n, 2 * n)


def _stage_rows(x: np.ndarray) -> np.ndarray:
    """Rows c = 0, 1/2, 1 of lag-reversed rows c = 0, 1/2: c = 1 is c = 0 one lag on."""
    return np.concatenate([x[:, 1:], x[:1, :-1]])


def _block_map(state: HistoryState):
    """(P, Q, G) of the history's blocks, built once; see ``_step_matrix`` for P, Q.

    In a block of B steps from step n0, let z_i be the fields after step
    n0 + i and r_i the part of that step known before the block: P times the
    fields of step n0 for i = 0, plus Q times the far memory sums.  The near
    memory sums add Q M_(i - j) z_(j - 1) for 1 <= j <= i, where M_m holds
    each field's weights dt nu'((m + c) dt), c = 0, 1/2, 1, read off its
    two held rows as in ``_next_block``, M_0 with the weights of _NEAR_END,
    for the fields of state._live (M_m is 0 for the others).  So z = r + T z
    with T strictly lower block-Toeplitz, T_1 = P + Q M_0 and T_l =
    Q M_(l - 1), and z = G r for G = (I - T)^-1, block lower-triangular
    Toeplitz with blocks Gamma_0 = I, Gamma_1, ....
    These are built by doubling: Gamma_0..Gamma_(h - 1) invert the first h
    block rows of I - T, and the next h are the first column of the
    lower-left block of the inverse of the first 2 h, Gamma_(h + i) =
    sum_j Gamma_(i - j) c_j with c_i = sum_j T_(h + i - j) Gamma_j: two
    products with Toeplitz matrices per doubling, log2 B of them, and no
    LAPACK call.  T_l = 0 from l = B on, which changes no Gamma_m, m < B.
    G is one copy of a window of the Gamma sequence.  B is
    min(_HISTORY_BLOCK, state.budget), for every block of the history;
    G has (2 B)^2 entries, 256 x 256 (512 KiB) at B = 128.
    """
    dt, medium = state.dt, state._medium
    B = min(_HISTORY_BLOCK, state.budget)
    near, g = [], [0.0, 0.0]
    for row in state._live:
        s, ws = state._weights[row][:2]
        w = np.ldexp(ws[:, -B - 1:], -s)  # lags B..0 of nu', exactly
        m = dt * _stage_rows(w)  # lags B - 1..0 at c = 0, 1/2, 1
        m[:, -1] = _NEAR_END * m[:, -1]
        near.append(m)
        g[row] = 0.5 * dt * float(w[0, -1])
    nu0 = (medium.nu_e.value_at_zero(), medium.nu_h.value_at_zero())
    pq = _step_matrix(medium, nu0, g, state._k, dt)
    P, Q = pq[:, :2], pq[:, 2:]
    n = 1 << (B - 1).bit_length()  # the doublings reach n >= B blocks
    # the sequences T_0..T_(n - 1), T_0 = 0, and Gamma_(-n)..Gamma_(n - 1),
    # zero for m < 0, as _block_toeplitz takes them: T_l in column n - 1 - l
    # of T, Gamma_m in column n - 1 - m of gam
    T = np.zeros((2, n, 2))
    for row, m in zip(state._live, near):
        T[:, n - B:n - 1, row] = Q[:, 3 * row:3 * row + 3] @ m[:, 1:]  # T_(B - 1)..T_1
    if B > 1:
        T[:, n - 2] += P
    gam = np.zeros((2, 2 * n, 2))
    gam[:, n - 1] = np.eye(2)
    h = 1
    while h < B:
        # Gamma_0..Gamma_(h - 1) stacked, shape (2 h, 2), and Gamma_h..Gamma_(2 h - 1)
        head = gam[:, n - h:n][:, ::-1].transpose(1, 0, 2).reshape(2 * h, 2)
        tail = _block_toeplitz(gam, n, h) @ (_block_toeplitz(T, h, h) @ head)
        gam[:, n - 2 * h:n - h][:, ::-1] = tail.reshape(h, 2, 2).transpose(1, 0, 2)
        h *= 2
    return P, Q, _block_toeplitz(gam, n, B)


def _next_block(state: HistoryState):
    """Compute the next b = min(_HISTORY_BLOCK, steps left in state.budget)
    steps, at least one.  Those of them, from the first, that are finite
    are written ahead into the history's field array, from column state.n
    on, as one (2, b) copy after at most one growth; state._ahead becomes
    their number, and each row's peak takes their largest |value|.

    The memory sum of a field at stage offset c in step n is the trapezoid
    rule on f_0..f_n, y_c = dt (sum_j w_c[n - j] f_j - (w_c[n] f_0 +
    w_c[0] f_n) / 2), with w_c[m] = nu'((m + c) dt), plus the panel from t
    to the stage time, (c dt / 2) w_c[0] f_n.  In a block from step n0, the
    terms over j <= n0 are far.  Each field of state._live, the fields with
    memory, has far sums of its own: those for the whole block are one
    np.correlate of each held row with its row's f_0..f_n0 (one per
    _CORRELATE_MAX samples), each into its own row of z: that of c = 0
    over the lags n0 + b..0, the sums of the steps n0..n0 + b, and that of
    c = 1/2 over the lags n0 + b - 1..0, the sums of the steps
    n0..n0 + b - 1 that the block takes.  Those at c = 1 are the c = 0 far
    sums one step on (see ``_stage_rows``).  The far sums start at the
    first sample that meets a nonzero weight and run on the held weights,
    2^s nu'.  The end terms of f_0 and, at the first step, of f_n0
    (_FAR_END) are added as corrections on those weights too, before the
    c = 1 sums are read off, and the sums are scaled once, by dt 2^-s.
    The terms over the block's own samples are near and enter through
    _block_map's G, built in the first block.  Everything runs under one
    np.errstate.  The block is cut once on each side of the map: the known
    part r at its first non-finite row, which is zeroed from there before G
    is applied, as G's zero entries would carry it to the steps before it,
    and then the fields at their first non-finite step.  G is applied once,
    and it is lower-triangular, so later steps cannot change earlier ones.
    """
    n0, dt, fields = state.n - 1, state.dt, state._fields
    b = min(_HISTORY_BLOCK, state.budget - n0)
    e, h = fields[:, n0].tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for row in state._live:
            _hold_weights(state, row, n0 + b)
        if state._map is None:
            state._map = _block_map(state)
        P, Q, G = state._map
        r = np.zeros((G.shape[0] // 2, 2))  # row i is step n0 + i; rows from b on stay 0
        for row in state._live:
            s, ws, first, _ = state._weights[row]
            lo = ws.shape[1] - 1 - n0 - b  # the column of lag n0 + b
            f = fields[row, :n0 + 1]
            z = np.zeros((2, b + 1))  # column b - i is step n0 + i; z[1, 0] is not taken
            # sample m meets the weight columns lo + m..lo + m + b only;
            # for each sample before skip, all of them are zero
            skip = max(0, min(first - lo - b, n0))
            for i in range(skip, f.size, _CORRELATE_MAX):
                seg, j = f[i:i + _CORRELATE_MAX], lo + i
                z[0] += np.correlate(ws[0, j:j + seg.size + b], seg)
                z[1, 1:] += np.correlate(ws[1, j + 1:j + seg.size + b], seg)
            z -= (0.5 * f[0]) * ws[:, lo:lo + b + 1]  # the f_0 ends
            z[:, -1] += f[n0] * (_FAR_END * ws[:, -1])
            y = _stage_rows(z)  # c = 0, 1/2, 1
            r[:b] += (y * math.ldexp(dt, -s)).T[::-1] @ Q[:, 3 * row:3 * row + 3].T
        (p00, p01), (p10, p11) = P.tolist()
        r[0] += (p00 * e + p01 * h, p10 * e + p11 * h)
        if not np.isfinite(r).all():  # in a row before b: the rows from b on are 0
            b = int(np.isfinite(r).all(axis=1).argmin())
            r[b:] = 0.0
        z = G @ r.ravel()
        if not np.isfinite(z[:2 * b]).all():
            b = int(np.isfinite(z[:2 * b]).reshape(b, 2).all(axis=1).argmin())
    z = z.reshape(-1, 2)[:b]
    start, end = n0 + 1, n0 + 1 + b
    if end > fields.shape[1]:
        state._fields = np.zeros((2, max(end, 2 * fields.shape[1])))
        state._fields[:, :start] = fields[:, :start]
    state._fields[:, start:end] = z.T
    state._peak = np.maximum(state._peak, np.abs(z).max(axis=0, initial=0.0)).tolist()
    state._ahead = b


def step_history(medium: MediumSpec, k: float, state: HistoryState, dt: float) -> HistoryState:
    """One step of the brute-force reference integrator (any kernel type).

    Four-stage explicit scheme; each stage evaluates the Volterra convolution
    by trapezoidal quadrature over the stored past.  The steps are computed
    in blocks of _HISTORY_BLOCK = 128 steps, fewer where the horizon comes
    first: the first call and a call after the block is used up compute the
    next block at once (see ``_next_block``), and each call takes one step
    of it, one increment of state.n, which e_past, h_past, e, h and t read.
    The scheme is linear with lag weights that do not change in time, so a
    block is the same scheme, to rounding, as stepping one step at a time.
    The step is state.dt, the grid spacing that the weights are built on;
    dt must match it to 1e-12 relative.
    Serves as the oracle for step_exact and is the only integrator available
    for sampled kernels.  A history is one mode: every step takes the medium
    and k of its first step, which also records state._live, the fields
    whose kernel is not zero.  k must be finite and nonnegative, as in
    ``build_mode``, and equal to the first step's k; the medium must be that
    object or an equal one (a sampled kernel is equal only with the same
    evaluator).  Another k or medium raises ModalError.  So does the
    call of a step whose fields are not finite, which leaves the history at
    its last finite step; a block stops before such a step, so no numpy
    warning is raised, and the steps before it are taken as usual.
    """
    if dt != state.dt:  # a dt equal to the grid spacing passes both checks
        if dt <= 0:
            raise ModalError("dt must be positive")
        if not abs(dt - state.dt) <= 1e-12 * state.dt:
            raise ModalError("step size must match the history grid spacing")
    if medium is not state._medium or k is not state._k:
        k = _wavenumber(k)
        if state._medium is None:
            state._medium, state._k = medium, k
            state._live = tuple(row for row, kern in enumerate((medium.nu_e, medium.nu_h))
                                if not kern.is_zero)
        elif medium != state._medium:
            raise ModalError("this history was started in another medium; a history "
                             "is advanced in one medium only")
        elif k != state._k:
            raise ModalError(f"this history was started at k = {state._k!r}; got k = {k!r}")
    if not state._ahead:  # a block ends at the horizon at the latest
        if state.n > state.budget:
            raise HistoryTruncationError(f"t = {state.t + dt:.6g} exceeds the configured "
                                         "history horizon", state.s_max)
        _next_block(state)
        if not state._ahead:
            raise ModalError(f"the fields at t = {state.n * state.dt:.17g} are not "
                             "finite: they or their memory sums outgrow the float range")
    state._ahead -= 1
    state.n += 1
    return state


def cavity_modes(length: float, n_max: int):
    """k_n = n pi c0 / L for a reference 1D cavity, amplitudes n^-1.5, n = 1..n_max.

    ModalError unless length is positive and finite, n_max is an integer
    (not a bool) from 1 to MAX_MODES, and the largest wavenumber is finite.
    """
    if not (math.isfinite(length) and length > 0):
        raise ModalError(f"cavity length must be positive and finite, got {length!r}")
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)) \
            or not 1 <= n_max <= MAX_MODES:
        raise ModalError(f"n_max must be an integer from 1 to {MAX_MODES}, got {n_max!r}")
    if not math.isfinite(n_max * np.pi / length):
        raise ModalError("the largest wavenumber n_max pi / length is not finite")
    return [(n * np.pi / length, float(n) ** -1.5) for n in range(1, n_max + 1)]


def _trace_rows(T: float, dt: float, output_stride: int = 1) -> int:
    """The rows of a run_multimode trace: t = 0 and every output_stride-th of
    its round(T / dt) steps.  ModalError if T / dt is not finite or the count
    exceeds the longest float array numpy can make, np.iinfo(np.intp).max // 8."""
    steps, most = T / dt, np.iinfo(np.intp).max // np.dtype(float).itemsize
    if not math.isfinite(steps) or round(steps) // output_stride >= most:
        raise ModalError(f"T / dt = {steps!r} is not the step count of a trace with at "
                         f"most {most} rows")
    return int(round(steps)) // output_stride + 1


def _block_size(n_rows: int, n_modes: int, d: int) -> int:
    """Output samples per block of run_multimode: the largest power of two
    at most min(n_rows, 2^14 / (n_modes d), 4 d), and at least 1.

    Filling a block by doubling costs about 2 log2 b matmuls, so b need not
    balance the fill against the n_rows / b block steps.  The cap keeps the
    heap peak at or below that of a row-by-row loop: one block holds at most
    2^14 doubles (128 KiB), and the two blocks in use together hold at most
    8 n_modes d^2 doubles, the stacks that expm held before they existed.
    """
    cap = min(n_rows, _BLOCK_ELEMENTS // (n_modes * d), 4 * d)
    return 1 << (max(cap, 1).bit_length() - 1)


def _block_energies(medium: MediumSpec, ks, amps, dt: float, stride: int,
                    n_rows: int) -> np.ndarray:
    """Summed mode energies at every stride-th step, advanced in blocks.

    The first block is filled by doubling: with P^h, its columns h..2h-1 are
    P^h times columns 0..h-1, and P^h is then squared, for h = 1, 2, 4, ...
    The last square, P^b, is made only when a second block follows.  A
    function of its own so that the blocks are freed before run_multimode
    allocates the times column.  Raises ModalError if a propagator or an
    energy is not finite.
    """
    A = _closure_stack(medium, ks)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        prop = np.linalg.matrix_power(expm(A * dt), stride)
    n_modes, d = A.shape[:2]
    del A  # the stack is not needed again; free it before the blocks exist
    if not np.all(np.isfinite(prop)):
        raise ModalError("the propagator over one output step is not finite")
    # build_mode puts E and H in slots 0 and 1.  In the coordinates S x, with
    # S = diag(sqrt(eps/2), sqrt(mu/2), 1, ...), the energy of a mode is the
    # plain sum of squares of those two slots.
    scale = np.ones(d)
    scale[:2] = math.sqrt(0.5 * medium.eps), math.sqrt(0.5 * medium.mu)
    prop *= scale[:, np.newaxis]
    prop /= scale
    b = _block_size(n_rows, n_modes, d)
    block = np.zeros((n_modes, d, b))
    block[:, 0, 0] = np.multiply(amps, scale[0])
    energy = np.empty(n_rows)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite energy is reported below
        h = 1
        while h < b:
            np.matmul(prop, block[:, :, :h], out=block[:, :, h:2 * h])
            h *= 2
            if h < b or n_rows > b:
                prop = prop @ prop  # P^h; P itself is no longer needed
        spare = np.empty_like(block) if n_rows > b else None
        for start in range(0, n_rows, b):
            if start:
                np.matmul(prop, block, out=spare)
                block, spare = spare, block
            n = min(b, n_rows - start)
            eh = block[:, :2, :n]
            np.einsum("ijk,ijk->k", eh, eh, out=energy[start:start + n])
    bad = np.flatnonzero(~np.isfinite(energy))
    if bad.size:
        raise ModalError(f"the energy at t = {float(bad[0] * stride) * dt:.17g} is not finite: "
                         "the fields outgrow the float range")
    return energy


def run_multimode(
    medium: MediumSpec,
    modes: list[tuple[float, float]],
    dt: float,
    T: float,
    output_stride: int = 1,
) -> EnergyTrace:
    """Integrate independent modes with the exact propagator and sum energies.

    All modes are advanced together: the mode matrices are stacked to
    (n_modes, d, d), exponentiated in one expm call and raised to the output
    stride, giving the propagator P.  The states of b consecutive output
    samples sit side by side in one (n_modes, d, b) block.  The first block
    is filled by doubling, in about 2 log2 b batched matmuls; each later
    block is P^b times the previous one, one batched matmul per b output
    samples.  b is a power of two capped so that the blocks take no more
    memory than expm did (see ``_block_size``).  The energies of a block are
    reduced over modes in a fixed order, and the trace is bit-identical
    across runs.  Fields that outgrow the float range raise ModalError, and a
    sampled kernel UnsupportedKernel, with no modes too.
    """
    _require_closure(medium)
    if dt <= 0 or T <= dt:
        raise ModalError("need dt > 0 and T > dt")
    if output_stride < 1:
        raise ModalError("output_stride must be a positive integer")
    n_rows = _trace_rows(T, dt, output_stride)
    if not modes:
        return EnergyTrace(times=np.array([]), energy=np.array([]))
    ks, amps = zip(*modes)
    energy = _block_energies(medium, ks, amps, dt, output_stride, n_rows)
    times = np.arange(0, n_rows * output_stride, output_stride, dtype=float)
    times *= dt  # in place: equal to the integer steps times dt, one array less
    return EnergyTrace(times=times, energy=energy)

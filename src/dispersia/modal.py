"""Per-mode reduction of the dispersive cavity system and its integrators.

Each divergence-free cavity eigenmode with curl eigenvalue k obeys a
2-component Volterra system; for exponential-polynomial kernels the memory
convolutions close exactly into auxiliary linear states (one companion block
per damped term), so the mode becomes a small constant-coefficient ODE that
is advanced with the matrix exponential (``expm``: Pade-13 scaling and
squaring in numpy, vectorized over a stack of mode matrices).  A
history-quadrature integrator is kept as the independent reference.
``MediumSpec`` and ``ModalError`` are defined in ``dispersia.medium`` and
``EnergyTrace`` in ``dispersia.energy_trace``, which need no numpy; all three
are exported here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .energy_trace import EnergyTrace
from .kernels import (
    Kernel,
    KernelError,
    SampledKernel,
    _poly_product,
    _poly_sum,
    eval_kernel,
    laplace_rational,
)
from .medium import MediumSpec, ModalError


# doubles in one block of output states in run_multimode (128 KiB)
_BLOCK_ELEMENTS = 2**14
# the most modes cavity_modes makes (io.MAX_COUNT bounds a config's n_max alike)
MAX_MODES = 10**6


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
    for kern in (medium.nu_e, medium.nu_h):
        if isinstance(kern, SampledKernel):
            raise ModalError("sampled kernels admit no finite closure; use step_history")
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
    for system, eigs in zip(systems, np.linalg.eigvals(A)):
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


@lru_cache(maxsize=512)
def _propagator(system: ModeSystem, dt: float) -> np.ndarray:
    return expm(system.A * dt)


def step_exact(system: ModeSystem, state: np.ndarray, dt: float) -> np.ndarray:
    """Advance by exp(A dt); exact for the closed linear system."""
    if dt <= 0:
        raise ModalError("dt must be positive")
    state = np.asarray(state, dtype=float)
    if state.shape != (system.dim,):
        raise ModalError(f"state dimension {state.shape} does not match system {system.dim}")
    if not np.all(np.isfinite(state)):
        raise ModalError("non-finite state")
    return _propagator(system, float(dt)) @ state


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
    for kern in (medium.nu_e, medium.nu_h):
        if isinstance(kern, SampledKernel):
            raise ModalError("dispersion relation needs exponential-polynomial kernels")
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


# steps of a history that step_history computes at once (see _next_block)
_HISTORY_BLOCK = 32


class _GrowBuf:
    """A field's samples f_0..f_{n-1} on the step grid, in a float buffer
    that grows geometrically from 1024 slots.

    The slots from n on may hold steps that step_history has computed ahead
    and not yet taken; view() does not show them.  f(0) is also kept as a
    Python float.
    """

    def __init__(self, first: float = 0.0):
        self._data = np.zeros(1024)
        self._data[0] = first
        self.n = 1
        self.first = float(first)

    @property
    def last(self) -> float:
        return float(self._data[self.n - 1])

    def write_ahead(self, values: np.ndarray):
        """Put values in the slots n, n + 1, ..., growing the buffer if needed."""
        end = self.n + values.size
        if end > self._data.size:
            grown = np.zeros(max(end, 2 * self._data.size))
            grown[: self.n] = self._data[: self.n]
            self._data = grown
        self._data[self.n:end] = values

    def view(self) -> np.ndarray:
        return self._data[: self.n]


@dataclass
class HistoryState:
    """Field history on the uniform step grid, for the reference integrator.

    The values cached here (lag weights, nu(0), the block map of the last k
    and the steps computed ahead with it) belong to the medium of the first
    step, which is recorded; a history is advanced in one medium only.
    """

    dt: float
    s_max: float
    e_past: _GrowBuf = field(default_factory=_GrowBuf)
    h_past: _GrowBuf = field(default_factory=_GrowBuf)
    _weights: dict = field(default_factory=dict, repr=False)
    _medium: MediumSpec | None = field(default=None, repr=False)
    _nu0: tuple[float, float] | None = field(default=None, repr=False)
    _k: float | None = field(default=None, repr=False)
    _map: tuple | None = field(default=None, repr=False)  # (P, Q, G) at _k, see _block_map
    _ahead: int = field(default=0, repr=False)  # finite steps computed ahead, not yet taken

    @property
    def t(self) -> float:
        return (self.e_past.n - 1) * self.dt

    @property
    def e(self) -> float:
        return self.e_past.last

    @property
    def h(self) -> float:
        return self.h_past.last


def initial_history(dt: float, s_max: float, e0: float = 1.0, h0: float = 0.0) -> HistoryState:
    """An empty history on the grid of step dt, up to t = s_max, starting at (e0, h0).

    ModalError unless dt is finite and positive, s_max, e0 and h0 are finite,
    and s_max / dt is finite."""
    if not (math.isfinite(dt) and dt > 0):
        raise ModalError(f"dt must be finite and positive, got {dt!r}")
    for name, value in (("s_max", s_max), ("e0", e0), ("h0", h0)):
        if not math.isfinite(value):
            raise ModalError(f"{name} must be finite, got {value!r}")
    if not math.isfinite(s_max / dt):  # the horizon's step count, int((s_max + 1e-12) / dt)
        raise ModalError(f"s_max must be a finite number of steps dt, got {s_max!r} / {dt!r}")
    return HistoryState(dt=dt, s_max=s_max, e_past=_GrowBuf(e0), h_past=_GrowBuf(h0))


# the lag offsets c of the stage times t + c dt, one row of lag weights each
_OFFSETS = np.array([[0.0], [0.5], [1.0]])
# per c, the weight of f_n in the sum y_c of step n, in units of dt nu'(c dt):
# in the block, the trapezoid end 1/2 plus the panel's c/2 (see _next_block),
# and the correction to the far sum at the block's first step, -1/2 + c/2
_NEAR_END = np.array([0.5, 0.75, 1.0])
_FAR_END = np.array([-0.5, -0.25, 0.0])
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


def _grow_weights(state: HistoryState, kernel: Kernel, key: str, lags: int, horizon: int):
    """Cache nu'((m + c) dt) for at least the lags m = 0..lags - 1 as one
    (3, size) array, one row per c, lag-reversed (lag m in column
    size - 1 - m).  A short cache doubles, up to the horizon's last lag, in
    one kernel evaluation; nothing is evaluated for lags no block has reached.
    """
    w = state._weights.get(key)
    have = 0 if w is None else w.shape[1]
    if have < lags:
        size = max(lags, min(2 * have, horizon))
        t = (np.arange(size - 1, have - 1, -1) + _OFFSETS) * state.dt
        grown = np.reshape(eval_kernel(kernel, t.ravel(), 1), t.shape)
        state._weights[key] = grown if w is None else np.concatenate([grown, w], axis=1)


def _block_map(state: HistoryState, medium: MediumSpec, k: float, horizon: int):
    """(P, Q, G) of the blocks at wavenumber k; see ``_step_matrix`` for P, Q.

    In a block of B steps from step n0, let z_i be the fields after step
    n0 + i and r_i the part of that step known before the block: P times the
    fields of step n0 for i = 0, plus Q times the far memory sums.  The near
    memory sums add Q M_(i - j) z_(j - 1) for 1 <= j <= i, where M_m holds
    each field's weights dt nu'((m + c) dt), M_0 with the weights of
    _NEAR_END.  So z = r + T z with T strictly lower block-Toeplitz, T_1 =
    P + Q M_0 and T_l = Q M_(l - 1), and z = G r for G = (I - T)^-1, block
    lower-triangular Toeplitz with blocks Gamma_0 = I and Gamma_m = sum_l
    T_l Gamma_(m - l): forward substitution, no LAPACK call.  B is
    min(_HISTORY_BLOCK, the horizon's steps), for every block of the history.
    """
    dt = state.dt
    B = max(1, min(_HISTORY_BLOCK, horizon - 1))
    near, g = [], []
    for key in ("E", "H"):
        w = state._weights.get(key)  # None for a zero kernel, which has no memory
        if w is None:
            near.append(np.zeros((3, B)))
            g.append(0.0)
            continue
        m = dt * w[:, :-B - 1:-1]  # lags 0..B - 1
        m[:, 0] = _NEAR_END * m[:, 0]
        near.append(m)
        g.append(0.5 * dt * float(w[0, -1]))
    pq = _step_matrix(medium, state._nu0, g, k, dt)
    P, Q = pq[:, :2], pq[:, 2:]
    T = np.stack([(Q[:, :3] @ near[0]).T, (Q[:, 3:] @ near[1]).T], axis=-1)  # T_1..T_B
    T[0] += P
    gam = np.zeros((B + 1, 2, 2))  # Gamma_0..Gamma_(B - 1), and a zero block
    gam[0] = np.eye(2)
    for m in range(1, B):
        gam[m] = (T[:m] @ gam[m - 1::-1]).sum(axis=0)
    lag = np.subtract.outer(np.arange(B), np.arange(B))
    lag[lag < 0] = B
    return P, Q, gam[lag].transpose(0, 2, 1, 3).reshape(2 * B, 2 * B)


def _next_block(state: HistoryState, medium: MediumSpec, k: float):
    """Compute the next b = min(_HISTORY_BLOCK, steps left before the horizon)
    steps, at least one, and write their fields ahead in e_past and h_past;
    state._ahead becomes the number of them, from the first, that are finite.

    The memory sum of a field at stage offset c in step n is the trapezoid
    rule on f_0..f_n, y_c = dt (sum_j w_c[n - j] f_j - (w_c[n] f_0 +
    w_c[0] f_n) / 2), with w_c[m] = nu'((m + c) dt), plus the panel from t
    to the stage time, (c dt / 2) w_c[0] f_n.  In a block from step n0, the
    terms over j <= n0 are far: each field's and offset's far sums for the
    whole block are one np.correlate of its lag-reversed weight row with
    f_0..f_n0 (one per _CORRELATE_MAX samples), and the end terms of f_0
    and, at the first step, of f_n0 (_FAR_END) are added as corrections.
    The terms over the block's own samples are near and enter through
    _block_map's G, rebuilt only for a new k.  Everything runs under one
    np.errstate.  A non-finite known part cuts the block before its step:
    G is lower-triangular, so later steps cannot change earlier ones.
    """
    n0, dt = state.e_past.n - 1, state.dt
    horizon = int((state.s_max + 1e-12) / dt) + 1  # the lags 0..horizon - 1 it allows
    b = max(1, min(_HISTORY_BLOCK, horizon - 1 - n0))
    live = [(key, kern, past, cols) for key, kern, past, cols in
            (("E", medium.nu_e, state.e_past, slice(0, 3)),
             ("H", medium.nu_h, state.h_past, slice(3, 6))) if not kern.is_zero]
    with np.errstate(over="ignore", invalid="ignore"):
        for key, kern, _, _ in live:
            _grow_weights(state, kern, key, n0 + b, horizon)
        if k != state._k:
            state._map, state._k = _block_map(state, medium, k, horizon), k
        P, Q, G = state._map
        r = np.zeros((2, b))  # reversed: column b - 1 - i is step n0 + i
        for key, _, past, cols in live:
            w = state._weights[key]
            lo = w.shape[1] - n0 - b  # the column of lag n0 + b - 1
            f = past.view()
            y = np.zeros((3, b))
            for j in range(0, f.size, _CORRELATE_MAX):
                seg = f[j:j + _CORRELATE_MAX]
                for c in range(3):
                    y[c] += np.correlate(w[c, lo + j:lo + j + seg.size + b - 1], seg)
            y *= dt
            y -= (0.5 * dt * past.first) * w[:, lo:lo + b]  # the f_0 ends
            y[:, -1] += (dt * past.last) * (_FAR_END * w[:, -1])
            r += Q[:, cols] @ y
        r = r[:, ::-1]
        r[:, 0] += P @ (state.e_past.last, state.h_past.last)
        bad = ~np.isfinite(r).all(axis=0)
        if bad.any():
            b = int(bad.argmax())
        rows = np.zeros((G.shape[0] // 2, 2))
        rows[:b] = r[:, :b].T
        z = (G @ rows.ravel()).reshape(-1, 2)[:b]
    finite = np.isfinite(z).all(axis=1)
    b = b if finite.all() else int(finite.argmin())
    state.e_past.write_ahead(z[:b, 0])
    state.h_past.write_ahead(z[:b, 1])
    state._ahead = b


def step_history(medium: MediumSpec, k: float, state: HistoryState, dt: float) -> HistoryState:
    """One step of the brute-force reference integrator (any kernel type).

    Four-stage explicit scheme; each stage evaluates the Volterra convolution
    by trapezoidal quadrature over the stored past.  The steps are computed
    in blocks of _HISTORY_BLOCK = 32 steps, fewer where the horizon comes
    first: the first call, a call with another k than the last, and a call
    after the block is used up compute the next block at once (see
    ``_next_block``), and each call takes one step of it.  The scheme is
    linear with lag weights that do not change in time, so a block is the
    same scheme, to rounding, as stepping one step at a time.  Every call
    checks its arguments as before; k must be finite and nonnegative, as in
    ``build_mode``.  The step is state.dt, the grid spacing
    that the weights are built on; dt must match it to 1e-12 relative.
    Serves as the oracle for step_exact and is the only integrator available
    for sampled kernels.  Every step of one history takes the medium of its
    first step, that object or an equal one (a sampled kernel is equal only
    with the same evaluator); another medium raises ModalError.  So does the
    call of a step whose fields are not finite, which leaves the history at
    its last finite step; a block stops before such a step, so no numpy
    warning is raised, and the steps before it are taken as usual.
    """
    if dt <= 0:
        raise ModalError("dt must be positive")
    if not abs(dt - state.dt) <= 1e-12 * state.dt:
        raise ModalError("step size must match the history grid spacing")
    k = float(k)
    if k != state._k:  # the k of the block ahead passed this check
        _wavenumber(k)
    if state.t + dt > state.s_max + 1e-12:
        raise HistoryTruncationError(
            f"t = {state.t + dt:.6g} exceeds the configured history horizon", state.s_max
        )
    if state._medium is None:
        state._medium = medium
        state._nu0 = (medium.nu_e.value_at_zero(), medium.nu_h.value_at_zero())
    elif medium is not state._medium and medium != state._medium:
        raise ModalError("this history was started in another medium; a history "
                         "is advanced in one medium only")
    if not state._ahead or k != state._k:
        _next_block(state, medium, k)
        if not state._ahead:
            raise ModalError(f"the fields at t = {state.e_past.n * state.dt:.17g} are not "
                             "finite: they or their memory sums outgrow the float range")
    state._ahead -= 1
    state.e_past.n += 1
    state.h_past.n += 1
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
    across runs.  Fields that outgrow the float range raise ModalError.
    """
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

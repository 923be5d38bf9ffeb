"""Per-mode reduction of the dispersive cavity system and its integrators.

Each divergence-free cavity eigenmode with curl eigenvalue k obeys a
2-component Volterra system; for exponential-polynomial kernels the memory
convolutions close exactly into auxiliary linear states (one companion block
per damped term), so the mode becomes a small constant-coefficient ODE that
is advanced with the matrix exponential (``expm``: Pade-13 scaling and
squaring in numpy, vectorized over a stack of mode matrices).  A
history-quadrature integrator is kept as the independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .kernels import (
    ExpPolyKernel,
    Kernel,
    KernelError,
    SampledKernel,
    _poly_product,
    _poly_sum,
    eval_kernel,
    laplace_rational,
)


# doubles in one block of output states in run_multimode (128 KiB)
_BLOCK_ELEMENTS = 2**14


class ModalError(ValueError):
    pass


class HistoryTruncationError(ModalError):
    def __init__(self, message: str, s_max: float):
        super().__init__(message)
        self.s_max = s_max


@dataclass(frozen=True)
class MediumSpec:
    eps: float
    mu: float
    nu_e: Kernel = ExpPolyKernel.zero()
    nu_h: Kernel = ExpPolyKernel.zero()

    def __post_init__(self):
        if self.eps <= 0 or self.mu <= 0:
            raise ModalError("permittivity and permeability must be positive")


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
    if k < 0:
        raise ModalError("mode wavenumber must be nonnegative")
    for kern in (medium.nu_e, medium.nu_h):
        if isinstance(kern, SampledKernel):
            raise ModalError("sampled kernels admit no finite closure; use step_history")
    # on Python floats an overflowing entry is inf, reported below, with no numpy warning
    k, eps, mu = float(k), float(medium.eps), float(medium.mu)
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
    if np.any(ks < 0):
        raise ModalError("mode wavenumber must be nonnegative")
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
    ``laplace_rational`` and the floats eps, mu and k, and rounded once."""
    for kern in (medium.nu_e, medium.nu_h):
        if isinstance(kern, SampledKernel):
            raise ModalError("dispersion relation needs exponential-polynomial kernels")
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


class _GrowBuf:
    """Append-only float buffer with geometric growth from 1024 slots.

    The first and last values and max|value| are also kept as Python floats,
    for step_history's stage arithmetic and overflow bound.
    """

    def __init__(self, first: float = 0.0):
        self._data = np.zeros(1024)
        self._data[0] = first
        self.n = 1
        self.first = self.last = float(first)
        self.max_abs = abs(self.first)

    def append(self, value: float):
        if self.n == self._data.size:
            self._data = np.concatenate([self._data, np.zeros(self._data.size)])
        self._data[self.n] = value
        self.n += 1
        self.last = value
        if abs(value) > self.max_abs:
            self.max_abs = abs(value)

    def view(self) -> np.ndarray:
        return self._data[: self.n]


@dataclass
class HistoryState:
    """Field history on the uniform step grid, for the reference integrator.

    The kernel values cached here (lag weights, their lag-0 ends and bound,
    nu(0)) belong to the medium of the first step, which is recorded; a
    history is advanced in one medium only.
    """

    dt: float
    s_max: float
    e_past: _GrowBuf = field(default_factory=_GrowBuf)
    h_past: _GrowBuf = field(default_factory=_GrowBuf)
    _weights: dict = field(default_factory=dict, repr=False)
    _ends: dict = field(default_factory=dict, repr=False)
    _medium: MediumSpec | None = field(default=None, repr=False)
    _nu0: tuple[float, float] | None = field(default=None, repr=False)

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
    """An empty history on the grid of step dt, up to t = s_max, starting at (e0, h0)."""
    if not (math.isfinite(dt) and dt > 0):
        raise ModalError(f"dt must be finite and positive, got {dt!r}")
    for name, value in (("s_max", s_max), ("e0", e0), ("h0", h0)):
        if not math.isfinite(value):
            raise ModalError(f"{name} must be finite, got {value!r}")
    return HistoryState(dt=dt, s_max=s_max, e_past=_GrowBuf(e0), h_past=_GrowBuf(h0))


# the lag offsets c of the stage times t + c dt, one row of lag weights each
_OFFSETS = np.array([[0.0], [0.5], [1.0]])


def _memory(state: HistoryState, kernel: Kernel, key: str, past: _GrowBuf):
    """The memory terms of one field at the stage times t + c dt, c = 0, 1/2, 1.

    y_c = int_0^{t + c dt} nu'(t + c dt - s) f(s) ds by the trapezoid rule on
    the stored past f_0..f_n and, for c > 0, one panel from t to the stage
    value f(t + c dt).  Returns (y_0, y_1/2, y_1, g) without the stage value's
    term, which is c g f(t + c dt), and g = dt nu'(0) / 2.

    The weights nu'((m + c) dt) are cached as one (3, size) array, one row per
    c, lag-reversed (lag m in column size - 1 - m), so that the lags n..0 of a
    step are its last n + 1 columns and the three sums are one product.  A
    short cache doubles, up to the last lag the history horizon allows, in one
    kernel evaluation; nothing is allocated for lags that the run has not
    reached.  A growth also caches the lag-0 weights, g and max|w| as floats.
    np.errstate is entered at a growth, and for a product only past the bound
    (n + 1) max|w| max|f| > 1e300 (or NaN), below which no partial sum can
    overflow.  A weight or a sum that overflows makes the step's fields not
    finite, which step_history reports.
    """
    n = past.n - 1
    dt = state.dt
    w = state._weights.get(key)
    if w is None or w.shape[1] <= n:
        have = 0 if w is None else w.shape[1]
        horizon = int((state.s_max + 1e-12) / dt) + 1
        size = max(n + 1, min(2 * have, horizon))
        t = (np.arange(size - 1, have - 1, -1) + _OFFSETS) * dt
        with np.errstate(over="ignore", invalid="ignore"):
            grown = np.reshape(eval_kernel(kernel, t.ravel(), 1), t.shape)
            w = state._weights[key] = grown if w is None else np.concatenate([grown, w], axis=1)
            w_max = float(np.max(np.abs(w)))
        near = w[:, -1].tolist()  # lag 0
        state._ends[key] = (*near, 0.5 * dt * near[0], w_max)
    b0, b1, b2, g, w_max = state._ends[key]
    fn = past.last
    y0 = y1 = y2 = 0.0
    if n:
        col = w.shape[1] - 1 - n  # lag n
        if (n + 1) * w_max * past.max_abs <= 1e300:
            s0, s1, s2 = (w[:, col:] @ past.view()).tolist()
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                s0, s1, s2 = (w[:, col:] @ past.view()).tolist()
        (a0, a1, a2), f0 = w[:, col].tolist(), past.first
        y0 = dt * (s0 - 0.5 * (a0 * f0 + b0 * fn))
        y1 = dt * (s1 - 0.5 * (a1 * f0 + b1 * fn))
        y2 = dt * (s2 - 0.5 * (a2 * f0 + b2 * fn))
    panel = 0.5 * dt * fn
    return y0, y1 + 0.5 * panel * b1, y2 + panel * b2, g


def step_history(medium: MediumSpec, k: float, state: HistoryState, dt: float) -> HistoryState:
    """One step of the brute-force reference integrator (any kernel type).

    Four-stage explicit scheme; each stage evaluates the Volterra convolution
    by trapezoidal quadrature over the stored past.  The past does not change
    within a step, so each live field takes the sums of its three stage
    offsets from one product (see ``_memory``; it caches the end weights and
    enters np.errstate only at a weight growth or past an overflow bound), and
    the four stages run as straight-line Python float code.  The step is
    state.dt, the grid spacing that _memory's weights and sums are built on;
    dt must match it to 1e-12 relative.  Serves as the oracle for step_exact
    and is the only integrator available for sampled kernels.  Every step of
    one history takes the medium of its first step, that object or an equal
    one (a sampled kernel is equal only with the same evaluator); another
    medium raises ModalError, and so does a step whose fields are not finite,
    which leaves the history as it was.
    """
    if dt <= 0:
        raise ModalError("dt must be positive")
    if not abs(dt - state.dt) <= 1e-12 * state.dt:
        raise ModalError("step size must match the history grid spacing")
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
    eps, mu, k, dt = float(medium.eps), float(medium.mu), float(k), float(state.dt)
    nue0, nuh0 = state._nu0
    # a zero kernel has no memory term; skip its convolution entirely
    ye0 = ye1 = ye2 = ge = yh0 = yh1 = yh2 = gh = 0.0
    if not medium.nu_e.is_zero:
        ye0, ye1, ye2, ge = _memory(state, medium.nu_e, "E", state.e_past)
    if not medium.nu_h.is_zero:
        yh0, yh1, yh2, gh = _memory(state, medium.nu_h, "H", state.h_past)
    # the stages at offsets c = 0, 1/2, 1/2, 1; the memory term at c is y_c + c g x
    e0, h0 = state.e_past.last, state.h_past.last
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
    if not (math.isfinite(e1) and math.isfinite(h1)):
        raise ModalError(f"the fields at t = {state.e_past.n * state.dt:.17g} are not finite: "
                         "they or their memory sums outgrow the float range")
    state.e_past.append(e1)
    state.h_past.append(h1)
    return state


@dataclass(frozen=True)
class EnergyTrace:
    times: np.ndarray
    energy: np.ndarray
    history_norm: np.ndarray | None = None

    def __post_init__(self):
        if self.times.shape != self.energy.shape:
            raise ModalError("times and energy must have equal length")


def cavity_modes(length: float, n_max: int):
    """k_n = n pi c0 / L for a reference 1D cavity, amplitudes n^-1.5."""
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

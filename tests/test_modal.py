import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dispersia import (
    DampedTerm,
    ExpPolyKernel,
    GAUSSIAN,
    MediumSpec,
    SampledKernel,
    build_mode,
    build_modes,
    cavity_modes,
    debye,
    dispersion_roots,
    drude,
    initial_history,
    lorentz,
    run_multimode,
    spectral_abscissa,
    step_exact,
    step_history,
)
from dispersia import modal
from dispersia._sampled import _gaussian_eval
from dispersia.modal import HistoryTruncationError, ModalError

from conftest import defective_medium, mixed_medium, random_class_k_kernel, random_passive_kernel

ZERO = ExpPolyKernel.zero()


def vacuum():
    return MediumSpec(1.0, 1.0, ZERO, ZERO)


def debye_medium():
    return MediumSpec(1.0, 1.0, debye(), ZERO)


def drude_lorentz_medium():
    """Drude and Lorentz terms in nu_e, a Drude term in nu_h."""
    return MediumSpec(1.3, 1.1, ExpPolyKernel(drude(0.6, 0.8).terms + lorentz(0.9, 2.1, 0.4).terms,
                                              offset=0.6), drude(0.2, 1.5))


def row_by_row(medium, modes, dt, T, stride):
    """One stacked propagator step per output sample, energies summed per row."""
    n_steps = int(round(T / dt))
    times = np.arange(0, n_steps + 1, stride) * dt
    ks, amps = zip(*modes)
    A = modal._closure_stack(medium, ks)
    prop = np.linalg.matrix_power(modal.expm(A * dt), stride)
    state = np.zeros(A.shape[:2] + (1,))
    state[:, 0, 0] = amps
    eps, mu = medium.eps, medium.mu
    energy = np.empty(times.size)
    for j in range(times.size):
        if j:
            state = prop @ state
        energy[j] = np.sum(0.5 * (eps * state[:, 0, 0] ** 2 + mu * state[:, 1, 0] ** 2))
    return times, energy


class TestBuildMode:
    def test_debye_k1_characteristic_polynomial(self):
        system = build_mode(debye_medium(), 1.0)
        assert system.dim == 3
        coeffs = np.poly(system.A)  # leading first
        assert np.allclose(coeffs, [1.0, 2.0, 1.0, 1.0], atol=1e-12)

    def test_k0_zero_kernels_is_static(self):
        system = build_mode(vacuum(), 0.0)
        assert system.dim == 2
        assert np.all(system.A == 0)
        state = step_exact(system, np.array([0.3, -0.7]), 1.0)
        assert np.allclose(state, [0.3, -0.7])

    def test_lossless_eigenvalues(self):
        _, eigs = spectral_abscissa(build_mode(vacuum(), 1.0))
        assert np.allclose(sorted(eigs.imag), [-1.0, 1.0], atol=1e-12)
        assert np.allclose(eigs.real, 0.0, atol=1e-12)

    def test_lossless_rotation_period(self):
        system = build_mode(vacuum(), 1.0)
        state = step_exact(system, np.array([1.0, 0.0]), 2 * np.pi)
        assert np.allclose(state, [1.0, 0.0], atol=1e-10)

    def test_sampled_kernel_rejected(self):
        with pytest.raises(ModalError):
            build_mode(MediumSpec(1.0, 1.0, GAUSSIAN, ZERO), 1.0)

    def test_negative_k_rejected(self):
        with pytest.raises(ModalError):
            build_mode(vacuum(), -1.0)

    def test_build_modes_bit_identical_to_build_mode(self):
        medium = mixed_medium()
        ks = [0.0] + list(np.random.default_rng(3).uniform(0.0, 50.0, 12))
        for k, system in zip(ks, build_modes(medium, ks)):
            single = build_mode(medium, k)
            assert system.k == single.k
            assert system.A.tobytes() == single.A.tobytes()

    def test_build_modes_negative_k_rejected(self):
        with pytest.raises(ModalError):
            build_modes(vacuum(), [1.0, -1.0])

    def test_energy_of_initial_state(self):
        system = build_mode(MediumSpec(2.0, 3.0, debye(), ZERO), 1.0)
        state = system.initial_state(2.0)
        assert system.energy(state) == pytest.approx(0.5 * 2.0 * 4.0)


def numpy_derivative(kernel):
    """The former numpy ExpPolyKernel.derivative, kept as the reference."""
    new_terms = []
    for t in kernel.terms:
        p, q = np.asarray(t.p), np.asarray(t.q)
        ell = np.arange(1, p.size)
        dp, dq = (np.append(ell * c[1:], 0.0) for c in (p, q))
        np_ = dp + t.x * p + t.y * q
        nq_ = dq + t.x * q - t.y * p
        if np.any(np_) or np.any(nq_):
            new_terms.append(DampedTerm(tuple(np_), tuple(nq_), t.x, t.y))
    return ExpPolyKernel(tuple(new_terms), 0.0)


def numpy_companion_blocks(theta):
    """The former numpy companion blocks: (block matrix, drive column, readout row)."""
    for term in theta.terms:
        r = 1 if term.y == 0.0 else 2
        n = r * len(term.p)
        turn = np.array(((term.x, -term.y), (term.y, term.x)))[:r, :r]
        B = np.eye(n, k=-r)
        for u in range(0, n, r):
            B[u:u + r, u:u + r] = turn
        drive = np.eye(1, n)[0]
        fact = np.cumprod(np.maximum(np.arange(len(term.p)), 1.0))  # l!
        read = (np.array((term.p, term.q))[:r] * fact).T.ravel()
        yield B, drive, read


def numpy_mode_matrix(medium, k):
    """The former numpy assembly of build_mode(medium, k).A, kept as the reference."""
    eps, mu = medium.eps, medium.mu
    blocks = [(slot, coef, block)
              for slot, kern, coef in ((0, medium.nu_e, eps), (1, medium.nu_h, mu))
              for block in numpy_companion_blocks(numpy_derivative(kern))]
    dim = 2 + sum(B.shape[0] for _, _, (B, _, _) in blocks)
    A = np.zeros((dim, dim))
    A[0, 0] = -medium.nu_e.value_at_zero() / eps
    A[1, 1] = -medium.nu_h.value_at_zero() / mu
    A[0, 1] = k / eps
    A[1, 0] = -k / mu
    pos = 2
    for slot, coef, (B, drive, read) in blocks:
        n = B.shape[0]
        A[pos : pos + n, pos : pos + n] = B
        A[pos : pos + n, slot] = drive
        A[slot, pos : pos + n] = -read / coef
        pos += n
    return A


def term_bits(kernel):
    """Every float of a kernel's terms, as bytes (signed zeros included)."""
    return [(np.array(t.p).tobytes(), np.array(t.q).tobytes(), np.float64(t.x).tobytes(),
             np.float64(t.y).tobytes()) for t in kernel.terms]


class TestClosureAssembly:
    """build_mode assembles on Python floats; the former numpy assembly is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), eps=st.floats(0.05, 20.0), mu=st.floats(0.05, 20.0),
           k=st.floats(0.0, 1e3), offset=st.sampled_from([0.0, 0.7]))
    def test_bit_identical_to_numpy_assembly(self, seed, eps, mu, k, offset):
        rng = np.random.default_rng(seed)
        nu_e, nu_h = (random_class_k_kernel(rng, 3, 3) for _ in range(2))
        medium = MediumSpec(eps, mu, ExpPolyKernel(nu_e.terms, offset),
                            nu_h if rng.random() < 0.8 else ZERO)
        for kern in (medium.nu_e, medium.nu_h, nu_e.derivative()):
            assert term_bits(kern.derivative()) == term_bits(numpy_derivative(kern))
        assert build_mode(medium, k).A.tobytes() == numpy_mode_matrix(medium, k).tobytes()
        ks = [0.0, k, 2.5]
        stack = modal._closure_stack(medium, ks)
        assert stack.tobytes() == np.stack([numpy_mode_matrix(medium, kk) for kk in ks]).tobytes()

    def test_signed_zeros_kept(self):
        # (1 + 2t) e^{-2t} has the derivative (0 - 4t) e^{-2t}: its zero reads out as -0.0
        medium = MediumSpec(1.5, 0.7, ExpPolyKernel((DampedTerm((1.0, 2.0), (0.0,), -2.0, 0.0),
                                                     DampedTerm((0.0, 2.0), (1.0,), -0.5, 1.5))),
                            drude(0.4, 0.9))
        A = build_mode(medium, 3.0).A
        assert A.tobytes() == numpy_mode_matrix(medium, 3.0).tobytes()
        assert A[0, 2] == 0.0 and np.signbit(A[0, 2])

    def test_overflowing_derivative_names_field(self):
        # 1e308 e^{-10 t} has a derivative beyond the float range
        huge = ExpPolyKernel((DampedTerm((1e308,), (0.0,), -10.0, 0.0),))
        medium = MediumSpec(1.0, 1.0, ZERO, huge)
        with pytest.raises(ModalError, match=r"^medium\.nu_h: .*overflows"):
            build_mode(medium, 1.0)

    @pytest.mark.parametrize("medium, row, name", [
        (MediumSpec(1e-310, 1.0, debye(), ZERO), 0, "eps"),
        (MediumSpec(1.0, 1e-310, ZERO, debye()), 1, "mu"),
    ])
    def test_overflowing_entry_names_its_divisor(self, medium, row, name):
        # at eps = 1e-310, row 0 of the unit Debye closure would be [-inf, inf, inf],
        # on which spectral_abscissa would end in numpy's LinAlgError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModalError, match=f"^the mode matrix is not finite: an entry of "
                                                 f"row {row}, divided by medium.{name}, overflows"):
                build_mode(medium, 1.0)


class TestSpectra:
    def test_debye_k1_abscissa(self):
        absc, _ = spectral_abscissa(build_mode(debye_medium(), 1.0))
        assert absc == pytest.approx(-0.1226, abs=1e-4)

    def test_dispersion_roots_zero_kernels(self):
        for k in (1.0, 3.0):
            roots = dispersion_roots(vacuum(), k)
            assert np.allclose(sorted(roots.imag), [-k, k], atol=1e-12)

    def test_dispersion_roots_debye(self):
        roots = dispersion_roots(debye_medium(), 1.0)
        expected = np.roots([1.0, 2.0, 1.0, 1.0])
        assert np.allclose(sorted(roots.real), sorted(expected.real), atol=1e-10)

    def test_roots_subset_of_eigenvalues(self):
        rng = np.random.default_rng(20)
        media = []
        for _ in range(6):
            nu_e = random_passive_kernel(rng)
            nu_h = random_passive_kernel(rng) if rng.random() < 0.5 else ZERO
            media.append(MediumSpec(1.0, 1.0, nu_e, nu_h))
        # terms of degree up to 2, so oscillating blocks of degree >= 1 occur
        rng_deg = np.random.default_rng(21)
        media += [MediumSpec(1.0, 1.0, random_class_k_kernel(rng_deg, 2, 2), ZERO)
                  for _ in range(6)]
        for medium in media:
            for k in (1.0, 10.0):
                roots = dispersion_roots(medium, k)
                _, eigs = spectral_abscissa(build_mode(medium, k))
                for r in roots:
                    assert np.min(np.abs(eigs - r)) <= 1e-8

    def test_extra_eigenvalues_are_kernel_modes(self):
        # eigenvalues beyond the dispersion roots sit at the decoupled z_j
        medium = MediumSpec(1.0, 1.0, drude(), ZERO)
        roots = dispersion_roots(medium, 1.0)
        _, eigs = spectral_abscissa(build_mode(medium, 1.0))
        extra = [ev for ev in eigs if np.min(np.abs(roots - ev)) > 1e-8]
        zmin = min(abs(z.real) for _, z in medium.nu_e.complex_terms())
        assert all(ev.real <= -zmin + 1e-8 for ev in extra)

    def test_lorentz_k10_mutual_oracle(self):
        medium = MediumSpec(1.0, 1.0, lorentz(), ZERO)
        roots = dispersion_roots(medium, 10.0)
        absc, _ = spectral_abscissa(build_mode(medium, 10.0))
        assert abs(np.max(roots.real) - absc) <= 1e-8

    def test_abscissa_negative_for_strictly_passive(self):
        for kern in (debye(), lorentz(), drude()):
            medium = MediumSpec(1.0, 1.0, kern, ZERO)
            for k in (0.5, 5.0, 50.0):
                absc, _ = spectral_abscissa(build_mode(medium, k))
                assert absc < 0

    def test_eigenvector_history_transport(self):
        # eta(s) = (1 - e^{-lambda s})/lambda * E solves lambda eta + eta_s - E = 0
        _, eigs = spectral_abscissa(build_mode(debye_medium(), 1.0))
        s = np.linspace(0.1, 5.0, 20)
        for lam in eigs:
            e_field = 1.0
            eta = (1 - np.exp(-lam * s)) / lam * e_field
            resid = lam * eta + np.exp(-lam * s) * e_field - e_field
            assert np.max(np.abs(resid)) <= 1e-12


def former_lag_weights(state, kernel, key, c, n):
    """Cached nu'((m + c) dt) for m = 0..n, one cache per (field, c): the former
    ``modal._lag_weights``, kept as the reference."""
    buf = state.weights.get((key, c), np.empty(0))
    if buf.size <= n:
        horizon = int((state.s_max + 1e-12) / state.dt) + 1
        size = max(n + 1, min(2 * buf.size, horizon))
        t_new = (np.arange(buf.size, size) + c) * state.dt
        buf = np.concatenate([buf, np.atleast_1d(modal.eval_kernel(kernel, t_new, 1))])
        state.weights[(key, c)] = buf
    return buf[: n + 1]


def former_convolution(state, kernel, key, samples, c, stage_value):
    """The former ``modal._convolution``: one trapezoid sum per stage."""
    n = len(samples) - 1
    dt = state.dt
    w = former_lag_weights(state, kernel, key, c, n)
    if n > 0:
        wrev = w[::-1]
        total = dt * (np.dot(wrev, samples) - 0.5 * (wrev[0] * samples[0] + wrev[-1] * samples[-1]))
    else:
        total = 0.0
    if c > 0.0:
        nup0 = former_lag_weights(state, kernel, key, 0.0, 0)[0]
        total += 0.5 * c * dt * (w[0] * samples[-1] + nup0 * stage_value)
    return total


def former_history(medium, k, dt, steps, s_max, e0=1.0, h0=0.0):
    """Fields (E, H) of the former per-stage history integrator over `steps`
    steps, shape (2, steps + 1): four weight lookups and four dot products per
    live field and step, on numpy scalars.  k is one wavenumber or one per step."""
    ks = [k] * steps if np.isscalar(k) else list(k)
    assert len(ks) == steps
    state = SimpleNamespace(dt=dt, s_max=s_max, weights={})
    nue0 = float(modal.eval_kernel(medium.nu_e, 0.0, 0))
    nuh0 = float(modal.eval_kernel(medium.nu_h, 0.0, 0))
    live_e = not (isinstance(medium.nu_e, ExpPolyKernel) and medium.nu_e.is_zero)
    live_h = not (isinstance(medium.nu_h, ExpPolyKernel) and medium.nu_h.is_zero)
    e_hist, h_hist = [e0], [h0]
    for k in ks:
        e_samples, h_samples = np.array(e_hist), np.array(h_hist)

        def rhs(c, e_star, h_star):
            conv_e = (former_convolution(state, medium.nu_e, "E", e_samples, c, e_star)
                      if live_e else 0.0)
            conv_h = (former_convolution(state, medium.nu_h, "H", h_samples, c, h_star)
                      if live_h else 0.0)
            de = (-nue0 * e_star - conv_e + k * h_star) / medium.eps
            dh = (-nuh0 * h_star - conv_h - k * e_star) / medium.mu
            return de, dh

        e0, h0 = e_hist[-1], h_hist[-1]
        k1 = rhs(0.0, e0, h0)
        k2 = rhs(0.5, e0 + 0.5 * dt * k1[0], h0 + 0.5 * dt * k1[1])
        k3 = rhs(0.5, e0 + 0.5 * dt * k2[0], h0 + 0.5 * dt * k2[1])
        k4 = rhs(1.0, e0 + dt * k3[0], h0 + dt * k3[1])
        e_hist.append(float(e0 + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])))
        h_hist.append(float(h0 + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])))
    return np.array([e_hist, h_hist]), state.weights


def assert_matches_former(medium, k, dt, steps, s_max, e0=1.0, h0=0.0):
    """Fields within 1e-12 of the largest |field| of the former integrator, and
    every lag weight bit for bit (the stacked rows are lag-reversed)."""
    hist = initial_history(dt, s_max=s_max, e0=e0, h0=h0)
    for _ in range(steps):
        hist = step_history(medium, k, hist, dt)
    ref, ref_weights = former_history(medium, k, dt, steps, s_max, e0, h0)
    got = np.array([hist.e_past.view(), hist.h_past.view()])
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    for key in ("E", "H"):
        if key not in hist._weights:
            assert all(field != key for field, _ in ref_weights)
            continue
        w = hist._weights[key]
        # every lag the steps read is cached; the cache may also hold the lags
        # of the block ahead, and the former doubling could reach the
        # horizon's last lag, which no step reads
        assert w.shape[1] >= steps
        for row, c in zip(w[:, ::-1], (0.0, 0.5, 1.0)):
            both = min(row.size, ref_weights[(key, c)].size)
            assert row[:both].tobytes() == ref_weights[(key, c)][:both].tobytes()
    return hist


class TestStackedStageSums:
    """step_history against a copy of the former per-stage integrator."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.floats(0.0, 20.0),
           dt=st.sampled_from([0.01, 0.02, 0.05]), steps=st.integers(1, 150))
    def test_random_class_k_pairs(self, seed, k, dt, steps):
        rng = np.random.default_rng(seed)
        medium = MediumSpec(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)),
                            random_class_k_kernel(rng, 2, 2), random_class_k_kernel(rng, 2, 2))
        assert_matches_former(medium, k, dt, steps, steps * dt)

    @pytest.mark.parametrize("nu_h", [ZERO, debye(0.5, 2.0)], ids=["zero", "debye"])
    def test_gaussian(self, nu_h):
        assert_matches_former(MediumSpec(1.0, 1.0, GAUSSIAN, nu_h), 1.3, 0.02, 400, 8.0)

    @pytest.mark.parametrize("medium", [MediumSpec(1.0, 1.0, GAUSSIAN, debye(0.5, 2.0)),
                                        mixed_medium()], ids=["gaussian", "mixed"])
    def test_zero_fields(self, medium):
        hist = assert_matches_former(medium, 1.3, 0.02, 50, 1.0, e0=0.0, h0=0.0)
        assert not np.any(hist.e_past.view()) and not np.any(hist.h_past.view())

    @pytest.mark.parametrize("steps", [1, 2, 1023, 1024, 1025])
    def test_step_counts_across_doublings(self, steps):
        hist = assert_matches_former(mixed_medium(), 2.1, 0.01, steps, 30.0)
        # the blocks reach lag ceil(steps / B) B - 1; the cache doubles from B
        # and holds the next power of two
        reached = -(-steps // modal._HISTORY_BLOCK) * modal._HISTORY_BLOCK
        for w in hist._weights.values():
            assert w.shape == (3, 1 << (reached - 1).bit_length())

    def test_horizon_stops_the_growth(self):
        # s_max = 5 on a 0.03 grid allows lags 0..166; doubling would reach 256
        hist = assert_matches_former(MediumSpec(1.0, 1.0, GAUSSIAN, drude(0.2, 1.5)), 1.3,
                                     0.03, 166, 5.0)
        for w in hist._weights.values():
            assert w.shape == (3, 167)


class TestBlockedSteps:
    """step_history, which computes its steps in blocks, against the former
    per-step integrator, across block boundaries, the horizon and k changes."""

    MEDIA = {"gaussian_debye": lambda: MediumSpec(1.0, 1.0, GAUSSIAN, debye(0.5, 2.0)),
             "mixed": mixed_medium, "drude_lorentz": drude_lorentz_medium}

    @settings(max_examples=40, deadline=None)
    @given(medium=st.sampled_from(sorted(MEDIA)), blocks=st.integers(0, 4),
           extra=st.integers(-1, 1), at_horizon=st.booleans(),
           switch=st.one_of(st.none(), st.integers(1, 160)), zero=st.booleans(),
           k=st.floats(0.0, 8.0), k2=st.floats(0.0, 8.0))
    def test_matches_former(self, medium, blocks, extra, at_horizon, switch, zero, k, k2):
        # steps = blocks * B + extra covers 0, 1 and several block boundaries
        steps = max(1, blocks * modal._HISTORY_BLOCK + extra)
        medium, dt = self.MEDIA[medium](), 0.02
        s_max = steps * dt if at_horizon else steps * dt + 1.0
        e0, h0 = (0.0, 0.0) if zero else (1.0, -0.4)
        ks = [k if switch is None or i < switch else k2 for i in range(steps)]
        hist = initial_history(dt, s_max=s_max, e0=e0, h0=h0)
        for kk in ks:
            hist = step_history(medium, kk, hist, dt)
        ref, _ = former_history(medium, ks, dt, steps, s_max, e0, h0)
        got = np.array([hist.e_past.view(), hist.h_past.view()])
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        if zero:
            assert not np.any(got)
        if at_horizon:
            with pytest.raises(HistoryTruncationError):
                step_history(medium, ks[-1], hist, dt)
            assert hist.t == pytest.approx(steps * dt)

    def test_k_change_mid_block_recomputes_from_the_last_step(self):
        # a new k discards the block's remaining steps; going back to the first
        # k computes them anew from the history as it stands
        medium, dt = MediumSpec(1.0, 1.0, GAUSSIAN, debye(0.5, 2.0)), 0.02
        ks = [1.3] * 40 + [2.0] + [1.3] * 30
        hist = initial_history(dt, s_max=10.0)
        for kk in ks:
            hist = step_history(medium, kk, hist, dt)
        ref, _ = former_history(medium, ks, dt, len(ks), 10.0)
        got = np.array([hist.e_past.view(), hist.h_past.view()])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


    @pytest.mark.parametrize("limit", [40, 7, 1])
    def test_far_sums_in_chunks(self, monkeypatch, limit):
        # the far sums correlate the past in chunks of _CORRELATE_MAX samples;
        # a small limit splits a 300-step history into many
        monkeypatch.setattr(modal, "_CORRELATE_MAX", limit)
        medium, dt, steps = MediumSpec(1.0, 1.0, GAUSSIAN, debye(0.5, 2.0)), 0.02, 300
        hist = initial_history(dt, s_max=steps * dt)
        for _ in range(steps):
            hist = step_history(medium, 1.3, hist, dt)
        ref, _ = former_history(medium, 1.3, dt, steps, steps * dt)
        got = np.array([hist.e_past.view(), hist.h_past.view()])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestHistoryIntegrator:
    def test_matches_exact_on_debye(self):
        medium = debye_medium()
        dt, T = 1e-2, 2.0
        system = build_mode(medium, 1.0)
        exact = system.initial_state(1.0)
        hist = initial_history(dt, s_max=T)
        for _ in range(int(round(T / dt))):
            exact = step_exact(system, exact, dt)
            hist = step_history(medium, 1.0, hist, dt)
        err = np.hypot(hist.e - exact[0], hist.h - exact[1])
        assert err <= 1e-4 * np.linalg.norm(exact[:2])

    def test_lossless_energy_conservation(self):
        medium = vacuum()
        dt = 1e-2
        hist = initial_history(dt, s_max=5.0)
        for _ in range(200):
            hist = step_history(medium, 1.0, hist, dt)
        energy = 0.5 * (hist.e**2 + hist.h**2)
        assert energy == pytest.approx(0.5, abs=1e-8)

    def test_gaussian_medium_energy_nonincreasing(self):
        medium = MediumSpec(1.0, 1.0, GAUSSIAN, ZERO)
        dt = 1e-2
        hist = initial_history(dt, s_max=3.0)
        e0 = 0.5 * (hist.e**2 + hist.h**2)
        for _ in range(200):
            hist = step_history(medium, 1.0, hist, dt)
            energy = 0.5 * (hist.e**2 + hist.h**2)
            assert energy <= e0 * (1 + 1e-10)

    def test_horizon_truncation_error(self):
        hist = initial_history(0.1, s_max=0.5)
        with pytest.raises(HistoryTruncationError) as err:
            for _ in range(10):
                hist = step_history(vacuum(), 1.0, hist, 0.1)
        assert err.value.s_max == 0.5

    def test_grid_spacing_enforced(self):
        hist = initial_history(0.1, s_max=1.0)
        with pytest.raises(ModalError):
            step_history(vacuum(), 1.0, hist, 0.05)

    def test_steps_with_the_closures_nu0(self):
        # 0.1 + (0.2 + 0.3) is 0.6, while a sum of the terms' values at t = 0 that
        # starts from the offset, (0.1 + 0.2) + 0.3, is 0.6000000000000001
        kern = ExpPolyKernel((DampedTerm((0.2,), (0.0,), -1.0, 0.0),
                              DampedTerm((0.3,), (0.0,), -2.0, 0.0)), 0.1)
        medium = MediumSpec(1.0, 1.0, kern, ZERO)
        hist = step_history(medium, 1.0, initial_history(0.1, s_max=1.0), 0.1)
        assert hist._nu0 == (-build_mode(medium, 1.0).A[0, 0], 0.0)
        assert hist._nu0[0] == 0.6

    def _run(self, medium, s_max, steps, dt=0.02, e0=1.0):
        hist = initial_history(dt, s_max=s_max, e0=e0)
        for _ in range(steps):
            hist = step_history(medium, 1.3, hist, dt)
        return hist

    def test_horizon_does_not_change_values(self):
        # the lag-weight cache stops at the horizon for s_max = 6 and grows
        # freely for s_max = 600; the weights, and so the fields, must agree
        medium = MediumSpec(1.0, 1.0, GAUSSIAN, debye(0.5, 2.0))
        short = self._run(medium, 6.0, 300)
        long = self._run(medium, 600.0, 300)
        assert short.e_past.view().tobytes() == long.e_past.view().tobytes()
        assert short.h_past.view().tobytes() == long.h_past.view().tobytes()
        steps = 300
        assert all(w[0].size <= 2 * (steps + 1) for w in long._weights.values())
        assert all(w[0].size <= 2 * (steps + 1) for w in short._weights.values())

    @staticmethod
    def _counting(monkeypatch, owner, name):
        """Patch owner.name with a wrapper that records each call; returns the record."""
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_kernel_evaluations_grow_logarithmically(self, monkeypatch):
        calls = self._counting(monkeypatch, modal, "eval_kernel")
        steps = 3000
        hist = self._run(MediumSpec(1.0, 1.0, GAUSSIAN, ZERO), 600.0, steps)
        # one call per growth of the one live field's weights: sizes 32, 64,
        # ..., 4096 for the blocks' lags up to 3007; nu(0) comes from
        # value_at_zero()
        block = modal._HISTORY_BLOCK
        reached = -(-steps // block) * block
        growths = 1 + (reached - 1).bit_length() - (block - 1).bit_length()
        assert growths == 8
        assert [order for _, _, order in calls] == [1] * growths
        assert all(w[0].size <= 2 * (steps + 1) for w in hist._weights.values())

    def test_errstate_once_per_block(self, monkeypatch):
        # a step enters no np.errstate; each block enters it once, around its
        # weight growths and sums: 93 blocks of 32 steps and one of 24 up to
        # the horizon, and weight sizes 32, 64, ..., 2048, 3001 for each field
        entries = self._counting(monkeypatch, modal.np, "errstate")
        growths = self._counting(monkeypatch, modal, "eval_kernel")
        steps = 3000
        self._run(MediumSpec(1.0, 1.0, GAUSSIAN, debye(0.5, 2.0)), 30.0, steps, dt=0.01)
        assert len(growths) == 2 * 8
        assert len(entries) == -(-steps // modal._HISTORY_BLOCK) == 94

    @pytest.mark.parametrize("power", [1000, 900])
    def test_power_of_two_scaling_is_exact_per_block(self, monkeypatch, power):
        # the scheme is linear, so a history started at E = 2^p is 2^p times the
        # one started at E = 1, bit for bit.  At 2^1000 the fields and their
        # sums come near the float limit, 2^1024.  Neither overflows or warns,
        # and np.errstate is entered once per block.
        medium = MediumSpec(1.0, 1.0, GAUSSIAN, debye(0.5, 2.0))
        steps = 3000
        unit = self._run(medium, 30.0, steps, dt=0.01)
        entries = self._counting(monkeypatch, modal.np, "errstate")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = self._run(medium, 30.0, steps, dt=0.01, e0=2.0**power)
        for got, ref in ((scaled.e_past, unit.e_past), (scaled.h_past, unit.h_past)):
            assert got.view().tobytes() == (ref.view() * 2.0**power).tobytes()
        assert len(entries) == -(-steps // modal._HISTORY_BLOCK)

    def test_second_medium_rejected(self):
        hist = step_history(debye_medium(), 1.0, initial_history(0.1, s_max=2.0), 0.1)
        # an equal medium built anew is the same medium
        hist = step_history(debye_medium(), 1.0, hist, 0.1)
        with pytest.raises(ModalError, match="another medium"):
            step_history(MediumSpec(1.0, 1.0, lorentz(), ZERO), 1.0, hist, 0.1)
        assert hist.t == pytest.approx(0.2)

    def test_second_sampled_evaluator_rejected(self):
        # equal C, delta and name but another evaluator is another medium
        def halved(t, order):
            return 0.5 * _gaussian_eval(t, order)

        first = MediumSpec(1.0, 1.0, GAUSSIAN, ZERO)
        hist = step_history(first, 1.0, initial_history(0.1, s_max=2.0), 0.1)
        hist = step_history(MediumSpec(1.0, 1.0, SampledKernel(_gaussian_eval, 3.4, 1.0,
                                                               "gaussian"), ZERO), 1.0, hist, 0.1)
        other = MediumSpec(1.0, 1.0, SampledKernel(halved, 3.4, 1.0, "gaussian"), ZERO)
        assert other != first
        with pytest.raises(ModalError, match="another medium"):
            step_history(other, 1.0, hist, 0.1)


    def test_fields_outgrowing_the_float_range_raise(self):
        # nu_E = e^{2t}: the lag weights overflow from t = 354.5 and the fields
        # near there; no lag beyond the last step may warn before that
        medium = MediumSpec(1.0, 1.0, ExpPolyKernel((DampedTerm((1.0,), (0.0,), 2.0, 0.0),)), ZERO)
        hist = initial_history(0.05, s_max=400.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModalError, match=r"^the fields at t = \S+ are not finite") as err:
                for _ in range(8000):
                    hist = step_history(medium, 3.0, hist, 0.05)
        named = float(str(err.value).split()[5])
        assert 350.0 < named < 360.0
        # the failed step left the history at its last finite step
        assert named == pytest.approx(hist.t + 0.05)
        assert np.all(np.isfinite(hist.e_past.view())) and np.all(np.isfinite(hist.h_past.view()))

    @pytest.mark.parametrize("name, kwargs", [
        ("dt", dict(dt=np.nan)), ("dt", dict(dt=np.inf)), ("dt", dict(dt=0.0)), ("dt", dict(dt=-0.1)),
        ("s_max", dict(s_max=np.nan)), ("s_max", dict(s_max=np.inf)), ("s_max", dict(s_max=-np.inf)),
        ("e0", dict(e0=np.inf)), ("e0", dict(e0=np.nan)), ("h0", dict(h0=-np.inf)),
        ("s_max", dict(dt=1e-300, s_max=1e300)),
    ])
    def test_initial_history_rejects_bad_arguments(self, name, kwargs):
        args = dict(dt=0.1, s_max=1.0) | kwargs
        with pytest.raises(ModalError, match=f"^{name} must be"):
            initial_history(**args)

    def test_steps_on_the_grid_spacing(self):
        # a dt within 1e-12 relative of the grid spacing is accepted, and the
        # step taken is the grid's, on which the memory weights are built
        medium = MediumSpec(1.0, 1.0, GAUSSIAN, debye(0.5, 2.0))
        runs = []
        for dt in (0.02, 0.02 * (1 + 1e-13)):
            hist = initial_history(0.02, s_max=1.0)
            for _ in range(20):
                hist = step_history(medium, 1.3, hist, dt)
            runs.append((hist.e_past.view().tobytes(), hist.h_past.view().tobytes()))
        assert runs[0] == runs[1]

    def test_nan_step_size_rejected(self):
        with pytest.raises(ModalError, match="grid spacing"):
            step_history(vacuum(), 1.0, initial_history(0.1, s_max=1.0), np.nan)


def expm_40_digits(a):
    """mpmath's matrix exponential at 40 significant digits, rounded to floats."""
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)


def rel_1norm_error(got, ref):
    return np.abs(got - ref).sum(axis=0).max() / np.abs(ref).sum(axis=0).max()


class TestExpm:
    @pytest.mark.parametrize("dt", [0.02, 0.2])
    @pytest.mark.parametrize("medium", [mixed_medium(), defective_medium()],
                             ids=["lorentz_debye_drude", "defective"])
    def test_mode_stack_matches_mpmath(self, medium, dt):
        A = modal._closure_stack(medium, [k for k, _ in cavity_modes(1.0, 200)])
        got = modal.expm(A * dt)
        assert got.shape == A.shape
        for i in list(range(0, 200, 10)) + [199]:  # mpmath takes ~30 ms a slice
            assert rel_1norm_error(got[i], expm_40_digits(A[i] * dt)) <= 1e-13
        # a slice's result does not depend on the rest of the stack
        for i in range(200):
            assert np.array_equal(got[i], modal.expm(A[i] * dt))

    def test_each_slice_scaled_on_its_own(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4))
        m /= np.abs(m).sum(axis=0).max()
        triangular = np.array([[-1.0, 1e6, 0.0, 0.0], [0.0, -2.0, 0.0, 0.0],
                               [0.0, 0.0, -3.0, 0.5], [0.0, 0.0, 0.0, -1.0]])
        stack = np.stack([np.zeros((4, 4)), 1e-3 * m, 5.0 * m, triangular])
        norms = np.abs(stack).sum(axis=1).max(axis=1)
        assert np.allclose(norms, [0.0, 1e-3, 5.0, 1e6 + 2.0], rtol=1e-15)
        got = modal.expm(stack)
        assert np.array_equal(got[0], np.eye(4))
        for a, e in zip(stack[1:], got[1:]):
            # the relative condition number of exp at a is at least |a|
            # (Van Loan 1977), so the bound grows with the norm past 100
            bound = max(1e-13, 1e-15 * np.abs(a).sum(axis=0).max())
            assert rel_1norm_error(e, expm_40_digits(a)) <= bound
        for a, e in zip(stack, got):
            assert np.array_equal(e, modal.expm(a))

    def test_matrix_input(self):
        a = build_mode(mixed_medium(), 3.0).A * 0.1
        got = modal.expm(a)
        assert got.shape == a.shape
        assert rel_1norm_error(got, expm_40_digits(a)) <= 1e-13
        assert np.array_equal(modal.expm(np.zeros((1, 1))), np.ones((1, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 1] = bad
        with pytest.raises(ModalError, match="non-finite"):
            modal.expm(stack)
        with pytest.raises(ModalError, match="non-finite"):
            modal.expm(stack[1])


class TestMultimode:
    def test_empty_mode_list(self):
        trace = run_multimode(debye_medium(), [], dt=0.1, T=1.0)
        assert trace.times.size == 0

    def test_zero_amplitude(self):
        trace = run_multimode(debye_medium(), [(1.0, 0.0), (2.0, 0.0)], dt=0.1, T=1.0)
        assert np.all(trace.energy == 0.0)

    def test_energy_bound(self):
        modes = cavity_modes(1.0, 10)
        trace = run_multimode(debye_medium(), modes, dt=0.05, T=20.0)
        assert np.all(trace.energy <= trace.energy[0] * (1 + 1e-10))

    def test_cavity_modes_spacing(self):
        modes = cavity_modes(2.0, 3)
        ks = [k for k, _ in modes]
        assert np.allclose(ks, [np.pi / 2, np.pi, 3 * np.pi / 2])
        amps = [a for _, a in modes]
        assert amps[0] == 1.0 and amps[1] == pytest.approx(2.0**-1.5)

    @pytest.mark.parametrize("length, n_max, match", [
        (0.0, 3, "^cavity length must be positive"),
        (-1.0, 3, "^cavity length must be positive"),
        (np.nan, 3, "^cavity length must be positive"),
        (np.inf, 3, "^cavity length must be positive"),
        (1.0, -3, "^n_max must be an integer from 1 to 1000000"),
        (1.0, 0, "^n_max must be an integer from 1 to 1000000"),
        (1.0, True, "^n_max must be an integer from 1 to 1000000"),
        (1.0, 2.0, "^n_max must be an integer from 1 to 1000000"),
        (1.0, modal.MAX_MODES + 1, "^n_max must be an integer from 1 to 1000000"),
        (1e-320, 3, "^the largest wavenumber n_max pi / length is not finite"),
    ], ids=["zero_length", "negative_length", "nan_length", "inf_length", "negative_n_max",
            "zero_n_max", "bool_n_max", "float_n_max", "n_max_too_large", "k_overflows"])
    def test_cavity_modes_rejects_bad_arguments(self, length, n_max, match):
        with pytest.raises(ModalError, match=match):
            cavity_modes(length, n_max)

    def test_cavity_modes_takes_numpy_integers_up_to_the_bound(self, monkeypatch):
        assert cavity_modes(1.0, np.int64(2)) == cavity_modes(1.0, 2)
        monkeypatch.setattr(modal, "MAX_MODES", 5)
        assert len(cavity_modes(1.0, 5)) == 5
        with pytest.raises(ModalError, match="^n_max must be an integer from 1 to 5,"):
            cavity_modes(1.0, 6)

    def test_superposition(self):
        medium = debye_medium()
        both = run_multimode(medium, [(1.0, 1.0), (2.0, 0.5)], dt=0.05, T=5.0)
        first = run_multimode(medium, [(1.0, 1.0)], dt=0.05, T=5.0)
        second = run_multimode(medium, [(2.0, 0.5)], dt=0.05, T=5.0)
        assert np.allclose(both.energy, first.energy + second.energy, rtol=1e-12)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_batched_matches_per_mode_step_exact(self, stride):
        medium = mixed_medium()
        modes = [(0.0, 0.8)] + cavity_modes(1.0, 5)
        dt, T = 0.05, 10.0
        n_steps = int(round(T / dt))
        assert n_steps % 7 != 0
        expected = np.zeros(n_steps // stride + 1)
        for k, amp in modes:
            system = build_mode(medium, k)
            state = system.initial_state(amp)
            expected[0] += system.energy(state)
            for i in range(1, n_steps + 1):
                state = step_exact(system, state, dt)
                if i % stride == 0:
                    expected[i // stride] += system.energy(state)
        trace = run_multimode(medium, modes, dt=dt, T=T, output_stride=stride)
        assert np.array_equal(trace.times, np.arange(0, n_steps + 1, stride) * dt)
        np.testing.assert_allclose(trace.energy, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n_modes", [1, 3, 40])
    def test_one_expm_call_per_run(self, monkeypatch, n_modes):
        calls = []
        real = modal.expm

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(modal, "expm", counting)
        run_multimode(mixed_medium(), cavity_modes(1.0, n_modes), dt=0.1, T=2.0, output_stride=3)
        assert len(calls) == 1
        assert calls[0][0] == n_modes

    def test_overflowing_propagator_rejected(self):
        growing = MediumSpec(1.0, 1.0, ExpPolyKernel((DampedTerm((1.0,), (0.0,), 800.0, 0.0),)),
                             ZERO)
        with np.errstate(over="ignore"), pytest.raises(ModalError, match="not finite"):
            run_multimode(growing, [(1.0, 1.0)], dt=1.0, T=3.0)

    def test_nonpositive_stride_rejected(self):
        with pytest.raises(ModalError):
            run_multimode(debye_medium(), [(1.0, 1.0)], dt=0.1, T=1.0, output_stride=0)

    @pytest.mark.parametrize("dt, T", [(1e-300, 1.0), (1.5e-19, 1.0), (0.1, 1e310), (0.1, np.inf),
                                       (0.1, np.nan)],
                             ids=["dt_tiny", "rows_too_many_bytes", "T_huge", "T_inf", "T_nan"])
    def test_unbounded_row_count_rejected(self, dt, T):
        # the row count is checked before anything is allocated
        with pytest.raises(ModalError, match=r"^T / dt = \S+ is not the step count of a trace"):
            run_multimode(MediumSpec(1, 1, debye()), [(1.0, 1.0)], dt=dt, T=T)


class TestBlockedPropagation:
    MODES = [(0.0, 0.8)] + cavity_modes(1.0, 5)
    DT = 0.02

    @staticmethod
    def _block(medium, n_rows, n_modes):
        return modal._block_size(n_rows, n_modes, build_mode(medium, 0.0).dim)

    @pytest.mark.parametrize("medium", [defective_medium(), drude_lorentz_medium()],
                             ids=["defective", "drude_lorentz"])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_matches_row_by_row(self, medium, stride):
        b = self._block(medium, 5001, len(self.MODES))
        assert b > 2
        counts = [2, b - 1, b, b + 1, 5001]
        # the counts end in full and in partial blocks of their own block size
        remainders = {n % self._block(medium, n, len(self.MODES)) for n in counts}
        assert 0 in remainders and len(remainders) > 1
        for n_rows in counts:
            T = ((n_rows - 1) * stride + 0.2) * self.DT
            times, expected = row_by_row(medium, self.MODES, self.DT, T, stride)
            assert times.size == n_rows
            trace = run_multimode(medium, self.MODES, dt=self.DT, T=T, output_stride=stride)
            assert np.array_equal(trace.times, times)
            assert np.all(np.isfinite(expected)) and np.all(expected > 0)
            np.testing.assert_allclose(trace.energy, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("rate", [0.05, 0.5])
    def test_growing_medium_matches_row_by_row(self, rate):
        # nu_E = e^{rate t}: the powers of P that doubling makes grow with the fields
        growing = MediumSpec(1.0, 1.0, ExpPolyKernel((DampedTerm((1.0,), (0.0,), rate, 0.0),)),
                             ZERO)
        modes = cavity_modes(1.0, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times, expected = row_by_row(growing, modes, self.DT, 100.0, 1)
            trace = run_multimode(growing, modes, dt=self.DT, T=100.0)
        assert modal._block_size(times.size, 12, 3) > 2
        assert np.array_equal(trace.times, times)
        np.testing.assert_allclose(trace.energy, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 63, 64, 65, 5001, 10**6])
    @pytest.mark.parametrize("n_modes, d", [(1, 2), (12, 3), (200, 6), (200, 8), (2000, 12)])
    def test_block_size_caps(self, n_rows, n_modes, d):
        b = modal._block_size(n_rows, n_modes, d)
        assert b >= 1 and b & (b - 1) == 0

        def fits(size):
            return size <= n_rows and n_modes * d * size <= modal._BLOCK_ELEMENTS and size <= 4 * d

        assert b == 1 or fits(b)
        assert not fits(2 * b)  # the largest power of two that fits

    # 12 and 60 modes: blocks sized by the 128 KiB budget alone, without the
    # 4 d cap, would go above the row-by-row peak
    @pytest.mark.parametrize("n_modes", [12, 60, 200])
    def test_heap_peak_not_above_row_by_row(self, n_modes):
        medium = mixed_medium()  # Lorentz, Debye and Drude terms
        modes = cavity_modes(1.0, n_modes)
        args = (medium, modes, 0.02, 100.0, 1)
        peaks = []
        for run in (row_by_row, run_multimode):
            run(*args)  # first-call costs stay outside the measurement
            tracemalloc.start()
            try:
                run(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


@pytest.mark.parametrize("call, match", [
    (lambda: MediumSpec(0.0, 1.0), "must be positive"),
    (lambda: MediumSpec(1.0, -1.0), "must be positive"),
    (lambda: modal.EnergyTrace(np.zeros(3), np.zeros(2)), "equal length"),
    (lambda: run_multimode(debye_medium(), [(1.0, 1.0)], dt=0.1, T=0.1), "T > dt"),
    (lambda: step_history(vacuum(), 1.0, initial_history(0.1, s_max=1.0), 0.0), "dt must be"),
    (lambda: step_history(vacuum(), 1.0, initial_history(0.1, s_max=1.0), -0.1), "dt must be"),
    (lambda: step_exact(build_mode(debye_medium(), 1.0), np.zeros(3), 0.0), "dt must be"),
    (lambda: step_exact(build_mode(debye_medium(), 1.0), np.zeros(2), 0.1), "state dimension"),
    (lambda: step_exact(build_mode(debye_medium(), 1.0), np.array([np.nan, 0.0, 0.0]), 0.1),
     "non-finite state"),
    (lambda: dispersion_roots(MediumSpec(1.0, 1.0, GAUSSIAN, ZERO), 1.0),
     "exponential-polynomial"),
], ids=["eps", "mu", "trace_columns", "T", "history_dt_zero", "history_dt_negative",
        "exact_dt", "exact_shape", "exact_nan", "roots_sampled"])
def test_argument_checks(call, match):
    with pytest.raises(ModalError, match=match):
        call()


@pytest.mark.parametrize("call, k", [
    (lambda k: build_mode(debye_medium(), k), np.nan),
    (lambda k: build_mode(debye_medium(), k), np.inf),
    (lambda k: build_modes(debye_medium(), [1.0, k]), np.inf),
    (lambda k: build_modes(debye_medium(), [1.0, k]), np.nan),
    (lambda k: run_multimode(debye_medium(), [(1.0, 1.0), (k, 1.0)], dt=0.1, T=1.0), np.nan),
    (lambda k: dispersion_roots(debye_medium(), k), np.nan),
    (lambda k: dispersion_roots(debye_medium(), k), np.inf),
], ids=["build_mode_nan", "build_mode_inf", "build_modes_inf", "build_modes_nan",
        "run_multimode_nan", "roots_nan", "roots_inf"])
def test_non_finite_wavenumber(call, k):
    with pytest.raises(ModalError, match=f"^mode wavenumber must be finite and nonnegative, "
                                         f"got {k!r}$"):
        call(k)


@pytest.mark.parametrize("k", [np.nan, np.inf, -1.0])
def test_step_history_wavenumber(k):
    # the check comes before the step: the history stays where it was
    hist = step_history(debye_medium(), 1.0, initial_history(0.1, s_max=1.0), 0.1)
    with pytest.raises(ModalError, match=f"^mode wavenumber must be finite and nonnegative, "
                                         f"got {k!r}$"):
        step_history(debye_medium(), k, hist, 0.1)
    assert hist.t == pytest.approx(0.1)
    assert step_history(debye_medium(), 1.0, hist, 0.1).t == pytest.approx(0.2)


@pytest.mark.parametrize("eps, mu", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)])
def test_medium_non_finite_eps_mu(eps, mu):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModalError, match="^permittivity and permeability must be positive "
                                             "and finite"):
            MediumSpec(eps, mu, debye(), ZERO)

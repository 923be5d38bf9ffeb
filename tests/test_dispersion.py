import time
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings, strategies as st

from dispersia import (
    DampedTerm,
    ExpPolyKernel,
    GAUSSIAN,
    SampledKernel,
    analyze,
    certify_class_K,
    check_passivity,
    check_strict_passivity,
    debye,
    decay_exponent,
    drude,
    laplace,
    lorentz,
    omega_form,
)
from dispersia import dispersion, kernels
from dispersia.dispersion import PassivityError
from dispersia._sampled import _gaussian_eval

from conftest import (
    debye_sum6,
    lorentz_sum6,
    mixed_medium,
    random_class_k_kernel,
    random_passive_kernel,
    series_m0_sample,
    series_m2_sample,
)

ZERO = ExpPolyKernel.zero()


def negative_debye():
    return ExpPolyKernel((DampedTerm((-1.0,), (0.0,), -1.0, 0.0),))


class TestOmegaForm:
    def test_debye_rational(self):
        form = omega_form(debye())
        w = np.linspace(-5, 5, 41)
        assert np.allclose(form.real_part(w), w**2 / (1 + w**2), atol=1e-12)

    def test_drude_rational(self):
        form = omega_form(drude())
        w = np.linspace(-5, 5, 41)
        assert np.allclose(form.real_part(w), 1 / (1 + w**2), atol=1e-12)

    def test_zero_kernel(self):
        form = omega_form(ZERO)
        assert not any(form.p)
        assert form.real_part(2.0) == 0.0

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            kern = random_class_k_kernel(rng)
            form = omega_form(kern)
            for w in rng.uniform(-100, 100, 50):
                direct = (1j * w * laplace(kern, 1j * w)).real
                got = form.real_part(w)
                assert abs(got - direct) <= 1e-9 * (1 + abs(direct))

    def test_parity_by_coefficient_structure(self):
        # a form in u = w^2 is even in w by construction, bit for bit
        rng = np.random.default_rng(11)
        for _ in range(8):
            form = omega_form(random_class_k_kernel(rng))
            w = rng.uniform(0, 100, 50)
            assert np.array_equal(form.real_part(w), form.real_part(-w))

    def test_denominator_has_no_real_roots(self):
        # d(u) > 0 on [0, inf); the coefficients are divided by lc(d) first,
        # since float() of the raw integers can overflow
        rng = np.random.default_rng(12)
        for _ in range(8):
            form = omega_form(random_class_k_kernel(rng))
            roots = np.roots([c / form.d[-1] for c in form.d[::-1]])
            real = roots[np.abs(roots.imag) <= 1e-8].real
            assert np.all(real < 0)

    def test_degree_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            form = omega_form(random_class_k_kernel(rng))
            assert len(form.p) <= len(form.d)


def polyval_in_w(form, w):
    """The former float view of a form: numpy's polyval over the coefficients in
    w, c(w^2) / lc(d) correctly rounded with every odd coefficient zero."""
    def in_w(c):
        out = [0.0] * (2 * len(c) - 1)
        out[::2] = [v / form.d[-1] for v in c]
        return out

    return npoly.polyval(w, in_w(form.p)) / npoly.polyval(w, in_w(form.d))


class TestFloatView:
    """``real_part`` is bit for bit the former polyval over the coefficients in w."""

    @staticmethod
    def assert_bitwise(got, ref):
        assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))

    def test_random_forms(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            form = omega_form(random_class_k_kernel(rng, 3, 4))
            sigma_grid = np.geomspace(1.0 + 3.0 * rng.random(), 1e4, 4000)
            decision = dispersion._grids()[:dispersion._SPLIT]
            for w in (decision, -decision, sigma_grid,
                      rng.uniform(-100, 100, 50), np.array([0.0, -0.0, -2.5])):
                self.assert_bitwise(form.real_part(w), polyval_in_w(form, w))
            for w in (0.0, -0.0, 3.0, -3.0):
                self.assert_bitwise(form.real_part(w), polyval_in_w(form, w))

    @pytest.mark.parametrize("nu_e, nu_h, m, sigma_e, sigma_h", [
        (lorentz(), ZERO, 2, 0.9411764705882353, 0.0),
        (mixed_medium().nu_e, mixed_medium().nu_h, 0, 0.5000000049900001, 0.0),
        (lorentz_sum6(), ZERO, 2, 0.006571920116753555, 0.0),
    ])
    def test_sigma_pinned(self, nu_e, nu_h, m, sigma_e, sigma_h):
        # the values of the former float view, compared exactly
        report = analyze(nu_e, nu_h)
        assert (report.m, report.sigma_E, report.sigma_H, report.omega0) == (
            m, sigma_e, sigma_h, 1.0)


class TestPassivity:
    def test_debye_passive(self):
        assert check_passivity(debye(), ZERO).passive

    def test_lorentz_passive(self):
        assert check_passivity(lorentz(), ZERO).passive

    def test_negative_debye_not_passive(self):
        report = check_passivity(negative_debye(), ZERO)
        assert not report.passive
        assert report.witnesses
        w = report.witnesses[0]
        assert (1j * w * laplace(negative_debye(), 1j * w)).real < 0

    def test_equivalent_formulation(self):
        # Re(i w L nu(i w)) >= 0  iff  w Im L nu(i w) <= 0
        rng = np.random.default_rng(14)
        for kern in (debye(), lorentz(), drude(), random_passive_kernel(rng)):
            for w in rng.uniform(-20, 20, 30):
                val = laplace(kern, 1j * w)
                assert ((1j * w * val).real >= -1e-12) == (w * val.imag <= 1e-12)


class TestStrictPassivity:
    def test_debye_strict(self):
        assert check_strict_passivity(debye(), ZERO).strictly_passive

    def test_drude_strict(self):
        assert check_strict_passivity(drude(), ZERO).strictly_passive

    def test_zero_pair_not_strict(self):
        report = check_strict_passivity(ZERO, ZERO)
        assert report.passive
        assert not report.strictly_passive

    def test_implication_strict_implies_passive(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            report = check_strict_passivity(random_passive_kernel(rng), ZERO)
            if report.strictly_passive:
                assert report.passive


class TestDecayExponent:
    def test_debye_m0(self):
        report = decay_exponent(debye(), ZERO)
        assert report.m == 0
        assert report.sigma_E > 0

    def test_lorentz_m2(self):
        assert decay_exponent(lorentz(), ZERO).m == 2

    def test_drude_m2(self):
        assert decay_exponent(drude(), ZERO).m == 2

    def test_both_fields(self):
        report = decay_exponent(debye(), debye())
        assert report.m == 0
        assert report.sigma_E > 0 and report.sigma_H > 0

    def test_requires_strict_passivity(self):
        with pytest.raises(PassivityError):
            decay_exponent(ZERO, ZERO)

    def test_quantified_bound_holds(self):
        # |w|^m (Re(iwLnuE)|X|^2 + Re(iwLnuH)|Y|^2) >= sigma_E|X|^2 + sigma_H|Y|^2
        rng = np.random.default_rng(16)
        for nu_e, nu_h in ((debye(), ZERO), (lorentz(), ZERO), (drude(), debye())):
            report = decay_exponent(nu_e, nu_h)
            fe, fh = omega_form(nu_e), omega_form(nu_h)
            wgrid = np.geomspace(report.omega0, 1e4, 200)
            re_e = fe.real_part(wgrid)
            re_h = fh.real_part(wgrid) if not nu_h.is_zero else np.zeros_like(wgrid)
            for _ in range(5):
                x2, y2 = rng.uniform(0, 1, 2)
                lhs = np.abs(wgrid) ** report.m * (re_e * x2 + re_h * y2)
                rhs = report.sigma_E * x2 + report.sigma_H * y2
                assert np.all(lhs >= rhs * (1 - 1e-6))


class TestExponentialSeriesFamily:
    def test_positive_sum_branch_gives_m0(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            assert analyze(series_m0_sample(rng), ZERO).m == 0

    def test_zero_sum_branch_gives_m2(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            report = analyze(series_m2_sample(rng), ZERO)
            assert report.m == 2
            assert report.sigma_E > 0


class TestSampledPath:
    def test_gaussian_analyze(self):
        report = analyze(GAUSSIAN, ZERO)
        assert report.passive and report.strictly_passive
        assert report.m == 0
        assert not report.certified

    def test_sigma_belongs_to_the_sampled_field(self):
        # each field's sigma comes from its own tail; a zero kernel has none
        alone = analyze(GAUSSIAN, ZERO)
        assert alone.sigma_E == pytest.approx(1.0005564840635506, rel=1e-9)
        assert alone.sigma_H == 0.0
        swapped = analyze(ZERO, GAUSSIAN)
        assert swapped.m == 0
        assert (swapped.sigma_E, swapped.sigma_H) == (0.0, alone.sigma_E)

    def test_sigma_per_field_with_exp_poly_partner(self):
        report = analyze(GAUSSIAN, debye())
        assert report.m == 0 and not report.certified
        assert report.sigma_E == pytest.approx(1.0005564840635506, rel=1e-9)
        # Re(i w L nu(i w)) = w^2 / (1 + w^2) for the unit Debye kernel, least at w = 10
        assert report.sigma_H == pytest.approx(100.0 / 101.0, rel=1e-12)

    def test_negated_gaussian_has_a_sampled_witness(self):
        # the negated Gaussian keeps the Gaussian's certificate, and Re(i w L nu)
        # is negative from the first frequency of the sampled grid on
        neg = SampledKernel(lambda t, order: -_gaussian_eval(t, order), C=3.4, delta=1.0)
        certify_class_K(neg)
        report = check_passivity(neg, ExpPolyKernel.zero())
        assert (report.passive, report.witnesses, report.certified) == (False, (0.01,), False)
        full = analyze(neg, ExpPolyKernel.zero())
        assert (full.passive, full.strictly_passive, full.certified) == (False, False, False)

    def test_non_passive_exact_field_with_sampled_partner(self):
        # the exact field's witness, then the grid minimum of the summed real parts
        nu_e, nu_h = debye(-0.5, 2.0), GAUSSIAN
        assert check_passivity(nu_e, nu_h) == dispersion.PassivityReport(
            passive=False, witnesses=(1.0,), certified=False)
        strict = dispersion.PassivityReport(passive=False, strictly_passive=False,
                                            witnesses=(1.0, 0.5242428962312068), certified=False)
        assert check_strict_passivity(nu_e, nu_h) == strict
        assert analyze(nu_e, nu_h) == strict

    def test_mixed_analyze_pinned(self):
        assert analyze(GAUSSIAN, debye(0.5, 2.0)) == dispersion.PassivityReport(
            passive=True, strictly_passive=True, m=0, sigma_E=1.0005564840635506,
            sigma_H=0.49875311720698257, omega0=10.0, witnesses=(), certified=False)

    def test_gaussian_real_part_positive(self):
        for w in np.geomspace(0.01, 100, 60):
            assert (1j * w * laplace(GAUSSIAN, 1j * w)).real > 0

    @pytest.mark.parametrize("delta", [1e-3, 1e-6])
    def test_slow_claimed_decay_keeps_the_report(self, delta):
        # a small delta only stretches the horizon 60/delta; the panels follow nu''
        slow = SampledKernel(GAUSSIAN.evaluator, C=GAUSSIAN.C, delta=delta, name="gaussian")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = time.perf_counter()
            report = analyze(slow, ZERO)
            elapsed = time.perf_counter() - start
        assert report.passive and report.strictly_passive and report.m == 0
        assert abs(report.sigma_E - 1.0005564840635506) <= 1e-9
        assert elapsed < 1.0

    @settings(max_examples=15, deadline=None)
    @given(scale=st.floats(1e-3, 1e3))
    def test_verdict_unchanged_under_positive_scaling(self, scale):
        scaled = SampledKernel(lambda t, order: scale * GAUSSIAN.evaluator(t, order),
                               C=scale * GAUSSIAN.C, delta=GAUSSIAN.delta)
        base, got = analyze(GAUSSIAN, ZERO), analyze(scaled, ZERO)
        assert (got.passive, got.strictly_passive, got.m, got.certified) == \
            (base.passive, base.strictly_passive, base.m, base.certified)
        assert got.sigma_E == pytest.approx(scale * base.sigma_E, rel=1e-12)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestEvaluationCounts:
    def test_gaussian_analyze_samples_each_frequency_once(self, monkeypatch):
        evaluations = []

        def counting(t, order):
            evaluations.append((np.size(t), order))
            return GAUSSIAN.evaluator(t, order)

        counted = SampledKernel(counting, C=GAUSSIAN.C, delta=GAUSSIAN.delta)
        sampled = _count_calls(monkeypatch, dispersion, "sampled_iw_real_part")
        lap = _count_calls(monkeypatch, dispersion, "laplace")
        lap_kernels = _count_calls(monkeypatch, kernels, "laplace")
        report = analyze(counted, ZERO)
        assert report.strictly_passive and report.m == 0
        # one transform for the 600-point decision grid and the 25-point tail grid
        # together; its nu'' samples are taken on panels that do not depend on the
        # frequencies: one block per bisection level, then nu(0)
        assert len(sampled) == 1 and sampled[0][1].size == 625
        assert len(lap) == 0 and len(lap_kernels) == 0
        assert len(evaluations) <= 12
        assert sum(n for n, order in evaluations if order == 2) <= 16 * 64
        assert [order for _, order in evaluations] == [2] * (len(evaluations) - 1) + [0]

    @pytest.mark.parametrize("nu_e, nu_h", [
        (debye(), ZERO),
        (lorentz(), drude()),
        (negative_debye(), debye()),
        (ZERO, ZERO),
        (ExpPolyKernel(debye().terms + lorentz(2.0, 3.0, 0.5).terms), lorentz()),
    ])
    def test_exp_poly_analyze_one_omega_form_per_kernel(self, monkeypatch, nu_e, nu_h):
        expected = analyze(nu_e, nu_h)
        calls = _count_calls(monkeypatch, dispersion, "omega_form")
        assert analyze(nu_e, nu_h) == expected
        assert len(calls) == 2  # one per kernel, a zero kernel's included

    def test_exp_poly_analyze_one_combined_numerator(self, monkeypatch):
        # nu_E = 0.5 sin(2t) e^{-0.2t}, nu_H = 0.3 (1 - e^{-0.5t}): strictly passive, m = 2
        calls = _count_calls(monkeypatch, dispersion, "_combined_numerator")
        report = analyze(lorentz(0.5, 2.0, 0.4), drude(0.3, 0.5))
        assert report.strictly_passive and report.m == 2
        assert report.sigma_E > 0 and report.sigma_H > 0
        assert len(calls) == 1

    def test_no_sign_change_skips_the_square_free_split(self, monkeypatch):
        # Re(i w L nu(i w)) of a Debye sum has positive coefficients in u = w^2
        expected = analyze(debye_sum6(), ZERO)
        assert dispersion._variations(omega_form(debye_sum6()).p) == 0
        calls = _count_calls(monkeypatch, dispersion, "_squarefree_factors")
        assert analyze(debye_sum6(), ZERO) == expected
        assert expected.strictly_passive and len(calls) == 0

    @pytest.mark.parametrize("nu_e, nu_h, distinct", [
        (lorentz_sum6(), ZERO, 1),  # N is P_E: its roots are isolated once
        (ZERO, lorentz_sum6(), 1),
        (mixed_medium().nu_e, mixed_medium().nu_h, 3),  # P_E, P_H and N
    ])
    def test_each_polynomial_isolated_once(self, monkeypatch, nu_e, nu_h, distinct):
        expected = analyze(nu_e, nu_h)
        calls = _count_calls(monkeypatch, dispersion, "_positive_roots")
        assert analyze(nu_e, nu_h) == expected
        assert len(calls) == len({tuple(p) for (p,) in calls}) == distinct

    def test_public_decay_exponent_on_sampled_kernel(self):
        report = decay_exponent(GAUSSIAN, ZERO)
        assert report.m == 0
        assert report.certified is False

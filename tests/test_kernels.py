import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import dawsn, erfcx, erfi, spherical_jn

from dispersia import (
    GAUSSIAN,
    CertificationFailure,
    DampedTerm,
    ExpPolyKernel,
    KernelError,
    NotInClassK,
    SampledKernel,
    certify_class_K,
    debye,
    drude,
    eval_kernel,
    laplace,
    lorentz,
)
from dispersia import _sampled, dispersion, kernels
from dispersia import io as dio
from dispersia._sampled import _gaussian_eval
from dispersia.dispersion import omega_form
from dispersia.kernels import UnsupportedPoint, sampled_iw_real_part

from conftest import debye_sum6, debye_sum10, lorentz_sum6, random_class_k_kernel

_SAMPLED_GRID = dispersion._grids()[:dispersion._SPLIT]  # the decision grid


class TestEval:
    def test_debye_at_zero(self):
        assert eval_kernel(debye(), 0.0, 0) == pytest.approx(1.0)

    def test_lorentz_at_zero(self):
        assert eval_kernel(lorentz(), 0.0, 0) == pytest.approx(0.0)

    def test_drude_derivative_at_zero(self):
        assert eval_kernel(drude(), 0.0, 1) == pytest.approx(1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(KernelError):
            eval_kernel(debye(), -0.1, 0)

    def test_bad_order_rejected(self):
        with pytest.raises(KernelError):
            eval_kernel(debye(), 1.0, 3)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(10):
            kern = random_class_k_kernel(rng)
            for t in (0.5, 1.7, 4.0):
                fd1 = (kern(t + h) - kern(t - h)) / (2 * h)
                fd2 = (kern(t + h) - 2 * kern(t) + kern(t - h)) / h**2
                assert eval_kernel(kern, t, 1) == pytest.approx(fd1, abs=1e-6)
                assert eval_kernel(kern, t, 2) == pytest.approx(fd2, abs=1e-3)


class TestTermLayout:
    def test_padding_is_normalized(self):
        # one term written with different trailing zeros
        written = [((1.0, 2.0), (0.5,)), ((1.0, 2.0, 0.0), (0.5, 0.0, 0.0, -0.0)),
                   ([1.0, 2.0], np.array([0.5, 0.0]))]
        terms = [DampedTerm(p, q, -1.0, 2.0) for p, q in written]
        assert all(t == terms[0] for t in terms)
        for t in terms:
            assert (t.p, t.q) == ((1.0, 2.0), (0.5, 0.0))
            assert len(t.p) == len(t.q) == t.degree + 1 == 2
        longer_q = DampedTerm((1.0,), (0.0, 0.0, 3.0), -1.0, 1.0)
        assert (longer_q.p, longer_q.q, longer_q.degree) == ((1.0, 0.0, 0.0), (0.0, 0.0, 3.0), 2)

    def test_zero_term(self):
        for p, q in (((0.0,), (0.0,)), ((0.0, 0.0), ()), ((), (0.0, -0.0, 0.0))):
            t = DampedTerm(p, q, -1.0, 0.0)
            assert (t.p, t.q) == ((0.0,), (0.0,))
            assert t.degree == 0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["p", "q", "x", "y"])
    def test_non_finite_field_rejected(self, name, bad):
        fields = {"p": (1.0, 0.5), "q": (0.0, 0.5), "x": -1.0, "y": 2.0}
        fields[name] = (0.5, bad) if name in ("p", "q") else bad
        with pytest.raises(KernelError, match=f"^DampedTerm\\.{name} must be finite"):
            DampedTerm(**fields)

    def test_overflowing_derivative_rejected(self):
        # (1e308 e^{-10 t})' = -1e309 e^{-10 t} is beyond the float range
        kern = ExpPolyKernel((DampedTerm((1e308,), (0.0,), -10.0, 0.0),))
        with pytest.raises(KernelError, match="derivative overflows"):
            kern.derivative()
        with pytest.raises(NotInClassK, match="overflows"):
            certify_class_K(kern)

    def test_derivative_keeps_layout(self):
        # (t^2 e^{-t})' = (2 t - t^2) e^{-t}
        t2 = ExpPolyKernel((DampedTerm((0.0, 0.0, 1.0), (0.0,), -1.0, 0.0),))
        (real,) = t2.derivative().terms
        assert (real.p, real.q) == ((0.0, 2.0, -1.0), (0.0, 0.0, 0.0))
        # (t cos(2t) e^{-t})' = ((1 - t) cos(2t) - 2 t sin(2t)) e^{-t}
        (osc,) = ExpPolyKernel((DampedTerm((0.0, 1.0), (0.0,), -1.0, 2.0),)).derivative().terms
        assert (osc.p, osc.q) == ((1.0, -1.0), (0.0, -2.0))
        rng = np.random.default_rng(3)
        for _ in range(20):
            kern = random_class_k_kernel(rng, 3, 4)
            for d in (kern.derivative(), kern.derivative().derivative()):
                for t in d.terms:
                    assert len(t.p) == len(t.q) == t.degree + 1
                    assert t.p[-1] or t.q[-1] or t.degree == 0



class TestSampledIdentity:
    """A sampled kernel's equality covers all four fields, the evaluator included."""

    def test_same_evaluator_equal(self):
        copy = SampledKernel(_gaussian_eval, C=3.4, delta=1.0, name="gaussian")
        assert copy == GAUSSIAN and hash(copy) == hash(GAUSSIAN)

    def test_other_evaluator_unequal(self):
        def halved(t, order):
            return 0.5 * _gaussian_eval(t, order)

        assert SampledKernel(halved, C=3.4, delta=1.0, name="gaussian") != GAUSSIAN

    def test_document_round_trip(self):
        assert dio.kernel_from_doc(dio.kernel_to_doc(GAUSSIAN)) == GAUSSIAN


class TestCertify:
    def test_debye_certificate(self):
        cert = certify_class_K(debye())
        assert cert.delta == pytest.approx(0.9)
        # |nu''| e^{0.9 t} = e^{-0.1 t} peaks at t=0
        assert cert.C == 1.0

    def test_gaussian_builtin_accepted(self):
        cert = certify_class_K(GAUSSIAN)
        assert (cert.C, cert.delta) == (GAUSSIAN.C, GAUSSIAN.delta)

    def test_gaussian_second_derivative_envelope(self):
        # dense-grid oracle: max |(4t^2-2) e^{-t^2}| e^t is about 3.3414
        t = np.linspace(0, 20, 400001)
        peak = np.max(np.abs(_gaussian_eval(t, 2)) * np.exp(t))
        assert peak == pytest.approx(3.3414, abs=2e-3)
        assert peak < GAUSSIAN.C

    # non-finite C and delta are covered through the CLI in test_cli.py
    @pytest.mark.parametrize("C, delta", [(0.0, 1.0), (3.4, -1.0), (3.4, 1e-320)])
    def test_sampled_certificate_out_of_range(self, C, delta):
        with pytest.raises(KernelError):
            SampledKernel(_gaussian_eval, C=C, delta=delta)

    def test_gaussian_undersized_bound_rejected(self):
        loose = SampledKernel(_gaussian_eval, C=2.1, delta=1.0, name="gaussian")
        with pytest.raises(CertificationFailure) as err:
            certify_class_K(loose)
        assert 1.0 < err.value.t_violation < 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        def broken(t, order):
            return np.where(t > 5.0, bad, _gaussian_eval(t, order))

        with pytest.raises(CertificationFailure, match="non-finite") as err:
            certify_class_K(SampledKernel(broken, C=3.4, delta=1.0))
        # the first check-grid point past t = 5 (the grid is geometric, ratio < 1.01)
        assert 5.0 < err.value.t_violation < 5.05

    def test_undamped_term_rejected(self):
        bad = ExpPolyKernel((DampedTerm((1.0,), (0.0,), 0.1, 0.0),))
        with pytest.raises(NotInClassK):
            certify_class_K(bad)

    @staticmethod
    def _tail_kernels():
        rng = np.random.default_rng(41)
        draws = [random_class_k_kernel(rng, max_terms=3, max_degree=3) for _ in range(12)]
        return draws + [lorentz_sum6(), debye_sum6()]

    def test_gauss_legendre_rule_matches_numpy(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        np.testing.assert_allclose(_sampled._GL_NODES, nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_sampled._GL_WEIGHTS, weights, rtol=0, atol=1e-15)

    def test_exp_poly_certificate_makes_no_quad_call(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("adaptive quad called")

        monkeypatch.setattr("scipy.integrate.quad", no_quad)
        for kern in [debye(), lorentz(), drude()] + self._tail_kernels():
            certify_class_K(kern)
        # the sampled path makes none either
        certify_class_K(GAUSSIAN)
        sampled_iw_real_part(GAUSSIAN, _SAMPLED_GRID)
        laplace(GAUSSIAN, 2j)
        laplace(GAUSSIAN, 0.25 + 1j)
        laplace(GAUSSIAN, 1.0 + 1j)

    def test_bound_holds_on_a_dense_grid(self):
        # C >= max |nu''| e^{delta t} over [0, 60/delta], past every peak
        # t = l / (|x| - delta) <= 50/|x| of a degree-5 term (t^3 e^{-t} peaks at t = 30)
        rng = np.random.default_rng(3)
        t3 = ExpPolyKernel((DampedTerm((0.0, 0.0, 0.0, 1.0), (0.0,), -1.0, 0.0),))
        for kern in [random_class_k_kernel(rng, 3, 5) for _ in range(30)] + [t3]:
            cert = certify_class_K(kern)
            t = np.linspace(0.0, 60.0 / cert.delta, 200_001)
            dense = np.max(np.abs(eval_kernel(kern, t, 2)) * np.exp(cert.delta * t))
            assert cert.C >= dense

    @pytest.mark.parametrize("deg, x", [(3, -1e-6), (5, -1e-3)])
    def test_slowly_damped_powers_certified(self, deg, x):
        # t^deg e^{x t} is in class K however slowly it decays
        kern = ExpPolyKernel((DampedTerm((0.0,) * deg + (1.0,), (0.0,), x, 0.0),))
        cert = certify_class_K(kern)
        assert cert.delta == 0.9 * -x and math.isfinite(cert.C)

    def test_overflowing_bound_rejected(self):
        # (l / ((|x| - delta) e))^l is beyond the float range
        kern = ExpPolyKernel((DampedTerm((0.0,) * 5 + (1.0,), (0.0,), -1e-300, 0.0),))
        with pytest.raises(NotInClassK, match="overflows"):
            certify_class_K(kern)

    @pytest.mark.parametrize("kern", [
        debye(1.0, 1e6),
        debye(1.0, 1e9),
        ExpPolyKernel(tuple(t for tau in np.logspace(-3, 3, 7) for t in debye(1.0, tau).terms)),
    ], ids=["tau=1e6", "tau=1e9", "taus=1e-3..1e3"])
    def test_slow_and_stiff_terms_certified_quickly(self, kern):
        # the closed form costs the same at any time scale or stiffness
        start = time.perf_counter()
        cert = certify_class_K(kern)
        assert time.perf_counter() - start < 0.5
        # nu'' = sum_j beta_j x_j^2 e^{x_j t} peaks at t = 0, where the bound is tight
        assert cert.C == pytest.approx(sum(t.p[0] * t.x**2 for t in kern.terms), rel=1e-12)

    @pytest.mark.parametrize("kern, C, delta", [
        (debye(), 1.0, 0.9),
        (lorentz(), 1.25, 0.45),
        (drude(), 1.0, 0.9),
        (lorentz_sum6(), 819.2275000000001, 0.045000000000000005),
    ], ids=["debye", "lorentz", "drude", "lorentz_sum6"])
    def test_certificates_unchanged(self, kern, C, delta):
        cert = certify_class_K(kern)
        assert cert.delta == delta
        assert cert.C == pytest.approx(C, rel=1e-12)

    def test_certificate_heap_peak_bounded(self):
        certify_class_K(lorentz_sum6())  # derivatives cached outside the measurement
        tracemalloc.start()
        try:
            certify_class_K(lorentz_sum6())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def _former_certificate_C(kernel):
    """C as certify_class_K computed it with numpy: np.hypot and a dot product per term."""
    delta = 0.9 * min(abs(t.x) for t in kernel.terms)
    C = 0.0
    with np.errstate(all="ignore"):
        for t in kernels._nth_derivative(kernel, 2).terms:
            ell = np.arange(t.degree + 1)
            C += float(np.hypot(t.p, t.q) @ ((ell / ((abs(t.x) - delta) * math.e)) ** ell))
    return C


damped_term = st.builds(
    lambda p, q, x, y: DampedTerm(tuple(p), tuple(q) if y else (0.0,), x, y),
    p=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
    q=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
    x=st.floats(-50.0, -1e-3),
    y=st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(damped_term, min_size=1, max_size=4))
def test_certificate_C_within_4_ulp_of_the_numpy_form(terms):
    # C reaches only the INFO log; summing on Python floats may round apart
    # from numpy's dot product, by a few ulp at most
    kernel = ExpPolyKernel(tuple(terms))
    cert, former = certify_class_K(kernel), _former_certificate_C(kernel)
    assert cert.delta == 0.9 * min(abs(t.x) for t in terms)
    assert abs(cert.C - former) <= 4 * math.ulp(former)


class TestFromComplexTermsInputs:
    """Coefficients as a list, a tuple or a 1-d array, or as one number: a
    Python or numpy scalar, or a 0-d array."""

    @pytest.mark.parametrize("coeffs", [[0.5, 2.0], (0.5, 2.0), np.array([0.5, 2.0])],
                             ids=["list", "tuple", "array"])
    def test_sequences(self, coeffs):
        got = ExpPolyKernel.from_complex_terms([(coeffs, -1.0)])
        assert got == ExpPolyKernel((DampedTerm((0.5, 2.0), (0.0,), -1.0, 0.0),))

    @pytest.mark.parametrize("coeff", [0.5, 0.5 + 0j, np.float64(0.5), np.complex128(0.5),
                                       np.array(0.5), np.array(0.5 + 0j)],
                             ids=["float", "complex", "np_float", "np_complex", "0d", "0d_complex"])
    def test_one_number(self, coeff):
        assert ExpPolyKernel.from_complex_terms([(coeff, -1.0)]) == debye(0.5, 1.0)
        # a Drude constant at z = 0 too
        assert ExpPolyKernel.from_complex_terms([(coeff, 0.0)]).offset == 0.5

    def test_complex_array_pair(self):
        c = np.array([0.25 - 0.5j])
        got = ExpPolyKernel.from_complex_terms([(c, complex(-0.5, 2.0)),
                                                (np.conj(c), complex(-0.5, -2.0))])
        assert got == ExpPolyKernel((DampedTerm((0.5,), (1.0,), -0.5, 2.0),))

    def test_not_a_number(self):
        with pytest.raises(TypeError):
            ExpPolyKernel.from_complex_terms([(None, -1.0)])


def _quadrature_laplace(kernel, lam, upper=80.0):
    re = quad(lambda t: float(kernel(t)) * np.exp(-lam.real * t) * np.cos(lam.imag * t),
              0, upper, limit=300)[0]
    im = quad(lambda t: float(kernel(t)) * np.exp(-lam.real * t) * np.sin(lam.imag * t),
              0, upper, limit=300)[0]
    return complex(re, -im)


class TestLaplace:
    def test_debye_at_one(self):
        assert laplace(debye(), 1.0) == pytest.approx(0.5)

    def test_drude_at_one(self):
        assert laplace(drude(), 1.0) == pytest.approx(0.5)

    def test_lorentz_closed_form(self):
        # beta nu0 / (omega0^2 + lambda^2 + nu lambda), omega0^2 = nu0^2 + nu^2/4
        for lam in (0.7, 1 + 2j, 3j):
            expected = 1.0 / (1.25 + lam**2 + lam)
            assert laplace(lorentz(), lam) == pytest.approx(expected, abs=1e-12)

    def test_gaussian_on_axis_matches_erfi_form(self):
        for w in (0.5, 1.0, 2.0, 4.0):
            got = 1j * w * laplace(GAUSSIAN, 1j * w)
            expected = np.exp(-w**2 / 4) * (
                1j * np.sqrt(np.pi) / 2 * w
                + abs(w) * np.sqrt(np.pi) / 2 * erfi(abs(w) / 2)
            )
            assert got == pytest.approx(expected, abs=1e-8)

    def test_gaussian_at_2i_example(self):
        # i w L nu(i w) at w=2 equals e^{-1} (i sqrt(pi) + 2 I_2), I_2 = int_0^1 e^{y^2} dy
        i2 = quad(lambda y: np.exp(y**2), 0, 1)[0]
        assert i2 == pytest.approx(1.46265, abs=1e-5)
        got = 2j * laplace(GAUSSIAN, 2j)
        assert got == pytest.approx(np.exp(-1) * (1j * np.sqrt(np.pi) + 2 * i2), abs=1e-8)

    def test_vanishes_for_large_real_part(self):
        for kern in (debye(), lorentz(), drude()):
            assert abs(laplace(kern, 1e6)) <= 1e-6

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            kern = random_class_k_kernel(rng)
            for _ in range(20):
                lam = complex(rng.uniform(0.05, 5.0), rng.uniform(-5.0, 5.0))
                cf = laplace(kern, lam)
                ql = _quadrature_laplace(kern, lam, upper=150.0)
                assert abs(cf - ql) <= 1e-8 * (1 + abs(cf))

    def test_shift_identity(self):
        # lambda L nu = nu(0) + L nu' for Re lambda >= 0
        rng = np.random.default_rng(2)
        for _ in range(10):
            kern = random_class_k_kernel(rng)
            d1 = kern.derivative()
            for _ in range(10):
                lam = complex(rng.uniform(0.0, 4.0), rng.uniform(-4.0, 4.0))
                if lam == 0:
                    continue
                resid = lam * laplace(kern, lam) - kern.value_at_zero() - laplace(d1, lam)
                assert abs(resid) <= 1e-9

    def test_derivative_tail_integral(self):
        # nu'(t) = -int_t^inf nu'' dy
        rng = np.random.default_rng(3)
        for _ in range(5):
            kern = random_class_k_kernel(rng)
            for t in (0.0, 1.0, 10.0):
                tail = quad(lambda y: eval_kernel(kern, y, 2), t, t + 120.0,
                            limit=400, epsabs=1e-12)[0]
                assert abs(eval_kernel(kern, t, 1) + tail) <= 1e-9


class TestLaplaceRational:
    @staticmethod
    def value(kernel, lam):
        a, b = kernels.laplace_rational(kernel)
        scale = Fraction(1, b[-1])  # the integers outgrow floats; the ratio does not
        num = sum(complex(c * scale) * lam**i for i, c in enumerate(a))
        return num / sum(complex(c * scale) * lam**i for i, c in enumerate(b))

    def test_matches_partial_fractions(self):
        rng = np.random.default_rng(31)
        kerns = [debye(), lorentz(), drude(), lorentz_sum6(), debye_sum6(),
                 ExpPolyKernel((DampedTerm((1.0,), (0.0, 0.0, 0.5), -1.0, 2.0),
                                DampedTerm((0.0, -2.0), (0.0,), -1.0, 0.0)), 0.25)]
        kerns += [random_class_k_kernel(rng, max_terms=3, max_degree=3) for _ in range(20)]
        for kern in kerns:
            for lam in (0.3 + 1j, 2j, 1.5, 0.1 + 7j):
                direct = lam * laplace(kern, lam)
                assert abs(self.value(kern, lam) - direct) <= 1e-12 * (1 + abs(direct))

    def test_small_forms(self):
        cases = [(debye(), [0, 1], [1, 1]), (drude(), [1], [1, 1]),
                 (lorentz(), [0, 4], [5, 4, 4]), (ExpPolyKernel.zero(), [0], [1])]
        for kern, a, b in cases:
            got = kernels.laplace_rational(kern)
            assert [list(c) for c in got] == [a, b]
            assert all(type(c) is int for c in got[0])

    def test_equal_exponents_merge_exactly(self):
        split = ExpPolyKernel(debye(0.1, 0.5).terms + debye(0.2, 0.5).terms + lorentz(0.3).terms)
        whole = ExpPolyKernel(debye(0.1, 0.5).terms + lorentz(0.3).terms
                              + debye(0.2, 0.5).terms)
        assert [list(c) for c in kernels.laplace_rational(split)] == \
            [list(c) for c in kernels.laplace_rational(whole)]
        # a term and its negative cancel: no pole is left behind
        gone = ExpPolyKernel(debye(1.0).terms + debye(-1.0).terms + debye(2.0, 3.0).terms)
        assert [list(c) for c in kernels.laplace_rational(gone)] == \
            [list(c) for c in kernels.laplace_rational(debye(2.0, 3.0))]

    def test_undamped_rejected(self):
        with pytest.raises(NotInClassK):
            kernels.laplace_rational(ExpPolyKernel((DampedTerm((1.0,), (0.0,), 0.0, 0.0),)))


class TestSampledRealPart:
    def test_matches_laplace_on_the_decision_grid(self):
        got = sampled_iw_real_part(GAUSSIAN, _SAMPLED_GRID)
        via_laplace = np.array([(1j * w * laplace(GAUSSIAN, 1j * w)).real for w in _SAMPLED_GRID])
        assert np.max(np.abs(got - via_laplace)) <= 1e-13

    def test_matches_erfi_closed_form(self):
        # (sqrt(pi)/2) w e^{-w^2/4} erfi(w/2); written as w D(w/2) with Dawson's
        # D(x) = (sqrt(pi)/2) e^{-x^2} erfi(x) wherever erfi overflows
        got = sampled_iw_real_part(GAUSSIAN, _SAMPLED_GRID)
        small = _SAMPLED_GRID <= 40.0
        w = _SAMPLED_GRID[small]
        erfi_form = np.sqrt(np.pi) / 2 * w * np.exp(-w**2 / 4) * erfi(w / 2)
        assert np.max(np.abs(got[small] - erfi_form)) <= 1e-12
        assert np.max(np.abs(got - _SAMPLED_GRID * dawsn(_SAMPLED_GRID / 2))) <= 1e-12

    def test_array_in_array_out(self):
        w = _SAMPLED_GRID[::50].reshape(3, 4)
        got = sampled_iw_real_part(GAUSSIAN, w)
        assert got.shape == (3, 4)
        assert isinstance(sampled_iw_real_part(GAUSSIAN, 2.0), float)
        # the real part is even in w
        assert np.array_equal(sampled_iw_real_part(GAUSSIAN, -w), got)

    def test_zero_frequency_unsupported(self):
        with pytest.raises(UnsupportedPoint):
            sampled_iw_real_part(GAUSSIAN, 0.0)
        with pytest.raises(UnsupportedPoint):
            sampled_iw_real_part(GAUSSIAN, np.array([1.0, 0.0, 2.0]))

    def test_non_finite_samples_rejected(self):
        def broken(t, order):
            return np.where(t > 5.0, np.nan, _gaussian_eval(t, order))

        with pytest.raises(KernelError, match="non-finite"):
            sampled_iw_real_part(SampledKernel(broken, C=3.4, delta=1.0), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(w=st.floats(1e-2, 1e3))
    def test_matches_dawson_form(self, w):
        assert abs(sampled_iw_real_part(GAUSSIAN, w) - w * dawsn(w / 2)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(1e-3, 1e3), w=st.floats(1e-2, 1e3))
    def test_linear_in_the_evaluator(self, a, w):
        scaled = SampledKernel(lambda t, order: a * _gaussian_eval(t, order), C=a * 3.4, delta=1.0)
        base = sampled_iw_real_part(GAUSSIAN, w)
        assert sampled_iw_real_part(scaled, w) == pytest.approx(a * base, rel=1e-12, abs=1e-12 * a)


class TestFilon:
    def test_spherical_bessel_matches_scipy(self):
        # both recurrences and the switch between them at x = 16, the zeros of
        # j_0 (where Miller's sign comes from j_1), tiny arguments and x = 0
        x = np.concatenate([[0.0, 1e-300, 1e-12, 1e-5], np.geomspace(1e-3, 1e5, 4000),
                            np.pi * np.arange(1, 6), [16.0 - 1e-9, 16.0, 16.0 + 1e-9]])
        got = _sampled._spherical_jn(x)
        ref = np.stack([spherical_jn(n, x) for n in range(16)], axis=-1)
        assert got.shape == (x.size, 16)
        assert np.max(np.abs(got - ref)) <= 1e-14
        # below x = 1, where j_n ~ x^n / (2n + 1)!!, relative to the value too
        small = (x >= 1e-12) & (x < 1.0)
        sizable = np.abs(ref[small]) > 1e-280
        assert np.max(np.abs(got[small] - ref[small])[sizable] / np.abs(ref[small][sizable])) <= 1e-13

    def test_real_argument_gives_real_laplace(self, monkeypatch):
        # j_n(0) = 0 exactly for n >= 1, so w = 0 adds no imaginary part
        for lam in (0.3, 2.0):
            assert laplace(GAUSSIAN, lam).imag == 0.0
        # no argument of the decision grid is 0: reading 0 as 1e-200 changes nothing
        got = sampled_iw_real_part(GAUSSIAN, _SAMPLED_GRID)
        exact_zero = _sampled._spherical_jn
        monkeypatch.setattr(_sampled, "_spherical_jn", lambda x: exact_zero(np.maximum(x, 1e-200)))
        assert np.array_equal(sampled_iw_real_part(GAUSSIAN, _SAMPLED_GRID), got)

    def test_exact_on_polynomials(self):
        # a cubic is its own interpolant on every panel of [0, 1], [1, 2], [2, 4],
        # [4, 6], so only rounding separates the transform from the integral
        w = np.array([-3.0, 0.0, 1e-3, 0.7, 5.0, 40.0])
        got = _sampled._filon_transform(lambda s: s**3 - 2.0 * s, 6.0, w)
        for wi, gi in zip(w, got):
            def moment(k):  # int_0^6 s^k e^{-i wi s} ds by quad
                re = quad(lambda s: s**k * np.cos(wi * s), 0, 6, epsabs=1e-13)[0]
                im = quad(lambda s: s**k * np.sin(wi * s), 0, 6, epsabs=1e-13)[0]
                return complex(re, -im)
            assert abs(gi - (moment(3) - 2.0 * moment(1))) <= 1e-11

    def test_panels_follow_the_function_not_the_horizon(self):
        g = lambda s: _gaussian_eval(s, 2)  # noqa: E731
        for upper in (60.0, 6e4, 6e7):
            left, half, coeffs = _sampled._filon_panels(g, upper)
            # nu'' underflows to 0 beyond |t| = 27.3, and those panels are dropped
            assert np.all(left < 28.0) and left.size <= 40
            assert np.all(np.abs(coeffs[:, -2:]) <= 1e-15 * 2.0)
        assert np.isclose(np.sum(2 * half[left + 2 * half <= 32.0]), 32.0)

    def test_laplace_off_axis_routes(self):
        # e^{-sigma s} folded into the sampled nu'', below and above sigma = delta/2
        for lam in (0.3 + 2j, 0.5, 0.6 + 2j, 2.0, 1.0 - 1j):
            re = quad(lambda t: np.exp(-t * t - lam.real * t) * np.cos(lam.imag * t),
                      0, 40, epsabs=1e-14, limit=200)[0]
            im = quad(lambda t: np.exp(-t * t - lam.real * t) * np.sin(lam.imag * t),
                      0, 40, epsabs=1e-14, limit=200)[0]
            assert abs(laplace(GAUSSIAN, lam) - complex(re, -im)) <= 1e-12

    @pytest.mark.parametrize("lam", [1e3, 1e5, 1e6])
    def test_laplace_at_large_real_part(self, lam):
        # int_0^inf e^{-t^2 - lam t} dt = (sqrt(pi)/2) erfcx(lam/2); the peak of
        # e^{-lam s} nu''(s) at s = 0 is narrower than every first-level panel
        tracemalloc.start()
        try:
            got = laplace(GAUSSIAN, lam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        expected = np.sqrt(np.pi) / 2 * erfcx(lam / 2)
        assert abs(got - expected) <= 1e-11 * expected
        assert peak < 2**20


coeff = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    p=st.lists(coeff, min_size=1, max_size=3),
    q=st.lists(coeff, min_size=1, max_size=3),
    x=st.floats(-3.0, -0.3),
    y=st.floats(0.3, 2.0),
)
def test_complex_form_round_trip(p, q, x, y):
    kern = ExpPolyKernel((DampedTerm(tuple(p), tuple(q), x, y),))
    back = ExpPolyKernel.from_complex_terms(list(kern.complex_terms()))
    ts = np.linspace(0, 8, 40)
    assert np.allclose(kern(ts), back(ts), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(beta=st.floats(0.1, 3.0), tau=st.floats(0.2, 3.0))
def test_debye_laplace_closed_form(beta, tau):
    # beta tau / (tau lambda + 1)
    kern = debye(beta, tau)
    for lam in (0.5, 1.0, 2 + 1j):
        assert laplace(kern, lam) == pytest.approx(beta * tau / (tau * lam + 1), abs=1e-12)


@pytest.mark.parametrize("call, error, match", [
    (lambda: DampedTerm((1.0,), (0.0,), -1.0, -2.0), KernelError, "frequency must be >= 0"),
    (lambda: DampedTerm((1.0,), (0.5,), -1.0, 0.0), KernelError, "sine coefficients"),
    (lambda: laplace(debye(), complex(-0.1, 1.0)), UnsupportedPoint, "Re lambda >= 0"),
    (lambda: laplace(ExpPolyKernel((DampedTerm((1.0,), (0.0,), 0.5, 0.0),)), 1.0), NotInClassK,
     "non-damped"),
    (lambda: laplace(drude(), 0.0), UnsupportedPoint, "constant part"),
    (lambda: laplace(GAUSSIAN, 0.0), UnsupportedPoint, "lambda = 0"),
    (lambda: omega_form(GAUSSIAN), KernelError, "exponential-polynomial"),
], ids=["negative_y", "sine_at_y0", "left_half_plane", "undamped", "offset_pole",
        "sampled_at_0", "omega_form_sampled"])
def test_argument_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()

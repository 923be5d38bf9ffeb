"""Exact passivity, strict-passivity and decay-exponent decisions.

The verdicts on exponential-polynomial kernels are decided on integer
polynomials in u = w^2 (``dispersion.omega_form``'s ``p`` and ``d``).  These
tests pin the media the former floating-point path misjudged, the linear
structure of the verdicts (hypothesis), the witnesses, and an independent
sympy construction of Re(i w L nu(i w)).
"""

import json
import math
from fractions import Fraction
from functools import reduce
from operator import add, mul

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from dispersia import ExpPolyKernel, analyze, check_passivity, debye, laplace, omega_form
from dispersia import dispersion
from dispersia import io as dio
from dispersia.cli import main
from dispersia.dispersion import (
    OmegaRational,
    _negative_frequency,
    _positive_roots,
    _strict_passivity,
)
from dispersia.kernels import _poly_product, _poly_sum

from conftest import debye_sum6, lorentz_sum6, random_class_k_kernel

ZERO = ExpPolyKernel.zero()


def verdict(report):
    return report.passive, report.strictly_passive, report.m


def standard_terms(kind, beta, rate, freq=0.0):
    """A standard term as complex (coefficients, z) pairs, the documented exp_poly form.

    debye: beta e^{-rate t}; lorentz: beta sin(freq t) e^{-rate t / 2};
    drude: beta (1 - e^{-rate t}), whose constant is its own z = 0 entry.
    """
    if kind == "debye":
        return [([beta], -rate)]
    if kind == "drude":
        return [([beta], 0.0), ([-beta], -rate)]
    z = complex(-rate / 2.0, freq)
    return [([-0.5j * beta], z), ([0.5j * beta], z.conjugate())]


def standard_sum(terms, beta_scale=1.0, time_scale=1.0):
    """sum of beta nu_kind(time_scale t) over the terms, through from_complex_terms."""
    pairs = []
    for kind, beta, rate, freq in terms:
        pairs += standard_terms(kind, beta_scale * beta, time_scale * rate, time_scale * freq)
    return ExpPolyKernel.from_complex_terms(pairs)


TERM = st.tuples(st.sampled_from(["debye", "lorentz", "drude"]),
                 st.floats(0.2, 2.0), st.floats(0.3, 3.0), st.floats(0.5, 3.0))
TERMS = st.lists(TERM, min_size=1, max_size=5)


class TestKnownMedia:
    def test_lorentz_sum6_m2(self):
        assert verdict(analyze(lorentz_sum6(), ZERO)) == (True, True, 2)

    def test_debye_sum6_m0(self):
        assert verdict(analyze(debye_sum6(), ZERO)) == (True, True, 0)

    def test_debye_sum10_unit_rates_m0(self):
        kern = ExpPolyKernel(tuple(t for j in range(1, 11) for t in debye(1.0, 1.0 / j).terms))
        assert verdict(analyze(kern, ZERO)) == (True, True, 0)

    def test_drude_pair_document_keeps_nu0_zero(self, tmp_path, capsys):
        # the float sum of the two constants rounds: 1.4562... + 1.5736... - both = -2^-52
        betas = (1.4562084272295464, 1.5736313585792958)
        assert betas[0] + betas[1] - betas[0] - betas[1] != 0.0
        terms = [e for b, rate in zip(betas, (0.8, 1.7)) for e in (
            {"poly_re": [b], "poly_im": [0.0], "z_re": 0.0, "z_im": 0.0},
            {"poly_re": [-b], "poly_im": [0.0], "z_re": -rate, "z_im": 0.0})]
        doc = {"type": "exp_poly", "terms": terms}
        kern = dio.kernel_from_doc(doc)
        assert kern.offset == Fraction(betas[0]) + Fraction(betas[1])
        assert verdict(analyze(kern, ZERO)) == (True, True, 2)
        assert dio.kernel_from_doc(dio.kernel_to_doc(kern)) == kern
        cfg = tmp_path / "drude2.json"
        cfg.write_text(json.dumps({"medium": {"eps": 1.0, "mu": 1.0, "nu_e": doc,
                                              "nu_h": {"type": "exp_poly", "terms": []}}}))
        assert main(["analyze", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["m"] == 2

    def test_exact_float_sum_stays_a_float(self):
        kern = standard_sum([("drude", 1.0, 1.0, 0.0), ("drude", 0.5, 2.0, 0.0)])
        assert type(kern.offset) is float and kern.offset == 1.5


class TestLinearStructure:
    @settings(max_examples=40, deadline=None)
    @given(TERMS)
    def test_sum_of_passive_terms_is_passive_with_least_m(self, terms):
        parts = [analyze(standard_sum([t]), ZERO) for t in terms]
        assert all(verdict(p)[:2] == (True, True) for p in parts)
        assert [p.m for p in parts] == [0 if t[0] == "debye" else 2 for t in terms]
        assert verdict(analyze(standard_sum(terms), ZERO)) == (True, True, min(p.m for p in parts))

    @settings(max_examples=30, deadline=None)
    @given(TERMS, st.floats(0.25, 4.0), st.floats(0.25, 4.0))
    def test_verdict_invariant_under_scaling(self, terms, c_beta, c_time):
        base = verdict(analyze(standard_sum(terms), ZERO))
        assert verdict(analyze(standard_sum(terms, beta_scale=c_beta), ZERO)) == base
        assert verdict(analyze(standard_sum(terms, time_scale=c_time), ZERO)) == base

    @settings(max_examples=30, deadline=None)
    @given(TERMS, st.floats(0.2, 1.0))
    def test_witness_is_negative(self, terms, excess):
        # a Debye term below -nu(0) makes Re(i w L nu(i w)) -> nu(0) < 0
        kern = standard_sum(terms)
        bad = ExpPolyKernel(kern.terms + debye(-(kern.value_at_zero() + excess), 0.7).terms,
                            kern.offset)
        report = check_passivity(bad, ZERO)
        assert not report.passive and len(report.witnesses) == 1
        w = report.witnesses[0]
        assert (1j * w * laplace(bad, 1j * w)).real < 0


def test_every_witness_of_random_kernels_is_negative():
    rng = np.random.default_rng(7)
    seen = 0
    for _ in range(60):
        kern = random_class_k_kernel(rng, max_terms=3, max_degree=2)
        for w in check_passivity(kern, ZERO).witnesses:
            seen += 1
            assert (1j * w * laplace(kern, 1j * w)).real < 0
    assert seen > 20


INT_POLY = st.lists(st.integers(-3, 3) | st.integers(-2**80, 2**80), min_size=1, max_size=7)
# zero interior coefficients between ones above 2^200, for products of 3 to 6 factors
SPARSE_BIG_POLY = st.lists(st.just(0) | st.integers(2**200, 2**256) | st.integers(-2**256, -2**200),
                           min_size=1, max_size=6)


class TestExactPolynomials:
    """``kernels._poly_sum`` and ``_poly_product`` against sympy.Poly, on
    untrimmed inputs too; their results are trimmed lists of Python ints."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(INT_POLY, min_size=1, max_size=3)
           | st.lists(SPARSE_BIG_POLY, min_size=3, max_size=6))
    @example([[0]])
    @example([[0], [5, 0, 0]])
    @example([[1, 0], [-1, 0, 0], [7]])
    @example([[2**201, 0, 0, -2**255], [0, 2**230, 0, 2**200], [-2**210, 0, 2**240], [0, 0, 2**256]])
    def test_sum_and_product_match_sympy(self, polys):
        x = sympy.symbols("x")
        exact = [sympy.Poly(c[::-1], x, domain="ZZ") for c in polys]
        for got, want in ((_poly_sum(*polys), reduce(add, exact)),
                          (_poly_product(*polys), reduce(mul, exact))):
            assert got == [int(c) for c in reversed(want.all_coeffs())]
            assert all(type(c) is int for c in got)
            assert len(got) == 1 or got[-1] != 0

    def test_empty_sum_and_product(self):
        assert (_poly_sum(), _poly_product()) == ([0], [1])


def sympy_positive_roots(poly):
    """The distinct roots in (0, inf) of a sympy Poly with their multiplicities,
    each the midpoint of an isolating interval of width at most 1e-40.  sympy's
    ``real_roots`` can fail in its factorization, as on 9986525 x^2 +
    6283752651480354816 x + 9986525; root isolation needs none."""
    return sorted((float((a + b) / 2), mult)
                  for (a, b), mult in poly.intervals(eps=sympy.Rational(1, 10**40)) if a + b > 0)


@st.composite
def root_polys(draw):
    """Nonzero integer polynomials with known roots in (0, inf): a signed constant
    times u^k (leading zeros) times factors with positive, negative and complex
    roots, some repeated; or coefficients of one sign (no sign change)."""
    shape = draw(st.sampled_from(["factored", "positive", "negative"]))
    if shape != "factored":
        c = draw(st.lists(st.integers(0, 2**70), min_size=1, max_size=8).filter(lambda c: c[-1]))
        return [-v for v in c] if shape == "negative" else c
    factors = []
    for _ in range(draw(st.integers(0, 4))):
        root = [-draw(st.integers(-50, 50)), draw(st.integers(1, 2**20))]  # u = num / den
        factors += [root] * draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 2))):
        re, im = draw(st.integers(-20, 20)), draw(st.integers(1, 20))
        factors.append([re * re + im * im, -2 * re, 1])  # u = re +- i im
    const = draw(st.sampled_from([1, -1, 7, -(2**100)]))
    return [0] * draw(st.integers(0, 2)) + _poly_product([const], *factors)


class TestRoots:
    poly = staticmethod(_poly_product)

    @settings(max_examples=100, deadline=None)
    @given(root_polys())
    @example([0, 0, 3, 0, 1])  # leading zeros and no sign change
    @example([-1, -2, 0, -5])  # every coefficient negative
    @example(_poly_product([-1, 3], [-1, 3], [-1, 3], [7, -2], [4, 0, 1]))  # 1/3 thrice, 7/2
    @example([19973050, 12567505302960709632, 19973050])  # sympy's real_roots fails on it
    def test_positive_roots_match_sympy(self, p):
        expected = sympy_positive_roots(sympy.Poly(p[::-1], sympy.symbols("x")))
        got = _positive_roots(p)
        assert [m for _, m in got] == [m for _, m in expected]
        for (r, _), (want, _) in zip(got, expected):
            assert math.isclose(r, want, rel_tol=2**-51)

    def test_multiplicities_and_dyadic_roots(self):
        # (u - 1)^2 (u - 4)^3 (u + 3) u: the Yun path, roots at bisection midpoints
        p = self.poly([-1, 1], [-1, 1], [-4, 1], [-4, 1], [-4, 1], [3, 1], [0, 1])
        assert _positive_roots(p) == [(1.0, 2), (4.0, 3)]

    @pytest.mark.parametrize("p, expected", [
        # square-free, roots 1/3 and 1/3 + 2^-30 / 3: 16 halvings do not part them
        (_poly_product([-1, 3], [-(2**30) - 1, 3 * 2**30]),
         [(1 / 3, 1), (float(Fraction(2**30 + 1, 3 * 2**30)), 1)]),
        (_poly_product([-1, 1], [-1, 1], [-3, 1]), [(1.0, 2), (3.0, 1)]),  # (u - 1)^2 (u - 3)
    ], ids=["square_free", "repeated"])
    def test_square_free_split(self, monkeypatch, p, expected):
        calls = []
        split = dispersion._squarefree_factors
        monkeypatch.setattr(dispersion, "_squarefree_factors",
                            lambda f: calls.append(f) or split(f))
        assert _positive_roots(p) == expected
        assert len(calls) == 1

    def test_close_and_tiny_roots(self):
        # roots 3 and 3 + 2^-40, and 2^-50
        p = self.poly([-3 * 2**40, 2**40], [-(3 * 2**40 + 1), 2**40], [-1, 2**50], [5, 1])
        roots = _positive_roots(p)
        assert [m for _, m in roots] == [1, 1, 1]
        assert [r for r, _ in roots] == [2.0**-50, 3.0, 3.0 + 2.0**-40]

    @staticmethod
    def form(p, d=(1,)):
        """A form with Re(i w L nu(i w)) = p(u) / d(u)."""
        return OmegaRational(list(p), list(d))

    def test_negative_frequency(self):
        form = self.form
        assert _negative_frequency(form(self.poly([-1, 1], [-1, 1]))) is None  # touches 0
        assert _negative_frequency(form([0])) is None
        # p < 0 on (0, 1) and again past 9 where the leading coefficient is negative
        assert _negative_frequency(form(self.poly([-1, 1]))) == pytest.approx(0.5**0.5)
        w = _negative_frequency(form(self.poly([-1, 1], [9, -1])))
        assert w == pytest.approx(7.0)

    def test_strict_passivity_needs_no_positive_root(self):
        # p = u (u - 1)^2 >= 0 touches 0 at w = 1: passive, not strictly passive
        cube = self.poly([1, 1], [1, 1], [1, 1])
        touching = self.form(self.poly([0, 1], [-1, 1], [-1, 1]), cube)
        report = _strict_passivity((touching, self.form([0])))
        assert report.passive and not report.strictly_passive
        assert report.witnesses == (1.0,)
        lifted = self.form(self.poly([1, 1], [-1, 1], [-1, 1]), cube)  # p = (u + 1)(u - 1)^2
        assert not _strict_passivity((lifted, self.form([0]))).strictly_passive
        clear = self.form(self.poly([0, 1], [1, 1], [1, 1]), cube)
        assert _strict_passivity((clear, self.form([0]))).strictly_passive


def sympy_real_part(kernel, w):
    """(numerator, denominator) polynomials in w of Re(i w L nu(i w)), built with
    sympy from the complex terms, each float read as an exact Rational."""
    lam = sympy.symbols("lambda")
    total = sympy.Rational(kernel.offset)
    for coeffs, z in kernel.complex_terms():
        zs = sympy.Rational(z.real) + sympy.I * sympy.Rational(z.imag)
        for ell, c in enumerate(coeffs):
            cs = sympy.Rational(c.real) + sympy.I * sympy.Rational(c.imag)
            total += lam * cs * sympy.factorial(ell) / (lam - zs) ** (ell + 1)
    num, den = sympy.fraction(sympy.together(total))

    def at(expr, s):  # expr(s w) as a polynomial in w
        return sympy.Poly(sympy.expand(expr.subs(lam, s * w)), w, domain="QQ_I")

    # Re(N/M) at lambda = i w is (N(i w) M(-i w) + N(-i w) M(i w)) / (2 M(i w) M(-i w))
    n_p, n_m, d_p, d_m = at(num, sympy.I), at(num, -sympy.I), at(den, sympy.I), at(den, -sympy.I)
    return n_p * d_m + n_m * d_p, 2 * d_p * d_m


def test_sympy_oracle():
    rng = np.random.default_rng(5)
    u, w = sympy.symbols("u w")
    for _ in range(15):
        kern = random_class_k_kernel(rng, max_terms=3, max_degree=1)
        form = omega_form(kern)
        p = sum(int(c) * u**k for k, c in enumerate(form.p))
        d = sum(int(c) * u**k for k, c in enumerate(form.d))
        num, den = sympy_real_part(kern, w)
        p_w, d_w = (sympy.Poly(e.subs(u, w**2), w, domain="QQ_I") for e in (p, d))
        assert (p_w * den - num * d_w).is_zero
        # distinct roots in (0, inf) and their multiplicities, from sympy's root isolation
        expected = sympy_positive_roots(sympy.Poly(p, u))
        got = _positive_roots(form.p) if any(form.p) else []
        assert [m for _, m in got] == [m for _, m in expected]
        assert np.allclose([r for r, _ in got], [r for r, _ in expected], rtol=1e-12)
        assert check_passivity(kern, ZERO).passive == (
            form.p[-1] > 0 and all(m % 2 == 0 for _, m in expected) or not any(form.p))

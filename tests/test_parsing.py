"""Kernel documents parsed on plain floats, against the numpy parser they replaced.

``reference_kernel_from_doc`` and ``reference_from_complex_terms`` are the
numpy versions of ``io.kernel_from_doc`` (its term arithmetic; field checks
aside) and ``ExpPolyKernel.from_complex_terms`` that the plain-float parser
replaced.  The reference stored the exponent of a conjugate pair listed with
its negative frequency first as ``np.float64``; the values are equal, so its
repr is compared with those wrappers removed.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dispersia import ExpPolyKernel
from dispersia import io as dio
from dispersia.kernels import DampedTerm, KernelError


def reference_from_complex_terms(terms):
    constants = []
    pending = []
    for coeffs, z in terms:
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        z = complex(z)
        if z == 0:
            c = c[np.abs(c) > 0] if c.size > 1 else c
            if c.size > 1:
                raise KernelError("z = 0 term must be a constant (Drude offset)")
            if abs(c[0].imag) > 1e-12 * (1 + abs(c[0])):
                raise KernelError("z = 0 term must be real")
            constants.append(float(c[0].real))
        else:
            pending.append((c, z))

    used = [False] * len(pending)
    real_terms = []
    for i, (ci, zi) in enumerate(pending):
        if used[i]:
            continue
        used[i] = True
        if zi.imag == 0:
            if np.max(np.abs(ci.imag)) > 1e-12 * (1 + np.max(np.abs(ci))):
                raise KernelError("real-exponent term has complex coefficients")
            real_terms.append(DampedTerm(tuple(ci.real), (0.0,), zi.real, 0.0))
            continue
        partner = None
        for j in range(i + 1, len(pending)):
            cj, zj = pending[j]
            if used[j] or cj.size != ci.size:
                continue
            if abs(zj - np.conj(zi)) <= 1e-12 * (1 + abs(zi)) and np.allclose(
                cj, np.conj(ci), rtol=1e-10, atol=1e-12
            ):
                partner = j
                break
        if partner is None:
            raise KernelError(
                f"term with z = {zi} has no conjugate partner; kernel would be complex"
            )
        used[partner] = True
        c, z = (ci, zi) if zi.imag > 0 else (np.conj(ci), np.conj(zi))
        real_terms.append(DampedTerm(tuple(2.0 * c.real), tuple(-2.0 * c.imag), z.real, z.imag))
    offset = math.fsum(constants)
    if math.fsum(constants + [-offset]) != 0.0:
        offset = sum(map(Fraction, constants))
    return ExpPolyKernel(tuple(real_terms), offset)


def reference_kernel_from_doc(doc):
    pairs = []
    for term in doc["terms"]:
        pre = np.asarray(term["poly_re"], dtype=float)
        pim = np.asarray(term["poly_im"], dtype=float)
        pairs.append((pre + 1j * pim, complex(float(term["z_re"]), float(term["z_im"]))))
    return reference_from_complex_terms(pairs)


def plain(text):
    return re.sub(r"np\.float64\(([^()]*)\)", r"\1", text)


def term(poly_re, poly_im, z_re, z_im):
    return {"poly_re": list(poly_re), "poly_im": list(poly_im), "z_re": z_re, "z_im": z_im}


COEFF = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-5.0, 5.0)
SIGNED_ZERO = st.sampled_from([0.0, -0.0])
# imaginary parts of a real coefficient: exact, inside and outside the 1e-12 test
SMALL_IMAG = st.sampled_from([0.0, -0.0, 1e-13, 1e-3])


@st.composite
def term_group(draw):
    """A Drude constant, a real-exponent term or a conjugate pair (in either order)."""
    kind = draw(st.sampled_from(["constant", "real", "pair"]))
    if kind == "constant":
        value = draw(st.sampled_from([0.1, 0.2, 0.3, -0.3, 0.7, 1e-17, 0.0, -0.0]))
        # trailing zeros (an all-zero polynomial is test_zero_polynomial_at_z0's)
        pad = [0.0] * draw(st.integers(0, 2)) if value else []
        return [term([value] + pad, [draw(SMALL_IMAG)] + pad, 0.0, draw(SIGNED_ZERO))]
    n = draw(st.integers(1, 3))
    pre = draw(st.lists(COEFF, min_size=n, max_size=n))
    x = draw(st.floats(-3.0, -0.1))
    if kind == "real":
        return [term(pre, draw(st.lists(SMALL_IMAG, min_size=n, max_size=n)), x,
                     draw(SIGNED_ZERO))]
    pim = draw(st.lists(COEFF, min_size=n, max_size=n))
    y = draw(st.floats(0.1, 4.0))
    # the partner's distance from conj(c) and conj(z), in units of the tolerance:
    # exact, just inside, just outside, well outside
    s = draw(st.sampled_from([0.0, 0.999, 1.001, 2.0]))
    partner_re = [r + s * (1e-12 + 1e-10 * abs(complex(r, i))) for r, i in zip(pre, pim)]
    dz = draw(st.sampled_from([0.0, 0.999, 1.001])) * 1e-12 * (1 + abs(complex(x, y)))
    pair = [term(pre, pim, x, y), term(partner_re, [-i for i in pim], x + dz, -y)]
    return pair if draw(st.booleans()) else pair[::-1]


@st.composite
def kernel_docs(draw):
    groups = draw(st.lists(term_group(), max_size=4))
    terms = draw(st.permutations([t for group in groups for t in group]))
    return {"type": "exp_poly", "terms": terms}


# Drude constants whose float sum rounds, so that the offset is a Fraction
DRUDE_FRACTION = {"type": "exp_poly", "terms": [
    term([0.1], [0.0], 0.0, 0.0), term([0.2], [0.0], 0.0, 0.0), term([-0.3], [0.0], -0.5, 0.0)]}


class TestPlainFloatParser:
    @settings(max_examples=400, deadline=None)
    @given(kernel_docs())
    @example(DRUDE_FRACTION)
    def test_matches_numpy_reference(self, doc):
        try:
            ref = reference_kernel_from_doc(doc)
        except KernelError as exc:
            with pytest.raises(dio.ParseError) as err:
                dio.kernel_from_doc(doc)
            assert str(err.value) == f"kernel.terms: {exc}"
            return
        new = dio.kernel_from_doc(doc)
        assert new == ref
        assert repr(new) == plain(repr(ref))
        # numpy arrays, as complex_terms() yields them, and bare scalars
        arrays = list(ref.complex_terms())
        scalars = [(c[0] if c.size == 1 else c, z) for c, z in arrays]
        for terms in (arrays, scalars):
            again = ExpPolyKernel.from_complex_terms(terms)
            assert again == reference_from_complex_terms(terms)
            assert repr(again) == plain(repr(reference_from_complex_terms(terms)))

    def test_drude_constants_sum_to_a_fraction(self):
        kernel = dio.kernel_from_doc(DRUDE_FRACTION)
        assert kernel.offset == Fraction(0.1) + Fraction(0.2)
        assert kernel == reference_kernel_from_doc(DRUDE_FRACTION)

    def test_zero_polynomial_at_z0_is_a_zero_constant(self):
        # the reference indexed an empty array here
        assert ExpPolyKernel.from_complex_terms([([0.0, 0.0], 0)]) == ExpPolyKernel.zero()

    def test_interior_zero_at_z0_is_not_a_constant(self):
        # the reference dropped every zero coefficient and read 5 t as the constant 5
        with pytest.raises(KernelError, match="must be a constant"):
            ExpPolyKernel.from_complex_terms([([0.0, 5.0], 0)])

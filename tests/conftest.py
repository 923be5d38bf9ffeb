"""Shared kernel generators for the test suite."""

import numpy as np

from dispersia import DampedTerm, ExpPolyKernel, MediumSpec, debye, drude, lorentz


def mixed_medium():
    """Lorentz + Debye terms in nu_e, a Drude term in nu_h."""
    nu_e = ExpPolyKernel(lorentz(0.8, 1.3, 0.6).terms + debye(0.5, 2.0).terms)
    return MediumSpec(1.5, 0.7, nu_e, drude(0.4, 0.9))


def lorentz_sum6():
    """Six slowly damped Lorentz terms, x_j = -0.05 j and y_j = 3 j."""
    return ExpPolyKernel(tuple(t for j in range(1, 7) for t in lorentz(1.0, 3.0 * j, 0.1 * j).terms))


def debye_sum6():
    """Six unit Debye terms with rates 10^(j/3), j = 0..5."""
    return ExpPolyKernel(tuple(t for j in range(6) for t in debye(1.0, 10.0 ** (-j / 3)).terms))


def debye_sum10():
    """Ten unit Debye terms with rates 10^(j/3), j = 0..9."""
    return ExpPolyKernel(tuple(t for j in range(10) for t in debye(1.0, 10.0 ** (-j / 3)).terms))


def defective_medium():
    """A degree-2 polynomial term: its companion block is one 3x3 Jordan block."""
    return MediumSpec(1.2, 0.9, ExpPolyKernel((DampedTerm((0.4, 0.6, 0.5), (0.0,), -0.7, 0.0),)),
                      debye(0.3, 0.5))


def random_class_k_kernel(rng, max_terms=2, max_degree=2):
    """A random real kernel with all exponents strictly damped.

    Not necessarily passive; only the class-K structure is guaranteed.
    """
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        deg = int(rng.integers(0, max_degree + 1))
        p = tuple(rng.uniform(-1.0, 1.0, deg + 1))
        x = float(-rng.uniform(0.3, 3.0))
        if rng.random() < 0.5:
            q = tuple(rng.uniform(-1.0, 1.0, deg + 1))
            y = float(rng.uniform(0.5, 2.0))
        else:
            q, y = (0.0,), 0.0
        terms.append(DampedTerm(p, q, x, y))
    return ExpPolyKernel(tuple(terms))


def random_passive_kernel(rng, max_terms=2):
    """Sum of relaxation and resonance terms, each passive on its own."""
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        if rng.random() < 0.5:
            terms.append(DampedTerm((float(rng.uniform(0.2, 2.0)),), (0.0,),
                                    float(-rng.uniform(0.3, 3.0)), 0.0))
        else:
            terms.append(DampedTerm((0.0,), (float(rng.uniform(0.2, 2.0)),),
                                    float(-rng.uniform(0.25, 1.5)),
                                    float(rng.uniform(0.5, 2.0))))
    return ExpPolyKernel(tuple(terms))


def series_kernel(alphas, xs):
    """Finite exponential series sum_j alpha_j e^{x_j t}."""
    return ExpPolyKernel(tuple(
        DampedTerm((float(a),), (0.0,), float(x), 0.0)
        for a, x in zip(alphas, xs)
    ))


def series_m0_sample(rng):
    """Exponential-series kernel on the sum(alpha) > 0 branch.

    Exponents stay in [-Xi, -xi] = [-3, -0.5]; one negative coefficient is
    added, small enough that a*xi^2 + b*Xi^2 >= 0 still holds.
    """
    xi, big_xi = 0.5, 3.0
    n = int(rng.integers(2, 5))
    xs = -rng.uniform(xi, big_xi, n)
    al = rng.uniform(0.2, 1.0, n)
    a = al.sum()
    al = np.append(al, -0.5 * a * xi**2 / big_xi**2)
    xs = np.append(xs, -rng.uniform(xi, big_xi))
    return series_kernel(al, xs)


def series_m2_sample(rng):
    """Exponential-series kernel on the sum(alpha) = 0 branch.

    Positive coefficients sit at slow exponents x in [-1, -0.5] and negative
    ones at fast exponents x in [-4, -2], so the large-omega limit of
    omega^2 * Re(i w L nu(i w)) is -sum(alpha_j x_j^2) > 0.  The coefficients
    sit on a 2^-30 grid and the last one closes the sum, so sum(alpha) is
    exactly 0 (every partial sum is exact in floats).
    """
    grid = 2.0**30
    n = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    apos = np.round(rng.uniform(0.2, 1.0, n) * grid) / grid
    xpos = -rng.uniform(0.5, 1.0, n)
    aneg = rng.uniform(0.2, 1.0, p)
    aneg = np.round(aneg * (-apos.sum() / aneg.sum()) * grid) / grid
    aneg[-1] = -(apos.sum() + aneg[:-1].sum())
    xneg = -rng.uniform(2.0, 4.0, p)
    return series_kernel(np.concatenate([apos, aneg]), np.concatenate([xpos, xneg]))

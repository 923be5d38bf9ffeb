"""Media whose verdicts are known by construction.

Each medium is a list of standard terms (Debye, Lorentz, Drude), each of which
is passive on its own with a known decay exponent m.  Re(i w L nu(i w)) is
linear in the kernel, so a positive-weight sum is passive, strictly passive,
and has m equal to the smallest m of its terms.  The label is fixed here, from
the term list, and never from the package under test.

Nothing in this module imports dispersia.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Families of passive sums built on purpose in shapes that the package's
# floating-point passivity path is known to misjudge (ROADMAP item 1): six
# slowly damped Lorentz terms, six Debye terms, and 7 to 10 Debye terms.
# A wrong verdict on them counts in wrong_ratio without making a run incorrect.
KNOWN_HARD_FAMILIES = ("lorentz6", "debye6", "debye_many")


@dataclass(frozen=True)
class Term:
    """One standard kernel term.

    debye:   nu(t) = beta e^{-rate t}                 (m = 0, nu(0) = beta)
    lorentz: nu(t) = beta sin(freq t) e^{-rate t / 2} (m = 2, nu(0) = 0)
    drude:   nu(t) = beta (1 - e^{-rate t})           (m = 2, nu(0) = 0)
    """

    kind: str
    beta: float
    rate: float
    freq: float = 0.0

    @property
    def m(self) -> int:
        return 0 if self.kind == "debye" else 2

    @property
    def value_at_zero(self) -> float:
        return self.beta if self.kind == "debye" else 0.0

    def derivative_exponentials(self) -> list[tuple[complex, complex]]:
        """(a, z) pairs with nu'(t) = sum a e^{z t}, derived by hand."""
        if self.kind == "debye":
            return [(complex(-self.beta * self.rate), complex(-self.rate))]
        if self.kind == "drude":
            return [(complex(self.beta * self.rate), complex(-self.rate))]
        # beta sin(w t) e^{x t} = beta/(2i) (e^{z t} - e^{conj(z) t}), z = x + i w
        z = complex(-self.rate / 2.0, self.freq)
        a = self.beta * z / 2j
        return [(a, z), (a.conjugate(), z.conjugate())]

    def doc_terms(self) -> list[dict]:
        """The term in the documented exp_poly form sum P_j(t) e^{z_j t}."""
        def entry(re, im, z_re, z_im):
            return {"poly_re": [re], "poly_im": [im], "z_re": z_re, "z_im": z_im}

        if self.kind == "debye":
            return [entry(self.beta, 0.0, -self.rate, 0.0)]
        if self.kind == "drude":
            return [entry(self.beta, 0.0, 0.0, 0.0),
                    entry(-self.beta, 0.0, -self.rate, 0.0)]
        x = -self.rate / 2.0
        return [entry(0.0, -self.beta / 2.0, x, self.freq),
                entry(0.0, self.beta / 2.0, x, -self.freq)]


@dataclass(frozen=True)
class Medium:
    """An exp-poly medium with its verdict fixed by construction."""

    family: str
    nu_e: tuple[Term, ...]
    nu_h: tuple[Term, ...] = ()
    eps: float = 1.0
    mu: float = 1.0
    passive: bool = True
    strictly_passive: Optional[bool] = True
    m: Optional[int] = None

    @property
    def mode_dim(self) -> int:
        """State dimension of one mode: (E, H) plus one state per exponential of nu'."""
        return 2 + sum(len(t.derivative_exponentials()) for t in self.nu_e + self.nu_h)

    def doc(self) -> dict:
        return {"eps": self.eps, "mu": self.mu,
                "nu_e": kernel_doc(self.nu_e), "nu_h": kernel_doc(self.nu_h)}


def kernel_doc(terms: tuple[Term, ...]) -> dict:
    return {"type": "exp_poly", "terms": [e for t in terms for e in t.doc_terms()]}


def passive_sum(family: str, nu_e, nu_h=(), eps: float = 1.0, mu: float = 1.0) -> Medium:
    """Positive-weight sum: passive, strictly passive, m = min of the terms' m."""
    terms = tuple(nu_e) + tuple(nu_h)
    if not terms or any(t.beta <= 0 for t in terms):
        raise ValueError("a passive sum needs at least one term, all with beta > 0")
    return Medium(family, tuple(nu_e), tuple(nu_h), eps, mu,
                  passive=True, strictly_passive=True, m=min(t.m for t in terms))


def negative_high_frequency(family: str, nu_e) -> Medium:
    """Re(i w L nu(i w)) tends to nu(0) as w grows; nu(0) < 0 means not passive."""
    nu_e = tuple(nu_e)
    if sum(t.value_at_zero for t in nu_e) >= 0:
        raise ValueError("high-frequency limit must be negative")
    return Medium(family, nu_e, (), passive=False, strictly_passive=False, m=None)


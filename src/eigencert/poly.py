"""Dense univariate polynomials with exact rational coefficients.

Coefficients are Fractions stored ascending ([c0, c1, ..., cn] is c0 +
c1 x + ... + cn x^n) with trailing zeros stripped; the zero polynomial
keeps a single zero coefficient and reports degree -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from eigencert import kernels
from eigencert.numerics import EXACT, InternalConsistencyError


class SquareFreeRequiredError(ValueError):
    """Repeated roots detected where a square-free polynomial is required."""


@dataclass(frozen=True)
class Poly:
    coeffs: tuple

    @staticmethod
    def from_coeffs(coeffs) -> "Poly":
        """Polynomial of ints, Fractions or decimal strings, read exactly."""
        return _strip([EXACT.convert(c) for c in coeffs])

    def degree(self) -> int:
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.degree() < 0

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def eval(self, x):
        return kernels.horner_eval(self.coeffs, EXACT.convert(x))

    def derivative(self) -> "Poly":
        if len(self.coeffs) == 1:
            return Poly((Fraction(0),))
        return _strip([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        lead = self.coeffs[-1]
        return Poly(tuple(c / lead for c in self.coeffs))

    def reflected(self) -> "Poly":
        """p(-x): negate the odd-degree coefficients."""
        return _strip([(-c if k % 2 else c) for k, c in enumerate(self.coeffs)])

    def deflated(self, root) -> "Poly":
        """Exact synthetic division by (x - root); root must be a root."""
        root = EXACT.convert(root)
        out = []
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        rem = out.pop()
        if rem != 0:
            raise ValueError(f"{root!r} is not a root; remainder {rem!r}")
        out.reverse()
        return _strip(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        vals = list(a)
        for k in range(len(b)):
            vals[k] = vals[k] + b[k]
        return _strip(vals)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly((Fraction(0),))
        vals = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                vals[i + j] = vals[i + j] + a * b
        return _strip(vals)


def _strip(vals: list) -> Poly:
    while len(vals) > 1 and vals[-1] == 0:
        vals.pop()
    if not vals:
        vals = [Fraction(0)]
    return Poly(tuple(vals))


def divmod_poly(num: Poly, den: Poly):
    """Quotient and remainder over the coefficient field."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    quot, rem = kernels.poly_divmod(list(num.coeffs), list(den.coeffs))
    return _strip(quot), _strip(rem)


def cauchy_root_bound(p: Poly):
    """B with every (complex) root of p inside |z| <= B."""
    if p.degree() < 1:
        raise ValueError("root bound needs degree >= 1")
    lead = abs(p.coeffs[-1])
    top = max(abs(c) for c in p.coeffs[:-1])
    return 1 + top / lead


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd of two polynomials, by Euclid's algorithm over Fraction."""
    while not q.is_zero():
        p, q = q, divmod_poly(p, q)[1]
    return p.monic()


def square_free_part(p: Poly) -> Poly:
    """Monic polynomial with the same roots as p, all simple."""
    if p.degree() < 1:
        return p.monic()
    g = gcd(p, p.derivative())
    if g.degree() < 1:
        return p.monic()
    quot, rem = divmod_poly(p, g)
    if not rem.is_zero():
        raise InternalConsistencyError("gcd does not divide its input")
    return quot.monic()


@dataclass(frozen=True)
class SturmChain:
    polys: tuple


def sturm_chain(p: Poly) -> SturmChain:
    """Textbook Sturm chain p, p', -rem(...), ... for square-free p."""
    if p.is_zero():
        raise ValueError("Sturm chain of the zero polynomial")
    polys = [p]
    if p.degree() >= 1:
        polys.append(p.derivative())
        while polys[-1].degree() >= 1:
            _, rem = divmod_poly(polys[-2], polys[-1])
            if rem.is_zero():
                raise SquareFreeRequiredError(
                    "polynomial has repeated roots; deflate with "
                    "square_free_part before building a Sturm chain"
                )
            polys.append(-rem)
    return SturmChain(tuple(polys))


def sturm_count(chain: SturmChain, a, b) -> int:
    """Number of real roots in (a, b]; endpoints must not be roots.

    With non-root endpoints the half-open and open counts coincide, which
    is how this is used everywhere in the package.
    """
    p = chain.polys[0]
    a = EXACT.convert(a)
    b = EXACT.convert(b)
    if not a < b:
        raise ValueError("need a < b")
    if p.eval(a) == 0 or p.eval(b) == 0:
        raise ValueError("Sturm count endpoint is a root")
    va = kernels.sign_variations([q.eval(a) for q in chain.polys])
    vb = kernels.sign_variations([q.eval(b) for q in chain.polys])
    return va - vb


def sturm_count_all(chain: SturmChain) -> int:
    """Total number of distinct real roots (count over (-inf, +inf))."""
    neg_signs = []
    pos_signs = []
    for q in chain.polys:
        lead = q.coeffs[-1]
        deg = q.degree()
        if deg < 0:
            continue
        pos_signs.append(lead)
        neg_signs.append(lead if deg % 2 == 0 else -lead)
    return kernels.sign_variations(neg_signs) - kernels.sign_variations(pos_signs)

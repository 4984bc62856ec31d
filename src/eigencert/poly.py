"""Dense univariate polynomials with exact rational coefficients.

Coefficients are Fractions stored ascending ([c0, c1, ..., cn] is c0 +
c1 x + ... + cn x^n) with trailing zeros stripped; the zero polynomial
keeps a single zero coefficient and reports degree -1.

Poly is only a value type; the Fraction algorithms on it (division,
gcd, the textbook Sturm chain) are the tests' and live in oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from eigencert import kernels
from eigencert.numerics import EXACT


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

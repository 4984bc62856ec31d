"""Square matrices and their characteristic polynomials.

Two routes, one per backend.  Exact: Berkowitz's division-free algorithm
after clearing denominators, so the whole computation runs in (big)
integers and the result is exact.  Float: Householder reduction to upper
Hessenberg form followed by the La Budde recurrence, which is the
numerically trustworthy way to get coefficients at fixed precision.  Both
return monic ascending polynomials equal to det(xI - A).

The pipeline runs only the exact route: locate replaces a float matrix
by the exact values of its entries.  Faddeev-Leverrier, on the same
cleared integer matrix and on exact matrices only, is the tests'
independent cross-check of the exact route, and the float route is their
fixed-precision reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from eigencert import kernels
from eigencert.numerics import (
    EXACT,
    UnsupportedOperationError,
    check_same_backend,
    fast_int,
)
from eigencert.poly import Poly


@dataclass(frozen=True)
class SquareMatrix:
    rows: tuple
    backend: object

    @staticmethod
    def from_rows(rows, backend) -> "SquareMatrix":
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must be nonempty")
        conv = []
        for row in rows:
            if len(row) != n:
                raise ValueError(
                    f"matrix must be square; row of length {len(row)} "
                    f"in a matrix with {n} rows"
                )
            conv.append(tuple(backend.convert(v) for v in row))
        return SquareMatrix(tuple(conv), backend)

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def trace(self):
        acc = self.rows[0][0]
        for i in range(1, self.n):
            acc = acc + self.rows[i][i]
        return acc

    def matmul(self, other: "SquareMatrix") -> "SquareMatrix":
        check_same_backend(self.backend, other.backend)
        prod = kernels.mat_mul([list(r) for r in self.rows], [list(r) for r in other.rows])
        return SquareMatrix(tuple(tuple(r) for r in prod), self.backend)

    def is_symmetric(self) -> bool:
        n = self.n
        return all(
            self.rows[i][j] == self.rows[j][i] for i in range(n) for j in range(i + 1, n)
        )

    @cached_property
    def cleared(self):
        """(D*A as big-int rows, D) for exact A; D = lcm of all denominators.

        Computed once per matrix: charpoly and locate both run on it.  The
        cache sits outside the fields, so == and hash do not see it.
        """
        denom = lcm(*(v.denominator for row in self.rows for v in row))
        rows = tuple(
            tuple(fast_int(v.numerator * (denom // v.denominator)) for v in row)
            for row in self.rows
        )
        return rows, denom


@dataclass(frozen=True)
class HessenbergForm:
    matrix: SquareMatrix
    alphas: tuple  # diagonal
    betas: tuple  # subdiagonal, betas[j] = H[j+1][j]


def _cleared_charpoly(m: SquareMatrix, kernel) -> Poly:
    """Exact charpoly of m from an integer charpoly kernel run on D*A.

    The roots of D*A are D times those of A, so coefficient k of its
    charpoly is D^(n-k) times that of A's.
    """
    rows, denom = m.cleared
    raw = kernel(rows)
    n = m.n
    coeffs = [Fraction(int(raw[k]), denom ** (n - k)) for k in range(n + 1)]
    return Poly.from_coeffs(coeffs, EXACT)


def faddeev_leverrier(m: SquareMatrix) -> Poly:
    """Characteristic polynomial of exact m by trace recursion.

    The matrix is scaled to integers first, keeping every step in integer
    arithmetic; this is the tests' cross-check of charpoly().
    """
    if m.backend != EXACT:
        raise UnsupportedOperationError("Faddeev-Leverrier runs on exact matrices only")
    return _cleared_charpoly(m, kernels.fl_charpoly_int)


def hessenberg_reduce(m: SquareMatrix) -> HessenbergForm:
    """Orthogonal (Householder) reduction to upper Hessenberg form."""
    if m.backend == EXACT:
        raise UnsupportedOperationError(
            "Hessenberg reduction needs square roots; use the float backend"
        )
    ctx = m.backend.ctx
    n = m.n
    h = [list(row) for row in m.rows]
    for k in range(n - 2):
        norm2 = ctx.zero
        for i in range(k + 1, n):
            norm2 = norm2 + h[i][k] * h[i][k]
        if norm2 == 0:
            continue
        norm = ctx.sqrt(norm2)
        alpha = -norm if h[k + 1][k] >= 0 else norm
        v = [h[i][k] for i in range(k + 1, n)]
        v[0] = v[0] - alpha
        vnorm2 = ctx.zero
        for t in range(len(v)):
            vnorm2 = vnorm2 + v[t] * v[t]
        if vnorm2 == 0:
            continue
        two = ctx.convert(2)
        for j in range(k, n):
            s = ctx.zero
            for t in range(len(v)):
                s = s + v[t] * h[k + 1 + t][j]
            f = two * s / vnorm2
            if f == 0:
                continue
            for t in range(len(v)):
                h[k + 1 + t][j] = h[k + 1 + t][j] - f * v[t]
        for i in range(n):
            s = ctx.zero
            for t in range(len(v)):
                s = s + h[i][k + 1 + t] * v[t]
            f = two * s / vnorm2
            if f == 0:
                continue
            for t in range(len(v)):
                h[i][k + 1 + t] = h[i][k + 1 + t] - f * v[t]
        h[k + 1][k] = alpha
        for i in range(k + 2, n):
            h[i][k] = ctx.zero
    for i in range(n):
        for j in range(i - 1):
            h[i][j] = ctx.zero
    mat = SquareMatrix(tuple(tuple(r) for r in h), m.backend)
    alphas = tuple(h[i][i] for i in range(n))
    betas = tuple(h[i + 1][i] for i in range(n - 1))
    return HessenbergForm(mat, alphas, betas)


def labudde(hf: HessenbergForm) -> Poly:
    """Characteristic polynomial of a Hessenberg form via La Budde."""
    raw = kernels.labudde_charpoly(
        list(hf.alphas), list(hf.betas), [list(r) for r in hf.matrix.rows]
    )
    return Poly.from_coeffs(raw, hf.matrix.backend)


def charpoly(m: SquareMatrix) -> Poly:
    """det(xI - A), monic ascending, by the backend-appropriate route."""
    if m.backend == EXACT:
        return _cleared_charpoly(m, kernels.berkowitz_charpoly_int)
    return labudde(hessenberg_reduce(m))

"""Square matrices and their characteristic polynomials.

A SquareMatrix holds Fractions.  from_rows reads each entry through a
backend: EXACT reads ints, Fractions and decimal text exactly, and a
float backend rounds each entry once to its precision, so a float
backend only says how the input is rounded.

charpoly() runs Berkowitz's division-free algorithm on B = D*A, A with
its denominators cleared, so the whole computation runs in big integers
and is exact; the matrix caches chi_B's integers, which the context's
chain is built on.  Faddeev-Leverrier, on the same cleared integer
matrix, is the tests' independent cross-check.

The tests' fixed-precision reference runs in mpmath, which it imports
when called: Householder reduction to upper Hessenberg form followed by
the La Budde recurrence, which is the numerically trustworthy way to get
coefficients at fixed precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from eigencert import kernels
from eigencert.numerics import float_backend
from eigencert.poly import Poly


@dataclass(frozen=True)
class SquareMatrix:
    rows: tuple  # rows of Fractions

    @staticmethod
    def from_rows(rows, backend) -> "SquareMatrix":
        """The matrix of the exact values of rows' entries as backend reads them."""
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
        return SquareMatrix(tuple(conv))

    @property
    def n(self) -> int:
        return len(self.rows)

    def is_symmetric(self) -> bool:
        n = self.n
        return all(
            self.rows[i][j] == self.rows[j][i] for i in range(n) for j in range(i + 1, n)
        )

    @cached_property
    def cleared(self):
        """(D*A as int rows, D); D = lcm of all denominators.

        Computed once per matrix: charpoly and locate both run on it.  The
        cache sits outside the fields, so == and hash do not see it.
        """
        denom = lcm(*(v.denominator for row in self.rows for v in row))
        rows = tuple(
            tuple(v.numerator * (denom // v.denominator) for v in row) for row in self.rows
        )
        return rows, denom

    @cached_property
    def cleared_charpoly(self) -> tuple:
        """chi_B(y) = det(yI - B), B = D*A, as ascending ints; computed once
        per matrix, for charpoly and the context's chain."""
        return tuple(kernels.berkowitz_charpoly_int(self.cleared[0]))


@dataclass(frozen=True)
class HessenbergForm:
    rows: tuple  # rows of H, mpf values
    alphas: tuple  # diagonal
    betas: tuple  # subdiagonal, betas[j] = H[j+1][j]


def _divided_charpoly(raw, denom) -> Poly:
    """chi_A from the integer coefficients raw of chi_B, B = D*A, D = denom.

    The roots of B are D times those of A, so coefficient k of chi_B is
    D^(n-k) times that of chi_A.
    """
    n = len(raw) - 1
    return Poly.from_coeffs([Fraction(raw[k], denom ** (n - k)) for k in range(n + 1)])


def faddeev_leverrier(m: SquareMatrix) -> Poly:
    """Characteristic polynomial of m by trace recursion.

    The matrix is scaled to integers first, keeping every step in integer
    arithmetic; this is the tests' cross-check of charpoly().
    """
    rows, denom = m.cleared
    return _divided_charpoly(kernels.fl_charpoly_int(rows), denom)


def mp_rows(rows, bits: int):
    """An mpmath context of bits precision, and the square rows in it.

    Each entry is rounded as float_backend(bits) rounds it, so the mpf
    rows hold the matrix that SquareMatrix.from_rows(rows,
    float_backend(bits)) holds; a rounded value has at most bits
    significant bits over a power of two, so mpf holds it exactly.
    """
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.prec = bits
    backend = float_backend(bits)
    return ctx, [
        [ctx.mpf(v.numerator) / v.denominator for v in map(backend.convert, row)]
        for row in rows
    ]


def hessenberg_reduce(rows, bits: int) -> HessenbergForm:
    """Orthogonal (Householder) reduction to upper Hessenberg form.

    Each entry of the square rows is rounded to bits bits, and every step
    runs at that precision in mpmath.
    """
    ctx, h = mp_rows(rows, bits)
    n = len(rows)
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
    alphas = tuple(h[i][i] for i in range(n))
    betas = tuple(h[i + 1][i] for i in range(n - 1))
    return HessenbergForm(tuple(tuple(r) for r in h), alphas, betas)


def labudde(hf: HessenbergForm) -> tuple:
    """Characteristic polynomial of a Hessenberg form via La Budde.

    Its mpf coefficients, ascending and monic.
    """
    return tuple(
        kernels.labudde_charpoly(list(hf.alphas), list(hf.betas), [list(r) for r in hf.rows])
    )


def charpoly(m: SquareMatrix) -> Poly:
    """det(xI - A), monic ascending, from Berkowitz on the cleared matrix."""
    return _divided_charpoly(m.cleared_charpoly, m.cleared[1])

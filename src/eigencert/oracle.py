"""Independent slow paths used to check the fast ones.

The characteristic polynomial comes from cofactor expansion instead of
division-free Berkowitz, the Hermite forms from dense products with the
companion matrix instead of Newton power sums laid out as Hankel
matrices, root counting and isolation from the textbook Sturm chain over
Fraction (field remainders) instead of the subresultant integer chain
that every signature is read from.  Tests hold the two sides against each
other.  This is the one home of the Fraction routes over Poly and
SquareMatrix, and the program runs none of them.
"""

from __future__ import annotations

from fractions import Fraction

from eigencert import kernels
from eigencert.charpoly import SquareMatrix
from eigencert.numerics import EXACT, InternalConsistencyError
from eigencert.poly import Poly


class SquareFreeRequiredError(ValueError):
    """Repeated roots detected where a square-free polynomial is required."""


def trace(m: SquareMatrix):
    return sum(row[i] for i, row in enumerate(m.rows))


def matmul(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    prod = kernels.mat_mul([list(r) for r in a.rows], [list(r) for r in b.rows])
    return SquareMatrix(tuple(tuple(r) for r in prod))


def divmod_poly(num: Poly, den: Poly):
    """Quotient and remainder over the coefficient field."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    quot, rem = kernels.poly_divmod(list(num.coeffs), list(den.coeffs))
    return Poly.from_coeffs(quot), Poly.from_coeffs(rem)


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


def sturm_chain(p: Poly) -> tuple:
    """Textbook Sturm chain p, p', -rem(...), ... for square-free p, as Polys."""
    if p.is_zero():
        raise ValueError("Sturm chain of the zero polynomial")
    chain = [p]
    if p.degree() >= 1:
        chain.append(p.derivative())
        while chain[-1].degree() >= 1:
            _, rem = divmod_poly(chain[-2], chain[-1])
            if rem.is_zero():
                raise SquareFreeRequiredError(
                    "polynomial has repeated roots; deflate with "
                    "square_free_part before building a Sturm chain"
                )
            chain.append(-rem)
    return tuple(chain)


def sturm_count(chain: tuple, a, b) -> int:
    """Number of real roots in (a, b]; endpoints must not be roots.

    With non-root endpoints the half-open and open counts coincide, which
    is how this is used everywhere in the tests.
    """
    p = chain[0]
    a = EXACT.convert(a)
    b = EXACT.convert(b)
    if not a < b:
        raise ValueError("need a < b")
    if p.eval(a) == 0 or p.eval(b) == 0:
        raise ValueError("Sturm count endpoint is a root")
    va = kernels.sign_variations([q.eval(a) for q in chain])
    vb = kernels.sign_variations([q.eval(b) for q in chain])
    return va - vb


def sturm_count_all(chain: tuple) -> int:
    """Total number of distinct real roots (count over (-inf, +inf))."""
    neg_signs = []
    pos_signs = []
    for q in chain:
        lead = q.coeffs[-1]
        deg = q.degree()
        if deg < 0:
            continue
        pos_signs.append(lead)
        neg_signs.append(lead if deg % 2 == 0 else -lead)
    return kernels.sign_variations(neg_signs) - kernels.sign_variations(pos_signs)


def naive_charpoly(m: SquareMatrix) -> Poly:
    """det(xI - A) by cofactor expansion over polynomial entries.

    Exponential-with-memo (about n 2^n polynomial terms); fine for the
    n <= 8 matrices it is used on, and entirely independent of the
    Berkowitz route of charpoly().
    """
    n = m.n
    entries = {}
    for i in range(n):
        for j in range(n):
            entries[i, j] = Poly.from_coeffs([-m.rows[i][j], 1] if i == j else [-m.rows[i][j]])
    memo = {(): Poly.from_coeffs([1])}

    def det(cols):
        try:
            return memo[cols]
        except KeyError:
            pass
        row = n - len(cols)
        acc = None
        for idx, col in enumerate(cols):
            e = entries[row, col]
            if e.is_zero():
                continue
            term = e * det(cols[:idx] + cols[idx + 1 :])
            if idx % 2:
                term = -term
            acc = term if acc is None else acc + term
        if acc is None:
            acc = Poly.from_coeffs([0])
        memo[cols] = acc
        return acc

    return det(tuple(range(n)))


def companion(p: Poly) -> SquareMatrix:
    """Companion matrix: ones on the subdiagonal, -coefficients last column."""
    n = p.degree()
    if n < 1 or not p.is_monic():
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    rows = []
    for i in range(n):
        row = [Fraction(0)] * n
        if i > 0:
            row[i - 1] = Fraction(1)
        row[n - 1] = -p.coeffs[i]
        rows.append(tuple(row))
    return SquareMatrix(tuple(rows))


def apply_poly(q: Poly, m: SquareMatrix) -> SquareMatrix:
    """q(M) by Horner's rule on matrices (cross-check path, O(d n^3))."""
    n = m.n
    acc = [[Fraction(0)] * n for _ in range(n)]
    top = q.coeffs[-1]
    for i in range(n):
        acc[i][i] = top
    rows = [list(r) for r in m.rows]
    for k in range(len(q.coeffs) - 2, -1, -1):
        acc = kernels.mat_mul(acc, rows)
        ck = q.coeffs[k]
        for i in range(n):
            acc[i][i] = acc[i][i] + ck
    return SquareMatrix(tuple(tuple(r) for r in acc))


def dense_hermite(p: Poly, q: Poly) -> SquareMatrix:
    """H_1 q(C) by dense products, with H_1[i][j] = tr(C^(i+j)).

    C is the companion matrix of monic p.  Power sums come from traces of
    powers of C, not from the Newton recurrence, and the product ignores
    the Hankel structure, so this checks both halves of hermite_weighted.
    """
    c = companion(p)
    n = c.n
    traces = [Fraction(n)]
    power = c
    for _ in range(2 * n - 2):
        traces.append(trace(power))
        power = matmul(power, c)
    h1 = SquareMatrix(tuple(tuple(traces[i + j] for j in range(n)) for i in range(n)))
    return matmul(h1, apply_poly(q, c))


def sturm_isolate_roots(p: Poly, eps) -> list:
    """Disjoint intervals of width <= eps, one per real root of p.

    Square-free p.  Plain Sturm bisection inside the Cauchy bound, on the
    textbook Fraction chain of sturm_chain rather than the pipeline's
    subresultant integer chain; a midpoint that is a root becomes the
    zero-width interval [m, m] and the remaining roots are isolated on the
    deflated quotient.
    """
    eps = EXACT.convert(eps)
    if not eps > 0:
        raise ValueError("epsilon must be positive")
    bound = cauchy_root_bound(p.monic()) + 1

    def isolate(poly, lo, hi):
        chain = sturm_chain(poly)
        found = []

        def walk(a, b):
            count = sturm_count(chain, a, b)
            if count == 0:
                return
            if count == 1 and b - a <= eps:
                found.append((a, b))
                return
            mid = (a + b) / 2
            if poly.eval(mid) == 0:
                found.append((mid, mid))
                rest = poly.deflated(mid)
                if rest.degree() >= 1:
                    found.extend(isolate(rest, a, b))
                return
            walk(a, mid)
            walk(mid, b)

        walk(lo, hi)
        return found

    roots = isolate(p.monic(), -bound, bound)
    roots.sort()
    return roots


def sturm_count_closed(p: Poly, lo, hi) -> int:
    """Exact number of distinct real roots in the closed interval [lo, hi].

    Handles root endpoints (where a raw Sturm count is undefined) by
    exact deflation, so tests can interrogate any interval the pipeline
    emits, including point intervals.
    """
    lo = EXACT.convert(lo)
    hi = EXACT.convert(hi)
    if hi < lo:
        raise ValueError("need lo <= hi")
    work = square_free_part(p)
    extra = 0
    for endpoint in {lo, hi}:
        if work.eval(endpoint) == 0:
            extra += 1
            work = work.deflated(endpoint)
    if lo == hi or work.degree() < 1:
        return extra
    return extra + sturm_count(sturm_chain(work), lo, hi)

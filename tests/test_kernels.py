"""Kernel tests for eigencert.kernels."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencert import kernels
from eigencert.oracle import dense_hermite
from eigencert.poly import Poly

# one module under test; the "py" id keeps the test names stable
pytestmark = pytest.mark.parametrize("K", [kernels], ids=["py"])


def frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_horner_eval(K):
    # 2 - 3x + x^2 at x = 5 -> 12
    assert K.horner_eval([2, -3, 1], 5) == 12
    assert K.horner_eval([Fraction(1, 2)], Fraction(7)) == Fraction(1, 2)
    assert K.horner_eval([0, 0, 1], Fraction(1, 3)) == Fraction(1, 9)


def test_horner_homogeneous(K):
    rng = random.Random(90)
    # integer points (plain Horner), small denominators and dyadic ones as
    # deep as refinement's
    for den in [1] * 20 + [rng.randint(2, 12) for _ in range(20)] + [2**90] * 20:
        coeffs = [rng.randint(-10**12, 10**12) for _ in range(rng.randint(1, 25))]
        bound = 2**95 if rng.random() < 0.5 else 999
        num = rng.randint(-bound, bound)
        want = K.horner_eval([Fraction(c) for c in coeffs], Fraction(num, den))
        got = K.horner_homogeneous(coeffs, num, den)
        assert isinstance(got, int)
        assert got == want * den ** (len(coeffs) - 1)
    assert K.horner_homogeneous([5], 3, 7) == 5
    assert K.horner_homogeneous([-6, 11, -6, 1], 2, 1) == 0  # root 2 of (x-1)(x-2)(x-3)


def test_sign_variations(K):
    assert K.sign_variations([1, 2, 3]) == 0
    assert K.sign_variations([1, -1, 1, -1]) == 3
    assert K.sign_variations([1, 0, 0, -1]) == 1  # zeros dropped
    assert K.sign_variations([0, 0]) == 0
    assert K.sign_variations([]) == 0
    assert K.sign_variations([-2, 0, 3, 5, 0, -1]) == 2


def test_sign_variations_order_invariant(K):
    rng = random.Random(3)
    for _ in range(20):
        vals = [rng.randint(-5, 5) for _ in range(rng.randint(0, 9))]
        assert K.sign_variations(vals) == K.sign_variations(list(reversed(vals)))


def test_poly_divmod_reconstructs(K):
    rng = random.Random(5)
    for _ in range(25):
        num = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 7))]
        den = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
        if all(c == 0 for c in den):
            den[-1] = Fraction(1)
        quot, rem = K.poly_divmod(num, den)
        # num == quot*den + rem, degree(rem) < degree(den)
        prod = [Fraction(0)] * (len(quot) + len(den))
        for i, a in enumerate(quot):
            for j, b in enumerate(den):
                prod[i + j] += a * b
        for j, b in enumerate(rem):
            prod[j] += b
        trimmed = list(num)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        while prod and prod[-1] == 0:
            prod.pop()
        assert prod == trimmed
        dlen = len(den)
        while dlen and den[dlen - 1] == 0:
            dlen -= 1
        assert len(rem) < dlen


def test_poly_divmod_by_zero(K):
    with pytest.raises(ZeroDivisionError):
        K.poly_divmod([1, 2], [0])


def test_power_sums_quadratic(K):
    # x^2 - 3x + 2: roots 1, 2
    sums = K.power_sums([Fraction(2), Fraction(-3), Fraction(1)], 4)
    assert sums == [2, 3, 5, 9, 17]


def test_power_sums_vs_explicit_roots(K):
    # (x-1)(x-2)(x+3) = x^3 - 7x + 6
    roots = [1, 2, -3]
    sums = K.power_sums([Fraction(6), Fraction(-7), Fraction(0), Fraction(1)], 7)
    for k, s in enumerate(sums):
        assert s == sum(r**k for r in roots)


def test_fl_charpoly_int(K):
    # [[1, 2], [3, 4]]: x^2 - 5x - 2
    assert K.fl_charpoly_int([[1, 2], [3, 4]]) == [-2, -5, 1]
    assert K.fl_charpoly_int([[7]]) == [-7, 1]
    # companion of x^3 - 2x + 5
    comp = [[0, 0, -5], [1, 0, 2], [0, 1, 0]]
    assert K.fl_charpoly_int(comp) == [5, -2, 0, 1]


CHARPOLY_CASES = [
    ([[7]], [-7, 1]),
    ([[1, 2], [3, 4]], [-2, -5, 1]),
    ([[0, 0, -5], [1, 0, 2], [0, 1, 0]], [5, -2, 0, 1]),  # companion of x^3 - 2x + 5
    ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [0, 0, 0, 1]),
    ([[0, 1], [1, 0]], [-1, 0, 1]),  # zero leading 1 x 1 minor
    ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]], [0, 0, 0, 0, 1]),  # nilpotent
]


@pytest.mark.parametrize("rows, want", CHARPOLY_CASES)
def test_berkowitz_charpoly_int_known(K, rows, want):
    copy = [list(r) for r in rows]
    got = K.berkowitz_charpoly_int(rows)
    assert got == want and all(type(c) is int for c in got)
    assert rows == copy  # arguments are not mutated


def test_berkowitz_matches_fl_charpoly_int(K):
    rng = random.Random(71)
    for n in range(1, 21):
        bound = 10 ** rng.choice((1, 5, 20))
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        assert K.berkowitz_charpoly_int(rows) == K.fl_charpoly_int(rows), (n, bound)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.integers(-10**20, 10**20), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_berkowitz_matches_fl_charpoly_int_property(K, rows):
    assert K.berkowitz_charpoly_int(rows) == K.fl_charpoly_int(rows)


def test_labudde_matches_fl_on_hessenberg(K):
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 6)
        ints = [[rng.randint(-5, 5) if j >= i - 1 else 0 for j in range(n)] for i in range(n)]
        rows = frac_rows(ints)
        alphas = [rows[i][i] for i in range(n)]
        betas = [rows[i + 1][i] for i in range(n - 1)]
        got = K.labudde_charpoly(alphas, betas, rows)
        assert got == K.berkowitz_charpoly_int(ints)


def test_hermite_product_vs_matmul(K):
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randint(2, 5)
        p = Poly.from_coeffs([Fraction(rng.randint(-4, 4)) for _ in range(n)] + [1])
        q = Poly.from_coeffs([Fraction(rng.randint(-3, 3)) for _ in range(3)])
        sums = K.power_sums(list(p.coeffs), 2 * n)
        got = K.hermite_product(sums, list(q.coeffs), n)
        assert got == [list(r) for r in dense_hermite(p, q).rows]


def test_ldl_inertia_known(K):
    assert K.ldl_inertia(frac_rows([[2, 0], [0, -3]])) == (1, 1, 0)
    assert K.ldl_inertia(frac_rows([[0, 1], [1, 0]])) == (1, 1, 0)
    assert K.ldl_inertia(frac_rows([[0, 0], [0, 0]])) == (0, 0, 2)
    assert K.ldl_inertia(frac_rows([[1, 2], [2, 4]])) == (1, 0, 1)
    # zero diagonal, rank 2
    assert K.ldl_inertia(frac_rows([[0, 0, 1], [0, 0, 2], [1, 2, 0]])) == (1, 1, 1)


def test_bareiss_inertia_known(K):
    assert K.bareiss_inertia([[2, 0], [0, -3]]) == (1, 1, 0)
    assert K.bareiss_inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert K.bareiss_inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    assert K.bareiss_inertia([[1, 2], [2, 4]]) == (1, 0, 1)
    assert K.bareiss_inertia([[0, 0, 1], [0, 0, 2], [1, 2, 0]]) == (1, 1, 1)


def test_bareiss_matches_ldl_random(K):
    rng = random.Random(47)
    for trial in range(60):
        n = rng.randint(1, 7)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-6, 6)
                a[i][j] = a[j][i] = v
        if trial % 3 == 0:  # force zero diagonals to hit the 2x2 branch
            for i in range(n):
                a[i][i] = 0
        assert K.bareiss_inertia(a) == K.ldl_inertia(frac_rows(a)), a


def test_inertia_sums_to_n(K):
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(1, 6)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
        pos, neg, nil = K.bareiss_inertia(a)
        assert pos + neg + nil == n


def test_int_content_strip(K):
    assert K.int_content_strip([6, -9, 12]) == [2, -3, 4]
    assert K.int_content_strip([5, 7]) == [5, 7]
    assert K.int_content_strip([0, 0]) == [0, 0]
    assert K.int_content_strip([-4]) == [-1]


def test_int_prem_sign(K):
    # x^2 - 1 by x: the true remainder is -1, times lc(g)^2 = 1 either way
    assert K.int_prem([-1, 0, 1], [0, 1]) == [-1]
    assert K.int_prem([-1, 0, 1], [0, -1]) == [-1]
    # by -2x, and x^3 - 1 by -2x: lc(g)^(d + 1) keeps its sign
    assert K.int_prem([-1, 0, 1], [0, -2]) == [-4]
    assert K.int_prem([-1, 0, 0, 1], [0, -2]) == [8]
    assert K.int_prem([0, 1], [1]) == []  # exact division


def test_int_prem_matches_field_remainder(K):
    """lc(g)^(d+1) f = q g + r, d = deg f - deg g: r is lc(g)^(d+1) times the
    field remainder of poly_divmod, for gaps d = 0-4 and zero coefficients."""
    rng = random.Random(61)
    for _ in range(200):
        g = [rng.randint(-8, 8) for _ in range(rng.randint(0, 4))] + [rng.choice((-3, -1, 1, 2))]
        gap = rng.randint(0, 4)
        f = [rng.choice((0, 0, rng.randint(-8, 8))) for _ in range(len(g) - 1 + gap)]
        f.append(rng.choice((-2, 1, 3)))
        got = K.int_prem(f, g)
        assert all(isinstance(c, int) for c in got)
        _, want = K.poly_divmod([Fraction(c) for c in f], [Fraction(c) for c in g])
        assert got == [c * g[-1] ** (gap + 1) for c in want]


def test_int_divmod_exact(K):
    # (x^2 - 2)(3x + 1) by a primitive non-monic divisor, and by a monic one
    assert K.int_divmod_exact([-2, -6, 1, 3], [1, 3]) == ([-2, 0, 1], [])
    assert K.int_divmod_exact([-2, -6, 1, 3], [-2, 0, 1]) == ([1, 3], [])
    # x^2 + 1 by x - 1: integer quotient, remainder 2
    assert K.int_divmod_exact([1, 0, 1], [-1, 1]) == ([1, 1], [2])
    # x^2 by 2x + 1: lc 2 does not divide the leading 1, nothing is taken
    quot, rest = K.int_divmod_exact([0, 0, 1], [1, 2])
    assert rest and quot == [0, 0]
    # 3x^2 by 2x + 1: lc 2 does not divide 3, so the division stops at once
    assert K.int_divmod_exact([0, 0, 3], [1, 2]) == ([0, 0], [0, 0, 3])
    rng = random.Random(21)
    for _ in range(50):
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.choice((-3, -1, 1, 2))]
        h = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [rng.randint(1, 9)]
        f = (Poly.from_coeffs(g) * Poly.from_coeffs(h)).coeffs
        assert K.int_divmod_exact([int(c) for c in f], g) == (h, [])

import random
from fractions import Fraction

import pytest

from eigencert.charpoly import (
    SquareMatrix,
    charpoly,
    faddeev_leverrier,
    hessenberg_reduce,
    labudde,
)
from eigencert.numerics import EXACT
from eigencert.oracle import matmul, naive_charpoly, trace
from tests.conftest import WORKED_CHARPOLY, WORKED_ROWS, mpf_value, random_rational_matrix


def test_from_rows_validation():
    with pytest.raises(ValueError, match="square"):
        SquareMatrix.from_rows([[1, 2], [3]], EXACT)
    with pytest.raises(ValueError):
        SquareMatrix.from_rows([], EXACT)


def test_matrix_basics():
    m = SquareMatrix.from_rows([[1, 2], [3, 4]], EXACT)
    assert m.n == 2
    assert trace(m) == 5
    assert m.rows[0][1] == 2
    assert not m.is_symmetric()
    assert SquareMatrix.from_rows([[1, 7], [7, 2]], EXACT).is_symmetric()
    sq = matmul(m, m)
    assert sq.rows == ((7, 10), (15, 22))


def test_cleared_int_rows(worked_exact):
    rows, denom = worked_exact.cleared
    assert denom == 4
    assert [int(v) for v in rows[0]] == [5, 4, 3, 2, 1]
    assert all(isinstance(int(v), int) for row in rows for v in row)
    # cleared once per matrix, and the cache leaves == and hash alone
    assert worked_exact.cleared is worked_exact.cleared
    fresh = SquareMatrix.from_rows(worked_exact.rows, EXACT)
    assert fresh == worked_exact and hash(fresh) == hash(worked_exact)


def test_faddeev_leverrier_worked(worked_exact):
    p = faddeev_leverrier(worked_exact)
    assert p.coeffs == WORKED_CHARPOLY


def test_charpoly_small_matrices():
    one = SquareMatrix.from_rows([[Fraction(3, 2)]], EXACT)
    assert charpoly(one).coeffs == (Fraction(-3, 2), 1)
    two = SquareMatrix.from_rows([[1, 2], [3, 4]], EXACT)
    # x^2 - (tr) x + det
    assert charpoly(two).coeffs == (-2, -5, 1)


def test_faddeev_leverrier_vs_cofactor_expansion():
    rng = random.Random(99)
    for n in (2, 3, 4, 5):
        for _ in range(4):
            m = random_rational_matrix(rng, n)
            assert faddeev_leverrier(m) == naive_charpoly(m)


def test_charpoly_matches_faddeev_leverrier_and_cofactors():
    rng = random.Random(101)
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            m = random_rational_matrix(rng, n)
            assert charpoly(m) == faddeev_leverrier(m) == naive_charpoly(m)
    # at larger n the cofactor expansion is too slow; integer entries in [-5, 5]
    for n in (12, 20):
        m = SquareMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)], EXACT)
        assert charpoly(m) == faddeev_leverrier(m)


def test_hessenberg_zero_pattern():
    hf = hessenberg_reduce(WORKED_ROWS, 256)
    h = hf.rows
    n = len(h)
    for i in range(n):
        for j in range(i - 1):
            assert h[i][j] == 0
    assert hf.alphas == tuple(h[i][i] for i in range(n))
    assert hf.betas == tuple(h[i + 1][i] for i in range(n - 1))


def test_hessenberg_reduced_column_keeps_the_charpoly():
    rows = [  # nothing to annihilate in column 0
        ["2", "1", "4"],
        ["0", "0", "1"],
        ["0", "5", "2"],
    ]
    hf = hessenberg_reduce(rows, 128)
    assert mpf_value(hf.rows[2][0]) == 0
    want = faddeev_leverrier(SquareMatrix.from_rows(rows, EXACT))
    tol = Fraction(1, 10**30)
    for w, g in zip(want.coeffs, labudde(hf), strict=True):
        assert abs(Fraction(w) - mpf_value(g)) <= tol * max(1, abs(Fraction(w)))


def test_float_charpoly_matches_exact(worked_exact):
    want = faddeev_leverrier(worked_exact)
    got = labudde(hessenberg_reduce(WORKED_ROWS, 256))
    tol = Fraction(1, 10**60)
    for w, g in zip(want.coeffs, got, strict=True):
        err = abs(Fraction(w) - mpf_value(g))
        assert err <= tol * max(1, abs(Fraction(w)))


def test_float_charpoly_random():
    rng = random.Random(4)
    tol = Fraction(1, 10**55)
    for n in (2, 3, 5, 6):
        m = random_rational_matrix(rng, n)
        want = faddeev_leverrier(m)
        got = labudde(hessenberg_reduce(m.rows, 256))
        for w, g in zip(want.coeffs, got, strict=True):
            err = abs(Fraction(w) - mpf_value(g))
            assert err <= tol * max(1, abs(Fraction(w)))


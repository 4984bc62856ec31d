import random
from fractions import Fraction

import pytest

from eigencert import kernels
from eigencert.charpoly import SquareMatrix, charpoly, faddeev_leverrier
from eigencert.hermite import (
    HermiteForm,
    descartes_signature,
    hermite_base,
    hermite_weighted,
    inertia,
    power_sums,
    signature,
)
from eigencert.numerics import EXACT
from eigencert.oracle import companion, dense_hermite, matmul, trace
from eigencert.poly import Poly
from tests.conftest import P


def interval_weight(a, b):
    # (x - a)(x - b), ascending
    return P(Fraction(a) * Fraction(b), -(Fraction(a) + Fraction(b)), 1)


def test_power_sums_known_roots():
    p = P(-6, 11, -6, 1)  # roots 1, 2, 3
    assert power_sums(p, 4) == [3, 6, 14, 36, 98]


def test_power_sums_validation():
    with pytest.raises(ValueError):
        power_sums(P(5), 2)
    with pytest.raises(ValueError):
        power_sums(P(1, 2), 2)  # not monic


def test_power_sums_match_matrix_traces(worked_exact):
    p = faddeev_leverrier(worked_exact)
    sums = power_sums(p, 8)
    acc = worked_exact
    assert sums[0] == 5
    for k in range(1, 9):
        assert sums[k] == trace(acc)
        acc = matmul(acc, worked_exact)
    assert sums[8] == Fraction(25855455169, 65536)


def test_companion_layout():
    p = P(-4, 3, -2, 1)
    c = companion(p)
    assert c.rows == ((0, 0, 4), (1, 0, -3), (0, 1, 2))
    assert faddeev_leverrier(c) == p
    with pytest.raises(ValueError):
        companion(P(1, 2, 2))  # not monic


def test_hermite_base_fixtures():
    h = hermite_base(P(-1, 0, 1))  # x^2 - 1
    assert h.matrix.rows == ((2, 0), (0, 2))
    assert signature(h) == 2

    h = hermite_base(P(1, 0, 1))  # x^2 + 1
    assert h.matrix.rows == ((2, 0), (0, -2))
    assert signature(h) == 0

    h = hermite_base(P(0, 0, 1))  # x^2: one distinct real root
    assert h.matrix.rows == ((2, 0), (0, 0))
    assert signature(h) == 1


def test_hermite_base_worked(worked_exact):
    p = faddeev_leverrier(worked_exact)
    sums = power_sums(p, 8)
    h = hermite_base(p)
    for i in range(5):
        for j in range(5):
            assert h.matrix.rows[i][j] == sums[i + j]
    assert signature(h) == 3  # three distinct real eigenvalues


def test_hermite_weighted_matches_dense_product():
    rng = random.Random(8)
    for _ in range(6):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
        p = P(*coeffs, 1)
        base = hermite_base(p)
        weights = [
            interval_weight(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2)),
            P(Fraction(rng.randint(1, 5), rng.randint(1, 3))),  # degree 0
            P(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(1, 4), 3)),  # degree 1
            P(*[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)], 1),
        ]
        for q in weights:
            fast = hermite_weighted(base, q)
            assert fast.matrix == dense_hermite(p, q)
    assert [q.degree() for q in weights] == [2, 0, 1, 3]


def test_hermite_weighted_entrywise_formula():
    p = P(-6, 11, -6, 1)
    q = interval_weight(0, 4)
    sums = power_sums(p, 2 * 3 - 2 + q.degree())
    h = hermite_weighted(hermite_base(p), q)
    for i in range(3):
        for j in range(3):
            want = sum(q.coeffs[t] * sums[i + j + t] for t in range(len(q.coeffs)))
            assert h.matrix.rows[i][j] == want


def test_weighted_signature_counts_roots_by_sign():
    p = P(-6, 11, -6, 1)  # roots 1, 2, 3
    base = hermite_base(p)
    assert signature(base) == 3
    # all three roots inside (0, 4): q < 0 at each
    assert signature(hermite_weighted(base, interval_weight(0, 4))) == -3
    # roots 1, 2 inside (0, 5/2); root 3 outside
    assert signature(hermite_weighted(base, interval_weight(0, Fraction(5, 2)))) == -1
    # disk far from every root: sigma unchanged
    far = P(Fraction(99), Fraction(-20), 1)  # (x-10)^2 - 1
    assert signature(hermite_weighted(base, far)) == 3


def test_weighted_signature_endpoint_roots():
    p = P(5, -6, 1)  # (x-1)(x-5)
    base = hermite_base(p)
    h = hermite_weighted(base, interval_weight(1, 5))
    # both roots sit on the boundary where q vanishes
    assert signature(h) == 0
    assert signature(base) - signature(h) == 2


def test_descartes_signature():
    assert descartes_signature(P(6, -7, 0, 1)) == 1  # roots 1, 2, -3
    assert descartes_signature(P(0, -2, 1, 1)) == 0  # roots 0, 1, -2
    assert descartes_signature(P(-1, 3, -3, 1)) == 3  # (x-1)^3


def test_inertia_diagonal_cases():
    m = SquareMatrix.from_rows([[2, 0, 0], [0, -3, 0], [0, 0, 0]], EXACT)
    assert inertia(m) == (1, 1, 1)
    with pytest.raises(ValueError):
        inertia(SquareMatrix.from_rows([[0, 1], [2, 0]], EXACT))


def test_inertia_exact_vs_float():
    # Bareiss inertia on the cleared integer rows against rational LDL
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(2, 5)
        sym = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                sym[i][j] = sym[j][i] = v
        assert inertia(SquareMatrix.from_rows(sym, EXACT)) == kernels.ldl_inertia(sym)


def test_signature_is_cached():
    h = hermite_base(P(-1, 0, 1))
    assert h._signature is None
    first = signature(h)
    assert h._signature == first
    assert signature(h) == first


def test_exact_signature_above_charpoly_threshold():
    # order 13 lay above the degree where signatures once switched from
    # Descartes on the charpoly to inertia; every order now takes inertia
    diag = [1] * 7 + [-1] * 4 + [0] * 2
    n = len(diag)
    rows = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    form = HermiteForm(P(1), P(1), SquareMatrix.from_rows(rows, EXACT))
    assert inertia(form.matrix) == (7, 4, 2)
    assert signature(form) == 3


def test_float_weighted_form_is_symmetric(worked_float):
    p = charpoly(worked_float)
    base = hermite_base(p)
    h = hermite_weighted(base, Poly.from_coeffs(["4.5", "-4.5", "1"]))
    assert h.matrix.is_symmetric()

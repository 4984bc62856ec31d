"""Float mode certifies the exact values of its rounded entries.

A float backend rounds each entry once, when the matrix is built, and
the matrix holds the exact values of the rounded floats.  A 256-bit
float holds every dyadic rational with a short enough numerator exactly,
so on dyadic input the float copy of a matrix is the matrix itself, and
locate plus refine_all must give exactly what exact mode gives: the same
disks, points, tested intervals and final pieces.
"""

import random
from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eigencert.charpoly import SquareMatrix
from eigencert.localize import locate
from eigencert.numerics import EXACT, float_backend
from eigencert.refine import refine_all
from tests.conftest import to_float_matrix
from tests.test_chain import triangular_similar

EPSILON = "1e-7"

# Dyadic diagonal values: repeats are likely, and two sit 2^-30 from another.
DYADIC = st.sampled_from([F(0), F(1), F(3), F(-2), F(1, 2), F(1, 2**30), 3 + F(1, 2**30)])


def check_float_equals_exact(m):
    mf = to_float_matrix(m, 256)
    assert mf == m
    want, got = locate(m), locate(mf)
    assert got.context.backend == EXACT
    assert got.disks == want.disks
    assert got.points == want.points
    assert got.tested == want.tested
    eps = got.context.backend.convert(EPSILON)
    assert eps == F(1, 10**7)
    final = refine_all(got.context, got.intervals, eps)
    expected = refine_all(want.context, want.intervals, F(1, 10**7))
    assert [(iv.lo, iv.hi, iv.min_root_count, iv.sources) for iv in final] == [
        (iv.lo, iv.hi, iv.min_root_count, iv.sources) for iv in expected
    ]
    assert all(iv.hi - iv.lo <= F(1, 10**7) for iv in final)


def test_float_equals_exact_worked(worked_exact):
    check_float_equals_exact(worked_exact)


def test_float_equals_exact_random_integer():
    for seed in range(20):
        rng = random.Random(seed)
        n = 2 + seed % 9
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        check_float_equals_exact(SquareMatrix.from_rows(rows, EXACT))


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(triangular_similar(DYADIC))
def test_float_equals_exact_similar_triangles(case):
    check_float_equals_exact(case[0])


def test_float_backend_rounds_entries_at_construction():
    fb = float_backend(64)
    rows = [
        ["0.1", F(1, 3), "2"],
        [F(-2, 7), "1e-3", "0.7"],
        ["1.3", F(5, 9), "-0.4"],
    ]
    m = SquareMatrix.from_rows(rows, fb)
    assert all(type(v) is F for row in m.rows for v in row)
    assert m.rows == tuple(tuple(fb.convert(v) for v in row) for row in rows)
    # rounded to 64 bits, not read exactly
    assert m.rows[0][0] != F(1, 10) and m.rows[0][1] != F(1, 3)
    exact = SquareMatrix.from_rows(m.rows, EXACT)
    got, want = locate(m), locate(exact)
    assert got == want
    assert refine_all(got.context, got.intervals, F(1, 10**7)) == refine_all(
        want.context, want.intervals, F(1, 10**7)
    )

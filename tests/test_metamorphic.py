"""Exact metamorphic relations of the whole pipeline: locate, then refine_all.

Three moves of the input matrix change every result in a way known in
advance, with no oracle:

- shift: A + kI, with kD an integer (D the lcm of A's denominators).
  chi_B moves by kD, an automorphism of Z[y] that commutes with
  pseudo-remainders, so every decision moves with it: each disk centre,
  point, record end and final cell moves by k; radii, verdicts, counts
  and sources stay.
- scale: 2A at 2 eps.  Every value doubles, with the same verdicts,
  counts and sources.
- signed permutation similarity: P A P^T, with P a permutation matrix whose
  nonzero entries are +1 or -1, as certbench applies it.  The spectrum is
  the same and a disk takes |b_ij|, so new row i has old row order[i]'s
  disk; records and cells are unchanged, apart from their sources, the
  rows mapped through the permutation.

Each case compares the disks, points, tested candidates, contains-real
intervals and refine_all's cells of both runs.  A defect that moves with
the matrix (a lost root stays lost after a shift) is not caught here.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eigencert.charpoly import SquareMatrix
from eigencert.localize import locate
from eigencert.numerics import EXACT
from eigencert.refine import refine_all
from tests.test_chain import triangular_similar

EPSILONS = (F(1, 10**7), F(1, 10**30), F(1, 8))


def pipeline(rows, eps, column_disks):
    """(disks, points, tested, intervals, cells) of locate and refine_all on rows."""
    res = locate(SquareMatrix.from_rows(rows, EXACT), column_disks=column_disks)
    cells = refine_all(res.context, res.intervals, eps)
    return res.disks, res.points, res.tested, res.intervals, cells


def moved(result, value, row=lambda r: r):
    """result with each value x as value(x) and each row r as row(r)."""
    disks, points, tested, intervals, cells = result

    def record(iv):
        return iv._replace(lo=value(iv.lo), hi=value(iv.hi),
                           sources=tuple(sorted(map(row, iv.sources))))

    return (
        tuple(d._replace(center=value(d.center)) for d in disks),
        tuple(map(value, points)),
        tuple(map(record, tested)),
        tuple(map(record, intervals)),
        tuple(map(record, cells)),
    )


def check_shift(rows, k, eps, column_disks):
    shifted = [[v + k if i == j else v for j, v in enumerate(row)]
               for i, row in enumerate(rows)]
    want = moved(pipeline(rows, eps, column_disks), lambda x: x + k)
    assert pipeline(shifted, eps, column_disks) == want


def check_scale(rows, eps, column_disks):
    doubled = [[2 * v for v in row] for row in rows]
    disks, *rest = moved(pipeline(rows, eps, column_disks), lambda x: 2 * x)
    disks = tuple(d._replace(radius=2 * d.radius) for d in disks)
    assert pipeline(doubled, 2 * eps, column_disks) == (disks, *rest)


def check_signed_permutation(rows, order, signs, eps, column_disks):
    n = len(rows)
    similar = [[signs[i] * signs[j] * rows[order[i]][order[j]] for j in range(n)]
               for i in range(n)]
    new_row = {old: new for new, old in enumerate(order)}
    disks, *rest = moved(pipeline(rows, eps, column_disks), lambda x: x, new_row.__getitem__)
    disks = tuple(disks[old]._replace(row=new) for new, old in enumerate(order))
    assert pipeline(similar, eps, column_disks) == (disks, *rest)


@st.composite
def matrices(draw):
    """Rows of order 2-12: dense or sparse, integer or one-place decimal, or
    a triangular matrix conjugated by unimodular moves (repeated and close
    eigenvalues, roots on disk edges)."""
    kind = draw(st.sampled_from(("dense", "sparse", "triangular")))
    if kind == "triangular":
        return [list(row) for row in draw(triangular_similar())[0].rows]
    n = draw(st.integers(2, 12))
    den = draw(st.sampled_from((1, 10)))
    entry = st.integers(-9 * den, 9 * den).map(lambda k: F(k, den))
    if kind == "sparse":
        entry = st.one_of(st.just(F(0)), st.just(F(0)), entry)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


def scale_of(rows):
    return SquareMatrix.from_rows(rows, EXACT).cleared[1]


RELATION_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@RELATION_SETTINGS
@given(matrices(), st.integers(-12, 12), st.sampled_from(EPSILONS), st.booleans())
def test_shift_moves_every_value(rows, steps, eps, column_disks):
    check_shift(rows, F(steps, scale_of(rows)), eps, column_disks)


@RELATION_SETTINGS
@given(matrices(), st.sampled_from(EPSILONS), st.booleans())
def test_scale_doubles_every_value(rows, eps, column_disks):
    check_scale(rows, eps, column_disks)


@RELATION_SETTINGS
@given(matrices().flatmap(lambda rows: st.tuples(
           st.just(rows), st.permutations(range(len(rows))),
           st.lists(st.sampled_from((1, -1)), min_size=len(rows), max_size=len(rows)))),
       st.sampled_from(EPSILONS), st.booleans())
def test_signed_permutation_keeps_every_value(case, eps, column_disks):
    rows, order, signs = case
    check_signed_permutation(rows, order, signs, eps, column_disks)


def seeded_rows(n, den):
    """Order n, entries k / den with k in [-9 den, 9 den], from random.Random(n)."""
    rng = random.Random(n)
    return [[F(rng.randint(-9 * den, 9 * den), den) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n, den", [(24, 1), (32, 10)])
def test_relations_at_north_star_sizes(n, den):
    rows = seeded_rows(n, den)
    eps = F(1, 10**30)
    check_shift(rows, F(-7, den), eps, column_disks=False)
    check_scale(rows, eps, column_disks=True)
    rng = random.Random(n + 1)
    order = list(range(n))
    rng.shuffle(order)
    check_signed_permutation(rows, order, [rng.choice((1, -1)) for _ in range(n)], eps,
                             column_disks=False)

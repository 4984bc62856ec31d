from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eigencert import localize as localize_mod
from eigencert.charpoly import SquareMatrix
from eigencert.localize import (
    CONTAINS_REAL,
    EMPTY_REAL,
    POINT_EIGENVALUE,
    CertificationContext,
    _merge_segments,
    candidate_points,
    candidate_sources,
    certify_disk,
    certify_interval,
    gershgorin_disks,
    locate,
)
from eigencert.numerics import EXACT, InternalConsistencyError
from eigencert.refine import refine_all
from tests.conftest import WORKED_ROWS, ctx_for, rational_rows


WORKED_DISKS = [
    (0, F(5, 4), F(5, 2)),
    (1, 0, 1),
    (2, 0, 2),
    (3, 3, 1),
    (4, 5, F(1, 2)),
]


def test_gershgorin_disks_worked(worked_exact):
    rows, denom = worked_exact.cleared
    assert denom == 4
    # (c - r, c, c + r) of B = 4A
    disks = gershgorin_disks(rows)
    assert disks == [(-5, 5, 15), (-4, 0, 4), (-8, 0, 8), (8, 12, 16), (18, 20, 22)]
    assert all(type(v) is int for disk in disks for v in disk)
    assert [(d.row, d.center, d.radius) for d in locate(worked_exact).disks] == WORKED_DISKS


def test_gershgorin_disks_columns():
    rows = [[3, 4], [1, 0]]
    assert gershgorin_disks(rows) == [(-1, 3, 7), (-1, 0, 1)]
    assert gershgorin_disks(list(zip(*rows))) == [(2, 3, 4), (-4, 0, 4)]


def test_certify_disk_verdicts_worked(worked_exact):
    ctx = CertificationContext.from_matrix(worked_exact)
    rows = worked_exact.cleared[0]
    disks = [certify_disk(ctx, i, d) for i, d in enumerate(gershgorin_disks(rows))]
    assert [(d.row, d.center, d.radius) for d in disks] == WORKED_DISKS
    verdicts = [d.verdict for d in disks]
    assert verdicts == [
        CONTAINS_REAL,
        EMPTY_REAL,
        CONTAINS_REAL,
        CONTAINS_REAL,
        CONTAINS_REAL,
    ]
    assert [d.verdict for d in locate(worked_exact).disks] == verdicts


def test_certify_disk_point():
    m = SquareMatrix.from_rows([[2, 0], [1, 3]], EXACT)
    ctx = CertificationContext.from_matrix(m)
    assert certify_disk(ctx, 0, (2, 2, 2)) == (0, 2, 0, POINT_EIGENVALUE)
    assert [d.verdict for d in locate(m).disks] == [POINT_EIGENVALUE, CONTAINS_REAL]


def test_certify_interval_counts():
    ctx = ctx_for(-6, 11, -6, 1)  # roots 1, 2, 3; D = 1, so a key is x as (num, den)
    iv = certify_interval(ctx, (0, 1), (4, 1))
    assert (iv.contains_real, iv.sigma, iv.min_root_count) == (True, -3, 3)
    iv = certify_interval(ctx, (5, 1), (6, 1))
    assert (iv.lo, iv.hi, iv.contains_real, iv.sigma, iv.min_root_count) == (5, 6, False, 3, 0)
    iv = certify_interval(ctx, (0, 1), (5, 2))
    assert (iv.hi, iv.contains_real, iv.sigma, iv.min_root_count) == (F(5, 2), True, -1, 2)
    # the order is that of num/den: 5/2 < 4 although 5 > 4
    iv = certify_interval(ctx, (5, 2), (4, 1))
    assert (iv.contains_real, iv.sigma, iv.min_root_count) == (True, 1, 1)
    # 1/2 > 1/3, and an empty interval
    for lo, hi in (((1, 2), (1, 3)), ((2, 1), (2, 1))):
        with pytest.raises(ValueError, match="need lo < hi"):
            certify_interval(ctx, lo, hi)


def test_certify_interval_endpoint_root():
    ctx = ctx_for(5, -6, 1)  # (x-1)(x-5)
    iv = certify_interval(ctx, (1, 1), (2, 1))
    # root at the left endpoint: certified to contain one, but no interior
    # count can be claimed
    assert iv.contains_real
    assert iv.min_root_count == 0
    both = certify_interval(ctx, (1, 1), (5, 1))
    assert both.contains_real and both.min_root_count == 0


def test_certify_interval_rejects_impossible_drop(monkeypatch):
    ctx = ctx_for(-6, 11, -6, 1)  # roots 1, 2, 3: sigma(H_1) = 3
    # V(0) - V(4) = -1 gives sigma_q = 5, a negative drop.  The chain's
    # counts come in pairs, so an odd drop cannot be forced in exact mode.
    monkeypatch.setattr(ctx, "entry", lambda key: (int(key == (4, 1)), 1))
    with pytest.raises(InternalConsistencyError, match="drop"):
        certify_interval(ctx, (0, 1), (4, 1))


def test_segment_helpers():
    assert _merge_segments([(3, 4), (0, 2), (1, F(5, 2))]) == [(0, F(5, 2)), (3, 4)]


def test_candidate_points_worked(worked_exact):
    rows, denom = worked_exact.cleared
    disks = gershgorin_disks(rows)
    yes = [disks[0], disks[2], disks[3], disks[4]]  # disk 2 is empty
    pts = candidate_points(disks, yes)
    # the breakpoints -2, -5/4, ..., 11/2 of A, times D = 4
    assert pts == [-8, -5, -4, 0, 4, 5, 8, 12, 15, 16, 18, 20, 22]
    assert [F(y, denom) for y in pts] == [
        -2, F(-5, 4), -1, 0, 1, F(5, 4), 2, 3, F(15, 4), 4, F(9, 2), 5, F(11, 2),
    ]
    # column disks clip the union and add the clip edges
    assert candidate_points(disks, yes, [(-6, 10)]) == [-6, -5, -4, 0, 4, 5, 8, 10]


def _reference_candidate_points(disks, yes, column_segments=None):
    """The breakpoints as first written: the union of yes, clipped to the
    union of column_segments by a merge of the two sorted segment lists,
    with the ends of the clipped segments added."""

    def merge(segments):
        out = []
        for lo, hi in sorted(segments):
            if out and lo <= out[-1][1]:
                if hi > out[-1][1]:
                    out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        return out

    def intersect(a, b):
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            lo = a[i][0] if a[i][0] > b[j][0] else b[j][0]
            hi = a[i][1] if a[i][1] < b[j][1] else b[j][1]
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return out

    segments = merge([(lo, hi) for lo, _, hi in yes])
    if column_segments is not None:
        segments = intersect(segments, merge(column_segments))
    points = {c for _, c, _ in yes}
    for lo, _, hi in disks:
        points.update((lo, hi))
    for seg in segments:
        points.update(seg)
    return sorted(p for p in points if any(lo <= p <= hi for lo, hi in segments))


# small ranges, so that nested, touching, disjoint and radius-0 disks are common
DISK = st.builds(lambda c, r: (c - r, c, c + r), st.integers(-6, 6), st.integers(0, 4))
SEGMENT = st.builds(lambda lo, w: (lo, lo + w), st.integers(-12, 12), st.integers(0, 8))


@st.composite
def disk_sets(draw):
    """(disks, yes, column_segments): yes a non-empty subset of disks, and
    column_segments None or any list of segments."""
    disks = draw(st.lists(DISK, min_size=1, max_size=8))
    keep = draw(st.lists(st.booleans(), min_size=len(disks), max_size=len(disks)))
    yes = [d for d, k in zip(disks, keep) if k] or disks[:1]
    return disks, yes, draw(st.none() | st.lists(SEGMENT, max_size=8))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(disk_sets())
def test_candidate_points_matches_union_intersection(case):
    assert candidate_points(*case) == _reference_candidate_points(*case)


@st.composite
def sourced_disk_sets(draw):
    """(breakpoints, yes): yes pairs each contains-real disk with its row,
    in row order, and the breakpoints are candidate_points', with or
    without column segments."""
    disks = draw(st.lists(DISK, min_size=1, max_size=8))
    keep = draw(st.lists(st.booleans(), min_size=len(disks), max_size=len(disks)))
    yes = [(d, row) for row, (d, k) in enumerate(zip(disks, keep)) if k] or [(disks[0], 0)]
    columns = draw(st.none() | st.lists(SEGMENT, max_size=8))
    return candidate_points(disks, [d for d, _ in yes], columns), yes


@settings(max_examples=300, derandomize=True, deadline=None)
@given(sourced_disk_sets())
def test_candidate_sources_matches_every_disk_scan(case):
    """The one-pass sources equal the scan of every contains-real disk per
    candidate that locate made before: the rows whose disk meets the
    candidate's interior."""
    points, yes = case
    want = [tuple(row for (a, _, b), row in yes if a < hi and lo < b)
            for lo, hi in zip(points, points[1:])]
    assert candidate_sources(points, yes) == want


def test_candidate_points_needs_certified_disk():
    with pytest.raises(ValueError):
        candidate_points([(-1, 0, 1)], [])


def test_locate_worked(worked_exact):
    res = locate(worked_exact)
    assert len(res.tested) == 12
    assert res.points == ()
    spans = [(iv.lo, iv.hi) for iv in res.intervals]
    assert spans == [(F(5, 4), 2), (2, 3), (F(9, 2), 5)]
    for iv in res.intervals:
        assert iv.sigma == 1 and iv.min_root_count == 1
    for iv in res.tested:
        if not iv.contains_real:
            assert iv.sigma == 3 and iv.min_root_count == 0
    # the gap between the two certified segments is still tested
    assert any((iv.lo, iv.hi) == (4, F(9, 2)) for iv in res.tested)
    assert [iv.sources for iv in res.intervals] == [(0, 2), (0, 3), (4,)]


# (lo, hi, sigma, min_root_count, sources) of every candidate; sigma(H_1) = 3
WORKED_TESTED = [
    (-2, F(-5, 4), 3, 0, (2,)), (F(-5, 4), -1, 3, 0, (0, 2)), (-1, 0, 3, 0, (0, 2)),
    (0, 1, 3, 0, (0, 2)), (1, F(5, 4), 3, 0, (0, 2)), (F(5, 4), 2, 1, 1, (0, 2)),
    (2, 3, 1, 1, (0, 3)), (3, F(15, 4), 3, 0, (0, 3)), (F(15, 4), 4, 3, 0, (3,)),
]
LOCATE_CASES = [
    (WORKED_ROWS, False, [*WORKED_TESTED, (4, F(9, 2), 3, 0, ()), (F(9, 2), 5, 1, 1, (4,)),
                          (5, F(11, 2), 3, 0, (4,))]),
    (WORKED_ROWS, True, [*WORKED_TESTED, (4, F(19, 4), 3, 0, (4,)),
                         (F(19, 4), 5, 1, 1, (4,)), (5, F(21, 4), 3, 0, (4,))]),
    ([[2, 0], [1, 3]], False, [(2, 3, 0, 0, (1,)), (3, 4, 1, 0, (1,))]),  # sigma(H_1) = 2
    ([[2, 0], [1, 3]], True, [(2, 3, 0, 0, (1,))]),
]


@pytest.mark.parametrize("rows, column_disks, tested", LOCATE_CASES)
def test_locate_maps_no_point_to_a_key(monkeypatch, rows, column_disks, tested):
    """locate tests on B's integers: no x goes through ctx.key on its way to a test."""
    def refuse(self, x):
        raise AssertionError(f"locate mapped x = {x} to a key")

    monkeypatch.setattr(CertificationContext, "key", refuse)
    res = locate(SquareMatrix.from_rows(rows, EXACT), column_disks=column_disks)
    base = res.context.base_signature
    if rows is WORKED_ROWS:
        assert [(d.row, d.center, d.radius) for d in res.disks] == WORKED_DISKS
        assert [d.verdict for d in res.disks] == [
            CONTAINS_REAL, EMPTY_REAL, CONTAINS_REAL, CONTAINS_REAL, CONTAINS_REAL]
        assert res.points == ()
    else:
        assert res.disks == ((0, 2, 0, POINT_EIGENVALUE), (1, 3, 1, CONTAINS_REAL))
        assert res.points == (2,)
    assert [(t.lo, t.hi, t.sigma, t.min_root_count, t.sources) for t in res.tested] == tested
    assert [t.contains_real for t in res.tested] == [t.sigma != base for t in res.tested]
    assert res.intervals == tuple(t for t in res.tested if t.contains_real)


def test_locate_mixed_points_and_intervals():
    m = SquareMatrix.from_rows([[2, 0, 0], [0, 3, 1], [0, 1, 5]], EXACT)
    res = locate(m)
    assert res.points == (2,)
    spans = [(iv.lo, iv.hi) for iv in res.intervals]
    # 4 - sqrt(2) and 4 + sqrt(2)
    assert spans == [(2, 3), (5, 6)]
    assert res.intervals[0].min_root_count == 1  # endpoint root 2 not counted


def test_locate_no_real_eigenvalues():
    m = SquareMatrix.from_rows([[0, 1], [-1, 0]], EXACT)
    res = locate(m)
    assert res.context.base_signature == 0
    assert all(d.verdict == EMPTY_REAL for d in res.disks)
    assert res.tested == () and res.intervals == () and res.points == ()


def test_locate_column_disks_clip():
    m = SquareMatrix.from_rows([["3", "4"], ["0.01", "0"]], EXACT)
    wide = locate(m)
    clipped = locate(m, column_disks=True)
    # row union reaches 7; column disks cap it at 4
    assert max(iv.hi for iv in wide.tested) == 7
    assert max(iv.hi for iv in clipped.tested) == 4
    spans = [(iv.lo, iv.hi) for iv in clipped.intervals]
    assert spans == [(-1, F(-1, 100)), (3, 4)]
    assert sum(iv.min_root_count for iv in clipped.intervals) == 2


def test_exact_pipeline_builds_no_hermite_form(worked_exact, worked_float, monkeypatch):
    def refuse(*args):
        raise AssertionError("the pipeline built a Hermite form")

    for name in ("hermite_base", "hermite_weighted", "signature"):
        monkeypatch.setattr(localize_mod, name, refuse)
    # the worked example's decimals are dyadic, so 256 bits hold them exactly
    for m in (worked_exact, worked_float):
        res = locate(m)
        assert res.context.base_signature == 3
        spans = [(iv.lo, iv.hi) for iv in res.intervals]
        assert spans == [(F(5, 4), 2), (2, 3), (F(9, 2), 5)]
        pieces = refine_all(res.context, res.intervals, F(1, 10**7))
        assert [p.min_root_count for p in pieces] == [1, 1, 1]


SCALES = [F(2), F(3), F(1, 2), F(7, 10), F(10, 3)]


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rational_rows(), st.sampled_from(SCALES), st.booleans())
def test_locate_scales_with_the_matrix(rows, k, column_disks):
    # k > 0 keeps the order of every point
    a = locate(SquareMatrix.from_rows(rows, EXACT), column_disks=column_disks)
    ka = locate(
        SquareMatrix.from_rows([[k * v for v in row] for row in rows], EXACT),
        column_disks=column_disks,
    )
    # the eigenvalues of kA are k times those of A, and so is every disk
    assert [(d.row, k * d.center, k * d.radius, d.verdict) for d in a.disks] == [
        (d.row, d.center, d.radius, d.verdict) for d in ka.disks
    ]
    assert tuple(k * p for p in a.points) == ka.points
    assert [(k * t.lo, k * t.hi, t.contains_real, t.sigma, t.min_root_count, t.sources)
            for t in a.tested] == [
        (t.lo, t.hi, t.contains_real, t.sigma, t.min_root_count, t.sources) for t in ka.tested
    ]

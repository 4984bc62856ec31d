from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eigencert import refine as refine_mod
from eigencert.charpoly import SquareMatrix
from eigencert.localize import CertifiedInterval, locate
from eigencert.numerics import EXACT, InternalConsistencyError
from eigencert.oracle import sturm_count_closed
from eigencert.poly import Poly
from eigencert.refine import _depth_budget, _halvings, refine_all, refine_interval
from tests.conftest import certify_x, ctx_for, horner_calls, poly_context
from tests.test_chain import triangular_similar


TINY_STEP = F(1, 10**40)


def _ratio(width, eps):
    """width / eps as the (numerator, denominator) the integer helpers take."""
    return width.numerator * eps.denominator, width.denominator * eps.numerator


def _doubling_budget(width, eps):
    """The budget by doubling eps until it reaches the width, plus 2."""
    budget = 2
    scale = eps
    while scale < width:
        scale = scale * 2
        budget += 1
    return budget


def test_depth_budget():
    assert _depth_budget(*_ratio(F(1, 8), F(1, 4))) == 2
    assert _depth_budget(*_ratio(F(4), F(1, 4))) == 6
    assert _depth_budget(*_ratio(F(1, 4), F(1, 4))) == 2
    # the ratio need not be reduced
    assert _depth_budget(48, 3) == _depth_budget(16, 1) == 6
    for eps in (F("1e-7"), F("1e-30"), F(1, 2**20), F(3, 2**10)):
        widths = {F(2) ** k for k in range(-110, 12)}
        widths |= {eps * 2**k + d for k in range(0, 110, 7) for d in (-TINY_STEP, 0, TINY_STEP)}
        widths |= {eps * F(k, 7) for k in range(1, 50)}
        for width in widths:
            if width > 0:
                assert _depth_budget(*_ratio(width, eps)) == _doubling_budget(width, eps), \
                    (width, eps)


def test_refine_requires_positive_eps(worked_exact):
    res = locate(worked_exact)
    with pytest.raises(ValueError):
        refine_interval(res.context, res.intervals[0], 0)


def test_refine_skips_empty_interval():
    ctx = ctx_for(-6, 11, -6, 1)
    empty = certify_x(ctx, 5, 6)
    assert refine_interval(ctx, empty, F(1, 4)) == []


def test_refine_worked(worked_exact):
    res = locate(worked_exact)
    eps = F(1, 128)
    pieces = refine_all(res.context, res.intervals, eps)
    assert len(pieces) == 3
    assert sum(iv.min_root_count for iv in pieces) == 3
    for piece, original in zip(pieces, res.intervals):
        assert piece.hi - piece.lo <= eps
        assert original.lo <= piece.lo <= piece.hi <= original.hi
        assert piece.contains_real
        assert piece.sources == original.sources
    for a, b in zip(pieces, pieces[1:]):
        assert a.hi < b.lo


def test_refine_midpoint_hits_root():
    ctx = ctx_for(12, -8, 1)  # (x-2)(x-6)
    iv = certify_x(ctx, 0, 4)
    pieces = refine_interval(ctx, iv, F(1, 4))
    assert pieces == [CertifiedInterval(2, 2, True, None, 1, ())]


def test_refine_midpoint_root_with_flanking_roots():
    ctx = ctx_for(-6, 11, -6, 1)  # roots 1, 2, 3
    iv = certify_x(ctx, 0, 4)
    pieces = refine_interval(ctx, iv, F(1, 2))
    assert CertifiedInterval(2, 2, True, None, 1, ()) in pieces
    assert sum(p.min_root_count for p in pieces) == 3
    for p in pieces:
        assert p.hi - p.lo <= F(1, 2)
        if p.lo != p.hi:
            # the nudge keeps the root off every non-degenerate endpoint
            assert p.lo != 2 and p.hi != 2
    ones = [p for p in pieces if p.lo <= 1 <= p.hi]
    threes = [p for p in pieces if p.lo <= 3 <= p.hi]
    assert len(ones) == 1 and len(threes) == 1


def test_refine_keeps_split_roots_apart():
    ctx = ctx_for(F(15, 64), -1, 1)  # (x - 3/8)(x - 5/8); p(1/2) != 0
    assert ctx.scale == 64
    iv = certify_x(ctx, 0, 1)
    eps = F(1, 2)
    pieces = refine_interval(ctx, iv, eps)
    # the halves meet at a non-root midpoint; merged they would span 2 eps
    assert [(p.lo, p.hi, p.min_root_count) for p in pieces] == [(0, F(1, 2), 1), (F(1, 2), 1, 1)]
    assert all(p.hi - p.lo <= eps for p in pieces)


def test_refine_budget_exhaustion(monkeypatch):
    ctx = ctx_for(3, -4, 1)  # roots in both halves of [0, 4]
    iv = certify_x(ctx, 0, 4)
    monkeypatch.setattr(refine_mod, "_depth_budget", lambda w, e: 0)
    with pytest.raises(InternalConsistencyError, match="converge"):
        refine_interval(ctx, iv, F(1, 64))


def test_refine_all_never_merges_across_initial_intervals():
    ctx = ctx_for(3, -4, 1)  # roots 1, 3; p(2) != 0
    left = certify_x(ctx, 0, 2)
    right = certify_x(ctx, 2, 4)
    pieces = refine_all(ctx, [right, left], 2)
    assert [(p.lo, p.hi) for p in pieces] == [(0, 2), (2, 4)]


def test_refine_epsilon_sweep(worked_exact):
    res = locate(worked_exact)
    for eps in (F(1, 8), F(1, 64), F(1, 1024)):
        pieces = refine_all(res.context, res.intervals, eps)
        assert len(pieces) == 3
        assert all(p.hi - p.lo <= eps for p in pieces)
        assert sum(p.min_root_count for p in pieces) == 3


def _no_hermite_test(*args, **kwargs):
    raise AssertionError("Hermite test run on an isolated interval")


def test_refine_isolated_root_by_sign(monkeypatch):
    ctx = ctx_for(3, -4, 1)  # (x-1)(x-3)
    at_mid = certify_x(ctx, 0, 2)  # 1 is the first midpoint
    off_grid = certify_x(ctx, 0, F(5, 2))  # 1 is no midpoint of it
    monkeypatch.setattr(ctx, "sigma_inside", _no_hermite_test)
    eps = F(1, 2**40)
    assert refine_interval(ctx, at_mid, eps) == [CertifiedInterval(1, 1, True, None, 1, ())]
    # bisection keeps the dyadic cell [j*w, (j+1)*w] of [0, 5/2] around 1
    w = F(5, 2**43)
    j = int(1 / w)
    assert refine_interval(ctx, off_grid, eps) == [
        CertifiedInterval(j * w, (j + 1) * w, True, None, 1, ())
    ]


def test_refine_isolated_without_sign_change_raises():
    ctx = ctx_for(3, -4, 1)  # (x-1)(x-3): p(0) > 0 and p(4) > 0
    iv = CertifiedInterval(F(0), F(4), True, None, 1, ())
    with pytest.raises(InternalConsistencyError, match="sign change"):
        refine_interval(ctx, iv, F(1, 64))


def test_refine_converts_int_endpoints():
    ctx = ctx_for(3, -4, 1)  # (x-1)(x-3)
    ints = CertifiedInterval(0, 2, True, None, 1, ())
    fractions = CertifiedInterval(F(0), F(2), True, None, 1, ())
    for eps in (F(1, 2), F(1, 1024)):
        assert refine_interval(ctx, ints, eps) == refine_interval(ctx, fractions, eps)
    off_grid = CertifiedInterval(0, F(5, 2), True, None, 1, ())
    pieces = refine_interval(ctx, off_grid, F(1, 64))
    assert pieces == refine_interval(ctx, off_grid._replace(lo=F(0)), F(1, 64))
    assert all(isinstance(v, F) for piece in pieces for v in (piece.lo, piece.hi))


def test_refine_isolated_budget_exhaustion(monkeypatch):
    ctx = ctx_for(3, -4, 1)
    iv = certify_x(ctx, 0, F(5, 2))
    monkeypatch.setattr(ctx, "sigma_inside", _no_hermite_test)
    monkeypatch.setattr(refine_mod, "_depth_budget", lambda w, e: 0)
    with pytest.raises(InternalConsistencyError, match="converge"):
        refine_interval(ctx, iv, F(1, 64))


def test_refine_more_pieces_than_roots_raises(monkeypatch):
    ctx = ctx_for(3, -4, 1)  # two real roots, both in [0, 4]
    iv = certify_x(ctx, 0, 8)

    def every_half_holds_two(lo, hi):
        # a count of 0 would send the half to the endpoint step, which
        # refuses a piece with no root at an end before the count check
        return ctx.base_signature - 4, 2

    monkeypatch.setattr(ctx, "sigma_inside", every_half_holds_two)
    with pytest.raises(InternalConsistencyError, match="pieces"):
        refine_interval(ctx, iv, F(1, 64))


def _bisection_cell(lo, hi, root, eps):
    """The cell around root that halving [lo, hi] down to width eps keeps.

    root is a number, or a Poly with one simple root in (lo, hi), none at
    lo, to halve by its signs.
    """
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if isinstance(root, Poly):
            at_mid = root.eval(mid)
            left = at_mid == 0 or (at_mid < 0) != (root.eval(lo) < 0)
        else:
            left = root <= mid
        lo, hi = (lo, mid) if left else (mid, hi)
    return lo, hi


@pytest.mark.parametrize("lo, hi, roots", [
    (F(1), F(2), [1]),  # root at lo
    (F(0), F(1), [1]),  # root at hi
    (F(1), F(3), [1, 3]),  # roots at both ends
], ids=["root-at-lo", "root-at-hi", "roots-at-both-ends"])
def test_refine_endpoint_only_piece_without_test(monkeypatch, lo, hi, roots):
    ctx = ctx_for(3, -4, 1)  # (x-1)(x-3)
    iv = certify_x(ctx, lo, hi, (0, 2))
    assert iv.contains_real and iv.min_root_count == 0
    for eps in (F(1, 2), F(1, 1000), F(1, 2**40)):
        expected = [
            certify_x(ctx, *_bisection_cell(lo, hi, root, eps), (0, 2)) for root in roots
        ]
        with monkeypatch.context() as patch:
            patch.setattr(ctx, "sigma_inside", _no_hermite_test)
            assert refine_interval(ctx, iv, eps) == expected


def test_refine_endpoint_only_piece_without_end_root_raises():
    ctx = ctx_for(3, -4, 1)  # (x-1)(x-3): no root in [4, 5]
    forged = CertifiedInterval(F(4), F(5), True, None, 0, ())
    with pytest.raises(InternalConsistencyError, match="at an end"):
        refine_interval(ctx, forged, F(1, 64))


EPSILONS = (F("1e-7"), F("1e-30"), F(1, 2**40), F(3, 2**10))


def _ctx_with_roots(roots, quadratic):
    """Context of prod (den x - num) over the distinct rational roots, times x^2 + quadratic."""
    p = Poly.from_coeffs([quadratic, 0, 1])
    for r in roots:
        p = p * Poly.from_coeffs([-r.numerator, r.denominator])
    return poly_context(p)


@st.composite
def isolated_cases(draw, on_midpoint):
    """(ctx, certified [lo, hi] holding one root, that root, eps).

    The ends are y/D with D in {10, 100}, each possibly nudged by eps/4 as
    the Hermite step leaves them beside a midpoint root.  The root is a
    dyadic midpoint of the bisection if on_midpoint, and otherwise sits at
    an odd fraction of the width, which no midpoint is.
    """
    eps = draw(st.sampled_from(EPSILONS))
    den = draw(st.sampled_from((10, 100)))
    y = draw(st.integers(-300, 300))
    gap = draw(st.integers(1, 300))
    lo = F(y, den) + draw(st.sampled_from((0, 1))) * eps / 4
    hi = F(y + gap, den) - draw(st.sampled_from((0, 1))) * eps / 4
    if on_midpoint:
        k = draw(st.integers(1, _halvings(*_ratio(hi - lo, eps))))
        j = 2 * draw(st.integers(0, 2 ** (k - 1) - 1)) + 1
        root = lo + (hi - lo) * F(j, 2**k)
    else:
        n = draw(st.sampled_from((3, 7, 101, 65537)))
        root = lo + (hi - lo) * F(draw(st.integers(1, n - 1)), n)
    outside = draw(st.lists(st.integers(1, 50), max_size=3, unique=True))
    others = [lo - d if d % 2 else hi + d for d in outside]
    ctx = _ctx_with_roots([root, *others], draw(st.sampled_from((1, 7))))
    iv = certify_x(ctx, lo, hi, (0,))
    assert iv.contains_real and iv.min_root_count == 1 and hi - lo > eps
    return ctx, iv, root, eps


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(isolated_cases(on_midpoint=False))
def test_sign_loop_matches_fraction_bisection(case):
    ctx, iv, root, eps = case
    lo, hi = _bisection_cell(iv.lo, iv.hi, root, eps)
    assert refine_interval(ctx, iv, eps) == [CertifiedInterval(lo, hi, True, None, 1, (0,))]


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(isolated_cases(on_midpoint=True))
def test_sign_loop_root_on_midpoint_is_point(case):
    ctx, iv, root, eps = case
    assert refine_interval(ctx, iv, eps) == [CertifiedInterval(root, root, True, None, 1, (0,))]


def test_hermite_step_evaluates_its_midpoint_once():
    """The midpoint is read for its sign and then shared by both halves'
    tests: one chain evaluation, len(chain) Horner calls, all at it."""
    ctx = ctx_for(3, -4, 1)  # (x-1)(x-3): both roots in [0, 8], none at 4
    iv = certify_x(ctx, 0, 8)
    with horner_calls() as calls:
        pieces = refine_interval(ctx, iv, 4)
    assert calls == [(4, 1)] * len(ctx.chain)
    assert [(p.lo, p.hi, p.min_root_count) for p in pieces] == [(0, 4, 2)]


def test_sign_loop_counts(monkeypatch):
    """15 Horner calls for 97 halvings beyond the ends' evaluations, no
    Hermite test, and memo entries only at the two ends."""
    ctx = ctx_for(-2, 0, 1)  # x^2 - 2
    lo, hi = F(7, 5), F(3, 2) + F(1, 4 * 10**30)
    iv = CertifiedInterval(lo, hi, True, None, 1, ())
    eps = F(1, 10**30)
    monkeypatch.setattr(ctx, "sigma_inside", _no_hermite_test)
    with horner_calls() as calls:
        [piece] = refine_interval(ctx, iv, eps)
    halvings = _halvings(*_ratio(hi - lo, eps))
    assert halvings == 97
    # 7 halvings, both of which ends moved, then quadratic steps of 8, 16,
    # 32, 34 levels; the ends' values come from the halvings
    assert len(calls) == 2 * len(ctx.chain) + 15
    assert 3 * 15 < halvings
    assert set(ctx._memo) == {(7, 5), (hi.numerator, hi.denominator)}
    assert piece.hi - piece.lo <= eps and piece.lo ** 2 < 2 < piece.hi ** 2


def test_refine_maps_only_the_input_ends_to_keys(monkeypatch):
    """Every step runs on keys in y: ctx.key is called on each input
    interval's two ends and never per step."""
    ctx = ctx_for(-6, 11, -6, 1)  # roots 1, 2, 3
    hermite = certify_x(ctx, 0, 4)  # 2 is its midpoint: a nudge, then two sign loops
    endpoint = certify_x(ctx, 3, F(7, 2))  # 3 at an end, no root inside
    assert hermite.min_root_count == 3 and endpoint.min_root_count == 0
    key = ctx.key
    calls = []

    def counted(x):
        calls.append(x)
        return key(x)

    monkeypatch.setattr(ctx, "key", counted)
    eps = F(1, 10**7)
    pieces = refine_all(ctx, [hermite, endpoint], eps)
    assert calls == [0, 4, 3, F(7, 2)]
    # [0, 4] is cut at its root 2 into [0, 2 - eps/4] and [2 + eps/4, 4]
    cells = [_bisection_cell(0, 2 - eps / 4, 1, eps), _bisection_cell(2 + eps / 4, 4, 3, eps),
             _bisection_cell(3, F(7, 2), 3, eps)]
    assert [(p.lo, p.hi) for p in pieces] == sorted([*cells, (2, 2)])


@st.composite
def one_place_decimal_matrices(draw):
    """(matrix, None): n = 2-5, entries k/10 with |k| <= 99."""
    n = draw(st.integers(2, 5))
    entries = st.integers(-99, 99).map(lambda k: F(k, 10))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return SquareMatrix.from_rows(rows, EXACT), None


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(triangular_similar(max_n=5), one_place_decimal_matrices()),
       st.sampled_from((F("1e-3"), F("1e-7"), F("1e-30"))))
def test_final_cells_against_sturm_counts(case, eps):
    """Each final cell is at most eps wide, lies in its input interval and
    holds a root, and its count is the number of roots strictly inside,
    all by Sturm counts on the characteristic polynomial."""
    m, _ = case
    located = locate(m)
    p = located.context.original
    for iv in located.intervals:
        for cell in refine_interval(located.context, iv, eps):
            assert cell.hi - cell.lo <= eps
            assert iv.lo <= cell.lo <= cell.hi <= iv.hi
            closed = sturm_count_closed(p, cell.lo, cell.hi)
            assert closed >= 1
            if cell.lo == cell.hi:
                assert cell.min_root_count == closed == 1
            else:
                at_ends = (p.eval(cell.lo) == 0) + (p.eval(cell.hi) == 0)
                assert cell.min_root_count == closed - at_ends


@st.composite
def hard_isolated_cases(draw):
    """(ctx, certified [lo, hi] holding one root, the root or its Poly, eps,
    whether the root is a grid point of level <= steps).

    Inputs that make the secant guess miss: a second root 10^-k outside
    the cell, the flat x^15 - 2^-40 on [0, 4], a root within 1e-6 of an
    end of [0, 1000]; and dyadic roots at level steps and steps + 1 of the
    halving grid, at epsilon down to 1e-300.
    """
    eps = draw(st.sampled_from((F("1e-7"), F("1e-30"), F("1e-100"), F("1e-300"))))
    kind = draw(st.sampled_from(("near-root", "flat", "near-end", "level-steps", "past-steps")))
    if kind == "flat":
        p = Poly.from_coeffs([-F(1, 2**40)] + [0] * 14 + [1])
        ctx = poly_context(p)
        return ctx, certify_x(ctx, 0, 4, (0,)), p, eps, False
    if kind == "near-end":
        lo, hi = F(0), F(1000)
        offset = F(draw(st.integers(1, 10**6)), 10**12)
        root = draw(st.sampled_from((lo + offset, hi - offset)))
        others = []
    else:
        y = draw(st.integers(-300, 300))
        lo, hi = F(y, 10), F(y + draw(st.integers(1, 300)), 10)
        steps = _halvings(*_ratio(hi - lo, eps))
        if kind == "near-root":
            n = draw(st.sampled_from((3, 7, 101, 65537)))
            root = lo + (hi - lo) * F(draw(st.integers(1, n - 1)), n)
            gap = F(1, 10 ** draw(st.sampled_from((3, 10, 30))))
            others = [draw(st.sampled_from((lo - gap, hi + gap)))]
        else:
            level = steps if kind == "level-steps" else steps + 1
            j = 2 * draw(st.integers(0, 2 ** (level - 1) - 1)) + 1
            root = lo + (hi - lo) * F(j, 2**level)
            others = []
    ctx = _ctx_with_roots([root, *others], draw(st.sampled_from((1, 7))))
    iv = certify_x(ctx, lo, hi, (0,))
    assert iv.contains_real and iv.min_root_count == 1
    return ctx, iv, root, eps, kind == "level-steps"


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hard_isolated_cases())
def test_quadratic_steps_match_fraction_bisection(case):
    """The cell is the halving loop's, by at most 2 Horner calls a halving."""
    ctx, iv, root, eps, is_point = case
    steps = _halvings(*_ratio(iv.hi - iv.lo, eps))
    with horner_calls() as calls:
        pieces = refine_interval(ctx, iv, eps)
    if is_point:
        assert pieces == [CertifiedInterval(root, root, True, None, 1, (0,))]
    else:
        lo, hi = _bisection_cell(iv.lo, iv.hi, root, eps)
        assert pieces == [CertifiedInterval(lo, hi, True, None, 1, (0,))]
    assert len(calls) <= 2 * steps + 2 * len(ctx.chain)


def test_quadratic_steps_midpoint_after_a_miss_is_point():
    """p = (4096x - 13)(1000x + 1)(x^2 + 1) on [0, 1]: the secant guesses
    miss, and the root 13/4096 is the middle grid point of the side the
    signs point to, which the loop returns as the point interval."""
    root = F(13, 4096)
    ctx = _ctx_with_roots([root, F(-1, 1000)], 1)
    iv = certify_x(ctx, 0, 1, (0,))
    assert iv.contains_real and iv.min_root_count == 1
    pieces = refine_interval(ctx, iv, F(1, 2**20))
    assert pieces == [CertifiedInterval(root, root, True, None, 1, (0,))]

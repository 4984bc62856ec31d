"""Refinement of certified intervals, on integer keys in y = D*x.

The ends of an input interval and epsilon are mapped once to the chain's
coordinates y, as (num, den) keys of the context's memo, and every width
test, halving count, midpoint and nudge after that is integer
arithmetic.  Only the emitted cells become Fractions, x = num/(den*D).
Each contains-real piece ends as the cells that halving it at midpoints
down to width epsilon keeps, reached by one of three steps:

- Sign loop.  Once a piece holds exactly one root (p is square-free, so
  that root is simple) and neither end is a root, p(lo) and p(hi) have
  opposite signs, and a sign of p at a point inside tells which side
  holds the root, by the intermediate value theorem.  The number of
  halvings down to epsilon is known up front, and with it the cell that
  halving ends on: both ends are put over one denominator q as left/q
  and (left + width)/q, and each halving doubles left and q and takes
  the sign of p at (left + width)/q by integer Horner.  A run of fewer
  than 16 halvings does exactly that.  A longer run halves 7 times and
  then takes quadratic interval refinement steps on the same dyadic
  grid: the secant root of the cell's end values, rounded to a grid
  point, and its neighbour toward the root, with 2^t sub-cells and t
  doubling on every hit, so once the secant is close the Horner calls
  grow with log log(w/eps).
  Every kept cell holds the root strictly inside, so both routes end on
  the same cell.  A grid point that is a root becomes the point
  interval [m, m] and ends the loop.
- Endpoint step.  A piece with no root inside (its count is exact) holds
  roots only at the ends where p is 0.  Bisection would keep the half at
  each such end until the width is at most epsilon, so the final cells
  [lo, lo + w] and [hi - w, hi], with w the width halved that many times,
  are emitted at once, with no test.
- Hermite step.  Every other piece (several roots inside, or one root
  inside and a root at an end) re-certifies both halves and drops the
  empty ones.  That test reads two counts off the context's Sturm chain,
  and the midpoint the halves share is evaluated once.  A midpoint that
  is exactly a root becomes a zero-width point interval and the
  recursion continues on [lo, m - eps/4] and [m + eps/4, hi], so neither
  side inherits the root as an endpoint.

The ends of every piece and the Hermite step's midpoints are memoised by
key in the context; the sign loop's points are evaluated once each.

The pieces kept at any time are disjoint and each holds a root, so there
are never more of them than sigma(H_1); more means the signatures are
wrong.  Every emitted interval carries a real certificate - nothing is
ever emitted on numeric evidence alone.
"""

from __future__ import annotations

from math import lcm

from eigencert import kernels
from eigencert.localize import CertificationContext, CertifiedInterval, reduced_key
# unused here; certbench/tracing.py patches this name on this module
from eigencert.localize import certify_interval  # noqa: F401
from eigencert.numerics import InternalConsistencyError


def _halvings(num: int, den: int) -> int:
    """Smallest d >= 0 with num <= den * 2^d: the halvings that take a
    width down to eps, for width / eps = num / den > 0."""
    return (-(-num // den) - 1).bit_length()


def _depth_budget(num: int, den: int) -> int:
    # the halvings down to eps, plus slack for the eps/4 nudges
    return _halvings(num, den) + 2


def _endpoint_cells(ctx: CertificationContext, lo, hi, width: int, den: int, steps: int) -> list:
    """Final cells of a contains-real piece with no root inside.

    Its roots are the ends where p is 0.  Each is the end of the cell that
    bisection keeps beside it, of width (width/den) / 2^steps, and
    sigma(H_q) of that cell is sigma(H_1) - 1 by TaQ: one endpoint root,
    none inside.
    """
    den <<= steps
    sigma = ctx.base_signature - 1
    cells = []
    if ctx.entry(lo)[1] == 0:
        cells.append((lo, (lo[0] * (den // lo[1]) + width, den), sigma, 0))
    if ctx.entry(hi)[1] == 0:
        cells.append(((hi[0] * (den // hi[1]) - width, den), hi, sigma, 0))
    if not cells:
        raise InternalConsistencyError(
            f"[y = {lo[0]}/{lo[1]}, y = {hi[0]}/{hi[1]}] contains a root "
            "but has none inside or at an end"
        )
    return cells


def _sign_bisect(ctx: CertificationContext, lo, hi, at_lo: int, steps: int) -> tuple:
    """The cell of [lo, hi] around its one simple root after `steps` halvings.

    at_lo is the sign of p at lo, and p(hi) has the other sign.  A grid
    point of level <= steps where p is 0 is returned as the point interval.
    A run of fewer than 16 halvings halves at every midpoint; a longer one
    halves 7 times and then takes quadratic steps on the same grid, which
    end on the same cell.  The quadratic steps start from the values p
    took at the cell's ends during the halvings; only an end that is
    still an input end is evaluated again.
    """
    (a, b), (c, d) = lo, hi
    q = lcm(b, d)
    left = a * (q // b)
    width = c * (q // d) - left
    f = ctx.chain[0]
    horner = kernels.horner_homogeneous
    positive_at_lo = at_lo > 0
    halvings = steps if steps < 16 else 7
    # the last midpoint value on each side, and the halving that took it
    at_left = at_right = None
    for k in range(halvings):
        left <<= 1
        q <<= 1
        value = horner(f, left + width, q)
        if value == 0:
            point = (left + width, q)
            return point, point, None, 1
        if (value > 0) == positive_at_lo:
            left += width
            at_left, k_left = value, k
        else:
            at_right, k_right = value, k
    if halvings == steps:
        return (left, q), (left + width, q), None, 1
    # each later halving scales a value by 2^deg; an end that no midpoint
    # reached is an input end, and is evaluated
    deg = len(f) - 1
    last = halvings - 1
    ends = (horner(f, left, q) if at_left is None else at_left << deg * (last - k_left),
            horner(f, left + width, q) if at_right is None else at_right << deg * (last - k_right))
    return _quadratic_steps(f, left, width, q, ends, positive_at_lo, steps - halvings)


def _quadratic_steps(f, left, width, q, ends, positive_at_lo: bool, rest: int) -> tuple:
    """Quadratic interval refinement of [left/q, (left + width)/q], `rest`
    halvings deep (J. Abbott, "Quadratic Interval Refinement for Real
    Roots", 2006).

    Grid point k of level L is (left 2^L + k width) / (q 2^L), a midpoint
    that halving would reach after L more steps.  The cell is the span
    [i, j] of level L, and p at its ends is kept as the Horner values over
    (q 2^L)^deg.  A step moves to level L + t, t <= rest - L, rounds the
    secant root of the end values to the nearest grid point m and
    evaluates p at m and at its neighbour toward the root.  If the root
    lies between them the cell is that one unit and t doubles; otherwise
    the cell is the side the signs point to, halved once at its middle
    grid point, and t halves.  Every cell keeps the root strictly inside,
    so the unit cell of level `rest` that ends the loop is the one halving
    keeps, and a root at a grid point is returned as the point interval.
    """
    deg = len(f) - 1
    horner = kernels.horner_homogeneous
    at_i, at_j = ends
    level, i, j, t = 0, 0, 1, 8

    def grid(k):
        return (left << level) + k * width, q << level

    def point(k):
        key = grid(k)
        return key, key, None, 1

    def value_at(k):
        if k == i:
            return at_i
        if k == j:
            return at_j
        return horner(f, *grid(k))

    while True:
        t = min(t, rest - level)
        if t == 0 and j - i == 1:
            break
        level += t
        i, j = i << t, j << t
        at_i, at_j = at_i << deg * t, at_j << deg * t
        # the grid point nearest the secant root i + (j - i) x / (x + y)
        x, y = abs(at_i), abs(at_j)
        m = i + (2 * (j - i) * x + x + y) // (2 * (x + y))
        at_m = value_at(m)
        if at_m == 0:
            return point(m)
        up = (at_m > 0) == positive_at_lo  # the root is above m
        n = m + 1 if up else m - 1
        at_n = value_at(n)
        if at_n == 0:
            return point(n)
        if ((at_n > 0) == positive_at_lo) != up:
            i, j, at_i, at_j = (m, n, at_m, at_n) if up else (n, m, at_n, at_m)
            t *= 2
            continue
        if up:
            i, at_i = n, at_n
        else:
            j, at_j = n, at_n
        t = max(1, t // 2)
        if j - i > 1:
            mid = (i + j) // 2
            at_mid = value_at(mid)
            if at_mid == 0:
                return point(mid)
            if (at_mid > 0) == positive_at_lo:
                i, at_i = mid, at_mid
            else:
                j, at_j = mid, at_mid
    return grid(i), grid(j), None, 1


def refine_interval(ctx: CertificationContext, interval: CertifiedInterval, eps) -> list:
    """Refine one certified interval to pieces of width <= eps."""
    e_num, e_den = ctx.width_key(eps)
    if not interval.contains_real:
        return []
    # a piece is (lo, hi, sigma, count inside, depth), its ends as keys
    lo, hi = ctx.key(interval.lo), ctx.key(interval.hi)
    stack = [(lo, hi, interval.sigma, interval.min_root_count, 0)]
    budget = _depth_budget((hi[0] * lo[1] - lo[0] * hi[1]) * e_den, lo[1] * hi[1] * e_num)
    base = ctx.base_signature  # sigma(H_1): a half with it holds no root
    out = []
    while stack:
        lo, hi, sigma, inside, depth = stack.pop()
        (a, b), (c, d) = lo, hi
        # the width is width/den, and width/eps is width * e_den / (den * e_num)
        width, den = c * b - a * d, b * d
        if width * e_den <= den * e_num:
            out.append((lo, hi, sigma, inside))
            continue
        if depth > budget:
            raise InternalConsistencyError("bisection failed to converge")
        if inside == 0:
            steps = _halvings(width * e_den, den * e_num)
            out.extend(_endpoint_cells(ctx, lo, hi, width, den, steps))
            _check_piece_count(ctx, len(stack) + len(out))
            continue
        if inside == 1:
            at_lo, at_hi = ctx.entry(lo)[1], ctx.entry(hi)[1]
            if at_lo and at_hi:
                if at_lo == at_hi:
                    raise InternalConsistencyError(
                        f"p has no sign change on [y = {a}/{b}, y = {c}/{d}], "
                        "which holds one simple root"
                    )
                steps = _halvings(width * e_den, den * e_num)
                if depth + steps > budget:
                    raise InternalConsistencyError("bisection failed to converge")
                out.append(_sign_bisect(ctx, lo, hi, at_lo, steps))
                continue
        mid = reduced_key(a * d + c * b, 2 * den)
        if ctx.entry(mid)[1] == 0:
            out.append((mid, mid, None, 1))
            # mid -/+ eps/4 = (m -/+ e_num * mid[1]) / n
            m, n = mid[0] * 4 * e_den, mid[1] * 4 * e_den
            nudge = e_num * mid[1]
            halves = ((lo, reduced_key(m - nudge, n)), (reduced_key(m + nudge, n), hi))
        else:
            halves = ((lo, mid), (mid, hi))
        for lo, hi in halves:
            if not lo[0] * hi[1] < hi[0] * lo[1]:
                continue
            sigma, inside = ctx.sigma_inside(lo, hi)
            if sigma != base:
                stack.append((lo, hi, sigma, inside, depth + 1))
        _check_piece_count(ctx, len(stack) + len(out))
    cells = [ctx.interval(lo, hi, sigma, inside, interval.sources)
             for lo, hi, sigma, inside in out]
    cells.sort(key=lambda v: (v.lo, v.hi))
    return cells


def _check_piece_count(ctx: CertificationContext, pieces: int) -> None:
    """Kept pieces are disjoint and each holds a root: at most sigma(H_1)."""
    roots = ctx.base_signature
    if pieces > roots:
        raise InternalConsistencyError(
            f"refinement keeps {pieces} pieces, more than sigma(H_1) = {roots} real roots"
        )


def refine_all(ctx: CertificationContext, intervals, eps) -> tuple:
    """Refine every interval; results sorted by position.

    Pieces are never merged: each carries its own exact root count, and
    two pieces that meet at a bisection point would in general span more
    than epsilon.
    """
    pieces = [piece for iv in intervals for piece in refine_interval(ctx, iv, eps)]
    pieces.sort(key=lambda v: (v.lo, v.hi))
    return tuple(pieces)

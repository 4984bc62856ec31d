"""Bisection refinement of certified intervals.

Each contains-real interval is halved at its midpoint until its width is
at most epsilon, by one of three steps:

- Sign loop.  Once an interval holds exactly one root (p is square-free,
  so that root is simple) and neither endpoint is a root, p(lo) and p(hi)
  have opposite signs, and each halving is one sign of p at the midpoint,
  by the intermediate value theorem.  The number of halvings down to
  epsilon is known up front, so one integer loop runs them all: both ends
  are put over one denominator q as left/q and (left + width)/q, each
  step doubles left and q and evaluates p at (left + width)/q by integer
  Horner, and left moves up by width when that sign equals p's sign at
  lo, which the kept cell's left end always has.  The loop runs in the
  chain's coordinates y = D*x: the ends are mapped to y once, before it,
  so the ends of a locate candidate are integers there.  A midpoint that is a
  root becomes the point interval [m, m] and ends the loop.  Only the
  cell returned becomes Fractions.
- Endpoint step.  An interval with no root inside (min_root_count is
  exact) holds roots only at the ends where p is 0.  Bisection would keep
  the half at each such end until the width is at most epsilon, so the
  final cells [lo, lo + w] and [hi - w, hi], with w the width halved that
  many times, are emitted at once, with no test.
- Hermite step.  Every other interval (several roots inside, or one root
  inside and a root at an end) re-certifies both halves and drops the
  empty ones.  That test reads two counts off the context's Sturm chain,
  and the midpoint the halves share is evaluated once.  A midpoint that
  is exactly a root becomes a zero-width point interval and the
  recursion continues on [lo, m - eps/4] and [m + eps/4, hi], so neither
  side inherits the root as an endpoint.

The ends of every piece and the Hermite step's midpoints are read
through the context, which memoises V and the sign of p by point; the
sign loop's midpoints are each evaluated once and not memoised.

The pieces kept at any time are disjoint and each holds a root, so there
are never more of them than sigma(H_1); more means the signatures are
wrong.  Every emitted interval carries a real certificate - nothing is
ever emitted on numeric evidence alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from eigencert import kernels
from eigencert.localize import CertificationContext, CertifiedInterval, certify_interval
from eigencert.numerics import EXACT, InternalConsistencyError


@dataclass(frozen=True)
class RefinementTask:
    interval: CertifiedInterval
    depth: int


def _halvings(width, eps) -> int:
    """Smallest d >= 0 with width <= eps * 2^d."""
    return (math.ceil(width / eps) - 1).bit_length()


def _depth_budget(width, eps) -> int:
    # the halvings down to eps, plus slack for the eps/4 nudges
    return _halvings(width, eps) + 2


def _isolated_ends(ctx: CertificationContext, iv: CertifiedInterval):
    """Signs of p at (lo, hi) if iv holds one simple root and no endpoint root, else None.

    p is square-free and min_root_count is the exact number of distinct
    roots strictly inside.
    """
    if iv.min_root_count != 1:
        return None
    at_lo = ctx.sign_at(iv.lo)
    at_hi = ctx.sign_at(iv.hi)
    if at_lo == 0 or at_hi == 0:
        return None
    return at_lo, at_hi


def _endpoint_cells(ctx: CertificationContext, iv: CertifiedInterval, eps) -> list:
    """Final cells of a contains-real piece with no root inside.

    Its roots are the ends where p is 0.  Each is the end of the cell that
    bisection keeps beside it, and sigma(H_q) of that cell is
    sigma(H_1) - 1 by TaQ: one endpoint root, none inside.
    """
    cell = (iv.hi - iv.lo) / 2 ** _halvings(iv.hi - iv.lo, eps)
    sigma = ctx.base_signature - 1
    cells = []
    if ctx.sign_at(iv.lo) == 0:
        cells.append(CertifiedInterval(iv.lo, iv.lo + cell, True, sigma, 0, iv.sources))
    if ctx.sign_at(iv.hi) == 0:
        cells.append(CertifiedInterval(iv.hi - cell, iv.hi, True, sigma, 0, iv.sources))
    if not cells:
        raise InternalConsistencyError(
            f"[{iv.lo}, {iv.hi}] contains a root but has none inside or at an end"
        )
    return cells


def _sign_bisect(ctx: CertificationContext, iv: CertifiedInterval, at_lo: int, steps: int):
    """The cell of iv around its one simple root after `steps` halvings.

    at_lo is the sign of p at iv.lo, and p(iv.hi) has the other sign.  A
    midpoint where p is 0 is returned as the point interval.
    """
    # the ends as left/q and (left + width)/q in the chain's y = D*x
    (a, b), (c, d) = ctx.key(iv.lo), ctx.key(iv.hi)
    q = math.lcm(b, d)
    left = a * (q // b)
    width = c * (q // d) - left
    f = ctx.chain[0]
    horner = kernels.horner_homogeneous
    positive_at_lo = at_lo > 0
    for _ in range(steps):
        left <<= 1
        q <<= 1
        value = horner(f, left + width, q)
        if value == 0:
            point = Fraction(left + width, q * ctx.scale)
            return CertifiedInterval(point, point, True, None, 1, iv.sources)
        if (value > 0) == positive_at_lo:
            left += width
    q *= ctx.scale
    return CertifiedInterval(Fraction(left, q), Fraction(left + width, q), True, None, 1, iv.sources)


def refine_interval(ctx: CertificationContext, interval: CertifiedInterval, eps) -> list:
    """Refine one certified interval to pieces of width <= eps."""
    eps = EXACT.convert(eps)
    if not eps > 0:
        raise ValueError("epsilon must be positive")
    if not interval.contains_real:
        return []
    interval = CertifiedInterval(EXACT.convert(interval.lo), EXACT.convert(interval.hi),
                                 interval.contains_real, interval.sigma,
                                 interval.min_root_count, interval.sources)
    out = []
    budget = _depth_budget(interval.hi - interval.lo, eps)
    stack = [RefinementTask(interval, 0)]
    quarter = eps / 4
    while stack:
        task = stack.pop()
        iv = task.interval
        if iv.hi - iv.lo <= eps:
            out.append(iv)
            continue
        if task.depth > budget:
            raise InternalConsistencyError("bisection failed to converge")
        if iv.min_root_count == 0:
            out.extend(_endpoint_cells(ctx, iv, eps))
            _check_piece_count(ctx, len(stack) + len(out))
            continue
        ends = _isolated_ends(ctx, iv)
        if ends is not None:
            at_lo, at_hi = ends
            if (at_lo > 0) == (at_hi > 0):
                raise InternalConsistencyError(
                    f"p has no sign change on [{iv.lo}, {iv.hi}], which holds one simple root"
                )
            steps = _halvings(iv.hi - iv.lo, eps)
            if task.depth + steps > budget:
                raise InternalConsistencyError("bisection failed to converge")
            out.append(_sign_bisect(ctx, iv, at_lo, steps))
            continue
        mid = (iv.lo + iv.hi) / 2
        if ctx.sign_at(mid) == 0:
            out.append(CertifiedInterval(mid, mid, True, None, 1, iv.sources))
            halves = ((iv.lo, mid - quarter), (mid + quarter, iv.hi))
        else:
            halves = ((iv.lo, mid), (mid, iv.hi))
        for lo, hi in halves:
            if not lo < hi:
                continue
            cert = certify_interval(ctx, lo, hi, iv.sources)
            if cert.contains_real:
                stack.append(RefinementTask(cert, task.depth + 1))
        _check_piece_count(ctx, len(stack) + len(out))
    out.sort(key=lambda v: (v.lo, v.hi))
    return out


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

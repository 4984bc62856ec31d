"""Bisection refinement of certified intervals.

Each contains-real interval is halved at its midpoint until its width is
at most epsilon, by one of three steps:

- Sign step.  Once an interval holds exactly one root (p is square-free,
  so that root is simple) and neither endpoint is a root, p(lo) and p(hi)
  have opposite signs.  One evaluation of p at the midpoint then picks
  the half that keeps the root, by the intermediate value theorem; a
  midpoint that is a root becomes the point interval [m, m] and ends the
  piece.
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

Every test of p's sign goes through the context: it is integer Horner on
p with denominators cleared, memoised by point, so the endpoints of a
half, which were the ends or the midpoint of its parent, are not
evaluated again.

The pieces kept at any time are disjoint and each holds a root, so there
are never more of them than sigma(H_1); more means the signatures are
wrong.  Every emitted interval carries a real certificate - nothing is
ever emitted on numeric evidence alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def refine_interval(ctx: CertificationContext, interval: CertifiedInterval, eps) -> list:
    """Refine one certified interval to pieces of width <= eps."""
    eps = EXACT.convert(eps)
    if not eps > 0:
        raise ValueError("epsilon must be positive")
    if not interval.contains_real:
        return []
    interval = replace(interval, lo=EXACT.convert(interval.lo), hi=EXACT.convert(interval.hi))
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
        mid = (iv.lo + iv.hi) / 2
        at_mid = ctx.sign_at(mid)
        if at_mid == 0:
            out.append(CertifiedInterval(mid, mid, True, None, 1, iv.sources))
        ends = _isolated_ends(ctx, iv)
        if ends is not None:
            at_lo, at_hi = ends
            if (at_lo > 0) == (at_hi > 0):
                raise InternalConsistencyError(
                    f"p has no sign change on [{iv.lo}, {iv.hi}], which holds one simple root"
                )
            if at_mid != 0:
                lo, hi = (iv.lo, mid) if (at_lo > 0) != (at_mid > 0) else (mid, iv.hi)
                half = CertifiedInterval(lo, hi, True, None, 1, iv.sources)
                stack.append(RefinementTask(half, task.depth + 1))
        else:
            if at_mid == 0:
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

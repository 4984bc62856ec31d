"""Bisection refinement of certified intervals.

Each contains-real interval is split at its midpoint and the halves are
re-certified; empty halves are dropped, the rest recurse until width <=
epsilon.  A midpoint that is exactly a root becomes a zero-width point
interval and the recursion continues on [lo, m - eps/4] and [m + eps/4, hi]
so neither side inherits the root as an endpoint.  Every emitted interval
carries a real certificate - nothing is ever emitted on numeric evidence
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from eigencert.localize import CertificationContext, CertifiedInterval, certify_interval
from eigencert.numerics import InternalConsistencyError


@dataclass(frozen=True)
class RefinementTask:
    interval: CertifiedInterval
    depth: int


def _depth_budget(width, eps) -> int:
    # smallest d with width <= 2^d * eps, plus slack for the eps/4 nudges
    budget = 2
    scale = eps
    while scale < width:
        scale = scale * 2
        budget += 1
    return budget


def refine_interval(ctx: CertificationContext, interval: CertifiedInterval, eps) -> list:
    """Refine one certified interval to pieces of width <= eps."""
    eps = ctx.backend.convert(eps)
    if not eps > 0:
        raise ValueError("epsilon must be positive")
    if not interval.contains_real:
        return []
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
        mid = (iv.lo + iv.hi) / 2
        if ctx.poly.eval(mid) == 0:
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
    out.sort(key=lambda v: (v.lo, v.hi))
    return _coalesce(ctx, out)


def _coalesce(ctx: CertificationContext, intervals: list) -> list:
    """Merge adjacent pieces sharing a non-root endpoint.

    Two certified pieces [a,b], [b,c] with p(b) != 0 describe one root
    region that bisection happened to split; the merged interval keeps the
    summed interior count.  Root endpoints are left alone - there adjacency
    carries information (the shared endpoint is itself the eigenvalue).
    """
    out: list = []
    for iv in intervals:
        if (
            out
            and iv.contains_real
            and out[-1].contains_real
            and out[-1].hi == iv.lo
            and iv.lo < iv.hi
            and out[-1].lo < out[-1].hi
            and ctx.poly.eval(iv.lo) != 0
        ):
            prev = out.pop()
            out.append(
                CertifiedInterval(
                    prev.lo,
                    iv.hi,
                    True,
                    None,
                    prev.min_root_count + iv.min_root_count,
                    tuple(dict.fromkeys(prev.sources + iv.sources)),
                )
            )
        else:
            out.append(iv)
    return out


def refine_all(ctx: CertificationContext, intervals, eps) -> tuple:
    """Refine every interval; results sorted by position.

    Coalescing stays within each original interval - pieces from different
    initial intervals are never merged, their shared endpoints were chosen
    by the disk geometry, not by bisection.
    """
    merged = [piece for iv in intervals for piece in refine_interval(ctx, iv, eps)]
    merged.sort(key=lambda v: (v.lo, v.hi))
    return tuple(merged)

"""Real-eigenvalue localization: Gershgorin disks + Hermite certificates.

The pipeline certifies where the real eigenvalues of a real square matrix
are, with proof at every step:

1. Gershgorin row disks bound the whole spectrum.
2. Each disk D(c, r) gets a signature test with q = (x-c)^2 - r^2: the
   closed disk meets the real spectrum iff sigma(H_q) != sigma(H_1).
3. Breakpoints harvested from the certified disks cut their union into
   candidate intervals, and each [a, b] gets the same test with
   q = (x-a)(x-b), giving certified contains/empty verdicts plus a lower
   bound on the number of roots strictly inside.

Radius-zero disks are point eigenvalues (the row is a_ii e_i, so a_ii is
an eigenvalue exactly) and bypass the interval machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from eigencert.charpoly import SquareMatrix, charpoly
from eigencert.hermite import HermiteForm, hermite_base, hermite_weighted, signature
from eigencert.numerics import EXACT, InternalConsistencyError
from eigencert.poly import Poly, square_free_part

CONTAINS_REAL = "contains-real-eigenvalue"
EMPTY_REAL = "empty-of-real-eigenvalues"
POINT_EIGENVALUE = "point-eigenvalue"


@dataclass(frozen=True)
class Disk:
    row: int
    center: object
    radius: object
    verdict: str | None = None


@dataclass(frozen=True)
class CertifiedInterval:
    lo: object
    hi: object
    contains_real: bool
    sigma: int | None
    min_root_count: int
    sources: tuple = ()


@dataclass
class CertificationContext:
    poly: Poly  # monic; square-free in exact mode
    original: Poly  # characteristic polynomial before deflation
    base: HermiteForm  # H_1 of poly
    backend: object

    @classmethod
    def from_poly(cls, p: Poly) -> "CertificationContext":
        original = p.monic()
        if p.backend == EXACT:
            deflated = square_free_part(original)
        else:
            # gcd is exact-only; float mode certifies p as given.  Repeated
            # real roots only lower rank(H_1), they do not break verdicts.
            deflated = original
        base = hermite_base(deflated)
        return cls(deflated, original, base, p.backend)

    @classmethod
    def from_matrix(cls, m: SquareMatrix) -> "CertificationContext":
        return cls.from_poly(charpoly(m))

    @property
    def base_signature(self) -> int:
        return signature(self.base)


def gershgorin_disks(m: SquareMatrix) -> list:
    """Row disks D(a_ii, sum_{j != i} |a_ij|), in row order."""
    disks = []
    for i in range(m.n):
        row = m.rows[i]
        radius = m.backend.zero
        for j in range(m.n):
            if j != i:
                radius = radius + abs(row[j])
        disks.append(Disk(i, row[i], radius))
    return disks


def certify_disk(ctx: CertificationContext, disk: Disk) -> Disk:
    """Attach a verdict: point eigenvalue, contains real, or empty."""
    if disk.radius == 0:
        return replace(disk, verdict=POINT_EIGENVALUE)
    c, r = disk.center, disk.radius
    q = Poly.from_coeffs([c * c - r * r, -2 * c, ctx.backend.one], ctx.backend)
    sigma_q = signature(hermite_weighted(ctx.base, q))
    if sigma_q != ctx.base_signature:
        return replace(disk, verdict=CONTAINS_REAL)
    return replace(disk, verdict=EMPTY_REAL)


def certify_interval(ctx: CertificationContext, lo, hi, sources=()) -> CertifiedInterval:
    """Signature test for [lo, hi] with q = (x - lo)(x - hi).

    The verdict covers the closed interval; min_root_count counts the
    distinct roots strictly inside (endpoint roots, detected by direct
    evaluation, are subtracted out).  The count is exact in exact mode,
    where p is square-free, and a lower bound in float mode.
    """
    lo = ctx.backend.convert(lo)
    hi = ctx.backend.convert(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    q = Poly.from_coeffs([lo * hi, -(lo + hi), ctx.backend.one], ctx.backend)
    sigma_q = signature(hermite_weighted(ctx.base, q))
    sigma_1 = ctx.base_signature
    contains = sigma_q != sigma_1
    endpoint_roots = int(ctx.poly.eval(lo) == 0) + int(ctx.poly.eval(hi) == 0)
    drop = sigma_1 - sigma_q - endpoint_roots
    if ctx.backend == EXACT:
        # p is square-free: each root strictly inside lowers sigma by 2,
        # each endpoint root by 1, and nothing else moves it
        if drop < 0 or drop % 2:
            raise InternalConsistencyError(
                f"signature drop {drop} on [{lo}, {hi}] is not an even count of roots"
            )
    interior = max(drop // 2, 0)
    return CertifiedInterval(lo, hi, contains, sigma_q, interior, tuple(sources))


def _merge_segments(segments):
    """Union of closed segments as a sorted list of disjoint segments."""
    segs = sorted(segments)
    out = []
    for lo, hi in segs:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _intersect_segments(a, b):
    """Intersection of two merged segment lists (closed segments)."""
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


def _covered(point, segments) -> bool:
    return any(lo <= point <= hi for lo, hi in segments)


def candidate_points(disks, column_segments=None) -> list:
    """Sorted breakpoints cutting the certified region into candidates.

    Takes center and both boundaries of every contains-real disk, plus the
    boundaries of any disk (whatever its verdict) that meets the certified
    union - an empty disk overlapping a certified one still shapes where
    roots can hide.  Points outside the certified union are dropped.  With
    column_segments given, the union is first clipped to it (column disks
    also bound the spectrum) and the clip edges join the breakpoints.
    """
    yes = [d for d in disks if d.verdict == CONTAINS_REAL]
    if not yes:
        raise ValueError("no contains-real disk; nothing to localize")
    segments = _merge_segments([(d.center - d.radius, d.center + d.radius) for d in yes])
    if column_segments is not None:
        segments = _intersect_segments(segments, _merge_segments(column_segments))
    points = set()
    for d in yes:
        points.update((d.center - d.radius, d.center, d.center + d.radius))
    for d in disks:
        lo, hi = d.center - d.radius, d.center + d.radius
        if any(lo <= b and a <= hi for a, b in segments):
            points.update((lo, hi))
    for seg in segments:
        points.update(seg)
    return sorted(p for p in points if _covered(p, segments))


@dataclass(frozen=True)
class LocateResult:
    context: CertificationContext
    disks: tuple
    points: tuple  # point eigenvalues, deduplicated, ascending
    tested: tuple  # every candidate interval, with verdict
    intervals: tuple  # the contains-real subset of tested


def locate(m: SquareMatrix, *, column_disks: bool = False) -> LocateResult:
    """Full initial localization of the real spectrum of m."""
    ctx = CertificationContext.from_matrix(m)
    disks = gershgorin_disks(m)
    certified = [certify_disk(ctx, d) for d in disks]
    points = tuple(sorted({d.center for d in certified if d.verdict == POINT_EIGENVALUE}))
    tested: list = []
    if any(d.verdict == CONTAINS_REAL for d in certified):
        col_segments = None
        if column_disks:
            col_segments = [
                (d.center - d.radius, d.center + d.radius)
                for d in gershgorin_disks(m.transpose())
            ]
        breakpoints = candidate_points(certified, col_segments)
        pairs = [
            (breakpoints[k], breakpoints[k + 1])
            for k in range(len(breakpoints) - 1)
            if breakpoints[k] < breakpoints[k + 1]
        ]
        yes_disks = [d for d in certified if d.verdict == CONTAINS_REAL]

        def _certify(pair):
            lo, hi = pair
            sources = tuple(
                d.row
                for d in yes_disks
                if d.center - d.radius < hi and lo < d.center + d.radius
            )
            return certify_interval(ctx, lo, hi, sources)

        tested = [_certify(pair) for pair in pairs]
    intervals = tuple(t for t in tested if t.contains_real)
    return LocateResult(ctx, tuple(certified), points, tuple(tested), intervals)

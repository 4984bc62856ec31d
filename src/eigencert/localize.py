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

Every test has q = (x-a)(x-b).  For square-free p, Hermite-Sylvester
gives sigma(H_q) = TaQ(q, p) = sigma(H_1) - 2 #{roots in (a, b)} -
#{roots in {a, b}} (Basu-Pollack-Roy, ch. 4 and 9).  Those counts come
from one primitive integer Sturm chain of p, built with the context,
whose sign variations V(x) give #{roots in (a, b]} = V(a) - V(b); V is
memoised by point, so a breakpoint shared by two tests is evaluated once.

The whole pipeline is exact.  A matrix on a float backend holds binary
floats, each an exact dyadic rational, so locate certifies the matrix of
their exact values: the verdicts are theorems about the entries as that
backend holds them, and nothing after that is rounded.

Radius-zero disks are point eigenvalues (the row is a_ii e_i, so a_ii is
an eigenvalue exactly) and bypass the interval machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from math import lcm

from eigencert import kernels
from eigencert.charpoly import SquareMatrix, charpoly
# unused here; certbench/tracing.py patches these names on this module
from eigencert.hermite import hermite_base, hermite_weighted, signature
from eigencert.numerics import EXACT, InternalConsistencyError, exact_value
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


def int_sturm_chain(p: Poly) -> tuple:
    """Primitive integer Sturm chain of square-free exact p.

    f_0 is p with denominators cleared, f_1 is p' without its content and
    f_{k+1} = -prem(f_{k-1}, f_k) made primitive.  Each member is a
    positive multiple of the textbook chain's, so every sign agrees.
    """
    scale = lcm(*(c.denominator for c in p.coeffs))
    chain = [[int(c * scale) for c in p.coeffs]]
    if len(chain[0]) > 1:
        chain.append(kernels.int_content_strip([k * c for k, c in enumerate(chain[0])][1:]))
    while len(chain[-1]) > 1:
        rem = kernels.int_prem_primitive(chain[-2], chain[-1])
        if not rem:
            raise InternalConsistencyError(
                "Sturm chain ends in a zero remainder: p is not square-free"
            )
        chain.append([-c for c in rem])
    return tuple(chain)


@dataclass
class CertificationContext:
    poly: Poly  # monic and square-free
    original: Poly  # characteristic polynomial before deflation
    chain: tuple  # primitive integer Sturm chain of poly
    # by point: sign variations of the chain, and sign of poly
    _variations: dict = field(default_factory=dict, repr=False, compare=False)
    _signs: dict = field(default_factory=dict, repr=False, compare=False)
    backend = EXACT  # not a field: every context is exact

    @classmethod
    def from_poly(cls, p: Poly) -> "CertificationContext":
        """Context of exact p; square_free_part refuses any other backend."""
        original = p.monic()
        deflated = square_free_part(original)
        return cls(deflated, original, int_sturm_chain(deflated))

    @classmethod
    def from_matrix(cls, m: SquareMatrix) -> "CertificationContext":
        return cls.from_poly(charpoly(m))

    @cached_property
    def base_signature(self) -> int:
        """sigma(H_1), the number of distinct real roots of poly."""
        # V(-inf) - V(+inf), from the leading coefficients
        at_pos = [f[-1] for f in self.chain]
        at_neg = [f[-1] if len(f) % 2 else -f[-1] for f in self.chain]
        return kernels.sign_variations(at_neg) - kernels.sign_variations(at_pos)

    def sign_at(self, x) -> int:
        """Sign of poly at x: -1, 0 or 1.

        Evaluates the chain's first member by integer Horner, memoised by
        point.
        """
        sign = self._signs.get(x)
        if sign is None:
            value = kernels.horner_homogeneous(self.chain[0], x.numerator, x.denominator)
            sign = self._signs[x] = (value > 0) - (value < 0)
        return sign

    def variations(self, x) -> int:
        """Sign variations V(x) of the Sturm chain at x, memoised by point."""
        count = self._variations.get(x)
        if count is None:
            num, den = x.numerator, x.denominator
            values = [kernels.horner_homogeneous(f, num, den) for f in self.chain]
            count = self._variations[x] = kernels.sign_variations(values)
            self._signs[x] = (values[0] > 0) - (values[0] < 0)
        return count

    def sigma_q(self, lo, hi) -> int:
        """sigma(H_q) for q = (x - lo)(x - hi), lo < hi.

        By TaQ: sigma(H_1) - 2 #{roots in (lo, hi)} - #{roots in {lo, hi}},
        with V(lo) - V(hi) = #{roots in (lo, hi]}.
        """
        half_open = self.variations(lo) - self.variations(hi)
        at_lo = self.sign_at(lo) == 0
        at_hi = self.sign_at(hi) == 0
        return self.base_signature - 2 * (half_open - at_hi) - at_lo - at_hi


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
    # q = (x-c)^2 - r^2 = (x - (c-r))(x - (c+r))
    if ctx.sigma_q(c - r, c + r) != ctx.base_signature:
        return replace(disk, verdict=CONTAINS_REAL)
    return replace(disk, verdict=EMPTY_REAL)


def certify_interval(ctx: CertificationContext, lo, hi, sources=()) -> CertifiedInterval:
    """Signature test for [lo, hi] with q = (x - lo)(x - hi).

    The verdict covers the closed interval; min_root_count counts the
    distinct roots strictly inside, V(lo) - V(hi) less a root at hi.  p is
    square-free, so the count is exact.
    """
    lo = ctx.backend.convert(lo)
    hi = ctx.backend.convert(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    sigma_q = ctx.sigma_q(lo, hi)
    inside = ctx.variations(lo) - ctx.variations(hi) - (ctx.sign_at(hi) == 0)
    # a Sturm chain's variations never rise from lo to hi
    if inside < 0:
        raise InternalConsistencyError(
            f"signature drop on [{lo}, {hi}] counts {inside} roots inside: "
            "the Sturm chain is faulty"
        )
    contains = sigma_q != ctx.base_signature
    return CertifiedInterval(lo, hi, contains, sigma_q, inside, tuple(sources))


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

    Takes the center of every contains-real disk and both boundaries of
    every disk, whatever its verdict - an empty disk overlapping a
    certified one still shapes where roots can hide.  Points outside the
    certified union are dropped.  With column_segments given, the union is
    first clipped to it (column disks also bound the spectrum) and the
    clip edges join the breakpoints.
    """
    yes = [d for d in disks if d.verdict == CONTAINS_REAL]
    if not yes:
        raise ValueError("no contains-real disk; nothing to localize")
    segments = _merge_segments([(d.center - d.radius, d.center + d.radius) for d in yes])
    if column_segments is not None:
        segments = _intersect_segments(segments, _merge_segments(column_segments))
    points = {d.center for d in yes}
    for d in disks:
        points.update((d.center - d.radius, d.center + d.radius))
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
    """Full initial localization of the real spectrum of m.

    A float-mode m is replaced by the exact matrix of its entries' values,
    so the context, the disks and every verdict are exact.
    """
    if m.backend != EXACT:
        m = SquareMatrix.from_rows([[exact_value(v) for v in row] for row in m.rows], EXACT)
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
        pairs = list(zip(breakpoints, breakpoints[1:]))
        # a candidate's sources are the contains-real disks its interior meets
        yes_ends = [
            (d.center - d.radius, d.center + d.radius, d.row)
            for d in certified
            if d.verdict == CONTAINS_REAL
        ]
        tested = [
            certify_interval(
                ctx, lo, hi, tuple(row for a, b, row in yes_ends if a < hi and lo < b)
            )
            for lo, hi in pairs
        ]
    intervals = tuple(t for t in tested if t.contains_real)
    return LocateResult(ctx, tuple(certified), points, tuple(tested), intervals)

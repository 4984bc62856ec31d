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
from one integer Sturm chain of p, built with the context, whose sign
variations V(x) give #{roots in (a, b]} = V(a) - V(b).  The context
builds the subresultant remainder sequence of the characteristic
polynomial and its derivative once, in Sturm signs: each pseudo-remainder
is divided exactly by a factor known in advance, so no member takes a
content gcd.  When it ends in a constant the polynomial is square-free
and the sequence is its Sturm chain; otherwise it ends in a multiple of
gcd(p, p'), whose primitive part divides the polynomial exactly in
integers, and only then is a second chain built, on the square-free
quotient.  The memo holds one entry per point, V and the sign of p
together, keyed by the point's (numerator, denominator) pair, the
integers that Horner evaluates on.  An evaluation computes both, so
a point shared by two tests, or read for its sign and then tested, is
evaluated once.

V only drops, and only at roots of p, which are few, so most points need
no evaluation of the whole chain.  locate fills the memo once, before
the disk tests, by bisection over sorted points
(CertificationContext.fill_keys): the ends and centre of every row disk
and, with column disks, the column disks' ends in the hull [L, R] of the
row disks.  Every point a disk or candidate test reads is among them.
The hull holds every root, and L and R are disk ends, so they are the
first and last points, and take V(-inf) and V(+inf), read off the
chain's leading coefficients, and only p's sign.  Where V is equal at
the two ends of a run, the points inside are inferred.  Where it drops
by one, the run holds one simple root, and the sign of p at its middle
tells which half holds it, so that point costs one Horner call on p
alone.  Only runs where V drops by two or more are evaluated at their
middle.

Disks and candidates are found in the integers of B = D*A, A with its
denominators cleared (D is their lcm): the radii, the disk ends, their
union, the breakpoints and each candidate's sources are int sums and
compares; the sources take one pass over the contains-real disks, each
placed among the sorted breakpoints by bisection.  The tests run in B's
coordinates too: the context's chain is that of chi_B(y) = det(yI - B),
whose roots are D times A's, so a disk end or breakpoint y of B is the
integer point (y, 1) of the memo, which Horner evaluates without powers
of a denominator.  The tests take those keys, and only the records, in
A's coordinates, hold Fractions: a disk's c/D and R/D, and an interval's
ends, made by CertificationContext.interval.  Disk and CertifiedInterval
are immutable named tuples.

The whole pipeline is exact.  A matrix holds the exact values of its
entries; one built on a float backend holds the values of its rounded
binary floats, so the verdicts are theorems about the entries as that
backend rounded them, and nothing after that is rounded.

Radius-zero disks are point eigenvalues (the row is a_ii e_i, so a_ii is
an eigenvalue exactly) and bypass the interval machinery.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, inf
from typing import NamedTuple

from eigencert import kernels
from eigencert.charpoly import SquareMatrix, charpoly
from eigencert.numerics import EXACT, InternalConsistencyError
from eigencert.poly import Poly
# unused here; certbench/tracing.py patches these names on this module
from eigencert.hermite import hermite_base, hermite_weighted, signature
from eigencert.oracle import square_free_part

CONTAINS_REAL = "contains-real-eigenvalue"
EMPTY_REAL = "empty-of-real-eigenvalues"
POINT_EIGENVALUE = "point-eigenvalue"


class Disk(NamedTuple):
    row: int
    center: object
    radius: object
    verdict: str


class CertifiedInterval(NamedTuple):
    lo: object
    hi: object
    contains_real: bool
    sigma: int | None
    min_root_count: int
    sources: tuple = ()


def remainder_sequence(f: list) -> tuple:
    """Subresultant remainder sequence of the integer polynomial f and f', in Sturm signs.

    f_0 is f and f_1 is f' without its content.  With d = deg f_k - deg
    f_{k+1}, each later member is f_{k+2} = -sign(lc f_{k+1})^(d+1)
    prem(f_k, f_{k+1}) / |beta_k|, down to the last nonzero one:
    - prem(f_k, f_{k+1}) is lc(f_{k+1})^(d+1) rem(f_k, f_{k+1}), so f_{k+2}
      is a positive multiple of -rem(f_k, f_{k+1}), the textbook chain's
      next member, and every sign agrees with that chain's;
    - beta_k is the Brown-Traub (Collins) divisor (Basu-Pollack-Roy, ch. 8):
      |beta_0| = 1 and |beta_k| = |lc f_k| psi_k^d, where psi_k = |lc
      f_k|^d' / psi_{k-1}^(d' - 1) for the previous gap d' = deg f_{k-1} -
      deg f_k, which is |lc f_k| after a normal step (d' = 1).
    So f_{k+2} = s_{k+2} S_{k+2} for the subresultant member S_{k+2} =
    prem(S_k, S_{k+1}) / beta_k and the sign s_{k+2} = -s_k sign(lc(S_{k+1})^(d+1)
    beta_k): the signs of beta_k and of the S_k cancel, and only magnitudes
    are carried.  Every division is exact; a remainder raises
    InternalConsistencyError.  The last member is a constant exactly when
    f is square-free, and the sequence is then f's Sturm chain.  Otherwise
    it is gcd(f, f') times a constant, not in general primitive.
    """
    chain = [f]
    if len(f) > 1:
        chain.append(kernels.int_content_strip([k * c for k, c in enumerate(f)][1:]))
    lead = psi = 1  # so |beta| = lead * psi**gap is 1 at the first step
    while len(chain[-1]) > 1:
        f, g = chain[-2], chain[-1]
        rem = kernels.int_prem(f, g)
        if not rem:
            break
        gap = len(f) - len(g)
        beta = lead * psi**gap
        if g[-1] > 0 or gap % 2:  # the Sturm sign: -sign(lc g)^(gap + 1)
            beta = -beta
        quotients = [divmod(c, beta) for c in rem]
        if any(r for _, r in quotients):
            raise InternalConsistencyError(
                f"a pseudo-remainder of degree {len(rem) - 1} is not divisible by "
                f"beta = {beta}: the subresultant sequence is faulty"
            )
        chain.append([q for q, _ in quotients])
        lead = abs(g[-1])
        psi = lead**gap // psi**(gap - 1)
    return tuple(chain)


@dataclass
class CertificationContext:
    """The Sturm chain of the square-free p in y = D*x, with V and the sign memoised.

    The chain is the integer Sturm chain of the square-free part of f(y) =
    D^n p(y / D), its subresultant remainder sequence in Sturm signs.  For
    a context of a matrix A, D is the lcm of its denominators and f is
    chi_B(y) = det(yI - B) with B = D*A, so f is monic with integer
    coefficients and the disk ends and breakpoints of B are integer points
    y.  Scaling by D > 0 keeps the order of points and maps the roots of p
    onto those of f, so the chain's V(y) is V_A(y / D).
    A polynomial's context is that of its companion matrix.

    The memo holds one entry (V, sign of f) per point, keyed by the
    reduced integer pair (num, den) of y = num/den, the integers Horner
    evaluates on.  The methods on such keys are the implementation; key,
    the one map into keys, takes a point x of A to its key, and interval,
    the one map back, makes the record of a tested pair.  An entry is
    evaluated (integer Horner on every chain member), inferred by
    fill_keys from two points with the same V around it, or sign-read by
    fill_keys: one Horner call on the first member, with V placed by
    that sign in a run holding one root or taken from V(-inf) or V(+inf)
    at the fill's first or last point, which bound the roots.  All are
    exact under the Sturm property V(a) - V(b) = #{roots in (a, b]}, so
    the tests cannot tell them apart.  original is the Fraction
    polynomial of the report.
    """

    original: Poly  # monic characteristic polynomial, in x
    chain: tuple  # integer Sturm chain of the square-free part, in y
    scale: int  # D: a point x is y = D*x in the chain's coordinates
    # keyed by a point's reduced (numerator, denominator) in y: (sign
    # variations of the chain, sign of its first member)
    _memo: dict = field(default_factory=dict, repr=False, compare=False)
    backend = EXACT  # not a field: every context is exact

    @classmethod
    def from_matrix(cls, m: SquareMatrix) -> "CertificationContext":
        """Context of m's characteristic polynomial, with the chain of chi_B, B = D*A.

        charpoly(m) gives chi_A, the report's polynomial, and leaves the
        integer coefficients of chi_B cached on m, where the chain is read
        from.  If the remainder sequence of chi_B ends in a constant it is
        the chain.  Otherwise its last member is gcd(chi_B, chi_B') times a
        constant; its primitive part g divides chi_B with integer
        coefficients (Gauss's lemma) and is divided out exactly, and the
        chain is built on the quotient, which must then be square-free.
        """
        original = charpoly(m)
        coeffs = list(m.cleared_charpoly)
        sequence = remainder_sequence(coeffs)
        gcd_part = sequence[-1]
        if len(gcd_part) > 1:
            gcd_part = kernels.int_content_strip(gcd_part)
            if gcd_part[-1] < 0:  # so the quotient keeps the sign of chi_B
                gcd_part = [-c for c in gcd_part]
            quot, rem = kernels.int_divmod_exact(coeffs, gcd_part)
            sequence = remainder_sequence(quot)
            if rem or len(sequence[-1]) > 1:
                raise InternalConsistencyError(
                    "gcd(p, p') does not divide p to a square-free part"
                )
        return cls(original, sequence, m.cleared[1])

    @cached_property
    def variations_at_infinity(self) -> tuple:
        """(V(-inf), V(+inf)), from the signs of the chain's leading coefficients."""
        at_pos = [f[-1] for f in self.chain]
        at_neg = [f[-1] if len(f) % 2 else -f[-1] for f in self.chain]
        return kernels.sign_variations(at_neg), kernels.sign_variations(at_pos)

    @cached_property
    def base_signature(self) -> int:
        """sigma(H_1) = V(-inf) - V(+inf), the number of distinct real roots of original."""
        at_neg, at_pos = self.variations_at_infinity
        return at_neg - at_pos

    def key(self, x) -> tuple:
        """The reduced (numerator, denominator) of y = D*x, x read exactly."""
        x = EXACT.convert(x)
        den = x.denominator
        g = gcd(self.scale, den)
        return x.numerator * (self.scale // g), den // g

    def width_key(self, eps) -> tuple:
        """The key of the width D*eps in y, for eps > 0 read exactly."""
        eps = EXACT.convert(eps)
        if not eps > 0:
            raise ValueError("epsilon must be positive")
        return reduced_key(eps.numerator * self.scale, eps.denominator)

    def entry(self, key) -> tuple:
        """(V, sign of the chain's first member) at the point key.

        Evaluated by integer Horner on every chain member, memoised by key.
        """
        entry = self._memo.get(key)
        if entry is None:
            values = [kernels.horner_homogeneous(f, *key) for f in self.chain]
            first = values[0]
            entry = self._memo[key] = (kernels.sign_variations(values), (first > 0) - (first < 0))
        return entry

    def fill_keys(self, keys) -> None:
        """Memoise V and the sign at the keys of sorted distinct points.

        The first and last points, L and R, must bound every real root:
        then one read of p's sign gives the entry at L, (V(-inf) - [p(L) =
        0], sign), and at R, (V(+inf), sign).  Every other entry is
        evaluated (integer Horner on every chain member), inferred (none)
        or sign-read (chain[0] alone), all exact by the Sturm property.  A
        run (y_i, y_j) between two filled points is split at its middle
        point y:
        - V(y_i) = V(y_j): no root lies in (y_i, y_j], so every point
          inside gets the entry of y_j;
        - V(y_i) - V(y_j) = 1: one root lies in (y_i, y_j], simple since
          p is square-free, so p changes sign there and its sign s at y
          places it: V(y) is V(y_j) if p(y) = 0 or s equals p's sign at
          y_j, and V(y_i) if p(y_j) = 0 or s differs;
        - a larger drop: y is evaluated.
        A level has at most sigma(H_1) dropping runs, at most sigma / 2 of
        them by two or more, so m points take at most max(sigma - 1, 0)
        ceil(log2 m) chain evaluations and 2 + sigma ceil(log2 m) sign
        reads, no point twice.

        A run whose V rises, or drops by one while p has the same nonzero
        sign at both ends, raises InternalConsistencyError.  A sign-read V
        is made to fit its run, so the rise check tests the chain only
        where both ends were evaluated: where sigma(H_1) = 1, no point is,
        and only the sign check is left.
        """
        memo, first = self._memo, self.chain[0]
        at_neg, at_pos = self.variations_at_infinity

        def sign_at(key):
            value = kernels.horner_homogeneous(first, *key)
            return (value > 0) - (value < 0)

        last = len(keys) - 1
        sign = sign_at(keys[last])
        memo[keys[last]] = (at_pos, sign)
        if last:
            sign = sign_at(keys[0])
            memo[keys[0]] = (at_neg - (sign == 0), sign)
        runs = [(0, last)]
        while runs:
            i, j = runs.pop()
            v_i, s_i = memo[keys[i]]
            v_j, s_j = right_entry = memo[keys[j]]
            if v_i < v_j:
                raise InternalConsistencyError(
                    f"sign variations rise from {v_i} at y = {keys[i][0]}/{keys[i][1]} "
                    f"to {v_j} at y = {keys[j][0]}/{keys[j][1]}: the Sturm chain is faulty"
                )
            if v_i - v_j == 1 and s_i == s_j != 0:
                raise InternalConsistencyError(
                    f"p has sign {s_i} at y = {keys[i][0]}/{keys[i][1]} and at "
                    f"y = {keys[j][0]}/{keys[j][1]}, between which V counts one root: "
                    f"the Sturm chain is faulty"
                )
            if j - i < 2:
                continue
            if v_i == v_j:
                for key in keys[i + 1:j]:
                    memo[key] = right_entry
                continue
            mid = (i + j) // 2
            key = keys[mid]
            if v_i - v_j > 1:
                self.entry(key)
            elif key not in memo:
                sign = sign_at(key)
                memo[key] = (v_j if sign == s_j or not sign else v_i, sign)
            runs += [(i, mid), (mid, j)]

    def sigma_inside(self, lo, hi) -> tuple:
        """(sigma(H_q), #{roots in (lo, hi)}) for q = (x - lo)(x - hi), lo < hi as keys.

        V(lo) - V(hi) = #{roots in (lo, hi]}, less a root at hi, is the
        exact count of the distinct roots strictly inside, and by TaQ
        sigma(H_q) = sigma(H_1) - 2 #{roots in (lo, hi)} - #{roots in {lo, hi}}.
        """
        (v_lo, s_lo), (v_hi, s_hi) = self.entry(lo), self.entry(hi)
        at_hi = s_hi == 0
        inside = v_lo - v_hi - at_hi
        # a Sturm chain's variations never rise from lo to hi
        if inside < 0:
            raise InternalConsistencyError(
                f"signature drop on [y = {lo[0]}/{lo[1]}, y = {hi[0]}/{hi[1]}] counts "
                f"{inside} roots inside: the Sturm chain is faulty"
            )
        return self.base_signature - 2 * inside - (s_lo == 0) - at_hi, inside

    def interval(self, lo, hi, sigma, inside, sources) -> CertifiedInterval:
        """The record of keys lo <= hi, with ends x = num/(den*D); it contains a
        real root where sigma != sigma(H_1), so always for a refined point's None."""
        x_lo = Fraction(lo[0], lo[1] * self.scale)
        x_hi = x_lo if lo is hi else Fraction(hi[0], hi[1] * self.scale)
        return CertifiedInterval(x_lo, x_hi, sigma != self.base_signature, sigma, inside,
                                 sources)


def gershgorin_disks(rows) -> list:
    """Row disks of an integer matrix as (c - r, c, c + r), in row order.

    c is the diagonal entry and r = sum_{j != i} |b_ij|; every value is an
    int.  Column disks are the row disks of the transpose.
    """
    disks = []
    for i, row in enumerate(rows):
        c = row[i]
        r = sum(map(abs, row)) - abs(c)
        disks.append((c - r, c, c + r))
    return disks


def certify_disk(ctx: CertificationContext, row: int, disk) -> Disk:
    """The record of row's disk (c - r, c, c + r) of gershgorin_disks, with its verdict:
    point eigenvalue, or the test of q = (y - c + r)(y - c - r) at keys (c -/+ r, 1)."""
    lo, c, hi = disk
    center, radius = Fraction(c, ctx.scale), Fraction(hi - c, ctx.scale)
    if lo == hi:
        return Disk(row, center, radius, POINT_EIGENVALUE)
    if ctx.sigma_inside((lo, 1), (hi, 1))[0] != ctx.base_signature:
        return Disk(row, center, radius, CONTAINS_REAL)
    return Disk(row, center, radius, EMPTY_REAL)


def reduced_key(num: int, den: int) -> tuple:
    """num/den, den > 0, as a reduced (numerator, denominator) memo key."""
    g = gcd(num, den)
    return num // g, den // g


def certify_interval(ctx: CertificationContext, lo, hi, sources=()) -> CertifiedInterval:
    """Signature test for [lo, hi] with q = (y - lo)(y - hi), lo < hi as memo keys.

    The verdict covers the closed interval; min_root_count counts the
    distinct roots strictly inside.  p is square-free, so the count is
    exact.  ctx.key maps a point x to its key; the record's ends are in x.
    """
    if not lo[0] * hi[1] < hi[0] * lo[1]:
        raise ValueError("need lo < hi")
    sigma, inside = ctx.sigma_inside(lo, hi)
    return ctx.interval(lo, hi, sigma, inside, tuple(sources))


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


def _covered(point, segments) -> bool:
    """Whether point lies in a segment of the merged list segments."""
    i = bisect_right(segments, (point, inf))  # the first segment past point
    return i > 0 and point <= segments[i - 1][1]


def candidate_points(disks, yes, column_segments=None) -> list:
    """Sorted breakpoints cutting the certified region into candidates.

    disks holds the (c - r, c, c + r) of every disk and yes those of the
    contains-real ones, all as the integers of gershgorin_disks.  Takes
    the center of every contains-real disk and both ends of every disk,
    whatever its verdict - an empty disk overlapping a certified one still
    shapes where roots can hide.  Points outside the union of yes are
    dropped.  With column_segments given (column disks also bound the
    spectrum), the ends of their union join the breakpoints and points
    outside it are dropped too.  The ends of the union of yes are disk
    ends already, so every end of the clipped region is a breakpoint.
    """
    if not yes:
        raise ValueError("no contains-real disk; nothing to localize")
    regions = [_merge_segments([(lo, hi) for lo, _, hi in yes])]
    points = {c for _, c, _ in yes}
    for lo, _, hi in disks:
        points.add(lo)
        points.add(hi)
    if column_segments is not None:
        regions.append(_merge_segments(column_segments))
        for seg in regions[-1]:
            points.update(seg)
    for region in regions:
        points = [p for p in points if _covered(p, region)]
    return sorted(points)


def candidate_sources(points, yes) -> list:
    """The rows of the contains-real disks whose interior meets each candidate.

    points are the sorted breakpoints of candidate_points, and candidate k
    is [points[k], points[k + 1]].  yes holds ((c - r, c, c + r), row) per
    contains-real disk, in row order.  A disk (lo, hi) meets the candidates
    from the one whose upper end passes lo, found by bisection, up to the
    last that starts below hi; each candidate gets its rows in yes order.
    """
    last = len(points) - 1
    sources = [[] for _ in range(last)]
    for (lo, _, hi), row in yes:
        k = max(bisect_right(points, lo) - 1, 0)
        while k < last and points[k] < hi:
            sources[k].append(row)
            k += 1
    return [tuple(rows) for rows in sources]


@dataclass(frozen=True)
class LocateResult:
    context: CertificationContext
    disks: tuple
    points: tuple  # point eigenvalues, deduplicated, ascending
    tested: tuple  # every candidate interval, with verdict
    intervals: tuple  # the contains-real subset of tested


def locate(m: SquareMatrix, *, column_disks: bool = False) -> LocateResult:
    """Full initial localization of the real spectrum of m.

    Disks and candidates are found on B = D*A, the matrix with its
    denominators cleared, and the context's chain is in the same
    coordinates, so every test reads the memo at integer points (y, 1).
    The memo is filled once, before the disk tests, at the end and centre
    of every row disk and, with column_disks, at the column disks' ends
    in the row disks' hull [L, R]: a superset of the points the tests
    read, whose first and last points are L and R.  Only the records
    are Fractions.
    """
    ctx = CertificationContext.from_matrix(m)
    rows = m.cleared[0]
    disks = gershgorin_disks(rows)
    # every eigenvalue lies in the hull of the row disks, radius zero included
    fill = {y for disk in disks for y in disk}
    col_segments = None
    if column_disks:
        col_segments = [(lo, hi) for lo, _, hi in gershgorin_disks(list(zip(*rows)))]
        left, right = min(fill), max(fill)
        fill.update(y for seg in col_segments for y in seg if left <= y <= right)
    ctx.fill_keys([(y, 1) for y in sorted(fill)])
    certified = [certify_disk(ctx, i, disk) for i, disk in enumerate(disks)]
    points = tuple(sorted({d.center for d in certified if d.verdict == POINT_EIGENVALUE}))
    # a candidate's sources are the contains-real disks its interior meets
    yes = [(disk, d.row) for disk, d in zip(disks, certified) if d.verdict == CONTAINS_REAL]
    tested: list = []
    if yes:
        breakpoints = candidate_points(disks, [disk for disk, _ in yes], col_segments)
        tested = [
            certify_interval(ctx, (breakpoints[k], 1), (breakpoints[k + 1], 1), sources)
            for k, sources in enumerate(candidate_sources(breakpoints, yes))
        ]
    intervals = tuple(t for t in tested if t.contains_real)
    return LocateResult(ctx, tuple(certified), points, tuple(tested), intervals)

"""Exact signatures from the Sturm chain against the paper's own route.

Exact mode reads sigma(H_q) off one integer Sturm chain of p by the TaQ
identity.  The Hankel-built H_q with its exact signature (hermite.py) is
the independent oracle: every disk and candidate test must agree with it,
on the acceptance corpus and on adversarial spectra.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from eigencert import kernels
from eigencert.charpoly import SquareMatrix, charpoly
from eigencert.hermite import hermite_base, hermite_weighted, signature
from eigencert.localize import (
    CONTAINS_REAL,
    CertificationContext,
    gershgorin_disks,
    locate,
    remainder_sequence,
)
from eigencert.numerics import EXACT, InternalConsistencyError
from eigencert.oracle import (
    companion,
    square_free_part,
    sturm_chain,
    sturm_count,
    sturm_count_all,
    sturm_count_closed,
)
from eigencert.poly import Poly
from tests.conftest import (
    certify_x,
    poly_context,
    random_rational_matrix,
    rational_rows,
    repeated_block,
)

TINY = F(1, 10**9)


def chain_poly(ctx):
    """The chain's first member at y = D*x, monic, as a Poly in x."""
    return Poly.from_coeffs([c * ctx.scale**k for k, c in enumerate(ctx.chain[0])]).monic()


def hermite_sigma(base, a, b):
    q = Poly.from_coeffs([a * b, -(a + b), 1])
    return signature(hermite_weighted(base, q))


def check_pipeline_tests(m, roots=(), offsets=()):
    """Every disk and candidate test of locate(m) equals the Hermite oracle.

    Also checks intervals with a root at both ends (every pair of roots),
    and with a root at one end or just inside (each point of the roots
    moved by the offsets, against its next three neighbours).
    """
    res = locate(m)
    ctx = res.context
    base = hermite_base(square_free_part(ctx.original))
    for d in res.disks:
        if d.radius:
            c, r = d.center, d.radius
            q = Poly.from_coeffs([c * c - r * r, -2 * c, 1])
            sigma = certify_x(ctx, c - r, c + r).sigma
            assert sigma == signature(hermite_weighted(base, q)), d
    for iv in res.tested:
        assert iv.sigma == hermite_sigma(base, iv.lo, iv.hi), (iv.lo, iv.hi)
    roots = sorted(set(roots))
    pairs = [(a, b) for i, a in enumerate(roots) for b in roots[i + 1:]]
    points = sorted(set(roots) | {r + s for r in roots for s in offsets})
    pairs += [(a, b) for i, a in enumerate(points) for b in points[i + 1:i + 4]]
    for a, b in pairs:
        assert certify_x(ctx, a, b).sigma == hermite_sigma(base, a, b), (a, b)
    assert ctx.base_signature == signature(base)


def test_chain_matches_hermite_on_corpus(corpus):
    for m in corpus:
        check_pipeline_tests(m)


# Adversarial matrices, each with its eigenvalues: a disk edge on a root,
# roots 1e-9 apart (the lost-root matrix: eigenvalues 0, 1e-9 and 3), a
# Jordan block beside a repeated eigenvalue, and n = 12.
ADVERSARIAL = [
    ([[0, 3], [0, 3]], (0, 3)),
    ([[1, 2, 0], [0, 3, 0], [0, 0, -1]], (1, 3, -1)),
    (
        [["-3", "-12", "-6"], ["3", "11.999999999", "5.999999999"],
         ["-3", "-11.999999998", "-5.999999998"]],
        (0, TINY, 3),
    ),
    ([[2, 1, 0, 1], [0, 2, 0, 0], [0, 0, 2, 1], [0, 0, 0, 5]], (2, 5)),
    ([[k if j == k else int(j == k + 1) for j in range(12)] for k in range(12)],
     tuple(range(12))),
]


@pytest.mark.parametrize("rows, eigenvalues", ADVERSARIAL)
def test_chain_matches_hermite_adversarial(rows, eigenvalues):
    m = SquareMatrix.from_rows(rows, EXACT)
    check_pipeline_tests(m, [F(e) for e in eigenvalues], (-TINY, TINY, F(1, 2)))


# Diagonal values: repeats are likely, and two sit 1e-9 from another.
DIAGONAL = st.sampled_from([F(0), F(1), F(3), F(-2), F(1, 2), TINY, 3 + TINY])


@st.composite
def triangular_similar(draw, diagonal=DIAGONAL, max_n=12):
    """(matrix, eigenvalues): a triangular matrix of order 2-max_n,
    conjugated by unimodular moves.

    The triangle fixes the spectrum (its diagonal) and its rows put disk
    edges on eigenvalues often; the moves row_i += k row_j, col_j -= k col_i
    keep the spectrum and spread the entries.
    """
    n = draw(st.integers(2, max_n))
    diag = draw(st.lists(diagonal, min_size=n, max_size=n))
    a = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = diag[i]
        for j in range(i + 1, n):
            a[i][j] = F(draw(st.integers(-3, 3)))
    moves = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)),
        max_size=3,
    ))
    for i, j, k in moves:
        if i == j or k == 0:
            continue
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[j] -= k * row[i]
    return SquareMatrix.from_rows(a, EXACT), tuple(diag)


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(triangular_similar())
def test_chain_matches_hermite_similar_triangles(case):
    m, eigenvalues = case
    check_pipeline_tests(m, eigenvalues, (-TINY, TINY))


@st.composite
def rational_matrices(draw):
    """A matrix whose cleared form D*A has D > 1."""
    m = SquareMatrix.from_rows(draw(rational_rows()), EXACT)
    assume(m.cleared[1] > 1)
    return m


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rational_matrices(), st.booleans())
def test_locate_on_cleared_matrix_matches_textbook(m, column_disks):
    res = locate(m, column_disks=column_disks)
    ctx = res.context
    p = square_free_part(ctx.original)
    base = hermite_base(p)
    chain = sturm_chain(p)
    for d in res.disks:
        if d.radius:
            c, r = d.center, d.radius
            assert (d.verdict == CONTAINS_REAL) == (
                hermite_sigma(base, c - r, c + r) != signature(base)
            ), d
    for iv in res.tested:
        assert type(iv.lo) is F and type(iv.hi) is F
        assert iv.sigma == hermite_sigma(base, iv.lo, iv.hi), (iv.lo, iv.hi)
        if p.eval(iv.lo) and p.eval(iv.hi):
            inside = sturm_count(chain, iv.lo, iv.hi)
        else:
            ends = (p.eval(iv.lo) == 0) + (p.eval(iv.hi) == 0)
            inside = sturm_count_closed(p, iv.lo, iv.hi) - ends
        assert iv.min_root_count == inside, (iv.lo, iv.hi)


def test_int_sturm_chain_ends_in_gcd_on_repeated_roots():
    p = Poly.from_coeffs([1, -2, 1])  # (x-1)^2
    last = remainder_sequence([1, -2, 1])[-1]
    assert len(last) == 2 and last[0] == -last[1] != 0  # a multiple of x - 1
    ctx = poly_context(p)
    assert ctx.chain[0] == [-1, 1]
    assert ctx.original == p
    assert len(ctx.chain[-1]) == 1
    assert ctx.base_signature == 1


def test_from_poly_refuses_a_gcd_that_does_not_divide(monkeypatch):
    """A polynomial's context, from its companion matrix, refuses a division
    with a remainder."""
    divide = kernels.int_divmod_exact

    def bad_divide(num, den):
        quot, _ = divide(num, den)
        return quot, [1]

    monkeypatch.setattr(kernels, "int_divmod_exact", bad_divide)
    with pytest.raises(InternalConsistencyError, match="square-free"):
        poly_context(Poly.from_coeffs([1, -2, 1]))


def test_from_poly_refuses_a_quotient_with_repeated_roots(monkeypatch):
    """A polynomial's context refuses a quotient whose own chain does not
    end in a constant."""
    # a forged division that leaves (x-1)^2 whole: its own chain ends in x - 1
    monkeypatch.setattr(kernels, "int_divmod_exact", lambda num, den: (list(num), []))
    with pytest.raises(InternalConsistencyError, match="square-free"):
        poly_context(Poly.from_coeffs([1, -2, 1]))


@st.composite
def factored_polys(draw):
    """An integer polynomial built from linear and quadratic factors, each
    to the power 1-3, so that square-free and repeated-root cases both occur."""
    p = Poly.from_coeffs([draw(st.sampled_from([1, -1, 2, 3]))])
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 2))
        coeffs = draw(st.lists(st.integers(-4, 4), min_size=degree + 1, max_size=degree + 1))
        assume(coeffs[-1] != 0)
        factor = Poly.from_coeffs(coeffs)
        for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
            p = p * factor
    return p


@settings(max_examples=80, derandomize=True, deadline=None)
@given(factored_polys())
def test_one_remainder_sequence_gives_square_free_part_and_chain(p):
    """The context's one sequence equals the two-route result: the
    square-free part by oracle.gcd, and the Sturm chain built on it."""
    square_free = square_free_part(p)
    calls = []
    prem = kernels.int_prem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "int_prem", lambda f, g: calls.append(1) or prem(f, g))
        ctx = poly_context(p)
    assert chain_poly(ctx) == square_free
    assert ctx.original == p.monic()
    assert ctx.chain == remainder_sequence(ctx.chain[0])
    assert len(ctx.chain[-1]) == 1
    assert ctx.base_signature == sturm_count_all(sturm_chain(square_free))
    if square_free == p.monic():
        # one sequence: a pseudo-remainder per member after p and p'
        assert len(calls) == len(ctx.chain) - 2


def repeated_block_matrix(block, order):
    return SquareMatrix.from_rows(repeated_block(block, order), EXACT)


def test_repeated_block_matrix_takes_the_division_path(monkeypatch):
    # B has eigenvalues 1 and 2 and a complex pair
    block = [[1, 0, 0, 0], [1, 2, 0, 0], [0, 3, 0, -1], [2, 0, 1, 0]]
    m = repeated_block_matrix(block, [5, 2, 7, 0, 3, 6, 1, 4])
    divisions = []
    divide = kernels.int_divmod_exact

    def counted_divide(num, den):
        divisions.append(den)
        return divide(num, den)

    monkeypatch.setattr(kernels, "int_divmod_exact", counted_divide)
    res = locate(m)
    ctx = res.context
    assert len(divisions) == 1 and len(divisions[0]) - 1 == 4
    assert ctx.scale == 1
    assert ctx.original == charpoly(m).monic()
    assert chain_poly(ctx) == square_free_part(ctx.original)
    assert len(ctx.chain[0]) - 1 == 4
    assert ctx.chain == remainder_sequence(ctx.chain[0])
    assert ctx.base_signature == 2
    check_pipeline_tests(m, [F(1), F(2)], (-TINY, TINY))


def test_int_sturm_chain_is_integer_and_subresultant():
    # (x - 1/2)(x - 1)(x - 3/2)/4; made monic, its denominators clear to D = 4
    p = Poly.from_coeffs([F(-3, 16), F(11, 16), F(-3, 4), F(1, 4)])
    ctx = poly_context(p)
    assert ctx.scale == 4
    chain = ctx.chain
    assert chain[0] == [-48, 44, -12, 1]  # (y-2)(y-4)(y-6)
    assert chain[1] == [44, -24, 3]  # f' is made primitive
    # f_2 = -prem(f_0, f_1), f_3 = -prem(f_1, f_2) / lc(f_1)^2: not primitive
    assert chain[2:] == ([-96, 24], [256])
    assert all(isinstance(c, int) for f in chain for c in f)
    assert_positive_multiples(chain, sturm_chain(Poly.from_coeffs(chain[0])))


def assert_positive_multiples(chain, textbook):
    """Each integer member is a positive rational multiple of the textbook
    member, and there are as many."""
    assert len(chain) == len(textbook)
    for member, q in zip(chain, textbook):
        assert len(member) == len(q.coeffs), (member, q)
        ratio = member[-1] / q.coeffs[-1]
        assert ratio > 0, (member, q)
        assert [F(c) for c in member] == [ratio * c for c in q.coeffs], (member, q)


# Chains with degree gaps (non-normal steps), each with its real roots and
# its members from f_2 on, which are the subresultant PRS of f and f' made
# primitive, up to sign.  x^4 + 1 ends x^3, -1; x^5 - x drops from degree 4
# to 1; x^4 + x steps from 4x^3 + 1 to -12x, whose negative leading
# coefficient then meets a gap of 2; x^6 - 2x^3 + 2 has two gaps of 2, and
# x^7 - x^2 + 1 one of 4, after which psi is 7^4 where a normal step would
# leave 7.
GAPPED = [
    ([1, 0, 0, 0, 1], (), ([-1],)),
    ([0, -1, 0, 0, 0, 1], (-1, 0, 1), ([0, 20], [256])),
    ([0, 1, 0, 0, 1], (-1, 0), ([0, -12], [-27])),
    ([2, 0, 0, -2, 0, 0, 1], (), ([-2, 0, 0, 1], [0, 0, -1], [2])),
    ([1, 0, -1, 0, 0, 0, 0, 1], (), ([-49, 0, 35], [-60025, 6250], [-811043])),
]


@pytest.mark.parametrize("coeffs, roots, members", GAPPED)
def test_gapped_chain_is_the_textbook_chain(coeffs, roots, members):
    chain = remainder_sequence(coeffs)
    gaps = [len(f) - len(g) for f, g in zip(chain, chain[1:])]
    assert max(gaps) > 1, gaps
    assert chain[2:] == members
    p = Poly.from_coeffs(coeffs)
    assert_positive_multiples(chain, sturm_chain(p))
    m = companion(p)
    assert CertificationContext.from_matrix(m).chain == chain
    check_pipeline_tests(m, [F(r) for r in roots], (-TINY, TINY, F(1, 2)))


def test_gapped_chain_on_repeated_roots():
    """x^5 + x^2 = x^2 (x + 1)(x^2 - x + 1): its sequence ends in -54x, which
    is made primitive before it divides out the double root 0."""
    chain = remainder_sequence([0, 0, 1, 0, 0, 1])
    assert chain[-1] == [0, -54]
    ctx = poly_context(Poly.from_coeffs([0, 0, 1, 0, 0, 1]))
    assert ctx.chain[0] == [0, 1, 0, 0, 1]
    assert ctx.chain == remainder_sequence([0, 1, 0, 0, 1])
    assert ctx.base_signature == 2


@pytest.mark.parametrize("end", [0, -1], ids=["constant", "leading"])
def test_remainder_sequence_refuses_an_inexact_division(monkeypatch, end):
    """A pseudo-remainder that beta does not divide raises, whichever of its
    coefficients is off: x^4 - 3x^2 + x + 1 has f_1 = 4x^3 - 6x + 1, so the
    second step divides a pseudo-remainder of degree 1 by beta = 16, and
    one end of it is forged."""
    prem = kernels.int_prem
    calls = []

    def forged(f, g):
        rem = prem(f, g)
        calls.append(rem)
        if len(calls) == 2:
            assert len(rem) == 2 and all(c % 16 == 0 for c in rem)
            rem = list(rem)
            rem[end] += 1
        return rem

    monkeypatch.setattr(kernels, "int_prem", forged)
    with pytest.raises(InternalConsistencyError, match="not divisible by beta = -?16:"):
        remainder_sequence([1, 1, -3, 0, 1])


@st.composite
def sparse_polys(draw):
    """A square-free integer polynomial of degree 2-10 with 2-4 terms, its
    leading coefficient of either sign: degree gaps are common."""
    degree = draw(st.integers(2, 10))
    coeffs = [0] * (degree + 1)
    for e in draw(st.lists(st.integers(0, degree - 1), min_size=1, max_size=3, unique=True)):
        coeffs[e] = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    coeffs[degree] = draw(st.sampled_from((-2, -1, 1, 3)))
    p = Poly.from_coeffs(coeffs)
    assume(square_free_part(p) == p.monic())
    return coeffs


@settings(max_examples=150, derandomize=True, deadline=None)
@given(sparse_polys())
def test_sparse_chain_is_the_textbook_chain(coeffs):
    chain = remainder_sequence(coeffs)
    textbook = sturm_chain(Poly.from_coeffs(coeffs))
    assert all(isinstance(c, int) for f in chain for c in f)
    assert_positive_multiples(chain, textbook)
    ctx = CertificationContext(Poly.from_coeffs(coeffs), chain, 1)
    assert ctx.base_signature == sturm_count_all(textbook)


@st.composite
def constant_row_sum(draw):
    """A block-diagonal matrix, each block with nonnegative off-diagonal
    entries and one row sum, in integer or one-place-decimal form.

    A block's row sum s is an eigenvalue (the all-ones vector) and the
    right end c + r of each of its disks, so roots sit on disk ends, and on
    breakpoints inside another block's disks.
    """
    n = draw(st.integers(2, 10))
    split = draw(st.integers(1, n))
    scale = draw(st.sampled_from([1, 10]))
    sums = draw(st.lists(st.integers(-20, 20), min_size=2, max_size=2))
    a = [[F(0)] * n for _ in range(n)]
    for block, s in zip((range(split), range(split, n)), sums):
        for i in block:
            for j in block:
                if i != j:
                    a[i][j] = F(draw(st.integers(0, 12)), scale)
            a[i][i] = F(s, scale) - sum(a[i])
    return SquareMatrix.from_rows(a, EXACT)


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(triangular_similar().map(lambda case: case[0]), constant_row_sum()),
       st.booleans())
def test_memo_matches_direct_evaluation(m, column_disks):
    """Every V and sign locate memoised, evaluated, inferred or sign-read, is the chain's."""
    assert_memo_is_direct(locate(m, column_disks=column_disks).context)


def assert_memo_is_direct(ctx):
    for key, (count, sign) in ctx._memo.items():
        values = [kernels.horner_homogeneous(f, *key) for f in ctx.chain]
        assert count == kernels.sign_variations(values), key
        assert sign == (values[0] > 0) - (values[0] < 0), key


@pytest.mark.parametrize("rows", [
    [[10, 0], [1, 0]],  # the point eigenvalue 10 lies right of every other disk
    [[-10, 0, 0], [1, 0, 1], [0, 1, 0]],  # and -10 left of them
    [[1, 1], [1, 1]],  # roots 0 and 2 at both ends of the hull
    [[1, 1], [0, 2]],  # roots on the centre 1 and on the end 2 of one disk
    [[2, 1, 1], [1, 2, 1], [1, 1, 2]],  # 4 at the right end, double 1 inside
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 3, 1], [0, 0, 1, 3]],  # 4 roots on breakpoints
])
@pytest.mark.parametrize("column_disks", [False, True])
def test_memo_matches_direct_evaluation_at_hull_and_run_ends(rows, column_disks):
    """Points read from the hull ends and by p's sign are the chain's too,
    where a fill over the nonzero-radius disks alone would miss a root."""
    assert_memo_is_direct(locate(SquareMatrix.from_rows(rows, EXACT),
                                 column_disks=column_disks).context)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=1, max_size=5, unique=True),
       st.booleans(), st.integers(0, 3), st.integers(0, 3),
       st.lists(st.integers(-24, 24), min_size=1, max_size=30, unique=True))
def test_fill_keys_matches_direct_evaluation(roots, complex_pair, below, above, halves):
    """fill_keys alone, on distinct integer roots (and maybe x^2 + 1) and
    points y/2 that often hit a root or a run end, between first and last
    points that lie on the extreme roots or past them: every entry is the
    chain's."""
    p = Poly.from_coeffs([1])
    for r in roots:
        p = p * Poly.from_coeffs([-r, 1])
    if complex_pair:
        p = p * Poly.from_coeffs([1, 0, 1])
    ctx = poly_context(p)
    left, right = min(roots) - below, max(roots) + above
    inside = {F(y, 2) for y in halves if left < F(y, 2) < right}
    keys = [(x.numerator, x.denominator) for x in sorted(inside | {F(left), F(right)})]
    ctx.fill_keys(keys)
    assert set(ctx._memo) == set(keys)
    assert_memo_is_direct(ctx)


def test_fill_refuses_rising_variations():
    p = Poly.from_coeffs([0, 1])
    # forged chain x, -1: V is 0 left of 0 and 1 right of it
    ctx = CertificationContext(p, ([0, 1], [-1]), 1)
    with pytest.raises(InternalConsistencyError, match="rise"):
        ctx.fill_keys([(-2, 1), (-1, 1), (-1, 2), (1, 2), (1, 1), (2, 1)])


def test_fill_refuses_one_root_without_a_sign_change():
    p = Poly.from_coeffs([1, 0, 1])
    # forged chain x^2 + 1, x: V drops by one from -1 to 1, where p is positive
    ctx = CertificationContext(p, ([1, 0, 1], [0, 1]), 1)
    with pytest.raises(InternalConsistencyError, match="counts one root"):
        ctx.fill_keys([(-2, 1), (-1, 1), (0, 1), (1, 1), (2, 1)])


def test_locate_evaluates_within_the_bisection_bound(monkeypatch, worked_exact):
    """locate fills the memo once, at every row disk's ends and centre and
    the column disks' ends in the row disks' hull.  For m points, full
    chain evaluations stay within max(sigma - 1, 0) ceil(log2 m), reads of
    p's sign alone within 2 + sigma ceil(log2 m), and all Horner calls
    within members * min(m, 2 + sigma ceil(log2 m)); no test evaluates
    outside the fill.  With sigma(H_1) = 1, locate evaluates the whole
    chain nowhere."""
    calls = []  # the polynomial of every Horner call
    horner = kernels.horner_homogeneous

    def counted(f, *args):
        calls.append(f)
        return horner(f, *args)

    fills = []  # (points, full evaluations, sign reads)
    fill = CertificationContext.fill_keys

    def logged(ctx, keys):
        before = len(calls)
        fill(ctx, keys)
        spent = calls[before:]
        full = sum(f is ctx.chain[-1] for f in spent)
        fills.append((keys, full, len(spent) - len(ctx.chain) * full))

    monkeypatch.setattr(kernels, "horner_homogeneous", counted)
    monkeypatch.setattr(CertificationContext, "fill_keys", logged)
    rng = random.Random(14)
    matrices = [worked_exact]
    for n in range(8, 16):
        matrices.append(SquareMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], EXACT))
        matrices.append(random_rational_matrix(rng, n))
    for n in range(2, 9):
        for _ in range(6):
            matrices.append(SquareMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], EXACT))
    unevaluated = 0
    for k, m in enumerate(matrices):
        calls.clear()
        fills.clear()
        column_disks = bool(k % 2)
        res = locate(m, column_disks=column_disks)
        ctx = res.context
        sigma, members = ctx.base_signature, len(ctx.chain)
        assert len(fills) == 1, k
        keys, full, reads = fills[0]
        # no disk or candidate test evaluates outside the fill
        assert sum(f is ctx.chain[0] for f in calls) == full + reads, k
        assert len(calls) == members * full + reads, k
        size = len(keys)
        levels = (size - 1).bit_length()
        assert members * full + reads <= members * min(size, 2 + sigma * levels), (k, size)
        assert full <= max(sigma - 1, 0) * levels, (k, size, full, sigma)
        assert reads <= 2 + sigma * levels, (k, size, reads, sigma)
        disks = gershgorin_disks(m.cleared[0])
        points = {y for disk in disks for y in disk}
        if column_disks:
            left, right = min(points), max(points)
            points |= {y for lo, _, hi in gershgorin_disks(list(zip(*m.cleared[0])))
                       for y in (lo, hi) if left <= y <= right}
        assert keys == [(y, 1) for y in sorted(points)], k
        if sigma == 1:
            assert full == 0, k
            unevaluated += 1
    assert unevaluated >= 10


@st.composite
def decimal_repeated_blocks(draw):
    """diag(B, B) permuted, B of one-place decimals: every root of the
    characteristic polynomial is repeated, and D divides 10."""
    k = draw(st.integers(1, 4))
    block = [[F(draw(st.integers(-15, 15)), 10) if i >= j or draw(st.booleans()) else F(0)
              for j in range(k)] for i in range(k)]
    order = draw(st.permutations(range(2 * k)))
    return repeated_block_matrix(block, order)


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(decimal_repeated_blocks(), st.booleans())
def test_memo_matches_direct_evaluation_on_repeated_roots(m, column_disks):
    assert_memo_is_direct(locate(m, column_disks=column_disks).context)


def textbook_v_and_sign(chain, x):
    """V of the Fraction Sturm chain at x, and the sign of its first member."""
    values = [q.eval(x) for q in chain]
    return kernels.sign_variations(values), (values[0] > 0) - (values[0] < 0)


def textbook_sigma(chain, base, lo, hi):
    """sigma(H_q), q = (x - lo)(x - hi), by TaQ on the Fraction Sturm chain."""
    (v_lo, s_lo), (v_hi, s_hi) = textbook_v_and_sign(chain, lo), textbook_v_and_sign(chain, hi)
    return base - 2 * (v_lo - v_hi - (s_hi == 0)) - (s_lo == 0) - (s_hi == 0)


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(triangular_similar().map(lambda case: case[0]), constant_row_sum(),
                 decimal_repeated_blocks()),
       st.booleans())
def test_scaled_chain_matches_fraction_chain(m, column_disks):
    """The context's chain runs in y = D*x on chi_B; read back at x = y / D,
    every memo entry and every test equals the textbook Fraction chain of
    the square-free part of chi_A."""
    res = locate(m, column_disks=column_disks)
    ctx = res.context
    p = charpoly(m)
    square_free = square_free_part(p)
    chain = sturm_chain(square_free)
    base = sturm_count_all(chain)
    assert ctx.scale == m.cleared[1]
    assert ctx.original == p.monic()
    assert chain_poly(ctx) == square_free
    assert ctx.base_signature == base
    for (num, den), entry in ctx._memo.items():
        x = F(num, den * ctx.scale)
        assert entry == textbook_v_and_sign(chain, x), x
    for d in res.disks:
        if d.radius:
            c, r = d.center, d.radius
            sigma = textbook_sigma(chain, base, c - r, c + r)
            assert certify_x(ctx, c - r, c + r).sigma == sigma, d
            assert (d.verdict == CONTAINS_REAL) == (sigma != base), d
    for iv in res.tested:
        assert iv.sigma == textbook_sigma(chain, base, iv.lo, iv.hi), (iv.lo, iv.hi)
        (v_lo, _), (v_hi, s_hi) = (textbook_v_and_sign(chain, x) for x in (iv.lo, iv.hi))
        assert iv.min_root_count == v_lo - v_hi - (s_hi == 0), (iv.lo, iv.hi)

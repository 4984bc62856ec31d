"""Shared fixtures: the worked 5x5 example, random-matrix helpers,
polynomial and context builders, an integer-Horner call counter, and the
exact value of an mpmath float."""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from eigencert import kernels
from eigencert.charpoly import SquareMatrix
from eigencert.localize import CertificationContext, certify_interval
from eigencert.numerics import EXACT, float_backend
from eigencert.oracle import companion
from eigencert.poly import Poly

# 5x5 example used throughout: three real eigenvalues (~1.733, ~2.935,
# ~4.997) and one complex pair; its exact characteristic polynomial and
# every certification verdict are frozen in the tests.
WORKED_ROWS = [
    ["1.25", "1", "0.75", "0.5", "0.25"],
    ["1", "0", "0", "0", "0"],
    ["-1", "1", "0", "0", "0"],
    ["0", "0", "1", "3", "0"],
    ["0", "0", "0", "0.5", "5"],
]

WORKED_CHARPOLY = (
    Fraction(-71, 8),
    Fraction(-5, 8),
    Fraction(-17),
    Fraction(99, 4),
    Fraction(-37, 4),
    Fraction(1),
)


@pytest.fixture(scope="session")
def worked_exact():
    return SquareMatrix.from_rows(WORKED_ROWS, EXACT)


@pytest.fixture(scope="session")
def worked_float():
    return SquareMatrix.from_rows(WORKED_ROWS, float_backend(256))


@pytest.fixture(scope="session")
def corpus():
    """The 200 seeded random rational matrices of the acceptance suite, n = 2-8."""
    rng = random.Random(20240817)
    return [random_rational_matrix(rng, 2 + (i % 7)) for i in range(200)]


def random_rational_matrix(rng: random.Random, n: int, bound: int = 5, max_den: int = 16):
    """n x n exact matrix, entries in [-bound, bound], denominators <= max_den."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            den = rng.randint(1, max_den)
            num = rng.randint(-bound * den, bound * den)
            row.append(Fraction(num, den))
        rows.append(row)
    return SquareMatrix.from_rows(rows, EXACT)


def P(*coeffs):
    """The polynomial with these coefficients, constant term first."""
    return Poly.from_coeffs(coeffs)


def poly_context(p: Poly) -> CertificationContext:
    """The context of p, built as the pipeline builds one: from a matrix.

    The companion matrix of monic p has charpoly monic p exactly, and its
    D is the lcm of p's denominators.
    """
    return CertificationContext.from_matrix(companion(p.monic()))


def ctx_for(*coeffs):
    """The context of P(*coeffs)."""
    return poly_context(P(*coeffs))


@contextmanager
def horner_calls():
    """The (num, den) of every integer Horner call made inside the block."""
    horner = kernels.horner_homogeneous
    calls = []

    def counted(coeffs, num, den):
        calls.append((num, den))
        return horner(coeffs, num, den)

    kernels.horner_homogeneous = counted
    try:
        yield calls
    finally:
        kernels.horner_homogeneous = horner


def certify_x(ctx: CertificationContext, a, b, sources=()):
    """certify_interval on the interval [a, b] of x, its ends mapped to keys by ctx.key."""
    return certify_interval(ctx, ctx.key(a), ctx.key(b), sources)


def mpf_value(value) -> Fraction:
    """Exact rational value of a finite mpmath float (a dyadic rational).

    The fixed-precision references return mpf values; tests compare them
    with exact results through this.
    """
    sign, man, exp, _ = value._mpf_  # value = (-1)**sign * man * 2**exp
    if not man and exp:
        raise ValueError(f"non-finite float {value!r}")
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def to_float_matrix(m: SquareMatrix, bits: int = 256) -> SquareMatrix:
    """m with each entry rounded to a float of the given precision."""
    return SquareMatrix.from_rows(m.rows, float_backend(bits))


# Entries whose common denominator is rarely 1: one- and two-place
# decimals, and mixed denominators.
RATIONAL_ENTRIES = (
    st.integers(-99, 99).map(lambda k: Fraction(k, 10)),
    st.integers(-999, 999).map(lambda k: Fraction(k, 100)),
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 7, 10, 12])),
)


@st.composite
def rational_rows(draw):
    """n x n rows, n = 2-6, of one kind of RATIONAL_ENTRIES; sometimes one
    row is zero off the diagonal (a radius-zero disk, so a point eigenvalue)."""
    entries = draw(st.sampled_from(RATIONAL_ENTRIES))
    n = draw(st.integers(2, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        rows[i] = [v if j == i else Fraction(0) for j, v in enumerate(rows[i])]
    return rows


def repeated_block(block, order):
    """Rows of diag(B, B) with rows and columns permuted alike by order:
    each eigenvalue of B is a double root of the characteristic polynomial."""
    k = len(block)
    rows = [[0] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        for j in range(k):
            rows[i][j] = rows[i + k][j + k] = block[i][j]
    return [[rows[i][j] for j in order] for i in order]

import random
from fractions import Fraction

import pytest

from eigencert.oracle import (
    SquareFreeRequiredError,
    cauchy_root_bound,
    divmod_poly,
    gcd,
    square_free_part,
    sturm_chain,
    sturm_count,
    sturm_count_all,
)
from eigencert.poly import Poly
from tests.conftest import P


def test_construction_strips_trailing_zeros():
    p = P(1, 2, 0, 0)
    assert p.coeffs == (1, 2)
    assert p.degree() == 1
    assert P(0).is_zero()
    assert P(0).degree() == -1


def test_eval_and_derivative():
    p = P(2, -3, 1)  # (x-1)(x-2)
    assert p.eval(1) == 0
    assert p.eval(Fraction(1, 2)) == Fraction(3, 4)
    assert p.derivative().coeffs == (-3, 2)
    assert P(7).derivative().is_zero()


def test_arithmetic():
    a, b = P(1, 1), P(-1, 1)  # (x+1), (x-1)
    assert (a * b).coeffs == (-1, 0, 1)
    assert (a + b).coeffs == (0, 2)
    assert (a - b).coeffs == (2,)
    assert (-a).coeffs == (-1, -1)


def test_monic_and_reflect():
    p = P(2, 0, 4)
    assert p.monic().coeffs == (Fraction(1, 2), 0, 1)
    # p(-x) of x^3 + 2x^2 - x + 5
    assert P(5, -1, 2, 1).reflected().coeffs == (5, 1, 2, -1)


def test_deflated():
    p = P(-6, 11, -6, 1)  # (x-1)(x-2)(x-3)
    q = p.deflated(2)
    assert q.eval(1) == 0 and q.eval(3) == 0 and q.degree() == 2
    with pytest.raises(ValueError):
        p.deflated(5)


def test_divmod_poly():
    num = P(-1, 0, 1)
    den = P(1, 1)
    quot, rem = divmod_poly(num, den)
    assert quot.coeffs == (-1, 1)
    assert rem.is_zero()


def test_gcd_shared_root():
    # f = (x-1)^2 (x+2), f' shares the double root
    f = P(2, -3, 0, 1)
    g = gcd(f, f.derivative())
    assert g.coeffs == (-1, 1)


def test_gcd_coprime_and_zero():
    assert gcd(P(1, 1), P(-1, 1)).coeffs == (1,)
    p = P(3, 2)
    assert gcd(p, P(0)) == p.monic()
    assert gcd(P(0), p) == p.monic()


def test_gcd_rational_coefficients():
    a = Poly.from_coeffs([Fraction(1, 2), Fraction(1, 3)])
    b = Poly.from_coeffs([Fraction(3, 2), Fraction(1, 1)])
    # both are multiples of (x + 3/2)
    assert gcd(a, b).coeffs == (Fraction(3, 2), 1)


def test_square_free_part():
    # (x-2)^3 (x+1) -> (x-2)(x+1) = x^2 - x - 2
    p = P(-8, 4, 6, -5, 1)
    assert square_free_part(p).coeffs == (-2, -1, 1)
    # already square-free stays put (monic)
    assert square_free_part(P(-2, 1)).coeffs == (-2, 1)


def test_cauchy_root_bound():
    p = P(-6, 11, -6, 1)  # roots 1, 2, 3
    bound = cauchy_root_bound(p)
    assert bound == 12  # 1 + 11
    assert all(abs(r) <= bound for r in (1, 2, 3))


def test_sturm_chain_classic():
    chain = sturm_chain(P(-1, 0, 1))
    assert isinstance(chain, tuple)
    # the textbook chain: x^2 - 1, 2x, 1
    assert [q.coeffs for q in chain] == [(-1, 0, 1), (0, 2), (1,)]


def test_sturm_chain_requires_square_free():
    with pytest.raises(SquareFreeRequiredError):
        sturm_chain(P(1, 2, 1))  # (x+1)^2


def test_sturm_count():
    chain = sturm_chain(P(-1, 0, 1))
    assert sturm_count(chain, -2, 2) == 2
    assert sturm_count(chain, 0, 2) == 1
    assert sturm_count(chain, Fraction(3, 2), 9) == 0
    assert sturm_count_all(chain) == 2
    with pytest.raises(ValueError):
        sturm_count(chain, 1, 2)  # endpoint is a root
    with pytest.raises(ValueError):
        sturm_count(chain, 2, 0)  # reversed


def test_sturm_count_all_no_real_roots():
    chain = sturm_chain(P(1, 0, 1))  # x^2 + 1
    assert sturm_count_all(chain) == 0


def test_sturm_random_vs_bruteforce_integer_roots():
    rng = random.Random(17)
    for _ in range(15):
        roots = sorted(rng.sample(range(-6, 7), rng.randint(1, 4)))
        p = P(1)
        for r in roots:
            p = p * P(-r, 1)
        chain = sturm_chain(p)
        a, b = Fraction(-15, 2), Fraction(15, 2)
        assert sturm_count(chain, a, b) == len(roots)
        mid = Fraction(rng.randint(-6, 6)) + Fraction(1, 2)
        want = sum(1 for r in roots if a < r < mid)
        assert sturm_count(chain, a, mid) == want

from fractions import Fraction as F

import pytest

from eigencert import kernels
from eigencert.charpoly import SquareMatrix
from eigencert.numerics import EXACT
from eigencert.oracle import (
    naive_charpoly,
    sturm_count_closed,
    sturm_isolate_roots,
)
from tests.conftest import WORKED_CHARPOLY, P


def test_naive_charpoly_golden(worked_exact):
    assert naive_charpoly(worked_exact).coeffs == WORKED_CHARPOLY
    m = SquareMatrix.from_rows([[1, 2], [3, 4]], EXACT)
    assert naive_charpoly(m).coeffs == (-2, -5, 1)
    assert naive_charpoly(SquareMatrix.from_rows([[7]], EXACT)).coeffs == (-7, 1)


def test_sturm_isolate_simple_roots():
    p = P(-6, 11, -6, 1)
    eps = F(1, 16)
    boxes = sturm_isolate_roots(p, eps)
    assert len(boxes) == 3
    for (lo, hi), root in zip(boxes, (1, 2, 3)):
        assert lo <= root <= hi
        assert hi - lo <= eps
    for (_, a), (b, _) in zip(boxes, boxes[1:]):
        assert a < b


def test_sturm_isolate_exact_midpoint():
    p = P(0, -1, 0, 1)  # x(x-1)(x+1)
    boxes = sturm_isolate_roots(p, F(1, 8))
    assert len(boxes) == 3
    assert (0, 0) in boxes
    assert boxes[0][0] <= -1 <= boxes[0][1]
    assert boxes[2][0] <= 1 <= boxes[2][1]


def test_sturm_isolate_validation():
    with pytest.raises(ValueError):
        sturm_isolate_roots(P(-1, 0, 1), 0)


def test_sturm_count_closed():
    p = P(5, -6, 1)  # (x-1)(x-5)
    assert sturm_count_closed(p, 1, 5) == 2
    assert sturm_count_closed(p, 1, 2) == 1
    assert sturm_count_closed(p, 2, 3) == 0
    assert sturm_count_closed(p, 1, 1) == 1
    assert sturm_count_closed(p, 0, 0) == 0
    # repeated roots count once
    sq = P(4, -4, 1)  # (x-2)^2
    assert sturm_count_closed(sq, 2, 2) == 1
    assert sturm_count_closed(sq, 0, 3) == 1
    with pytest.raises(ValueError):
        sturm_count_closed(p, 3, 1)


def test_sturm_count_closed_shares_no_chain_kernel(monkeypatch):
    # the oracle's gcd runs Euclid over Fraction, not the pipeline's
    # pseudo-remainder kernel
    def unused(*args):
        raise AssertionError("oracle ran kernels.int_prem")

    monkeypatch.setattr(kernels, "int_prem", unused)
    sq = P(4, -4, 1)  # (x-2)^2
    assert sturm_count_closed(sq * P(-1, 1), 0, 3) == 2

"""Tests of the benchmark's correctness checker.

    python3 -m pytest certbench/test_checker.py -q

The lost-root matrix has eigenvalues 0, 1e-9 and 3.  Bisection hits 0 as a
midpoint and skips eps/4 on either side of it, so eigencert's answer has no
interval holding 1e-9; the checker must reject that answer and accept the
one built from sympy's isolating intervals.
"""

import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mpmath  # noqa: E402
import pytest  # noqa: E402
import sympy  # noqa: E402

import checker  # noqa: E402
from eigencert import EXACT, SquareMatrix, cli, locate, refine_all  # noqa: E402

LOST_ROOT = [
    ["-3", "-12", "-6"],
    ["3", "11.999999999", "5.999999999"],
    ["-3", "-11.999999998", "-5.999999998"],
]
EPS = "1e-7"


@pytest.fixture(scope="module")
def ref():
    return checker.reference([[Fraction(v) for v in row] for row in LOST_ROOT])


def library_answer(tmp_path):
    located = locate(SquareMatrix.from_rows(LOST_ROOT, EXACT))
    final = refine_all(located.context, located.intervals, Fraction(EPS))
    return checker.answer_from_library(located, final, EPS)


def cli_answer(tmp_path):
    path = tmp_path / "lost.csv"
    path.write_text("".join(",".join(row) + "\n" for row in LOST_ROOT))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(path), "--format", "json", "--epsilon", EPS]) == 0
    return checker.answer_from_report(out.getvalue())


def sympy_answer(ref):
    isolated = ref.sqf.intervals(eps=sympy.Rational(1, 10**7))
    return checker.Answer(
        charpoly=list(ref.coeffs),
        sigma_h1=ref.real_roots,
        intervals=[(Fraction(str(lo)), Fraction(str(hi)), 1) for (lo, hi), _ in isolated],
        points=[],
        epsilon=Fraction(EPS),
    )


@pytest.mark.parametrize("solve", [library_answer, cli_answer])
def test_rejects_program_answer_on_lost_root(ref, tmp_path, solve):
    answer = solve(tmp_path)
    assert ref.real_roots == 3
    problems = checker.check(answer, ref)
    assert any("cover 2 of 3 real roots" in p for p in problems), problems


def test_accepts_sympy_answer_on_lost_root(ref):
    assert checker.check(sympy_answer(ref), ref) == []


def _drop_interval(a):
    a.intervals.pop(1)


def _widen(a):
    lo, hi, k = a.intervals[-1]
    a.intervals[-1] = (lo - 1, hi, k)


def _overclaim(a):
    lo, hi, k = a.intervals[-1]
    a.intervals[-1] = (lo, hi, k + 1)


def _empty_interval(a):
    a.intervals.append((Fraction(10), Fraction(10) + Fraction(1, 10**8), 0))


def _bad_point(a):
    a.points.append(Fraction(1, 2))


def _bad_sigma(a):
    a.sigma_h1 += 2


def _bad_coefficient(a):
    a.charpoly[0] += 1


@pytest.mark.parametrize("damage", [_drop_interval, _widen, _overclaim, _empty_interval,
                                    _bad_point, _bad_sigma, _bad_coefficient])
def test_rejects_each_broken_property(ref, damage):
    answer = sympy_answer(ref)
    damage(answer)
    assert checker.check(answer, ref)


def test_float_endpoints_are_read_exactly():
    ctx = mpmath.MPContext()
    ctx.prec = 256
    assert checker.mpf_value(ctx.mpf(-2.5)) == Fraction(-5, 2)
    assert checker.mpf_value(ctx.ldexp(ctx.mpf(3), 70)) == 3 * 2**70
    third = ctx.mpf(1) / 3
    assert abs(checker.mpf_value(third) - Fraction(1, 3)) < Fraction(1, 2**255)

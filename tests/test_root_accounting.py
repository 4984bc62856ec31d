"""Every real root is accounted for: the two root-loss reproducers.

A run that exits 0 claims that its final intervals and point eigenvalues
hold every real eigenvalue.  Two checks hold it to that claim:

* accounting: sigma(H_1), the number of distinct real roots, equals the
  distinct points (point intervals and point eigenvalues) plus the sum of
  min_root_count over the other final intervals;
* coverage: every root that oracle.sturm_isolate_roots finds lies in a
  final interval or is a point.

* 1,0 / 5,2 at epsilon 1e-3: the roots 1 and 2 are breakpoints, each the
  shared end of two candidates.  A root at a piece's end is a point, so
  the run reports [1, 1] and [2, 2] and accounts for both roots.
* The lost-root matrix, the first reproducer, has eigenvalues 0, 1e-9
  and 3.  At epsilon 1e-7 the midpoint 0 is a root, the Hermite step
  skips eps/4 on either side of it, and 1e-9 is lost; the run accounts
  for 2 of 3 roots.  Its tests stay strict xfails until the nudge goes
  (ROADMAP item 2(a)), which waits for the checker test that pins this
  answer to be mended (item 1(a)).

tests/test_refine.py runs the same check under Hypothesis on triangular
matrices under unimodular similarity, with eigenvalues on disk ends and
dyadic midpoints.
"""

import json
from fractions import Fraction as F

import pytest

from eigencert import cli
from eigencert.charpoly import SquareMatrix, charpoly
from eigencert.localize import locate
from eigencert.numerics import EXACT
from eigencert.oracle import square_free_part, sturm_count_closed, sturm_isolate_roots
from eigencert.refine import refine_all
from eigencert.report import text_scalar

lost_roots = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the eps/4 nudge at a midpoint root skips a root beside it (ROADMAP item 2(a), "
           "after item 1(a))",
)

REPRODUCERS = [
    pytest.param(
        [["-3", "-12", "-6"],
         ["3", "11.999999999", "5.999999999"],
         ["-3", "-11.999999998", "-5.999999998"]],
        "1e-7",
        id="root-beside-a-midpoint-root",
        marks=lost_roots,
    ),
    pytest.param([["1", "0"], ["5", "2"]], "1e-3", id="roots-at-breakpoints"),
]


def check_every_root_accounted(rows, sigma, points, finals):
    """finals: (lo, hi, min_root_count) of each final interval."""
    pointset = set(points) | {lo for lo, hi, _ in finals if lo == hi}
    counted = len(pointset) + sum(count for lo, hi, count in finals if lo != hi)
    assert counted == sigma, f"{counted} of {sigma} roots accounted for"
    p = square_free_part(charpoly(SquareMatrix.from_rows(rows, EXACT)))
    targets = [(lo, hi) for lo, hi, _ in finals] + [(x, x) for x in pointset]
    for lo, hi in sturm_isolate_roots(p, F(1, 2**80)):
        # [lo, hi] holds exactly one root; it is covered if a target shares it
        assert any(
            max(lo, a) <= min(hi, b) and sturm_count_closed(p, max(lo, a), min(hi, b))
            for a, b in targets
        ), f"no final interval or point holds the root in [{lo}, {hi}]"


@pytest.mark.parametrize("rows, epsilon", REPRODUCERS)
def test_library_accounts_for_every_root(rows, epsilon):
    located = locate(SquareMatrix.from_rows(rows, EXACT))
    final = refine_all(located.context, located.intervals, EXACT.convert(epsilon))
    check_every_root_accounted(
        rows,
        located.context.base_signature,
        located.points,
        [(iv.lo, iv.hi, iv.min_root_count) for iv in final],
    )


@pytest.mark.parametrize("rows, epsilon", REPRODUCERS)
def test_cli_accounts_for_every_root(rows, epsilon, tmp_path, capsys):
    path = tmp_path / "matrix.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    assert cli.main([str(path), "--epsilon", epsilon, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    check_every_root_accounted(
        rows,
        report["sigma_h1"],
        [text_scalar(x) for x in report["point_eigenvalues"]],
        [(text_scalar(iv["lo"]), text_scalar(iv["hi"]), iv["min_root_count"])
         for iv in report["final_intervals"]],
    )

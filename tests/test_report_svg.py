import dataclasses
import json
import random
from fractions import Fraction as F

import pytest

from eigencert.charpoly import SquareMatrix
from eigencert.localize import locate
from eigencert.numerics import EXACT, ParseError
from eigencert.refine import refine_all
from eigencert.report import (
    build_report,
    compute_metrics,
    from_dict,
    from_json,
    scalar_text,
    text_scalar,
    to_dict,
    to_json,
)
from eigencert.svg import render_svg
from tests.conftest import random_rational_matrix


def make_report(matrix, *, mode, eps_text="0.01"):
    res = locate(matrix)
    final = refine_all(res.context, res.intervals, eps_text)
    return build_report(res, final, epsilon_text=eps_text, mode=mode, wall_time=0.25)


@pytest.fixture(scope="module")
def worked_report(worked_exact):
    return make_report(worked_exact, mode="exact")


def test_scalar_text_round_trip():
    assert scalar_text(F(5, 2)) == "5/2"
    assert text_scalar("5/2") == F(5, 2)
    assert text_scalar("-0.125") == F(-1, 8)
    with pytest.raises(ParseError):
        text_scalar("widths")


def test_report_fields_worked(worked_report):
    rep = worked_report
    assert rep.n == 5
    assert rep.mode == "exact" and rep.bits is None
    assert rep.sigma_h1 == 3
    assert rep.characteristic_polynomial == ["-71/8", "-5/8", "-17", "99/4", "-37/4", "1"]
    assert len(rep.disks) == 5
    assert len(rep.initial_intervals) == 12
    assert len(rep.final_intervals) == 3
    assert rep.point_eigenvalues == []
    assert rep.metrics["candidate_interval_count"] == 12
    assert rep.metrics["final_interval_count"] == 3
    assert text_scalar(rep.metrics["max_width"]) <= F(1, 100)


def test_json_round_trip(worked_report):
    again = from_json(to_json(worked_report))
    assert again == worked_report
    assert to_dict(again) == to_dict(worked_report)


def test_json_round_trip_float(worked_float):
    rep = make_report(worked_float, mode="float")
    assert rep.bits is None
    again = from_json(to_json(rep))
    assert again == rep
    for rec in rep.final_intervals:
        assert text_scalar(rec.hi) - text_scalar(rec.lo) <= F(1, 100)


def test_metrics_recompute_is_stable(worked_report):
    rep = worked_report
    metrics = compute_metrics(rep.final_intervals, None)
    assert metrics["max_width"] == rep.metrics["max_width"]
    assert metrics["average_width"] == rep.metrics["average_width"]
    assert metrics["final_interval_count"] == 3


def test_from_dict_malformed():
    with pytest.raises(ParseError):
        from_dict({"n": 2})
    with pytest.raises(ParseError):
        from_json("{not json")


def test_svg_deterministic(worked_report):
    a = render_svg(worked_report)
    b = render_svg(from_json(to_json(worked_report)))
    assert a == b


def test_svg_shapes_worked(worked_report):
    svg = render_svg(worked_report)
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert svg.count('class="disk') == 5
    assert svg.count('class="disk certified"') == 4
    assert svg.count('class="disk empty"') == 1
    assert svg.count('class="interval"') == 3
    assert svg.count('class="refined"') == 3
    assert svg.count('class="eigenpoint"') == 0


def test_svg_point_eigenvalues():
    m = SquareMatrix.from_rows([[2, 0], [0, 3]], EXACT)
    rep = make_report(m, mode="exact")
    assert rep.point_eigenvalues == ["2", "3"]
    assert rep.metrics["max_width"] is None
    svg = render_svg(rep)
    assert svg.count('class="disk point"') == 2
    assert svg.count('class="eigenpoint"') == 2
    assert svg.count('class="interval"') == 0


LOST_ROOT = [
    ["-3", "-12", "-6"],
    ["3", "11.999999999", "5.999999999"],
    ["-3", "-11.999999998", "-5.999999998"],
]


def _guard_matrices(worked_exact):
    yield "worked", worked_exact
    yield "lost-root", SquareMatrix.from_rows(LOST_ROOT, EXACT)
    # row 2 is zero off the diagonal: the point eigenvalue 3
    yield "zero-row", SquareMatrix.from_rows([[1, 2, 0], [0, 3, 0], [4, -1, 2]], EXACT)
    rng = random.Random(9)
    for n in (2, 4, 6):
        yield f"seeded-{n}", random_rational_matrix(rng, n)


def test_to_dict_equals_asdict(worked_exact):
    # to_dict is written out field by field; a new field must reach it too
    for name, matrix in _guard_matrices(worked_exact):
        for eps in ("1e-7", "1e-30"):
            rep = make_report(matrix, mode="exact", eps_text=eps)
            expected = dataclasses.asdict(rep)
            data = to_dict(rep)
            assert data == expected and list(data) == list(expected), name
            assert to_json(rep) == json.dumps(expected, indent=2), name
            for key in ("disks", "initial_intervals", "final_intervals"):
                for record, plain in zip(getattr(rep, key), data[key]):
                    assert list(plain) == list(vars(record)), name
                    if "sources" in plain:
                        assert plain["sources"] is not record.sources, name

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencert import cli
from eigencert.charpoly import SquareMatrix
from eigencert.localize import locate
from eigencert.numerics import EXACT, ParseError
from eigencert.refine import refine_all
from eigencert.report import (
    DISK_KEYS,
    FINAL_KEYS,
    INTERVAL_KEYS,
    METRIC_KEYS,
    build_report,
    text_scalar,
    to_json,
)
from eigencert.svg import render_svg
from tests.conftest import WORKED_ROWS


def make_report(matrix, *, mode, eps_text="0.01"):
    res = locate(matrix)
    final = refine_all(res.context, res.intervals, eps_text)
    return build_report(res, final, epsilon_text=eps_text, mode=mode, wall_time=0.25)


@pytest.fixture(scope="module")
def worked_report(worked_exact):
    return make_report(worked_exact, mode="exact")


def test_scalar_text_round_trip():
    assert text_scalar(str(F(5, 2))) == F(5, 2)
    assert text_scalar("5/2") == F(5, 2)
    assert text_scalar("-0.125") == F(-1, 8)
    with pytest.raises(ParseError):
        text_scalar("widths")


def test_report_fields_worked(worked_report):
    rep = worked_report
    assert rep["n"] == 5
    assert rep["mode"] == "exact" and rep["bits"] is None
    assert rep["sigma_h1"] == 3
    assert rep["characteristic_polynomial"] == ["-71/8", "-5/8", "-17", "99/4", "-37/4", "1"]
    assert len(rep["disks"]) == 5
    assert len(rep["initial_intervals"]) == 12
    assert len(rep["final_intervals"]) == 3
    assert rep["point_eigenvalues"] == []
    metrics = rep["metrics"]
    assert metrics["candidate_interval_count"] == 12
    assert metrics["final_interval_count"] == 3
    widths = [text_scalar(t["hi"]) - text_scalar(t["lo"]) for t in rep["final_intervals"]]
    assert [t["width"] for t in rep["final_intervals"]] == [str(w) for w in widths]
    assert metrics["max_width"] == str(max(widths))
    assert metrics["average_width"] == str(sum(widths) / len(widths))
    assert max(widths) <= F(1, 100)


REPORT_KEYS = [
    "n", "mode", "bits", "epsilon", "characteristic_polynomial", "sigma_h1",
    "disks", "initial_intervals", "final_intervals", "point_eigenvalues", "metrics",
]


def test_json_key_order(worked_report):
    # the order the README documents; readers of the JSON see it as written
    data = json.loads(to_json(worked_report))
    assert list(data) == REPORT_KEYS
    assert list(data["disks"][0]) == ["row", "center", "radius", "verdict"]
    assert list(data["initial_intervals"][0]) == [
        "lo", "hi", "contains_real", "sigma_hq", "min_root_count", "sources",
    ]
    assert list(data["final_intervals"][0]) == ["lo", "hi", "width", "min_root_count", "sources"]
    assert list(data["metrics"]) == [
        "candidate_interval_count", "final_interval_count", "max_width",
        "average_width", "wall_time_seconds",
    ]


def test_json_round_trip(worked_report):
    assert json.loads(to_json(worked_report)) == worked_report


def test_json_round_trip_float(worked_float):
    rep = make_report(worked_float, mode="float")
    assert rep["bits"] is None
    assert json.loads(to_json(rep)) == rep
    for rec in rep["final_intervals"]:
        assert text_scalar(rec["hi"]) - text_scalar(rec["lo"]) <= F(1, 100)


# strings json escapes: quotes, backslashes, control, non-ASCII and astral
# characters, mixed with any others
TEXT = st.text(st.one_of(st.sampled_from('"\\/%\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
                         st.characters()), max_size=8)
SCALARS = st.one_of(
    TEXT,
    st.integers(-10**6, 10**6),
    st.integers(-(1 << 5000), 1 << 5000),
    st.sampled_from([True, False, None, 1e-06, 0.0, 123456.789, -(1 << 4999)]),
    st.floats(allow_nan=False, allow_infinity=False),
)


SOURCES = st.lists(st.integers(-5, 40), max_size=3)


def _record(keys):
    # the report's keys, or any others
    return st.one_of(
        st.fixed_dictionaries({key: SOURCES if key == "sources" else SCALARS for key in keys}),
        st.dictionaries(TEXT, st.one_of(SCALARS, SOURCES), min_size=1, max_size=4),
    )


def _records(keys):
    return st.lists(_record(keys), max_size=3)


# the report's schema: scalars, lists of strings, lists of records, metrics
REPORT_SHAPED = st.fixed_dictionaries({
    "n": SCALARS, "mode": SCALARS, "bits": SCALARS, "epsilon": SCALARS,
    "characteristic_polynomial": st.lists(TEXT, max_size=4), "sigma_h1": SCALARS,
    "disks": _records(DISK_KEYS), "initial_intervals": _records(INTERVAL_KEYS),
    "final_intervals": _records(FINAL_KEYS), "point_eigenvalues": st.lists(TEXT, max_size=3),
    "metrics": _record(METRIC_KEYS),
})


@settings(max_examples=300, derandomize=True, deadline=None)
@given(REPORT_SHAPED)
def test_to_json_matches_json_dumps(report):
    assert to_json(report) == json.dumps(report, indent=2)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("csv, epsilon", [
    ("\n".join(",".join(row) for row in WORKED_ROWS), "0.01"),
    ("1,2\n3,4", "1e-7"),
    # eigenvalues 2, 2, 3: a point eigenvalue and a repeated root
    ("2,0,1\n0,2,0\n0,0,3", "1e-30"),
    # an epsilon in Arabic-Indic digits is echoed into the report as \u escapes
    ("1,2\n3,4", "\u0661e-\u0667"),
], ids=["worked", "1234", "repeated", "unicode-epsilon"])
def test_to_json_of_cli_reports(tmp_path, csv, epsilon, mode):
    path = tmp_path / "m.csv"
    path.write_text(csv + "\n")
    report = cli.run(str(path), mode=mode, epsilon=epsilon)
    text = to_json(report)
    assert text == json.dumps(report, indent=2) and text.isascii()


def test_svg_deterministic(worked_report):
    a = render_svg(worked_report)
    b = render_svg(json.loads(to_json(worked_report)))
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
    assert rep["point_eigenvalues"] == ["2", "3"]
    assert rep["metrics"]["max_width"] is None
    svg = render_svg(rep)
    assert svg.count('class="disk point"') == 2
    assert svg.count('class="eigenpoint"') == 2
    assert svg.count('class="interval"') == 0


# a 1x1 matrix: one radius-zero disk, so the drawing's span is one point
ONE_POINT_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="900" height="120.00" '
    'viewBox="0 0 900 120.00">\n'
    '<line class="axis" x1="40" y1="60.00" x2="860" y2="60.00" stroke="#2c3e50" '
    'stroke-width="1"/>\n'
    '<circle class="disk point" cx="450.00" cy="60.00" r="2.00" stroke="#1a5276" '
    'fill="#d6eaf8" fill-opacity="0.55"/>\n'
    '<circle class="eigenpoint" cx="450.00" cy="60.00" r="4" fill="#1a5276"/>\n'
    '</svg>\n'
)


def test_svg_of_one_by_one_matrix(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("5\n")
    out = tmp_path / "one.svg"
    assert cli.main([str(path), "--svg", str(out)]) == 0
    capsys.readouterr()
    svg = out.read_bytes()
    assert svg == ONE_POINT_SVG.encode("ascii")
    assert svg.count(b'class="disk point"') == svg.count(b'class="eigenpoint"') == 1

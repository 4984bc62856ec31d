import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eigencert
from eigencert import cli
from eigencert.charpoly import SquareMatrix, charpoly
from eigencert.numerics import EXACT, InternalConsistencyError, ParseError
from eigencert.oracle import square_free_part, sturm_count_closed, sturm_isolate_roots
from tests.conftest import WORKED_ROWS, horner_calls


def write_worked_csv(tmp_path):
    path = tmp_path / "worked.csv"
    path.write_text("\n".join(",".join(row) for row in WORKED_ROWS) + "\n")
    return str(path)


def write_worked_json(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps({"matrix": WORKED_ROWS}))
    return str(path)


def test_parse_json_matrix():
    m = cli.parse_matrix_text('{"matrix": [["1.5", 2], [3, "-4"]]}', "exact")
    assert m.rows == ((F(3, 2), 2), (3, -4))


def test_parse_json_bare_float_exact_mode():
    with pytest.raises(ParseError, match="row 1, column 2"):
        cli.parse_matrix_text('{"matrix": [[1, 2.5], [3, 4]]}', "exact")


def test_parse_json_bare_float_float_mode():
    # a bare number is its binary double, exactly; decimal strings stay decimal
    m = cli.parse_matrix_text('{"matrix": [[1, 2.5], [0.1, "0.1"]]}', "float")
    assert all(type(v) is F for row in m.rows for v in row)
    assert m.rows == ((1, F(5, 2)), (F(0.1), F(1, 10)))
    assert F(0.1) != F(1, 10)


def test_parse_json_errors():
    with pytest.raises(ParseError, match="invalid JSON"):
        cli.parse_matrix_text("{not json", "exact")
    with pytest.raises(ParseError, match='"matrix" key'):
        cli.parse_matrix_text('{"rows": []}', "exact")
    with pytest.raises(ParseError, match="row 2 is not a list"):
        cli.parse_matrix_text('{"matrix": [[1], 2]}', "exact")
    with pytest.raises(ParseError, match="boolean"):
        cli.parse_matrix_text('{"matrix": [[true]]}', "exact")
    with pytest.raises(ParseError, match="square"):
        cli.parse_matrix_text('{"matrix": [[1, 2], [3]]}', "exact")
    for mode in ("exact", "float"):
        for token in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(ParseError, match=f"{token} is not a finite"):
                cli.parse_matrix_text(f'{{"matrix": [[{token}, 1], [1, 2]]}}', mode)


def test_parse_csv_matrix():
    m = cli.parse_matrix_text("1, 2\n-3.5, 4\n", "exact")
    assert m.rows == ((1, 2), (F(-7, 2), 4))


def test_parse_csv_errors():
    with pytest.raises(ParseError, match="no rows"):
        cli.parse_matrix_text("   \n  ", "exact")
    with pytest.raises(ParseError, match="row 2, column 1"):
        cli.parse_matrix_text("1, 2\nbogus, 4\n", "exact")


def test_load_matrix_missing_file():
    with pytest.raises(ParseError, match="cannot read"):
        cli.load_matrix("/no/such/file.csv", "exact")


def test_load_matrix_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.csv"
    path.write_bytes(b"\xff\xfe1,2\n3,4\n")
    with pytest.raises(ParseError, match="cannot read"):
        cli.load_matrix(str(path), "exact")
    assert cli.main([str(path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("write", [write_worked_csv, write_worked_json], ids=["csv", "json"])
def test_load_matrix_skips_a_byte_order_mark(tmp_path, capsys, write):
    """A UTF-8 file that starts with a byte-order mark, as Notepad and
    Excel's "CSV UTF-8" save it, gives the report of the same file without it."""
    path = Path(write(tmp_path))
    marked = tmp_path / f"bom{path.suffix}"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert cli.load_matrix(str(marked), "exact") == cli.load_matrix(str(path), "exact")
    reports = []
    for source in (path, marked):
        assert cli.main([str(source), "--epsilon", "0.01", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        data["metrics"].pop("wall_time_seconds")
        reports.append(data)
    assert reports[0] == reports[1]


def test_run_worked(tmp_path):
    report = cli.run(write_worked_csv(tmp_path), epsilon="0.01")
    assert report["mode"] == "exact" and report["bits"] is None
    assert len(report["final_intervals"]) == 3
    for rec in report["final_intervals"]:
        assert F(rec["width"]) <= F(1, 100)


def test_run_rejects_bad_epsilon(tmp_path):
    path = write_worked_csv(tmp_path)
    with pytest.raises(ParseError):
        cli.run(path, epsilon="0")
    with pytest.raises(ParseError):
        cli.run(path, epsilon="two")


def test_main_text_output(tmp_path, capsys):
    assert cli.main([write_worked_csv(tmp_path), "--epsilon", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "5 x 5 matrix, exact mode" in out
    assert "refined intervals (epsilon = 0.01):" in out
    assert "contains real" in out
    assert "3 final intervals, max width " in out
    # no final interval: a point eigenvalue, or no real eigenvalue at all
    for text in ("5\n", "0,0\n0,0\n", "0,-1\n1,0\n"):
        path = tmp_path / "none.csv"
        path.write_text(text)
        assert cli.main([str(path)]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert " 0 final intervals, wall time " in summary
        assert "None" not in summary


def test_main_json_output(tmp_path, capsys):
    code = cli.main([write_worked_json(tmp_path), "--epsilon", "0.01", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sigma_h1"] == 3
    assert len(data["final_intervals"]) == 3


def test_main_float_mode(tmp_path, capsys):
    code = cli.main(
        [write_worked_json(tmp_path), "--mode", "float", "--epsilon", "0.01",
         "--format", "json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "float" and data["bits"] is None
    assert len(data["final_intervals"]) == 3


def one_place_rows(seed):
    rng = random.Random(seed)
    n = 2 + seed % 6
    return [["%.1f" % (rng.randint(-99, 99) / 10) for _ in range(n)] for _ in range(n)]


def test_main_float_equals_exact_on_decimal_text(tmp_path, capsys):
    # both modes read decimal text exactly, so they certify the same matrix
    for k, rows in enumerate([WORKED_ROWS] + [one_place_rows(seed) for seed in range(20)]):
        csv_path = tmp_path / f"m{k}.csv"
        csv_path.write_text("".join(",".join(row) + "\n" for row in rows))
        json_path = tmp_path / f"m{k}.json"
        json_path.write_text(json.dumps({"matrix": rows}))
        for path in (csv_path, json_path):
            reports = {}
            for mode in ("exact", "float"):
                assert cli.main([str(path), "--mode", mode, "--format", "json"]) == 0
                data = json.loads(capsys.readouterr().out)
                assert data.pop("mode") == mode
                data["metrics"].pop("wall_time_seconds")
                reports[mode] = data
            assert reports["float"] == reports["exact"], path.name


def test_main_float_bare_json_number_is_its_double(tmp_path, capsys):
    path = tmp_path / "floaty.json"
    path.write_text('{"matrix": [[0.1, 1], [1, 0.3]]}')
    assert cli.main([str(path), "--mode", "float", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    p = charpoly(SquareMatrix.from_rows([[F(0.1), 1], [1, F(0.3)]], EXACT))
    assert data["characteristic_polynomial"] == [str(c) for c in p.coeffs]
    decimal = charpoly(SquareMatrix.from_rows([["0.1", 1], [1, "0.3"]], EXACT))
    assert p.coeffs != decimal.coeffs


def test_main_writes_svg(tmp_path, capsys):
    svg_path = tmp_path / "out.svg"
    code = cli.main(
        [write_worked_csv(tmp_path), "--epsilon", "0.05", "--svg", str(svg_path)]
    )
    assert code == 0
    capsys.readouterr()
    assert svg_path.read_text().startswith("<svg ")


def test_main_json_deterministic(tmp_path, capsys):
    path = write_worked_csv(tmp_path)
    outputs = []
    for _ in range(2):
        assert cli.main([path, "--epsilon", "0.01", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        data["metrics"].pop("wall_time_seconds")
        outputs.append(data)
    assert outputs[0] == outputs[1]


def test_main_parser_is_shared_but_runs_are_independent(tmp_path, capsys):
    assert cli.build_arg_parser() is cli.build_arg_parser()
    path = write_worked_csv(tmp_path)
    svg_path = tmp_path / "out.svg"
    assert cli.main([path, "--epsilon", "0.05", "--svg", str(svg_path), "--format", "json"]) == 0
    first = json.loads(capsys.readouterr().out)
    svg_path.unlink()
    assert cli.main([path, "--epsilon", "0.01"]) == 0
    second = capsys.readouterr().out
    # the second run neither writes the first one's SVG nor keeps its options
    assert not svg_path.exists()
    assert second.startswith("5 x 5 matrix, exact mode")
    assert "refined intervals (epsilon = 0.01)" in second
    assert first["epsilon"] == "0.05"


MALFORMED = [
    # id, file name, text, extra arguments, part of the message
    ("empty-cell", "m.csv", "1,,2\n3,4,5\n6,7,8\n", [], "row 1, column 2"),
    ("fraction-syntax", "m.csv", "1/2,1\n1,1\n", [], "not a decimal literal: '1/2'"),
    ("json-null", "m.json", '{"matrix": [[1, null], [1, 2]]}', [],
     "null at row 1, column 2 is not a matrix entry"),
    ("object-entry", "m.json", '{"matrix": [[1, 2], [{"v": 3}, 4]]}', [], "row 2, column 1"),
    ("flat-matrix", "m.json", '{"matrix": [1, 2, 3, 4]}', [], "row 1 is not a list"),
    ("top-level-array", "m.json", "[[1, 2], [3, 4]]", [], 'an object with a "matrix" key'),
    ("empty-matrix", "m.json", '{"matrix": []}', [], "matrix must be a non-empty list of rows"),
    ("scalar-matrix", "m.json", '{"matrix": 3}', [], "matrix must be a non-empty list of rows"),
    ("semicolon-rows", "m.csv", "1;2\n3;4\n", [], "not a decimal literal: '1;2'"),
    ("non-square", "m.csv", "1, 2\n3\n", [], "square"),
    ("bare-float-exact", "m.json", '{"matrix": [[0.1, 1], [1, 0.3]]}', [],
     "pass a decimal string instead (at row 1, column 1)"),
    ("bare-overflow-float", "m.json", '{"matrix": [[1, 2], [3, 1e400]]}',
     ["--mode", "float"], "row 2, column 2 overflows a double"),
    # more digits than int() converts
    ("long-csv-entry", "m.csv", "1," + "1" * 5000 + "\n1,1\n", [], "has too many digits"),
    ("long-json-integer", "m.json", '{"matrix": [[1, ' + "1" * 5000 + '], [1, 1]]}', [],
     "has too many digits"),
    ("long-epsilon", "m.csv", "1,2\n3,4\n", ["--epsilon", "0." + "1" * 5000],
     "has too many digits"),
    # an exponent asks for 10**|e|: the value, not the text, is too long
    ("huge-exponent-epsilon", "m.csv", "1,2\n3,4\n", ["--epsilon", "1e-100000"],
     "has too many digits"),
    ("huge-exponent-csv-entry", "m.csv", "1,1e10000000\n1,1\n", [], "has too many digits"),
]


@pytest.mark.parametrize("name, text, argv, fragment",
                         [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_main_malformed_input_exit_2(tmp_path, capsys, name, text, argv, fragment):
    path = tmp_path / name
    path.write_text(text)
    assert cli.main([str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eigencert: input error:") and err.count("\n") == 1
    assert fragment in err
    assert "None" not in err  # JSON says null


# the whole stderr line of an input error, {path} standing for the file
INPUT_ERROR_LINES = [
    ("bad-csv-cell", "m.csv", "1,x2\n3,4\n", [],
     "not a decimal literal: 'x2' (at row 1, column 2)"),
    ("bad-json-string", "m.json", '{"matrix": [[1, "2/3"], [3, 4]]}', [],
     "not a decimal literal: '2/3' (at row 1, column 2)"),
    ("json-true", "m.json", '{"matrix": [[1, 2], [true, 4]]}', [],
     "boolean at row 2, column 1 is not a matrix entry"),
    ("json-null", "m.json", '{"matrix": [[1, null], [3, 4]]}', [],
     "null at row 1, column 2 is not a matrix entry"),
    ("json-object", "m.json", '{"matrix": [[1, 2], [{"m": 3}, 4]]}', [],
     "object at row 2, column 1 is not a matrix entry"),
    ("json-array", "m.json", '{"matrix": [[1, [2]], [3, 4]]}', [],
     "array at row 1, column 2 is not a matrix entry"),
    ("bare-float-exact", "m.json", '{"matrix": [[1, 2.5], [3, 4]]}', [],
     "refusing binary float 2.5 in exact mode; pass a decimal string instead "
     "(at row 1, column 2)"),
    ("bare-overflow-float", "m.json", '{"matrix": [[1, 2], [3, 1e400]]}', ["--mode", "float"],
     "bare JSON number at row 2, column 2 overflows a double"),
    ("short-row", "m.csv", "1,2,3\n4,5\n6,7,8\n", [],
     "{path}: matrix must be square; row of length 2 in a matrix with 3 rows"),
    ("bad-epsilon", "m.csv", "1,2\n3,4\n", ["--epsilon", "x"],
     "--epsilon: not a decimal literal: 'x'"),
    ("huge-exponent-epsilon", "m.csv", "1,2\n3,4\n", ["--epsilon", "1e-100000"],
     "--epsilon: decimal literal of 9 characters has too many digits "
     "(its exact value needs more than 4300)"),
    ("zero-epsilon", "m.csv", "1,2\n3,4\n", ["--epsilon", "0"],
     "--epsilon: must be positive, got '0'"),
    ("negative-epsilon", "m.csv", "1,2\n3,4\n", ["--epsilon", "-1"],
     "--epsilon: must be positive, got '-1'"),
]


@pytest.mark.parametrize("name, text, argv, line",
                         [case[1:] for case in INPUT_ERROR_LINES],
                         ids=[case[0] for case in INPUT_ERROR_LINES])
def test_main_input_error_line(tmp_path, capsys, name, text, argv, line):
    path = tmp_path / name
    path.write_text(text)
    assert cli.main([str(path), *argv]) == 2
    expected = "eigencert: input error: " + line.format(path=path) + "\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("target", ["missing/out.svg", "."], ids=["missing-dir", "directory"])
def test_main_svg_unwritable_exit_2(tmp_path, capsys, target):
    svg = tmp_path / target
    assert cli.main([write_worked_csv(tmp_path), "--epsilon", "0.05", "--svg", str(svg)]) == 2
    assert capsys.readouterr().err.startswith(f"eigencert: input error: cannot write {svg}: ")


def test_main_missing_file_exit_2(capsys):
    assert cli.main(["/no/such/file.csv"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "csv, epsilon, cause",
    [
        # the final cells of 1e-700 need more digits than the lowered limit
        ("1,2\n3,4\n", "1e-700", "--epsilon 1e-700 is too small"),
        # the charpoly of diag(10^400, 10^400) has the coefficient 10^800
        (f"{10**400},0\n0,{10**400}\n", "1e-7", "the matrix entries are too large"),
    ],
    ids=["tiny-epsilon", "huge-entries"],
)
def test_main_epsilon_past_digit_limit_exit_2(tmp_path, capsys, csv, epsilon, cause):
    # the report cannot be written once a number passes the lowered limit
    # on int -> str digits
    path = tmp_path / "m.csv"
    path.write_text(csv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = cli.main([str(path), "--epsilon", epsilon, "--format", "json"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"eigencert: input error: {cause}")
    assert captured.err.count("\n") == 1


def test_main_epsilon_refusal_after_few_horner_calls(tmp_path, capsys):
    """Both roots of [[1, 2], [3, 4]] take about 14,280 halvings to 1e-4299,
    whose cells need more digits than the report may print; the refusal
    comes after fewer than 200 integer Horner calls, locate's included."""
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    with horner_calls() as calls:
        assert cli.main([str(path), "--epsilon", "1e-4299"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("eigencert: input error: --epsilon 1e-4299 is too small")
    assert captured.err.count("\n") == 1
    assert len(calls) < 200


@pytest.mark.parametrize(
    "csv", ["1e400,1\n1,2\n", "1.7e308,1\n1,-1.7e308\n"], ids=["value", "span"]
)
def test_main_svg_beyond_double_range_exit_2(tmp_path, capsys, csv):
    # the run certifies these entries exactly; only the picture needs doubles
    path = tmp_path / "m.csv"
    path.write_text(csv)
    svg = tmp_path / "out.svg"
    assert cli.main([str(path), "--svg", str(svg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("eigencert: input error: --svg cannot draw")
    assert captured.err.count("\n") == 1
    assert not svg.exists()


def test_main_epsilon_error_exit_2(tmp_path, capsys):
    assert cli.main([write_worked_csv(tmp_path), "--epsilon", "-1"]) == 2
    assert "epsilon" in capsys.readouterr().err


def test_main_bits_below_minimum_exit_2(tmp_path, capsys):
    # --bits is gone: float mode reads its input exactly, at any value
    path = write_worked_csv(tmp_path)
    for bits in ("10", "256"):
        with pytest.raises(SystemExit) as exc:
            cli.main([path, "--mode", "float", "--bits", bits])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bits" in capsys.readouterr().err


def test_main_float_wide_range_certified(tmp_path, capsys):
    # roots near 1e40 and -1e-3: 256-bit float signatures could not separate
    # them; the exact entries can
    rows = [["1e40", "1"], ["1", "-1e-3"]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"matrix": rows}))
    assert cli.main([str(path), "--mode", "float", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sigma_h1"] == 2 and len(data["final_intervals"]) == 2
    p = charpoly(SquareMatrix.from_rows(rows, EXACT))
    for rec in data["final_intervals"]:
        assert sturm_count_closed(p, F(rec["lo"]), F(rec["hi"])) == 1


def test_main_float_repeated_eigenvalue(tmp_path, capsys):
    # eigenvalues 2, 2, 3: float signatures of the singular H_1 disagreed
    path = tmp_path / "repeated.csv"
    path.write_text("2,0,1\n0,2,0\n0,0,3\n")
    assert cli.main([str(path), "--mode", "float", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sigma_h1"] == 2
    assert data["point_eigenvalues"] == ["2", "3"]
    rows = [[2, 0, 1], [0, 2, 0], [0, 0, 3]]
    p = square_free_part(charpoly(SquareMatrix.from_rows(rows, EXACT)))
    roots = sturm_isolate_roots(p, F(1, 10**12))
    assert roots == [(2, 2), (3, 3)]
    assert data["final_intervals"]
    for rec in data["final_intervals"]:
        lo, hi = F(rec["lo"]), F(rec["hi"])
        assert any(lo <= a and b <= hi for a, b in roots), (lo, hi)


def test_main_internal_error_exit_4(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalConsistencyError("bisection failed to converge")

    monkeypatch.setattr(cli, "run", boom)
    assert cli.main([write_worked_csv(tmp_path)]) == 4
    assert "internal consistency" in capsys.readouterr().err


def test_main_rejects_unknown_mode(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main([write_worked_csv(tmp_path), "--mode", "interval"])
    capsys.readouterr()


def test_run_is_a_lazy_package_attribute():
    from eigencert import run

    assert run is cli.run and eigencert.run is cli.run
    with pytest.raises(AttributeError, match="no_such_name"):
        eigencert.no_such_name


def test_package_all_resolves():
    for name in eigencert.__all__:
        assert getattr(eigencert, name) is not None, name


def test_module_entry_point_warns_nothing(tmp_path):
    # importing the package must not import eigencert.cli ahead of `-m`
    src = str(Path(eigencert.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "eigencert.cli",
         write_worked_csv(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("5 x 5 matrix, exact mode")


@pytest.mark.parametrize("name, text, argv, prefix", [
    ("m.csv", "1," + "1" * 700 + "\n1,1\n", [], ""),
    ("m.json", '{"matrix": [[1, "' + "1" * 700 + '"], [1, 1]]}', [], ""),
    ("m.csv", "1,2\n3,4\n", ["--epsilon", "0." + "1" * 700], "--epsilon: "),
], ids=["csv-cell", "json-string", "epsilon"])
def test_main_decimal_past_lowered_digit_limit_exit_2(tmp_path, name, text, argv, prefix):
    # 700 digits are within MAX_DECIMAL_DIGITS but past the child's limit on
    # str -> int conversion, which the environment lowers to 640
    path = tmp_path / name
    path.write_text(text)
    src = str(Path(eigencert.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "PYTHONINTMAXSTRDIGITS": "640"}
    done = subprocess.run(
        [sys.executable, "-m", "eigencert.cli", str(path), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith(f"eigencert: input error: {prefix}decimal literal of ")
    assert done.stderr.count("\n") == 1
    assert "more digits than the interpreter converts (640)" in done.stderr


# Run with mpmath unimportable: the CLI in both modes, and locate plus
# refine_all on a float_backend(256) matrix, each against exact mode.
STDLIB_ONLY = """
import contextlib, io, json, sys
sys.modules["mpmath"] = None
from eigencert import EXACT, SquareMatrix, cli, float_backend, locate, refine_all

def report(mode):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([sys.argv[1], "--mode", mode, "--epsilon", "1e-9", "--format", "json"])
    data = json.loads(out.getvalue())
    return code, {k: v for k, v in data.items() if k not in ("mode", "metrics")}

def solve(backend):
    located = locate(SquareMatrix.from_rows(ROWS, backend))
    final = refine_all(located.context, located.intervals, EXACT.convert("1e-9"))
    return located.points, [(iv.lo, iv.hi, iv.min_root_count, iv.sources) for iv in final]

ROWS = json.load(open(sys.argv[1]))["matrix"]
exact, floated = report("exact"), report("float")
print(exact[0], floated[0], floated == exact, solve(float_backend(256)) == solve(EXACT))
"""


def test_import_does_not_load_mpmath(tmp_path):
    src = str(Path(eigencert.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, eigencert, eigencert.cli; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0 and done.stdout == "False\n", done.stderr
    # the library runs on the standard library alone
    done = subprocess.run(
        [sys.executable, "-c", STDLIB_ONLY, write_worked_json(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0 and done.stdout == "0 0 True True\n", done.stderr


# Cell text: valid decimals and near misses, non-ASCII digits among them.
# Exponents stay small: a valid input with huge entries is slow, not wrong.
VALID_CELL = st.integers(-9, 9).map(str) | st.sampled_from(
    ["0.5", "-1.25", "1e2", "2E-3", "+3", ".5", "5.", "1e-30"])
CELL_TEXT = st.one_of(
    VALID_CELL,
    st.sampled_from(["1e", "--1", "1.2.3", "", " ", "nan", "inf", "-Infinity", "1_0", "0x1F",
                     "1/2", "٣", "１", "١.٥", "2\u00a0", "1e30"]),
    st.text(alphabet="0123456789.-+ ٣１x", max_size=6),
)
JSON_ENTRY = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-9, 9), CELL_TEXT,
              st.floats(-1e3, 1e3) | st.sampled_from([math.nan, math.inf, -math.inf])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["matrix", "m"]), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def matrix_texts(draw):
    """(file name, text), n <= 4: a valid CSV or JSON matrix with at most
    one bad cell, or one of any cells, square or ragged, in the right or a
    wrong shape; either may be cut short."""
    n = draw(st.integers(1, 4))
    as_json = draw(st.booleans())
    if draw(st.integers(0, 2)):
        rows = [draw(st.lists(VALID_CELL, min_size=n, max_size=n)) for _ in range(n)]
        if draw(st.booleans()):
            bad = JSON_ENTRY if as_json else CELL_TEXT
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(bad)
    else:
        cell = JSON_ENTRY if as_json else CELL_TEXT
        rows = [draw(st.lists(cell, min_size=max(n - 1, 1), max_size=n + 1)) for _ in range(n)]
    if as_json:
        shape = draw(st.sampled_from(["object", "object", "bare-list", "nested"]))
        data = {"object": {"matrix": rows}, "bare-list": rows,
                "nested": {"matrix": [rows]}}[shape]
        text = json.dumps(data, ensure_ascii=draw(st.booleans()))
    else:
        text = "\n".join(",".join(row) for row in rows) + "\n"
    if draw(st.integers(0, 3)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return ("m.json" if as_json else "m.csv"), text


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(matrix_texts(), st.sampled_from(["exact", "float"]), st.sampled_from(["json", "text"]),
       st.booleans(),
       st.sampled_from(["1e-3", "1e-7"]) | st.sampled_from(
           ["", "x", "0", "-1e-3", "nan", "inf", "1e", "1/1000", "1e-3e", "٣e-3"]))
def test_main_fuzzed_input_exits_0_or_2(tmp_path, capsys, named_text, mode, fmt, columns,
                                        epsilon):
    """Malformed and near-valid input exits 0 or 2, with at most one line
    on stderr and never a traceback."""
    name, text = named_text
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    # the = form keeps argparse from taking a value such as -1e-3 for an option
    argv = [str(path), "--mode", mode, "--format", fmt, f"--epsilon={epsilon}"]
    code = cli.main(argv + ["--column-disks"] * columns)
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert err == "" or (err.count("\n") == 1 and err.endswith("\n")), err
    assert "Traceback" not in err

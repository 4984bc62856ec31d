import json
from fractions import Fraction as F

import pytest

from eigencert import cli
from eigencert.charpoly import SquareMatrix, charpoly
from eigencert.numerics import (
    EXACT,
    InternalConsistencyError,
    ParseError,
    exact_value,
    float_backend,
)
from eigencert.oracle import sturm_count_closed, sturm_isolate_roots
from eigencert.poly import square_free_part
from tests.conftest import WORKED_ROWS


def write_worked_csv(tmp_path):
    path = tmp_path / "worked.csv"
    path.write_text("\n".join(",".join(row) for row in WORKED_ROWS) + "\n")
    return str(path)


def write_worked_json(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps({"matrix": WORKED_ROWS}))
    return str(path)


def test_parse_json_matrix():
    m = cli.parse_matrix_text('{"matrix": [["1.5", 2], [3, "-4"]]}', EXACT)
    assert m.rows == ((F(3, 2), 2), (3, -4))


def test_parse_json_bare_float_exact_mode():
    with pytest.raises(ParseError, match="row 1, column 2"):
        cli.parse_matrix_text('{"matrix": [[1, 2.5], [3, 4]]}', EXACT)


def test_parse_json_bare_float_float_mode():
    fb = float_backend(64)
    m = cli.parse_matrix_text('{"matrix": [[1, 2.5], [3, 4]]}', fb)
    assert m.rows[0][1] == fb.convert("2.5")


def test_parse_json_errors():
    with pytest.raises(ParseError, match="invalid JSON"):
        cli.parse_matrix_text("{not json", EXACT)
    with pytest.raises(ParseError, match='"matrix" key'):
        cli.parse_matrix_text('{"rows": []}', EXACT)
    with pytest.raises(ParseError, match="row 2 is not a list"):
        cli.parse_matrix_text('{"matrix": [[1], 2]}', EXACT)
    with pytest.raises(ParseError, match="boolean"):
        cli.parse_matrix_text('{"matrix": [[true]]}', EXACT)
    with pytest.raises(ParseError, match="square"):
        cli.parse_matrix_text('{"matrix": [[1, 2], [3]]}', EXACT)
    for backend in (EXACT, float_backend(256)):
        for token in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(ParseError, match=f"{token} is not a finite"):
                cli.parse_matrix_text(f'{{"matrix": [[{token}, 1], [1, 2]]}}', backend)


def test_parse_csv_matrix():
    m = cli.parse_matrix_text("1, 2\n-3.5, 4\n", EXACT)
    assert m.rows == ((1, 2), (F(-7, 2), 4))


def test_parse_csv_errors():
    with pytest.raises(ParseError, match="no rows"):
        cli.parse_matrix_text("   \n  ", EXACT)
    with pytest.raises(ParseError, match="row 2, column 1"):
        cli.parse_matrix_text("1, 2\nbogus, 4\n", EXACT)


def test_load_matrix_missing_file():
    with pytest.raises(ParseError, match="cannot read"):
        cli.load_matrix("/no/such/file.csv", EXACT)


def test_load_matrix_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.csv"
    path.write_bytes(b"\xff\xfe1,2\n3,4\n")
    with pytest.raises(ParseError, match="cannot read"):
        cli.load_matrix(str(path), EXACT)
    assert cli.main([str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_run_worked(tmp_path):
    report = cli.run(write_worked_csv(tmp_path), epsilon="0.01")
    assert report.mode == "exact" and report.bits is None
    assert len(report.final_intervals) == 3
    for rec in report.final_intervals:
        assert F(rec.width) <= F(1, 100)


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


def test_main_json_output(tmp_path, capsys):
    code = cli.main([write_worked_json(tmp_path), "--epsilon", "0.01", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sigma_h1"] == 3
    assert len(data["final_intervals"]) == 3


def test_main_float_mode(tmp_path, capsys):
    code = cli.main(
        [write_worked_json(tmp_path), "--mode", "float", "--bits", "128",
         "--epsilon", "0.01", "--format", "json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "float" and data["bits"] == 128
    assert len(data["final_intervals"]) == 3


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


def test_main_input_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1, 2\n3\n")
    assert cli.main([str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


def test_main_bare_float_exact_exit_2(tmp_path, capsys):
    path = tmp_path / "floaty.json"
    path.write_text('{"matrix": [[0.1, 1], [1, 0.3]]}')
    assert cli.main([str(path)]) == 2
    assert "decimal string" in capsys.readouterr().err
    # the same file is fine in float mode
    assert cli.main([str(path), "--mode", "float", "--epsilon", "0.1"]) == 0
    capsys.readouterr()


def test_main_missing_file_exit_2(capsys):
    assert cli.main(["/no/such/file.csv"]) == 2
    capsys.readouterr()


def test_main_epsilon_error_exit_2(tmp_path, capsys):
    assert cli.main([write_worked_csv(tmp_path), "--epsilon", "-1"]) == 2
    assert "epsilon" in capsys.readouterr().err


def test_main_bits_below_minimum_exit_2(tmp_path, capsys):
    path = write_worked_csv(tmp_path)
    assert cli.main([path, "--mode", "float", "--bits", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eigencert: input error:") and "bits" in err


def exact_charpoly_as_rounded(rows, bits):
    """Exact charpoly of the matrix whose entries are rows rounded to bits."""
    rounded = SquareMatrix.from_rows(rows, float_backend(bits))
    values = [[exact_value(v) for v in row] for row in rounded.rows]
    return charpoly(SquareMatrix.from_rows(values, EXACT))


def test_main_float_wide_range_certified(tmp_path, capsys):
    # roots near 1e40 and -1e-3: 256-bit float signatures could not separate
    # them; the exact values of the rounded entries can
    rows = [["1e40", "1"], ["1", "-1e-3"]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"matrix": rows}))
    assert cli.main([str(path), "--mode", "float", "--bits", "256", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sigma_h1"] == 2 and len(data["final_intervals"]) == 2
    p = exact_charpoly_as_rounded(rows, 256)
    for rec in data["final_intervals"]:
        assert sturm_count_closed(p, F(rec["lo"]), F(rec["hi"])) == 1


def test_main_float_repeated_eigenvalue(tmp_path, capsys):
    # eigenvalues 2, 2, 3: float signatures of the singular H_1 disagreed
    path = tmp_path / "repeated.csv"
    path.write_text("2,0,1\n0,2,0\n0,0,3\n")
    assert cli.main([str(path), "--mode", "float", "--bits", "256", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sigma_h1"] == 2
    assert data["point_eigenvalues"] == ["2", "3"]
    p = square_free_part(exact_charpoly_as_rounded([[2, 0, 1], [0, 2, 0], [0, 0, 3]], 256))
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

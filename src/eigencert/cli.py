"""Command-line interface.

    eigencert MATRIX [--mode exact|float] [--epsilon E]
              [--format json|text] [--svg PATH] [--column-disks]

MATRIX is a path to either a JSON file {"matrix": [[...], ...]} or a CSV
file with one row per line.  Both modes read integers and decimal text
(CSV cells, JSON strings) exactly, and certify the matrix in the file.
They differ only on bare non-integer JSON numbers: exact mode refuses
them (a literal like 0.1 has no exact binary double - send decimal
strings instead), float mode takes the exact value of the double the
literal denotes.

Exit codes: 0 success, 2 bad input, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction

from eigencert.charpoly import SquareMatrix
from eigencert.localize import locate
from eigencert.numerics import (
    EXACT,
    InternalConsistencyError,
    ParseError,
    parse_decimal,
)
from eigencert.refine import refine_all
from eigencert.report import build_report, to_json
from eigencert.svg import render_svg


# JSON values that are no scalar, by their names in JSON
_NOT_SCALARS = {bool: "boolean", type(None): "null", list: "array", dict: "object"}


def _convert_entry(value, mode: str, i: int, j: int) -> Fraction:
    """Entry (i, j) of the matrix, counted from 0, as an exact Fraction."""
    if value.__class__ is int:  # not bool, which is refused below
        return Fraction(value)
    kind = _NOT_SCALARS.get(value.__class__)
    if kind is not None:
        raise ParseError(f"{kind} at {_where(i, j)} is not a matrix entry")
    if isinstance(value, float) and mode == "float":
        if not math.isfinite(value):
            raise ParseError(f"bare JSON number at {_where(i, j)} overflows a double")
        return Fraction(value)
    try:
        return parse_decimal(value) if value.__class__ is str else EXACT.convert(value)
    except ParseError as exc:
        raise ParseError(f"{exc} (at {_where(i, j)})") from exc


def _where(i: int, j: int) -> str:
    return f"row {i + 1}, column {j + 1}"


def parse_matrix_text(text: str, mode: str, *, source: str = "input") -> SquareMatrix:
    """Parse JSON or CSV matrix text into an exact SquareMatrix.

    mode is "exact" or "float"; only float mode accepts bare non-integer
    JSON numbers, as the exact values of their doubles.
    """
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):

        def non_finite(token):
            raise ParseError(f"{source}: {token} is not a finite matrix entry")

        try:
            data = json.loads(text, parse_constant=non_finite)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{source}: invalid JSON: {exc}") from exc
        except ParseError:
            raise
        except ValueError:  # an integer with more digits than int() converts
            raise ParseError(f"{source}: a JSON number has too many digits") from None
        if not isinstance(data, dict) or "matrix" not in data:
            raise ParseError(f'{source}: expected an object with a "matrix" key')
        rows = data["matrix"]
        if not isinstance(rows, list) or not rows:
            raise ParseError(f"{source}: matrix must be a non-empty list of rows")
        converted = []
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise ParseError(f"{source}: row {i + 1} is not a list")
            converted.append([_convert_entry(v, mode, i, j) for j, v in enumerate(row)])
    else:
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ParseError(f"{source}: no rows found")
        converted = [
            [_convert_entry(c.strip(), mode, i, j) for j, c in enumerate(line.split(","))]
            for i, line in enumerate(lines)
        ]
    try:
        return SquareMatrix.from_rows(converted, EXACT)
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def load_matrix(path: str, mode: str) -> SquareMatrix:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_matrix_text(text, mode, source=path)


def run(path: str, *, mode: str = "exact", epsilon: str = "1e-7",
        column_disks: bool = False) -> dict:
    """Parse, localize, refine; returns the report as its JSON object."""
    try:
        eps_exact = parse_decimal(epsilon)
    except ParseError as exc:
        raise ParseError(f"--epsilon: {exc}") from exc
    if not eps_exact > 0:
        raise ParseError(f"--epsilon: must be positive, got {epsilon!r}")
    matrix = load_matrix(path, mode)
    started = time.perf_counter()
    located = locate(matrix, column_disks=column_disks)
    final = refine_all(located.context, located.intervals, eps_exact)
    wall = time.perf_counter() - started
    return build_report(
        located,
        final,
        epsilon_text=epsilon,
        mode=mode,
        wall_time=round(wall, 6),
    )


def render_text(report: dict) -> str:
    n = report["n"]
    lines = []
    lines.append(f"{n} x {n} matrix, {report['mode']} mode")
    desc = ", ".join(
        f"{c}*x^{k}" if k else str(c)
        for k, c in reversed(list(enumerate(report["characteristic_polynomial"])))
    )
    lines.append(f"characteristic polynomial: {desc}")
    lines.append(f"distinct real eigenvalues (sigma of H1): {report['sigma_h1']}")
    lines.append("")
    lines.append("Gershgorin disks:")
    for d in report["disks"]:
        lines.append(
            f"  row {d['row'] + 1}: center {d['center']}, radius {d['radius']} -> {d['verdict']}"
        )
    lines.append("")
    lines.append("candidate intervals:")
    if not report["initial_intervals"]:
        lines.append("  (none)")
    for t in report["initial_intervals"]:
        verdict = "contains real" if t["contains_real"] else "empty"
        lines.append(
            f"  [{t['lo']}, {t['hi']}] sigma={t['sigma_hq']} -> {verdict}"
            + (f" (>= {t['min_root_count']} inside)" if t["contains_real"] else "")
        )
    lines.append("")
    lines.append(f"refined intervals (epsilon = {report['epsilon']}):")
    if not report["final_intervals"]:
        lines.append("  (none)")
    for t in report["final_intervals"]:
        lines.append(f"  [{t['lo']}, {t['hi']}] width {t['width']}")
    if report["point_eigenvalues"]:
        lines.append("")
        lines.append("point eigenvalues: " + ", ".join(report["point_eigenvalues"]))
    m = report["metrics"]
    # no final interval, no width
    width = f"max width {m['max_width']}, " if m["max_width"] is not None else ""
    lines.append("")
    lines.append(
        f"{m['candidate_interval_count']} candidates, "
        f"{m['final_interval_count']} final intervals, "
        f"{width}wall time {m['wall_time_seconds']}s"
    )
    return "\n".join(lines) + "\n"


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="eigencert",
        description="Certified intervals containing every real eigenvalue "
        "of a real square matrix.",
    )
    parser.add_argument("matrix", help="path to a JSON or CSV matrix file")
    parser.add_argument("--mode", choices=("exact", "float"), default="exact")
    parser.add_argument(
        "--epsilon", default="1e-7",
        help="target interval width, a decimal literal (default 1e-7)",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--svg", metavar="PATH", help="also write an SVG rendering")
    parser.add_argument(
        "--column-disks", action="store_true",
        help="clip the search region with column disks as well",
    )
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        report = run(
            args.matrix,
            mode=args.mode,
            epsilon=args.epsilon,
            column_disks=args.column_disks,
        )
        if args.svg:
            svg = render_svg(report)
            try:
                with open(args.svg, "w", encoding="utf-8") as handle:
                    handle.write(svg)
            except OSError as exc:
                raise ParseError(f"cannot write {args.svg}: {exc}") from exc
    except ParseError as exc:
        print(f"eigencert: input error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"eigencert: internal consistency failure: {exc}", file=sys.stderr)
        return 4
    if args.format == "json":
        print(to_json(report))
    else:
        print(render_text(report), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

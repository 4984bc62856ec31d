"""Command-line interface.

    eigencert MATRIX [--mode exact|float] [--bits N] [--epsilon E]
              [--format json|text] [--svg PATH] [--column-disks]

MATRIX is a path to either a JSON file {"matrix": [[...], ...]} or a CSV
file with one row per line.  Entries may be integers or decimal strings;
bare non-integer JSON numbers are accepted in float mode only (in exact
mode they would have been rounded by whoever wrote the file - send
decimal strings instead).  Float mode rounds each entry to --bits bits
and then certifies that rounded matrix exactly, as exact mode certifies
the input.

Exit codes: 0 success, 2 bad input, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from eigencert.charpoly import SquareMatrix
from eigencert.localize import locate
from eigencert.numerics import (
    DEFAULT_BITS,
    EXACT,
    InternalConsistencyError,
    ParseError,
    float_backend,
    parse_decimal,
)
from eigencert.refine import refine_all
from eigencert.report import Report, build_report, to_json
from eigencert.svg import render_svg


class _RawNumber(str):
    """Literal text of a non-integer JSON number, kept unrounded."""


def _convert_entry(value, backend, where: str):
    if isinstance(value, _RawNumber):
        if backend == EXACT:
            raise ParseError(
                f"bare JSON number {value} at {where} would be rounded; "
                "use a decimal string in exact mode"
            )
        value = str(value)
    elif isinstance(value, bool):
        raise ParseError(f"boolean at {where} is not a matrix entry")
    try:
        return backend.convert(value)
    except ParseError as exc:
        raise ParseError(f"{exc} (at {where})") from exc


def parse_matrix_text(text: str, backend, *, source: str = "input") -> SquareMatrix:
    """Parse JSON or CSV matrix text into a SquareMatrix."""
    stripped = text.lstrip()
    if stripped.startswith("{"):

        def non_finite(token):
            raise ParseError(f"{source}: {token} is not a finite matrix entry")

        try:
            data = json.loads(text, parse_float=_RawNumber, parse_constant=non_finite)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{source}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict) or "matrix" not in data:
            raise ParseError(f'{source}: expected an object with a "matrix" key')
        rows = data["matrix"]
        if not isinstance(rows, list) or not rows:
            raise ParseError(f"{source}: matrix must be a non-empty list of rows")
        converted = []
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise ParseError(f"{source}: row {i + 1} is not a list")
            converted.append(
                [
                    _convert_entry(v, backend, f"row {i + 1}, column {j + 1}")
                    for j, v in enumerate(row)
                ]
            )
    else:
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ParseError(f"{source}: no rows found")
        converted = []
        for i, line in enumerate(lines):
            cells = line.split(",")
            converted.append(
                [
                    _convert_entry(c.strip(), backend, f"row {i + 1}, column {j + 1}")
                    for j, c in enumerate(cells)
                ]
            )
    try:
        return SquareMatrix.from_rows(converted, backend)
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def load_matrix(path: str, backend) -> SquareMatrix:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_matrix_text(text, backend, source=path)


def run(path: str, *, mode: str = "exact", bits: int = DEFAULT_BITS,
        epsilon: str = "1e-7", column_disks: bool = False) -> Report:
    """Parse, localize, refine; returns the full report."""
    if mode == "exact":
        backend = EXACT
    else:
        try:
            backend = float_backend(bits)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    eps_exact = parse_decimal(epsilon)
    if not eps_exact > 0:
        raise ParseError(f"epsilon must be positive, got {epsilon!r}")
    matrix = load_matrix(path, backend)
    started = time.perf_counter()
    located = locate(matrix, column_disks=column_disks)
    final = refine_all(located.context, located.intervals, eps_exact)
    wall = time.perf_counter() - started
    return build_report(
        located,
        final,
        epsilon_text=epsilon,
        mode=mode,
        bits=None if mode == "exact" else bits,
        wall_time=round(wall, 6),
    )


def render_text(report: Report) -> str:
    lines = []
    header = f"{report.n} x {report.n} matrix, {report.mode} mode"
    if report.bits:
        header += f" ({report.bits} bits)"
    lines.append(header)
    desc = ", ".join(
        f"{c}*x^{k}" if k else str(c)
        for k, c in reversed(list(enumerate(report.characteristic_polynomial)))
    )
    lines.append(f"characteristic polynomial: {desc}")
    lines.append(f"distinct real eigenvalues (sigma of H1): {report.sigma_h1}")
    lines.append("")
    lines.append("Gershgorin disks:")
    for d in report.disks:
        lines.append(f"  row {d.row + 1}: center {d.center}, radius {d.radius} -> {d.verdict}")
    lines.append("")
    lines.append("candidate intervals:")
    if not report.initial_intervals:
        lines.append("  (none)")
    for t in report.initial_intervals:
        verdict = "contains real" if t.contains_real else "empty"
        lines.append(
            f"  [{t.lo}, {t.hi}] sigma={t.sigma_hq} -> {verdict}"
            + (f" (>= {t.min_root_count} inside)" if t.contains_real else "")
        )
    lines.append("")
    lines.append(f"refined intervals (epsilon = {report.epsilon}):")
    if not report.final_intervals:
        lines.append("  (none)")
    for t in report.final_intervals:
        lines.append(f"  [{t.lo}, {t.hi}] width {t.width}")
    if report.point_eigenvalues:
        lines.append("")
        lines.append("point eigenvalues: " + ", ".join(report.point_eigenvalues))
    m = report.metrics
    lines.append("")
    lines.append(
        f"{m['candidate_interval_count']} candidates, "
        f"{m['final_interval_count']} final intervals, "
        f"max width {m['max_width']}, wall time {m['wall_time_seconds']}s"
    )
    return "\n".join(lines) + "\n"


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigencert",
        description="Certified intervals containing every real eigenvalue "
        "of a real square matrix.",
    )
    parser.add_argument("matrix", help="path to a JSON or CSV matrix file")
    parser.add_argument("--mode", choices=("exact", "float"), default="exact")
    parser.add_argument(
        "--bits", type=int, default=DEFAULT_BITS,
        help="float-mode input precision in bits (default 256)",
    )
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
            bits=args.bits,
            epsilon=args.epsilon,
            column_disks=args.column_disks,
        )
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as handle:
                handle.write(render_svg(report))
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

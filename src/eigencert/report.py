"""Structured results: dataclasses plus lossless JSON round-tripping.

Every scalar is an exact rational serialized as text ("p/q" or an
integer) in both modes, so a report can be reloaded without losing the
certificates' meaning.  `bits` is always None: both modes read their
input exactly.  The field stays because readers of the JSON report, such
as certbench's checker, look it up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from eigencert.numerics import ParseError


@dataclass
class DiskRecord:
    row: int
    center: str
    radius: str
    verdict: str


@dataclass
class IntervalRecord:
    lo: str
    hi: str
    contains_real: bool
    sigma_hq: int | None
    min_root_count: int
    sources: list = field(default_factory=list)


@dataclass
class FinalIntervalRecord:
    lo: str
    hi: str
    width: str
    min_root_count: int
    sources: list = field(default_factory=list)


@dataclass
class Report:
    n: int
    mode: str
    bits: int | None
    epsilon: str
    characteristic_polynomial: list  # ascending coefficient strings
    sigma_h1: int
    disks: list
    initial_intervals: list
    final_intervals: list
    point_eigenvalues: list
    metrics: dict


def scalar_text(value) -> str:
    return str(value)


def text_scalar(text: str) -> Fraction:
    """Exact value of any scalar string a report can contain."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar in report: {text!r}") from exc


def compute_metrics(final_records, wall_time: float | None) -> dict:
    """Width statistics recomputed from serialized final intervals.

    Exact arithmetic, so the same records always give the same strings,
    which is what the round-trip tests rely on.
    """
    widths = [text_scalar(rec.hi) - text_scalar(rec.lo) for rec in final_records]
    metrics = {
        "candidate_interval_count": None,  # caller fills
        "final_interval_count": len(final_records),
        "max_width": None,
        "average_width": None,
        "wall_time_seconds": wall_time,
    }
    if widths:
        metrics["max_width"] = scalar_text(max(widths))
        metrics["average_width"] = scalar_text(sum(widths) / len(widths))
    return metrics


def build_report(result, final_intervals, *, epsilon_text: str, mode: str,
                 wall_time: float) -> Report:
    """Assemble the full report from a LocateResult and refined intervals."""
    disks = [
        DiskRecord(d.row, scalar_text(d.center), scalar_text(d.radius), d.verdict)
        for d in result.disks
    ]
    initial = [
        IntervalRecord(
            scalar_text(t.lo), scalar_text(t.hi), t.contains_real, t.sigma,
            t.min_root_count, list(t.sources),
        )
        for t in result.tested
    ]
    final = [
        FinalIntervalRecord(
            scalar_text(iv.lo), scalar_text(iv.hi), scalar_text(iv.hi - iv.lo),
            iv.min_root_count, list(iv.sources),
        )
        for iv in final_intervals
    ]
    metrics = compute_metrics(final, wall_time)
    metrics["candidate_interval_count"] = len(initial)
    return Report(
        n=result.context.original.degree(),
        mode=mode,
        bits=None,
        epsilon=epsilon_text,
        characteristic_polynomial=[scalar_text(c) for c in result.context.original.coeffs],
        sigma_h1=result.context.base_signature,
        disks=disks,
        initial_intervals=initial,
        final_intervals=final,
        point_eigenvalues=[scalar_text(p) for p in result.points],
        metrics=metrics,
    )


def to_dict(report: Report) -> dict:
    """The dict dataclasses.asdict gives, with fresh lists but no deep copy."""
    return {
        "n": report.n,
        "mode": report.mode,
        "bits": report.bits,
        "epsilon": report.epsilon,
        "characteristic_polynomial": list(report.characteristic_polynomial),
        "sigma_h1": report.sigma_h1,
        "disks": [dict(vars(d)) for d in report.disks],
        "initial_intervals": [
            {**vars(t), "sources": list(t.sources)} for t in report.initial_intervals
        ],
        "final_intervals": [
            {**vars(t), "sources": list(t.sources)} for t in report.final_intervals
        ],
        "point_eigenvalues": list(report.point_eigenvalues),
        "metrics": dict(report.metrics),
    }


def to_json(report: Report) -> str:
    return json.dumps(to_dict(report), indent=2)


def from_dict(data: dict) -> Report:
    try:
        return Report(
            n=data["n"],
            mode=data["mode"],
            bits=data["bits"],
            epsilon=data["epsilon"],
            characteristic_polynomial=list(data["characteristic_polynomial"]),
            sigma_h1=data["sigma_h1"],
            disks=[DiskRecord(**d) for d in data["disks"]],
            initial_intervals=[IntervalRecord(**d) for d in data["initial_intervals"]],
            final_intervals=[FinalIntervalRecord(**d) for d in data["final_intervals"]],
            point_eigenvalues=list(data["point_eigenvalues"]),
            metrics=dict(data["metrics"]),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed report payload: {exc}") from exc


def from_json(text: str) -> Report:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"report is not valid JSON: {exc}") from exc
    return from_dict(data)

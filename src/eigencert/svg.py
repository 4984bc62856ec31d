"""SVG picture of a report: disks, certified segments, refined intervals.

Pure function of the report contents (no timestamps, no randomness), so
the same report always renders byte-identical output.  The picture is
drawn in doubles, so a report that reaches beyond their range, by a value
or by the span of its values, raises ParseError.
"""

from __future__ import annotations

import math

from eigencert.numerics import ParseError
from eigencert.report import text_scalar

_WIDTH = 900
_MARGIN = 40
_BEYOND_DOUBLES = "--svg cannot draw this report: it reaches beyond the range of a double"

_DISK_STYLE = {
    "contains-real-eigenvalue": ("#d35400", "#fdebd0", "0.55"),
    "empty-of-real-eigenvalues": ("#7f8c8d", "#ecf0f1", "0.35"),
    "point-eigenvalue": ("#1a5276", "#d6eaf8", "0.55"),
}


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _float(text: str) -> float:
    try:
        return float(text_scalar(text))
    except OverflowError:
        raise ParseError(_BEYOND_DOUBLES) from None


def render_svg(report: dict) -> str:
    disks = [
        (_float(d["center"]), _float(d["radius"]), d["verdict"]) for d in report["disks"]
    ]
    points = [_float(p) for p in report["point_eigenvalues"]]
    segments = [
        (_float(t["lo"]), _float(t["hi"]))
        for t in report["initial_intervals"]
        if t["contains_real"]
    ]
    refined = [(_float(t["lo"]), _float(t["hi"])) for t in report["final_intervals"]]
    xs = [c - r for c, r, _ in disks] + [c + r for c, r, _ in disks] + points
    lo, hi = min(xs), max(xs)
    if hi <= lo:  # every disk is the one point lo: centre it in a unit span
        lo, hi = lo - 0.5, lo + 0.5
    pad = 0.05 * (hi - lo)
    lo -= pad
    hi += pad
    if math.isinf(hi - lo):  # every value is a double, but not the span
        raise ParseError(_BEYOND_DOUBLES)
    scale = (_WIDTH - 2 * _MARGIN) / (hi - lo)
    max_radius = max([r for _, r, _ in disks], default=0.0)
    axis_y = max_radius * scale + 60.0
    height = 2 * axis_y

    def x_of(value: float) -> float:
        return _MARGIN + (value - lo) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_WIDTH} {_fmt(height)}">',
        f'<line class="axis" x1="{_MARGIN}" y1="{_fmt(axis_y)}" '
        f'x2="{_WIDTH - _MARGIN}" y2="{_fmt(axis_y)}" stroke="#2c3e50" stroke-width="1"/>',
    ]
    for center, radius, verdict in disks:
        stroke, fill, opacity = _DISK_STYLE[verdict]
        cls = "disk certified" if verdict == "contains-real-eigenvalue" else (
            "disk point" if verdict == "point-eigenvalue" else "disk empty"
        )
        parts.append(
            f'<circle class="{cls}" cx="{_fmt(x_of(center))}" cy="{_fmt(axis_y)}" '
            f'r="{_fmt(max(radius * scale, 2.0))}" stroke="{stroke}" '
            f'fill="{fill}" fill-opacity="{opacity}"/>'
        )
    for seg_lo, seg_hi in segments:
        parts.append(
            f'<line class="interval" x1="{_fmt(x_of(seg_lo))}" y1="{_fmt(axis_y)}" '
            f'x2="{_fmt(x_of(seg_hi))}" y2="{_fmt(axis_y)}" '
            f'stroke="#d35400" stroke-width="6"/>'
        )
    for ref_lo, ref_hi in refined:
        x1 = x_of(ref_lo)
        x2 = max(x_of(ref_hi), x1 + 2.0)
        parts.append(
            f'<line class="refined" x1="{_fmt(x1)}" y1="{_fmt(axis_y - 14)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(axis_y - 14)}" '
            f'stroke="#c0392b" stroke-width="8"/>'
        )
    for p in points:
        parts.append(
            f'<circle class="eigenpoint" cx="{_fmt(x_of(p))}" cy="{_fmt(axis_y)}" '
            f'r="4" fill="#1a5276"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

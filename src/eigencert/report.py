"""The report: the JSON object of one run, built as a plain dict.

Every rational (coefficients, centers, radii, interval ends, widths) is
exact text ("p/q" or an integer) in both modes, so a reader of the JSON
loses none of the certificates' meaning; counts, rows and sources are
ints, `contains_real` a bool, and `wall_time_seconds` the one float.
The key tuples below fix each object's keys and their order;
`build_report` fills them and `to_json` writes them in that order.
`bits` is always None: both modes read their input exactly.  The key
stays because readers of the JSON report, such as certbench's checker,
look it up.  A number with more digits than the interpreter converts to
text is an input error that names its cause: the matrix entries, or
--epsilon for the final intervals.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import cache

from eigencert.numerics import ParseError

REPORT_KEYS = (
    "n", "mode", "bits", "epsilon", "characteristic_polynomial", "sigma_h1",
    "disks", "initial_intervals", "final_intervals", "point_eigenvalues", "metrics",
)
DISK_KEYS = ("row", "center", "radius", "verdict")
INTERVAL_KEYS = ("lo", "hi", "contains_real", "sigma_hq", "min_root_count", "sources")
FINAL_KEYS = ("lo", "hi", "width", "min_root_count", "sources")
METRIC_KEYS = ("candidate_interval_count", "final_interval_count", "max_width",
               "average_width", "wall_time_seconds")


def text_scalar(text: str) -> Fraction:
    """Exact value of any scalar string a report can contain."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar in report: {text!r}") from exc


def _text(value: Fraction, cause: str) -> str:
    """str(value), or ParseError naming cause past the int -> str digit limit."""
    try:
        return str(value)
    except ValueError:  # the interpreter's limit on int -> str digits
        raise ParseError(
            f"{cause}: the report needs a number of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def build_report(result, final_intervals, *, epsilon_text: str, mode: str,
                 wall_time: float) -> dict:
    """The report of a LocateResult and its refined intervals."""
    entries = "the matrix entries are too large"
    epsilon = f"--epsilon {epsilon_text} is too small"
    disks = [
        dict(zip(DISK_KEYS, (d.row, _text(d.center, entries), _text(d.radius, entries),
                             d.verdict)))
        for d in result.disks
    ]
    initial = [
        dict(zip(INTERVAL_KEYS, (_text(t.lo, entries), _text(t.hi, entries),
                                 t.contains_real, t.sigma, t.min_root_count,
                                 list(t.sources))))
        for t in result.tested
    ]
    widths = [iv.hi - iv.lo for iv in final_intervals]
    final = [
        dict(zip(FINAL_KEYS, (_text(iv.lo, epsilon), _text(iv.hi, epsilon),
                              _text(w, epsilon), iv.min_root_count, list(iv.sources))))
        for iv, w in zip(final_intervals, widths)
    ]
    metrics = dict(zip(METRIC_KEYS, (
        len(initial),
        len(final),
        _text(max(widths), epsilon) if widths else None,
        _text(sum(widths) / len(widths), epsilon) if widths else None,
        wall_time,
    )))
    poly = result.context.original
    return dict(zip(REPORT_KEYS, (
        poly.degree(), mode, None, epsilon_text, [_text(c, entries) for c in poly.coeffs],
        result.context.base_signature, disks, initial, final,
        [_text(p, entries) for p in result.points], metrics,
    )))


# json's text of each scalar type a report holds; the one float is finite
_encode = json.encoder.encode_basestring_ascii
_SCALAR_TEXT = {
    str: _encode,
    int: int.__repr__,
    float: float.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _list_text(values: list, pad: str) -> str:
    """A list of scalars, as the value of a key at indent pad."""
    if not values:
        return "[]"
    sep = ",\n  " + pad
    return f"[{sep[1:]}{sep.join([_SCALAR_TEXT[v.__class__](v) for v in values])}\n{pad}]"


@cache
def _template(keys: tuple, pad: str) -> str:
    """The %-template of a record with these keys, opened at indent pad."""
    inner = pad + "  "
    lines = [_encode(key).replace("%", "%%") + ": %s" for key in keys]
    return "{\n" + inner + (",\n" + inner).join(lines) + "\n" + pad + "}"


def _record_texts(records: list, pad: str) -> list:
    """The text of each record, opened at indent pad; a record holds
    scalars and lists of scalars."""
    inner = pad + "  "
    texts = []
    for record in records:
        texts.append(_template(tuple(record), pad) % tuple([
            _list_text(v, inner) if v.__class__ is list else _SCALAR_TEXT[v.__class__](v)
            for v in record.values()
        ]))
    return texts


def to_json(report: dict) -> str:
    """json.dumps(report, indent=2), byte for byte, without json's encoder.

    json's C encoder runs only without indent, so json.dumps with indent
    walks the report in pure Python.  This writes the report's fixed
    schema directly instead: each value is a scalar, a list of scalars, a
    record, or a list of records, and a record's values are scalars or
    lists of scalars.  Scalars are str (escaped to ASCII by json's own C
    function), int, finite float, bool and None; records are not empty.
    """
    fields = []
    for key, value in report.items():
        kind = value.__class__
        if kind is dict:
            text = _record_texts([value], "  ")[0]
        elif kind is list and value and value[0].__class__ is dict:
            text = "[\n    " + ",\n    ".join(_record_texts(value, "    ")) + "\n  ]"
        elif kind is list:
            text = _list_text(value, "  ")
        else:
            text = _SCALAR_TEXT[kind](value)
        fields.append(_encode(key) + ": " + text)
    return "{\n  " + ",\n  ".join(fields) + "\n}"

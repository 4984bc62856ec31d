"""Correctness check of eigencert's answers against an independent reference.

The reference comes from sympy alone (Matrix.charpoly, Poly.sqf_part,
Poly.count_roots) and is computed from the exact input entries, so no value
produced by eigencert is trusted.  For every matrix the checker requires:

1. the reported characteristic polynomial equals sympy's (float mode: each
   coefficient within 2**-(bits//2) * max(1, |c|) of the exact c);
2. sigma_h1 equals the number of distinct real roots;
3. every real root lies in a closed final interval or is a reported point
   eigenvalue, and every point eigenvalue is a root;
4. every final interval contains at least one root, and at least its
   min_root_count roots strictly inside (a zero-width interval [m, m],
   which bisection emits when a midpoint is a root, counts m itself);
5. every width is at most epsilon.

Float-mode endpoints are checked by their exact dyadic values against the
exact polynomial of the input.  Two adjacent intervals may share a root as
their common endpoint, so the number of intervals is never compared with
the number of roots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

# sympy is imported where it is used, so that reading answers does not load
# it: the benchmark samples its peak memory before checking.


def float_charpoly_rel_tol(bits: int) -> Fraction:
    """Tolerance on float charpoly coefficients: half the working bits."""
    return Fraction(1, 2 ** (bits // 2))


@dataclass
class Answer:
    """What eigencert claimed for one matrix, as exact rationals."""

    charpoly: list  # ascending coefficients
    sigma_h1: int
    intervals: list  # (lo, hi, min_root_count)
    points: list
    epsilon: Fraction
    bits: int | None = None  # float mode precision; None in exact mode


@dataclass
class Reference:
    coeffs: list  # ascending, exact
    sqf: object  # sympy.Poly, the square-free part: same distinct roots
    real_roots: int


def mpf_value(value) -> Fraction:
    """Exact rational value of an mpmath float (a dyadic rational)."""
    sign, man, exp, _ = value._mpf_  # value = (-1)**sign * man * 2**exp
    man = -int(man) if sign else int(man)
    return Fraction(man * 2**exp) if exp >= 0 else Fraction(man, 2 ** (-exp))


def _exact(value) -> Fraction:
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    return mpf_value(value)


def _rational(value: Fraction):
    import sympy

    return sympy.Rational(value.numerator, value.denominator)


def reference(rows) -> Reference:
    """sympy's characteristic polynomial and real-root count for exact rows."""
    import sympy

    x = sympy.Symbol("x")
    matrix = sympy.Matrix([[_rational(Fraction(v)) for v in row] for row in rows])
    poly = sympy.Poly(matrix.charpoly(x).as_expr(), x, domain=sympy.QQ)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    sqf = poly.sqf_part()
    return Reference(coeffs, sqf, int(sqf.count_roots()))


def answer_from_library(located, final, epsilon: str, bits=None) -> Answer:
    """Answer from eigencert.locate / refine_all results."""
    return Answer(
        charpoly=[_exact(c) for c in located.context.original.coeffs],
        sigma_h1=located.context.base_signature,
        intervals=[(_exact(iv.lo), _exact(iv.hi), iv.min_root_count) for iv in final],
        points=[_exact(p) for p in located.points],
        epsilon=Fraction(epsilon),
        bits=bits,
    )


def answer_from_report(text: str) -> Answer:
    """Answer from the JSON report printed by `eigencert --format json`."""
    data = json.loads(text)
    return Answer(
        charpoly=[Fraction(c) for c in data["characteristic_polynomial"]],
        sigma_h1=data["sigma_h1"],
        intervals=[(Fraction(iv["lo"]), Fraction(iv["hi"]), iv["min_root_count"])
                   for iv in data["final_intervals"]],
        points=[Fraction(p) for p in data["point_eigenvalues"]],
        epsilon=Fraction(data["epsilon"]),
        bits=data["bits"],
    )


def _merged(intervals):
    out = []
    for lo, hi in sorted((lo, hi) for lo, hi, _ in intervals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def check(answer: Answer, ref: Reference) -> list:
    """Every violated property, as text; an empty list means correct."""
    problems = []
    sqf = ref.sqf
    counts = {}

    def closed_count(lo, hi):
        if (lo, hi) not in counts:
            counts[(lo, hi)] = int(sqf.count_roots(_rational(lo), _rational(hi)))
        return counts[(lo, hi)]

    def is_root(v):
        return sqf.eval(_rational(v)) == 0

    if len(answer.charpoly) != len(ref.coeffs):
        problems.append(f"charpoly degree {len(answer.charpoly) - 1}, "
                        f"expected {len(ref.coeffs) - 1}")
    elif answer.bits is None:
        if answer.charpoly != ref.coeffs:
            problems.append("charpoly differs from sympy's")
    else:
        tol = float_charpoly_rel_tol(answer.bits)
        for k, (got, want) in enumerate(zip(answer.charpoly, ref.coeffs)):
            if abs(got - want) > tol * max(1, abs(want)):
                problems.append(f"charpoly coefficient {k} off by {float(got - want):.3g}")
    if answer.sigma_h1 != ref.real_roots:
        problems.append(f"sigma_h1 {answer.sigma_h1}, but {ref.real_roots} distinct real roots")

    for lo, hi, inside in answer.intervals:
        if not lo <= hi:
            problems.append(f"interval [{lo}, {hi}] is reversed")
            continue
        if hi - lo > answer.epsilon:
            problems.append(f"interval [{lo}, {hi}] wider than {answer.epsilon}")
        closed = closed_count(lo, hi)
        if closed < 1:
            problems.append(f"interval [{lo}, {hi}] holds no root")
        # a zero-width interval [m, m] claims m itself as a root
        strictly = closed if lo == hi else closed - is_root(lo) - is_root(hi)
        if strictly < inside:
            problems.append(f"interval [{lo}, {hi}] claims {inside} roots inside, has {strictly}")

    segments = _merged(answer.intervals)
    covered = sum(closed_count(lo, hi) for lo, hi in segments)
    for p in sorted(set(answer.points)):
        if not is_root(p):
            problems.append(f"point eigenvalue {p} is not a root")
        elif not any(lo <= p <= hi for lo, hi in segments):
            covered += 1
    if covered != ref.real_roots:
        problems.append(f"intervals and points cover {covered} of {ref.real_roots} real roots")
    return problems

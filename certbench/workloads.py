"""Seeded inputs for the four workloads, and one timed pass over them.

Each workload solves a fixed set of matrices, drawn once from the
workload's name.  The seed presents every one of them in another basis: a
random signed permutation similarity P A P^T, with P a permutation matrix
whose nonzero entries are +1 or -1.  The entries, their order and signs
change with the seed; the spectrum, the characteristic polynomial and the
set of Gershgorin disks do not, and with them the work the program does.
Fresh draws per seed made a run's times differ by up to a tenth from seed
to seed, in the bisection steps that each root's interval needs, which is
as much as the changes the benchmark should show.

The draws fix the properties that set the cost: matrix sizes, entry kinds
and ranges, epsilon, and the number of distinct real eigenvalues, one for
an odd size and two for an even one (a draw with another count is drawn
again).  Refinement does about 2 * log2(width / epsilon) signature tests
per real root.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from eigencert import cli, localize, refine
from eigencert.charpoly import SquareMatrix
from eigencert.numerics import EXACT, float_backend

import pace


@dataclass(frozen=True)
class Spec:
    """How one workload's matrices are drawn and solved."""

    name: str
    route: str  # "library": locate + refine_all; "cli": eigencert.cli.main
    bits: int | None  # float precision; None for exact mode
    epsilon: str
    # (count, size, entry kind) groups; kinds are listed in _draw_rows and
    # _draw.  A "mixed" group cycles through its sizes and through the kinds.
    groups: tuple


SPECS = {
    spec.name: spec
    for spec in (
        Spec("locate-heavy", "library", None, "0.1",
             ((3, 15, "int"), (3, 13, "dec"))),
        Spec("refine-deep", "library", None, "1e-25", ((4, 9, "int"),)),
        Spec("cli-small-batch", "cli", None, "1e-7",
             ((40, (3, 4, 5, 6, 7), "mixed"),)),
        Spec("float-256", "library", 256, "1e-7", ((4, 9, "int"),)),
    )
}


@dataclass
class Item:
    """One matrix of a workload: exact rows plus what the program is given."""

    rows: list  # exact entries as Fractions, for the reference
    matrix: object = None  # SquareMatrix (library route)
    argv: list = field(default_factory=list)  # cli.main arguments (cli route)


def _real_eigenvalue_count(rows) -> int:
    """Distinct real eigenvalues by a double-precision eigensolver.

    Used only to redraw matrices, never to check answers, so a miscount on
    a nearly defective draw costs a little steadiness and nothing else.
    """
    import numpy

    values = numpy.linalg.eigvals(numpy.array([[float(v) for v in r] for r in rows]))
    real = sorted(v.real for v in values if abs(v.imag) <= 1e-9 * max(1.0, abs(v)))
    return sum(1 for k, v in enumerate(real) if k == 0 or v - real[k - 1] > 1e-9)


def _draw_rows(rng: random.Random, n: int, kind: str) -> list:
    """n x n exact entries.

    int: integers in [-9, 9].  dec: one-place decimals in [-9.9, 9.9].
    zero-row: int, with one row zero off the diagonal (a radius-zero disk,
    so a point eigenvalue).
    """
    if kind == "dec":
        return [[Fraction(rng.randint(-99, 99), 10) for _ in range(n)] for _ in range(n)]
    rows = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    if kind == "zero-row":
        i = rng.randrange(n)
        rows[i] = [v if j == i else Fraction(0) for j, v in enumerate(rows[i])]
    return rows


def _draw(rng: random.Random, n: int, kind: str) -> list:
    """Rows with one distinct real eigenvalue if n is odd, two if n is even.

    Kind "repeated" is diag(B, B) for an integer B of half the size, rows
    and columns permuted alike, so every eigenvalue of B is a double root.
    """
    if kind == "repeated":
        k = n // 2
        block = _draw(rng, k, "int")
        rows = [[Fraction(0)] * (2 * k) for _ in range(2 * k)]
        for i in range(k):
            for j in range(k):
                rows[i][j] = rows[i + k][j + k] = block[i][j]
        order = list(range(2 * k))
        rng.shuffle(order)
        return [[rows[i][j] for j in order] for i in order]
    rows = _draw_rows(rng, n, kind)
    while _real_eigenvalue_count(rows) != 2 - n % 2:
        rows = _draw_rows(rng, n, kind)
    return rows


def _similar(rng: random.Random, rows) -> list:
    """P A P^T for a random signed permutation matrix P."""
    n = len(rows)
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] * signs[j] * rows[order[i]][order[j]] for j in range(n)]
            for i in range(n)]


_MIXED_KINDS = ("int", "dec", "zero-row", "repeated")


def _entry_text(v: Fraction) -> str:
    # exact for the entries drawn here, whose denominators divide 10
    return str(Decimal(v.numerator) / Decimal(v.denominator))


def _write_input(rows, path: Path):
    """CSV or JSON by the suffix; JSON holds non-integers as decimal strings."""
    if path.suffix == ".csv":
        text = "".join(",".join(_entry_text(v) for v in r) + "\n" for r in rows)
    else:
        payload = [[v.numerator if v.denominator == 1 else _entry_text(v) for v in r]
                   for r in rows]
        text = json.dumps({"matrix": payload})
    path.write_text(text, encoding="utf-8")


def generate(name: str, seed: int, workdir: Path) -> list:
    """The workload's items for this seed; cli inputs are written to workdir."""
    spec = SPECS[name]
    base = random.Random(f"{name}:base")
    rng = random.Random(f"{name}:{seed}")
    backend = EXACT if spec.bits is None else float_backend(spec.bits)
    items = []
    for count, size, kind in spec.groups:
        for k in range(count):
            if kind == "mixed":
                n, this_kind = size[k % len(size)], _MIXED_KINDS[k % len(_MIXED_KINDS)]
            else:
                n, this_kind = size, kind
            rows = _similar(rng, _draw(base, n, this_kind))
            item = Item(rows)
            if spec.route == "cli":
                # each entry kind goes to both formats in turn
                suffix = "csv" if (k // len(_MIXED_KINDS)) % 2 == 0 else "json"
                path = workdir / f"m{len(items):03d}.{suffix}"
                _write_input(rows, path)
                item.argv = [str(path), "--format", "json", "--epsilon", spec.epsilon]
            else:
                item.matrix = SquareMatrix.from_rows(rows, backend)
            items.append(item)
    return items


class StageClock:
    """Sums the raw and scaled time spent inside locate and refine_all.

    Patches the names where they are called: the library route calls
    eigencert.localize.locate and eigencert.refine.refine_all, the CLI
    calls its own imported copies.  `clock` is a pace.Meter or
    pace.WallClock.
    """

    _TARGETS = ((localize, "locate"), (cli, "locate"),
                (refine, "refine_all"), (cli, "refine_all"))

    def __init__(self, clock):
        self.clock = clock
        self.sums = {"locate": [0.0, 0.0], "refine_all": [0.0, 0.0]}
        self._saved = []

    def _timed(self, key, fn):
        def wrapper(*args, **kwargs):
            started = self.clock.now()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = self.clock.now()
                sums = self.sums[key]
                sums[0] += ended[0] - started[0]
                sums[1] += ended[1] - started[1]
        return wrapper

    def __enter__(self):
        for owner, attr in self._TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._timed(attr, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def _solve_library(spec: Spec, item: Item):
    located = localize.locate(item.matrix)
    eps = located.context.backend.convert(spec.epsilon)
    final = refine.refine_all(located.context, located.intervals, eps)
    return located, final


def _solve_cli(item: Item):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(item.argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


@dataclass
class PassResult:
    """One pass over every item: raw and scaled times, raw outputs."""

    solve_s: float  # wall time, less the time of pace's probes
    locate_s: float
    refine_s: float
    scaled: tuple  # (solve, locate, refine) on pace's scaled clock
    probes: list  # probe seconds, in the order taken
    outputs: list  # per item: ("ok", output) or ("failed", reason)


def run_pass(spec: Spec, items: list, metered: bool = True) -> PassResult:
    """Solve every item once; a raised error counts the item as failed.

    Metered passes run under a pace.Meter, which also gives scaled times;
    traced passes are not metered, so their spans hold no probes.
    """
    outputs = []
    clock = pace.Meter() if metered else pace.WallClock()
    with clock, StageClock(clock) as stages:
        started = clock.now()
        for item in items:
            try:
                if spec.route == "cli":
                    outputs.append(("ok", _solve_cli(item)))
                else:
                    outputs.append(("ok", _solve_library(spec, item)))
            except (ArithmeticError, ValueError, RuntimeError) as exc:
                outputs.append(("failed", f"{type(exc).__name__}: {exc}"))
        ended = clock.now()
    locate, refine_all = stages.sums["locate"], stages.sums["refine_all"]
    return PassResult(ended[0] - started[0], locate[0], refine_all[0],
                      (ended[1] - started[1], locate[1], refine_all[1]),
                      list(clock.probes), outputs)

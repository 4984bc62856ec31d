"""Time what a run of eigencert executes, on seeded operands.

Times the integer kernels a run calls: sign variations, homogeneous
Horner at a dyadic point and the Berkowitz charpoly of a seeded integer
matrix; the Sturm chain of a seeded polynomial and the refinement of one
of its isolated roots to 2^-300, which is integer Horner in the sign
loop and quadratic steps of eigencert.refine; locate, and refine_all to
1e-7, on ten seeded matrices of order 3-7, integer and one-place decimal; 50
refinements of [0, 4] for the roots 1 and 2, whose midpoint root takes
the Hermite step and an eps/4 nudge; refine_all to 1e-1000 on the
located 2x2 [[1, 2], [3, 4]], whose two roots are each about 3,330
halvings deep; the breakpoints of locate on the Gershgorin
disks of a seeded integer matrix, without and with its column disks, 50
calls each; the candidates of the locate on integers: their sources, 50
calls, and their tests, one certify_interval per candidate from the memo
that locate filled and an emptied point cache, 50 times; one whole
locate on a seeded matrix of integers, of one-place decimals, of
one-place decimals in a repeated block diag(B, B), whose every root is
double, and of integers with one entry the double 0.1, whose
denominators clear to D = 2^55; the memo fill of the locate on
integers, from an emptied memo; and the CLI's two text layers:
the JSON text of the worked 5x5 example's report, and the parse of a
seeded matrix of one-place decimals as CSV and as JSON text.  Runs every
case once per round, --repeat rounds, and prints each case's best run, in
milliseconds, and its ratio to the best run of the reference: fixed
pure-Python integer work in this file, which no change to eigencert
touches.  The host's speed drifts between processes, and the reference
drifts with it, so ratios from two processes compare where times do not.
Operands are fixed by --size (matrix order, polynomial degree) and a
constant seed.

    python3 benchmarks/bench_kernels.py [--repeat N] [--size N]
"""

import argparse
import json
import random
import time
from fractions import Fraction
from math import inf

from eigencert import kernels
from eigencert.charpoly import SquareMatrix
from eigencert.cli import parse_matrix_text
from eigencert.numerics import EXACT
from eigencert.localize import (
    CONTAINS_REAL,
    CertificationContext,
    candidate_points,
    candidate_sources,
    certify_interval,
    gershgorin_disks,
    locate,
    remainder_sequence,
)
from eigencert.oracle import companion, square_free_part, sturm_isolate_roots
from eigencert.poly import Poly
from eigencert.refine import refine_all, refine_interval
from eigencert.report import build_report, to_json

# the worked example of the README and the tests: three real eigenvalues
WORKED_ROWS = [
    ["1.25", "1", "0.75", "0.5", "0.25"],
    ["1", "0", "0", "0", "0"],
    ["-1", "1", "0", "0", "0"],
    ["0", "0", "1", "3", "0"],
    ["0", "0", "0", "0.5", "5"],
]


def build_cases(size: int):
    rng = random.Random(12345)
    n = size

    signs = [rng.choice((-3, -1, 0, 1, 2)) for _ in range(20000)]

    int_monic = [rng.randint(-5, 5) for _ in range(n)] + [1]

    int_rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]

    # a midpoint deep in exact bisection: dyadic, with denominator 2^90
    dyadic_x = Fraction(rng.getrandbits(90) | 1, 2**90)

    # a random monic integer polynomial of degree n, square-free like almost all
    chain_coeffs = [rng.randint(-9, 9) for _ in range(n)] + [1]

    # a root of it alone in an interval with no root at either end, the
    # ends as memo keys
    ctx = CertificationContext.from_matrix(companion(Poly.from_coeffs(chain_coeffs)))
    keys = [(ctx.key(a), ctx.key(b))
            for a, b in sturm_isolate_roots(square_free_part(ctx.original), 1)]
    isolated = next((
        certify_interval(ctx, lo, hi) for lo, hi in keys
        if lo != hi and ctx.entry(lo)[1] * ctx.entry(hi)[1] < 0
    ), None)
    refine_eps = Fraction(1, 2**300)

    worked = locate(SquareMatrix.from_rows(WORKED_ROWS, EXACT))
    final = refine_all(worked.context, worked.intervals, Fraction(1, 10**7))
    report = build_report(worked, final, epsilon_text="1e-7", mode="exact", wall_time=0.001)

    # every disk of nonzero radius counts as contains-real
    disks = gershgorin_disks(int_rows)
    yes = [d for d in disks if d[0] < d[2]] or disks
    columns = [(lo, hi) for lo, _, hi in gershgorin_disks(list(zip(*int_rows)))]

    decimals = [[f"{rng.randint(-99, 99) / 10:.1f}" for _ in range(n)] for _ in range(n)]
    matrix_csv = "\n".join(",".join(row) for row in decimals) + "\n"
    matrix_json = json.dumps({"matrix": decimals})

    # diag(B, B) with rows and columns permuted alike, B of one-place
    # decimals, so every root is double; an odd order adds a 1 x 1 block
    k = n // 2
    block = [[f"{rng.randint(-99, 99) / 10:.1f}" for _ in range(k)] for _ in range(k)]
    repeated = [["0"] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            repeated[i][j] = repeated[i + k][j + k] = block[i][j]
    if n % 2:
        repeated[-1][-1] = "0.5"
    order = list(range(2 * k))
    rng.shuffle(order)
    order += range(2 * k, n)
    repeated = [[repeated[i][j] for j in order] for i in order]
    # integers in [-9, 9] and one off-diagonal double 0.1, so D = 2^55
    one_double = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    one_double[0][-1] = Fraction(0.1)
    locate_inputs = [SquareMatrix.from_rows(rows, EXACT)
                     for rows in (int_rows, decimals, repeated, one_double)]

    # the memo fill of locate on the integer matrix, as locate made it,
    # run from an emptied memo
    fills = []
    fill = CertificationContext.fill_keys
    CertificationContext.fill_keys = lambda ctx, keys: (fills.append((ctx, keys)),
                                                        fill(ctx, keys))
    try:
        locate(locate_inputs[0])
    finally:
        CertificationContext.fill_keys = fill
    (fill_ctx, fill_keys), = fills

    def locate_fills():
        fill_ctx._memo = {}
        fill_ctx.fill_keys(fill_keys)

    # the candidates of that locate, cut and tested from its memo as locate
    # does; D = 1, so the disks of B are those of int_rows
    located = locate(locate_inputs[0])
    certified = [(disk, d.row) for disk, d in zip(disks, located.disks)
                 if d.verdict == CONTAINS_REAL]
    cut = candidate_points(disks, [disk for disk, _ in certified])
    cut_sources = candidate_sources(cut, certified)

    def locate_candidates():
        for _ in range(50):
            located.context._points = {}
            keys = [(y, 1) for y in cut]
            [certify_interval(located.context, lo, hi, sources)
             for lo, hi, sources in zip(keys, keys[1:], cut_sources)]

    cases = [
        ("reference", reference),
        ("sign_variations", lambda: kernels.sign_variations(signs)),
        ("horner_homogeneous", lambda: [
            kernels.horner_homogeneous(int_monic, dyadic_x.numerator, dyadic_x.denominator)
            for _ in range(50)
        ]),
        ("sturm_chain", lambda: remainder_sequence(chain_coeffs)),
        ("berkowitz_charpoly_int", lambda: kernels.berkowitz_charpoly_int(int_rows)),
        ("candidate_points", lambda: [candidate_points(disks, yes) for _ in range(50)]),
        ("candidate_points_columns", lambda: [
            candidate_points(disks, yes, columns) for _ in range(50)
        ]),
        ("candidate_sources", lambda: [
            candidate_sources(cut, certified) for _ in range(50)
        ]),
        ("locate_candidates", locate_candidates),
        ("locate_int", lambda: locate(locate_inputs[0])),
        ("locate_decimal", lambda: locate(locate_inputs[1])),
        ("locate_repeated", lambda: locate(locate_inputs[2])),
        ("locate_one_double", lambda: locate(locate_inputs[3])),
        ("locate_fills", locate_fills),
        ("report_json", lambda: to_json(report)),
        ("parse_matrix_csv", lambda: parse_matrix_text(matrix_csv, "exact")),
        ("parse_matrix_json", lambda: parse_matrix_text(matrix_json, "exact")),
    ]
    if isolated is not None:  # an even-degree chain_poly can have no real root
        cases.append(("refine_isolated", lambda: refine_interval(ctx, isolated, refine_eps)))

    # locate, and refine_all at 1e-7, on matrices of order 3-7, integer and
    # one-place decimal, the same at every --size; each refine_all run
    # starts from the memo that locate left
    batch_rng = random.Random(7)
    batch_matrices = []
    for k in range(10):
        order = 3 + k % 5
        if k % 2:
            entries = [Fraction(batch_rng.randint(-99, 99), 10) for _ in range(order**2)]
        else:
            entries = [Fraction(batch_rng.randint(-9, 9)) for _ in range(order**2)]
        rows = [entries[i:i + order] for i in range(0, order**2, order)]
        batch_matrices.append(SquareMatrix.from_rows(rows, EXACT))
    batch = []
    for m in batch_matrices:
        located = locate(m)
        batch.append((located, dict(located.context._memo)))
    batch_eps = Fraction(1, 10**7)

    def locate_batch():
        for m in batch_matrices:
            locate(m)

    def refine_batch():
        for located, memo in batch:
            located.context._memo = dict(memo)
            refine_all(located.context, located.intervals, batch_eps)

    # roots 1 and 2 in [0, 4], whose midpoint 2 is a root: a Hermite step,
    # a point cell and an eps/4 nudge on each side, then a sign loop; 50
    # runs, each on an empty memo
    two_roots = CertificationContext.from_matrix(companion(Poly.from_coeffs([2, -3, 1])))
    shared = certify_interval(two_roots, (0, 1), (4, 1))  # D = 1: the key of x is (x, 1)

    def refine_hermite():
        for _ in range(50):
            two_roots._memo = {}
            refine_interval(two_roots, shared, batch_eps)

    # two roots, each about 3,330 halvings deep at 1e-1000, from the memo
    # that locate left
    tiny = locate(SquareMatrix.from_rows([[1, 2], [3, 4]], EXACT))
    tiny_memo = dict(tiny.context._memo)
    tiny_eps = Fraction(1, 10**1000)

    def refine_tiny_eps():
        tiny.context._memo = dict(tiny_memo)
        refine_all(tiny.context, tiny.intervals, tiny_eps)

    cases += [("locate_batch", locate_batch), ("refine_batch", refine_batch),
              ("refine_hermite", refine_hermite), ("refine_tiny_eps", refine_tiny_eps)]
    return cases


def reference() -> int:
    """Fixed pure-Python integer work: a 300-digit linear congruence."""
    value, modulus = 1, 10**300 + 7
    for k in range(20000):
        value = (value * 1103515245 + k) % modulus
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="best-of repetitions")
    parser.add_argument("--size", type=int, default=20, help="matrix/polynomial size")
    args = parser.parse_args()

    cases = build_cases(args.size)
    best = [inf] * len(cases)
    # round-robin, so a drift in the host's speed reaches every case alike
    for _ in range(args.repeat):
        for k, (_, runner) in enumerate(cases):
            t0 = time.perf_counter()
            runner()
            best[k] = min(best[k], time.perf_counter() - t0)
    print(f"{'kernel':<24}{'time (ms)':>12}{'/ reference':>14}")
    for (name, _), elapsed in zip(cases, best):
        print(f"{name:<24}{elapsed * 1e3:>12.3f}{elapsed / best[0]:>14.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Time the stages of one exact run at the north star's sizes, on fresh matrices.

For each order n (8, 16, 24, 32, 48 and 64 by default) and each kind of
entry (integers in [-9, 9] from random.Random(n), and one-place decimals
k/10 with k in [-99, 99] from random.Random(1000 + n)), every round builds
the matrix afresh, so nothing it caches carries over, and times:

- charpoly: Berkowitz on B = D*A, and chi_A from it;
- chain: the subresultant Sturm chain of chi_B (localize.remainder_sequence,
  and its second call on the square-free quotient, if any);
- locate_rest: the rest of locate, the memo fill and the disk and
  candidate tests;
- refine_1e-7, refine_1e-30: refine_all at each epsilon, each from the
  memo that locate left;
- report: build_report and to_json of the run at 1e-7.

charpoly and the chain are timed inside locate, by wrapping the two names
that localize.py calls.  Each row also holds the chain's largest
coefficient in bits, its number of members and sigma(H_1).  Every round
runs the reference case of bench_kernels.py (fixed pure-Python integer
work) and then every row once; each stage keeps its best round.  The host's
speed drifts between processes, and the reference drifts with it, so
ratios to reference_s compare across processes where seconds do not.
Prints one JSON object.

    python3 benchmarks/bench_stages.py [--repeat N] [--sizes 8,16,24,32,48,64]
"""

import argparse
import importlib.util
import json
import random
import time
from fractions import Fraction
from math import inf
from pathlib import Path

from eigencert import localize
from eigencert.charpoly import SquareMatrix
from eigencert.localize import locate
from eigencert.numerics import EXACT
from eigencert.refine import refine_all
from eigencert.report import build_report, to_json

STAGES = ("charpoly", "chain", "locate_rest", "refine_1e-7", "refine_1e-30", "report")
EPSILONS = {"refine_1e-7": Fraction(1, 10**7), "refine_1e-30": Fraction(1, 10**30)}


def load_reference():
    """bench_kernels.py's reference case, loaded from beside this file."""
    path = Path(__file__).with_name("bench_kernels.py")
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference


def seeded_rows(n: int, kind: str) -> list:
    if kind == "int":
        rng = random.Random(n)
        return [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    rng = random.Random(1000 + n)
    return [[Fraction(rng.randint(-99, 99), 10) for _ in range(n)] for _ in range(n)]


def timed(spent: dict, stage: str, fn):
    """fn, adding the seconds of each call to spent[stage]."""
    def wrapper(*args):
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            spent[stage] += time.perf_counter() - started
    return wrapper


def run_stages(rows) -> tuple:
    """({stage: seconds}, chain facts) of one run on a fresh matrix of rows."""
    m = SquareMatrix.from_rows(rows, EXACT)
    spent = dict.fromkeys(STAGES, 0.0)
    charpoly, chain = localize.charpoly, localize.remainder_sequence
    localize.charpoly = timed(spent, "charpoly", charpoly)
    localize.remainder_sequence = timed(spent, "chain", chain)
    try:
        started = time.perf_counter()
        located = locate(m)
        spent["locate_rest"] = (time.perf_counter() - started
                                - spent["charpoly"] - spent["chain"])
    finally:
        localize.charpoly, localize.remainder_sequence = charpoly, chain
    ctx = located.context
    memo = dict(ctx._memo)
    cells = {}
    for stage, eps in EPSILONS.items():
        ctx._memo = dict(memo)
        started = time.perf_counter()
        cells[stage] = refine_all(ctx, located.intervals, eps)
        spent[stage] = time.perf_counter() - started
    started = time.perf_counter()
    to_json(build_report(located, cells["refine_1e-7"], epsilon_text="1e-7", mode="exact",
                         wall_time=0.0))
    spent["report"] = time.perf_counter() - started
    facts = {
        "chain_max_bits": max(abs(c).bit_length() for f in ctx.chain for c in f),
        "chain_members": len(ctx.chain),
        "sigma": ctx.base_signature,
    }
    return spent, facts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="best-of rounds")
    parser.add_argument("--sizes", default="8,16,24,32,48,64",
                        help="comma-separated matrix orders")
    args = parser.parse_args()

    reference = load_reference()
    cases = [(n, kind) for n in map(int, args.sizes.split(",")) for kind in ("int", "dec")]
    inputs = {case: seeded_rows(*case) for case in cases}
    best_reference = inf
    best = {case: dict.fromkeys(STAGES, inf) for case in cases}
    facts = {}
    # round-robin, so a drift in the host's speed reaches every case alike
    for _ in range(args.repeat):
        started = time.perf_counter()
        reference()
        best_reference = min(best_reference, time.perf_counter() - started)
        for case in cases:
            spent, facts[case] = run_stages(inputs[case])
            for stage, seconds in spent.items():
                best[case][stage] = min(best[case][stage], seconds)
    rows = [
        {"n": n, "kind": kind, **{f"{stage}_s": round(best[n, kind][stage], 6)
                                  for stage in STAGES}, **facts[n, kind]}
        for n, kind in cases
    ]
    # one row per line
    print(f'{{"reference_s": {best_reference:.6f}, "rows": [\n'
          + ",\n".join(map(json.dumps, rows)) + "\n]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

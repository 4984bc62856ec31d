"""Write the CLI's output on a fixed, seeded corpus of matrices.

    python3 benchmarks/report_corpus.py OUTDIR [--seed N]

The corpus is the worked 5x5 example, the lost-root 3x3 matrix and 94
seeded matrices with n = 2-8: integer; integer with one row zero off the
diagonal; diagonal with repeated entries plus one corner entry; one- and
two-place decimals, whose common denominator is 10 or 100; and, last,
block-diagonal matrices with constant row sums in integer and one-place
decimal form, whose eigenvalues sit on disk ends and on breakpoints
shared by two candidates.  The matrices are written alternately as CSV
and JSON under OUTDIR/inputs.  Each one runs through `eigencert.cli.main`
in both modes, at epsilon 1e-7 and 1e-30, once with --format json --svg
and once with --format text, and once more in exact mode at 1e-7 with
--column-disks --format json --svg: 864 runs.  For each run, OUTDIR gets NAME.out (stdout, with
the wall time masked), NAME.err (stderr), NAME.code (the exit code) and,
for the JSON runs, NAME.svg.  An exception that escapes `main` is
recorded as exit 1 with its type and message.

Run it on two source trees and compare with `diff -r` to check that a
change leaves every report byte-identical:

    PYTHONPATH=old/src python3 benchmarks/report_corpus.py out-old
    PYTHONPATH=new/src python3 benchmarks/report_corpus.py out-new
    diff -r out-old out-new
"""

import argparse
import contextlib
import io
import json
import os
import random
import re
import traceback

from eigencert import cli

WORKED = [
    ["1.25", "1", "0.75", "0.5", "0.25"],
    ["1", "0", "0", "0", "0"],
    ["-1", "1", "0", "0", "0"],
    ["0", "0", "1", "3", "0"],
    ["0", "0", "0", "0.5", "5"],
]

LOST_ROOT = [
    ["-3", "-12", "-6"],
    ["3", "11.999999999", "5.999999999"],
    ["-3", "-11.999999998", "-5.999999998"],
]

WALL_TIME = [
    (re.compile(r'("wall_time_seconds": )[^,\n}]+'), r"\1MASKED"),
    (re.compile(r"(wall time )\S+s$", re.M), r"\1MASKEDs"),
]


def decimal_text(units: int, places: int) -> str:
    """units / 10**places as decimal text, e.g. (-5, 2) -> "-0.05"."""
    digits = str(abs(units)).rjust(places + 1, "0")
    return ("-" if units < 0 else "") + digits[:-places] + "." + digits[-places:]


def seeded_matrices(seed: int):
    """Yield (name, rows) for the 94 seeded matrices, 2 of each kind and n."""
    rng = random.Random(seed)
    for n in range(2, 9):
        for copy in range(2):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            yield f"int-{n}-{copy}", rows
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            zero = rng.randrange(n)
            rows[zero] = [v if j == zero else 0 for j, v in enumerate(rows[zero])]
            yield f"zero-row-{n}-{copy}", rows
            values = [rng.randint(-3, 3) for _ in range(n)]
            rows = [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
            rows[0][n - 1] = rng.choice((-2, -1, 1, 2))
            yield f"diagonal-{n}-{copy}", rows
    # drawn after the others, so the first 42 do not depend on them
    for n in range(2, 9):
        for copy in range(2):
            for places in (1, 2):
                top = 10**places * 10 - 1
                rows = [[decimal_text(rng.randint(-top, top), places) for _ in range(n)]
                        for _ in range(n)]
                yield f"dec{places}-{n}-{copy}", rows
    # drawn last, so the first 70 do not depend on them
    for n in range(3, 9):
        for copy in range(2):
            for places in (0, 1):
                yield f"rowsum{places}-{n}-{copy}", row_sum_rows(rng, n, places)


def row_sum_rows(rng: random.Random, n: int, places: int) -> list:
    """Two diagonal blocks, each with off-diagonal entries in [0, 5] and
    one row sum s in [-5, 5], as integers (places 0) or decimal text.

    The all-ones vector of a block gives the eigenvalue s, which is the
    right end c + r of each of the block's disks.  The smaller sum often
    lies inside the other block's disks, where it is a breakpoint between
    two candidates.
    """
    unit = 10**places
    split = rng.randint(1, n - 1)
    units = [[0] * n for _ in range(n)]
    for block in (range(split), range(split, n)):
        total = rng.randint(-5 * unit, 5 * unit)
        for i in block:
            for j in block:
                if i != j:
                    units[i][j] = rng.randint(0, 5 * unit)
            units[i][i] = total - sum(units[i])
    if not places:
        return units
    return [[decimal_text(v, places) for v in row] for row in units]


def write_input(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        if path.endswith(".csv"):
            handle.writelines(",".join(str(v) for v in row) + "\n" for row in rows)
        else:
            json.dump({"matrix": rows}, handle)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # recorded, not raised: the corpus must finish
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
            code = 1
    text = out.getvalue()
    for pattern, repl in WALL_TIME:
        text = pattern.sub(repl, text)
    return text, err.getvalue(), code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    os.makedirs(os.path.join(args.outdir, "inputs"), exist_ok=True)
    os.chdir(args.outdir)  # relative paths, so messages do not name OUTDIR
    matrices = [("worked", WORKED), ("lost-root", LOST_ROOT)]
    matrices += list(seeded_matrices(args.seed))
    runs = 0
    for index, (name, rows) in enumerate(matrices):
        path = os.path.join("inputs", f"{index:02d}-{name}.{('csv', 'json')[index % 2]}")
        write_input(rows, path)
        settings = [(mode, eps, fmt, ()) for mode in ("exact", "float")
                    for eps in ("1e-7", "1e-30") for fmt in ("json", "text")]
        settings.append(("exact", "1e-7", "json", ("--column-disks",)))
        for mode, eps, fmt, extra in settings:
            stem = f"{index:02d}-{name}-{mode}-{eps}-{fmt}" + ("-column" if extra else "")
            argv = [path, "--mode", mode, "--epsilon", eps, "--format", fmt, *extra]
            if fmt == "json":
                argv += ["--svg", f"{stem}.svg"]
            out, err, code = run_main(argv)
            for suffix, text in (("out", out), ("err", err), ("code", f"{code}\n")):
                with open(f"{stem}.{suffix}", "w", encoding="utf-8") as handle:
                    handle.write(text)
            runs += 1
    print(f"{runs} runs written to {os.getcwd()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

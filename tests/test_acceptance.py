"""Acceptance suite: one test per shipped guarantee, with a PASS/FAIL line
printed for each so a full run reads as a checklist (use pytest -s).

Golden values for the worked 5x5 matrix are frozen here after being
verified against the independent oracles in eigencert.oracle; everything
random is seeded.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from eigencert.charpoly import SquareMatrix, faddeev_leverrier, hessenberg_reduce, labudde
from eigencert.hermite import hermite_base, hermite_weighted, power_sums, signature
from eigencert.localize import (
    CONTAINS_REAL,
    EMPTY_REAL,
    CertificationContext,
    _merge_segments,
    locate,
)
from eigencert.numerics import EXACT
from eigencert.oracle import (
    companion,
    dense_hermite,
    matmul,
    square_free_part,
    sturm_chain,
    sturm_count_all,
    sturm_count_closed,
    trace,
)
from eigencert.poly import Poly
from eigencert.refine import refine_all
from eigencert.report import text_scalar
from tests.conftest import (
    WORKED_CHARPOLY,
    WORKED_ROWS,
    certify_x,
    mpf_value,
    random_rational_matrix,
)

# real eigenvalues of the worked matrix, frozen from an mpmath QR eigensolve
REAL_EIGENVALUES = (
    F("1.732946083034579"),
    F("2.934726733862349"),
    F("4.997297881111628"),
)

# published-quality enclosures the epsilon=1e-7 run must intersect
REFERENCE_ENCLOSURES = (
    (F("1.7329460382"), F("1.7329461277")),
    (F("2.9347267151"), F("2.9347267747")),
    (F("4.9972978234"), F("4.9972978830")),
)

# candidate-interval fixtures: (lo, hi, sigma of H_q, contains verdict)
INTERVAL_FIXTURES = (
    ("-2", "-1.25", 3, False),
    ("-1.25", "-1", 3, False),
    ("-1", "0", 3, False),
    ("0", "1", 3, False),
    ("1", "1.25", 3, False),
    ("1.25", "2", 1, True),
    ("2", "3", 1, True),
    ("3", "3.75", 3, False),
    ("3.75", "4", 3, False),
    ("4", "4.5", 3, False),
    ("4.5", "5", 1, True),
    ("5", "5.5", 3, False),
)

H1_FIRST_ROW = (F("5"), F("9.25"), F("36.063"), F("155.64"), F("706.88"))
H1_CORNER = F("394523")


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


def write_worked(tmp_path):
    path = tmp_path / "worked.csv"
    path.write_text("\n".join(",".join(row) for row in WORKED_ROWS) + "\n")
    return str(path)


def test_criterion_1_worked_charpoly(worked_exact):
    with criterion(1, "exact charpoly of the worked 5x5 (float route to 1e-30 relative)"):
        started = time.perf_counter()
        exact = faddeev_leverrier(worked_exact)
        assert exact.coeffs == WORKED_CHARPOLY
        approx = labudde(hessenberg_reduce(WORKED_ROWS, 256))
        for want, got in zip(WORKED_CHARPOLY, approx, strict=True):
            rel = abs(want - mpf_value(got)) / abs(want)
            assert rel <= F(1, 10**30)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_h1_and_signature(worked_exact):
    with criterion(2, "H1 matches its printed entries; signature(H1) = 3"):
        p = faddeev_leverrier(worked_exact)
        h1 = hermite_base(p)
        for j, printed in enumerate(H1_FIRST_ROW):
            entry = h1.matrix.rows[0][j]
            rel = abs(entry - printed) / abs(entry) if entry else abs(printed)
            assert rel <= F(5, 10**5)
        corner = h1.matrix.rows[4][4]
        assert abs(corner - H1_CORNER) / corner <= F(1, 10**6)
        assert signature(h1) == 3


def test_criterion_3_disk_verdicts(worked_exact):
    with criterion(3, "disks 1,3,4,5 certified contains-real; disk 2 empty"):
        verdicts = [d.verdict for d in locate(worked_exact).disks]
        assert verdicts == [
            CONTAINS_REAL, EMPTY_REAL, CONTAINS_REAL, CONTAINS_REAL, CONTAINS_REAL,
        ]


def test_criterion_4_interval_verdicts(worked_exact):
    with criterion(4, "all 12 candidate intervals: sigma(H_q) and verdict exact"):
        ctx = CertificationContext.from_matrix(worked_exact)
        for lo, hi, sigma, contains in INTERVAL_FIXTURES:
            iv = certify_x(ctx, lo, hi)
            assert iv.sigma == sigma, (lo, hi)
            assert iv.contains_real == contains, (lo, hi)


def test_criterion_5_refined_pipeline(tmp_path):
    from eigencert.cli import run

    with criterion(5, "epsilon=1e-7 pipeline: 3 intervals holding the reference eigenvalues"):
        started = time.perf_counter()
        report = run(write_worked(tmp_path), epsilon="1e-7")
        elapsed = time.perf_counter() - started
        assert len(report["final_intervals"]) == 3
        for rec, eig, (ref_lo, ref_hi) in zip(
            report["final_intervals"], REAL_EIGENVALUES, REFERENCE_ENCLOSURES
        ):
            lo, hi = text_scalar(rec["lo"]), text_scalar(rec["hi"])
            assert hi - lo <= F(1, 10**7)
            assert lo <= eig <= hi
            assert max(lo, ref_lo) <= min(hi, ref_hi)  # nonempty intersection
        assert elapsed < 60.0


def test_criterion_6_exact_depth(worked_exact):
    with criterion(6, "exact refinement to width 1e-16 still yields 3 intervals"):
        res = locate(worked_exact)
        square_free = square_free_part(res.context.original)
        eps = F(1, 10**16)
        pieces = refine_all(res.context, res.intervals, eps)
        assert len(pieces) == 3
        # the 16-digit reference decimals carry more error than 1e-16, so
        # membership is asserted against the wide enclosures instead
        for piece, (ref_lo, ref_hi) in zip(pieces, REFERENCE_ENCLOSURES):
            assert piece.hi - piece.lo <= eps
            assert ref_lo <= piece.lo <= piece.hi <= ref_hi
            assert sturm_count_closed(square_free, piece.lo, piece.hi) == 1


def test_criterion_7_oracle_equivalence(corpus):
    with criterion(7, "Sturm oracle agrees on 200 random rational matrices"):
        started = time.perf_counter()
        rng = random.Random(71)
        for m in corpus:
            res = locate(m)
            ctx = res.context
            square_free = square_free_part(ctx.original)
            chain = sturm_chain(square_free)
            total = sturm_count_all(chain)
            # (a) signature counts distinct real roots
            assert ctx.base_signature == total

            pieces = refine_all(ctx, res.intervals, F(1, 64))
            segments = [(iv.lo, iv.hi) for iv in pieces]
            segments += [(p, p) for p in res.points]
            # (b) certified output covers every real root: the disjoint
            # closure of the output accounts for all of them
            covered = sum(
                sturm_count_closed(square_free, lo, hi)
                for lo, hi in _merge_segments(segments)
            )
            assert covered == total

            # (c) no certified interval is vacuous
            for iv in pieces:
                assert sturm_count_closed(square_free, iv.lo, iv.hi) >= 1

            # (d) signature drop = 2 x root count, on non-root endpoints
            for _ in range(10):
                while True:
                    a = F(rng.randint(-12, 12), rng.randint(1, 8))
                    b = F(rng.randint(-12, 12), rng.randint(1, 8))
                    if a > b:
                        a, b = b, a
                    if a != b and square_free.eval(a) != 0 and square_free.eval(b) != 0:
                        break
                iv = certify_x(ctx, a, b)
                inside = sturm_count_closed(square_free, a, b)
                assert ctx.base_signature - iv.sigma == 2 * inside
        assert time.perf_counter() - started < 600.0


def test_criterion_8_structure(corpus):
    with criterion(8, "Hankel layout and trace identities"):
        rng = random.Random(88)
        for m in corpus:
            p = faddeev_leverrier(m)
            d = p.degree()
            sums = power_sums(p, 2 * d - 2)
            base = hermite_base(p)
            for i in range(d):
                for j in range(d):
                    assert base.matrix.rows[i][j] == sums[i + j]
            a = F(rng.randint(-10, 10), rng.randint(1, 4))
            b = a + F(rng.randint(1, 8), rng.randint(1, 4))
            q = Poly.from_coeffs([a * b, -(a + b), 1])
            hq = hermite_weighted(base, q)

            if m.n <= 6:
                assert hq.matrix == dense_hermite(p, q)
                c = companion(p)
                acc = c
                assert sums[0] == m.n
                for k in range(1, 2 * m.n - 1):
                    if k <= 2 * d - 2:
                        assert sums[k] == trace(acc)
                    acc = matmul(acc, c)


def test_criterion_9_trivial_spectra():
    with criterion(9, "diagonal input: point spectrum; rotation: certified empty"):
        diag = SquareMatrix.from_rows(
            [[3, 0, 0], [0, -1, 0], [0, 0, F(7, 2)]], EXACT
        )
        res = locate(diag)
        assert res.points == (-1, 3, F(7, 2))
        assert res.tested == () and res.intervals == ()

        rot = SquareMatrix.from_rows([[0, 1], [-1, 0]], EXACT)
        res = locate(rot)
        assert res.context.base_signature == 0
        assert res.points == () and res.intervals == ()
        assert all(d.verdict == EMPTY_REAL for d in res.disks)


def test_criterion_10_scaling():
    with criterion(10, "initial certification log-log growth exponent <= 5"):
        rng = random.Random(1010)
        sizes = (8, 16, 32)
        times = []
        for n in sizes:
            # integer entries: growth here should reflect the operation
            # count, not big-rational coefficient swell
            m = random_rational_matrix(rng, n, max_den=1)
            started = time.perf_counter()
            locate(m)
            times.append(time.perf_counter() - started)
        xs = [math.log(n) for n in sizes]
        ys = [math.log(max(t, 1e-9)) for t in times]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
            (x - xbar) ** 2 for x in xs
        )
        print(f"  times {[round(t, 3) for t in times]} -> exponent {slope:.2f}")
        assert slope <= 5.0

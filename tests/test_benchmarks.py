import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import eigencert

ROOT = Path(__file__).resolve().parents[1]


def test_bench_kernels_runs():
    src = str(Path(eigencert.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"), "--repeat", "1",
         "--size", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for case in ("reference", "sign_variations", "horner_homogeneous", "sturm_chain",
                 "berkowitz_charpoly_int", "refine_isolated", "report_json", "parse_matrix_csv",
                 "parse_matrix_json", "candidate_points", "candidate_points_columns", "locate_int",
                 "locate_decimal", "locate_repeated", "locate_one_double", "locate_fills",
                 "locate_batch",
                 "refine_batch", "refine_hermite", "refine_tiny_eps"):
        assert case in done.stdout


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "benchmarks" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants.MUTANTS


def test_mutants_are_named_once():
    """Every mutant has its own name and changes its text."""
    mutants = load_mutants()
    names = [m.name for m in mutants]
    assert len(names) == len(set(names))
    for m in mutants:
        assert m.old != m.new, m.name


def test_mutants_are_not_stale():
    """Every mutant's old text is in its file exactly once, as the mutation
    run requires: code that moved shows here, not only in that run."""
    for m in load_mutants():
        text = (ROOT / m.path).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, f"stale mutant {m.name}"

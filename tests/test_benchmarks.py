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


def test_mutants_are_named_once():
    """Every mutant has its own name and changes its text."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "benchmarks" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
    for m in mutants.MUTANTS:
        assert m.old != m.new, m.name

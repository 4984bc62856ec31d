import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import eigencert

ROOT = Path(__file__).resolve().parents[1]


def run_benchmark(script, *args) -> str:
    """The standard output of benchmarks/script run on this tree's eigencert."""
    src = str(Path(eigencert.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_bench_kernels_runs():
    out = run_benchmark("bench_kernels.py", "--repeat", "1", "--size", "4")
    for case in ("reference", "sign_variations", "horner_homogeneous", "sturm_chain",
                 "berkowitz_charpoly_int", "refine_isolated", "report_json", "parse_matrix_csv",
                 "parse_matrix_json", "candidate_points", "candidate_points_columns", "locate_int",
                 "locate_decimal", "locate_repeated", "locate_one_double", "locate_fills",
                 "locate_batch",
                 "refine_batch", "refine_hermite", "refine_tiny_eps"):
        assert case in out


def test_bench_stages_runs():
    out = json.loads(run_benchmark("bench_stages.py", "--repeat", "1", "--sizes", "8"))
    assert out["reference_s"] > 0
    assert [(row["n"], row["kind"]) for row in out["rows"]] == [(8, "int"), (8, "dec")]
    for row in out["rows"]:
        for stage in ("charpoly", "chain", "locate_rest", "refine_1e-7", "refine_1e-30",
                      "report"):
            assert row[f"{stage}_s"] >= 0, (row, stage)
        assert row["chain_max_bits"] > 0 and row["chain_members"] > 1


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

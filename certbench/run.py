"""Benchmark of eigencert's certification pipeline on four seeded workloads.

    python3 certbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; eigencert is imported from its `src`.  One
process, no threads.  A run sets up the workload's inputs from the seed,
then solves all of them in whole passes until S seconds are spent, and
checks every answer against sympy.  With --trace 0 it reports the
end-to-end metrics (means over the passes, timed on the scaled clock of
pace.py, which cancels the host's changes of speed); with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only if
every answer passed its checks.  Results and traces are written under
.certbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".certbench"
WORKLOADS = ("locate-heavy", "refine-deep", "cli-small-batch", "float-256")
SETUP_SAMPLES = 5  # at least; one more is taken after every untraced pass


def setup(name: str, seed: int, workdir: Path):
    """Import eigencert and make the inputs; returns (spec, items)."""
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.SPECS[name], workloads.generate(name, seed, workdir)


def setup_sample(name: str, seed: int, workdir: Path) -> float:
    """Set-up time of a fresh interpreter, which imports eigencert anew,
    on pace's scaled clock."""
    done = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", name,
         "--seed", str(seed), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    from eigencert import kernels

    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernels": kernels.IMPLEMENTATION,
        "gmpy2": has_gmpy2,
    }


def answers(spec, result) -> list:
    """Per item: an Answer, or None where the program failed."""
    import checker

    out = []
    for status, value in result.outputs:
        if status != "ok":
            out.append(None)
        elif spec.route == "cli":
            out.append(checker.answer_from_report(value))
        else:
            out.append(checker.answer_from_library(*value, spec.epsilon, spec.bits))
    return out


def verify(items, rounds: list) -> tuple:
    """(failed per pass, problems): first pass against sympy, the rest equal to it."""
    import checker

    first = rounds[0]
    problems = []
    for k, (item, ans) in enumerate(zip(items, first)):
        if ans is not None:
            problems += [f"matrix {k}: {p}" for p in checker.check(ans, checker.reference(item.rows))]
    for number, other in enumerate(rounds[1:], start=2):
        if other != first:
            problems.append(f"pass {number} answered differently from pass 1")
    return sum(ans is None for ans in first), problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, then run whole passes for `seconds`; no checking yet."""
    import workloads

    workdir = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    try:
        spec, items = setup(name, seed, workdir)
        untraced, traced, tracers, rounds, setups = [], [], [], [], []
        started = time.perf_counter()
        deadline = started + seconds
        while not untraced or (trace and len(traced) < 2) or (
                # start a pass only if it should end by half a pass after the deadline
                time.perf_counter() + 0.5 * (time.perf_counter() - started) / len(rounds)
                < deadline):
            if trace and len(untraced) > len(traced):
                import tracing

                with tracing.Tracer() as tracer:
                    result = workloads.run_pass(spec, items, metered=False)
                traced.append(result)
                tracers.append(tracer)
            else:
                result = workloads.run_pass(spec, items)
                untraced.append(result)
                if not trace:
                    # spread over the run, the samples see the machine as the passes do
                    setups.append(setup_sample(name, seed, workdir / f"setup{len(setups)}"))
            rounds.append(answers(spec, result))
            result.outputs = None  # keep memory flat however many passes run
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(name, seed, workdir / f"setup{len(setups)}"))
        rss = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"name": name, "seed": seed, "trace": trace, "items": items, "setups": setups,
            "untraced": untraced, "traced": traced, "tracers": tracers,
            "rounds": rounds, "rss": rss}


def finish(m: dict) -> dict:
    """Check the answers against sympy and reduce the passes to metrics."""
    name, seed, untraced, traced = m["name"], m["seed"], m["untraced"], m["traced"]
    failed, problems = verify(m["items"], m["rounds"])
    if m["trace"]:
        tracers = m["tracers"]
        metrics, problems = _layer_metrics(tracers, untraced, traced, problems)
        _write(OUT / "traces" / f"{name}-seed{seed}.json",
               {"workload": name, "seed": seed,
                "span_fields": ["name", "start", "end", "parent"],
                "passes": [t.spans for t in tracers]})
    else:
        metrics = {
            "setup_s": (statistics.median(m["setups"]), "s"),
            "solve_s": (_mean(r.scaled[0] for r in untraced), "s"),
            "locate_s": (_mean(r.scaled[1] for r in untraced), "s"),
            "refine_s": (_mean(r.scaled[2] for r in untraced), "s"),
            "peak_rss_mb": (m["rss"], "MB"),
        }
    passes = len(untraced) + len(traced)
    return {
        "workload": name,
        "seed": seed,
        "passes": passes,
        "matrices": len(m["items"]),
        "correct": not problems,
        "attempted": passes * len(m["items"]),
        "failed": passes * failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "untraced_passes": [{"solve_s": r.solve_s, "locate_s": r.locate_s,
                             "refine_s": r.refine_s, "scaled": r.scaled,
                             "probes": r.probes} for r in untraced],
        "setup_s_samples": m["setups"],
    }


def _mean(times) -> float:
    """Mean pass time.  Not the median: on a shared host the CPU can switch
    between a fast and a slow state every few seconds, and the median of a
    run jumps to whichever state held most of its passes, while the mean
    moves smoothly with the share of each."""
    return statistics.fmean(times)


def _layer_metrics(tracers, untraced, traced, problems) -> tuple:
    import tracing

    per_pass = [tracing.layer_metrics(t.summary()) for t in tracers]
    first = per_pass[0]
    for k, other in enumerate(per_pass[1:], start=2):
        for name, (value, unit) in first.items():
            if unit in tracing.EXACT_UNITS and other[name][0] != value:
                problems = problems + [f"{name}: traced pass {k} counted "
                                       f"{other[name][0]}, pass 1 counted {value}"]
    metrics = {}
    for name, (value, unit) in first.items():
        if unit not in tracing.EXACT_UNITS:
            value = _mean(p[name][0] for p in per_pass)
        metrics[name] = (value, unit)
    traced_solve = _mean(r.solve_s for r in traced)
    metrics["trace.solve_s"] = (traced_solve, "s")
    metrics["trace.overhead_s"] = (
        traced_solve - _mean(r.solve_s for r in untraced), "s")
    metrics["trace.spans"] = (len(tracers[0].spans), "count")
    return metrics, problems


def _write(path: Path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")


def _print_result(res: dict):
    print(f"workload {res['workload']} seed {res['seed']}: {res['passes']} passes "
          f"of {res['matrices']} matrices, attempted {res['attempted']}, "
          f"failed {res['failed']}, correct {str(res['correct']).lower()}")
    for name, m in res["metrics"].items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    for problem in res["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "eigencert" / "__init__.py").is_file():
        print(f"certbench: no eigencert sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.setup_only:
        import pace

        with pace.Meter() as meter:
            started = meter.now()
            setup(args.workload, args.seed, Path(args.workdir))
            ended = meter.now()
        print(ended[1] - started[1])
        return 0

    env = environment()
    print("env: " + " | ".join(f"{k} {v}" for k, v in env.items()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    # every workload is measured before sympy is loaded to check any of them
    measured = [measure(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    results = [finish(m) for m in measured]
    for res in results:
        _print_result(res)
        _write(OUT / "results" / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json",
               dict(res, env=env))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

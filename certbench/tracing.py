"""Per-layer tracing from outside the program.

The tracer replaces public functions of eigencert's modules with wrappers,
at the names through which they are called, for the length of one traced
pass; the program's files are not changed.  Each wrapper records a span
(name, start, end, parent) in memory, and some record counts or sizes from
their arguments and results.  Span names are `<module>.<what>`, and the
module is the layer whose self time the span adds to.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

from eigencert import cli, hermite, kernels, localize, poly, refine
from eigencert.localize import POINT_EIGENVALUE

# eigencert/__init__.py rebinds the name `charpoly` to the function
charpoly = importlib.import_module("eigencert.charpoly")

LAYERS = ("cli", "report", "charpoly", "poly", "hermite", "kernels", "localize", "refine")

KERNELS = ("bareiss_inertia", "ldl_inertia", "fl_charpoly_int", "labudde_charpoly",
           "hermite_product", "power_sums")


def _max_bits(rows) -> int:
    return max((abs(int(v)).bit_length() for row in rows for v in row), default=0)


class Tracer:
    """Spans and counts of one traced pass; install() patches, remove() undoes."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []
        self._saved = []

    def _wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr, name, after=None):
        self._patch(owner, attr, self._wrap(name, getattr(owner, attr), after))

    def install(self):
        c = self.counts

        def disk_done(args, disk):
            c["localize.disk_tests"] += disk.verdict != POINT_EIGENVALUE

        def candidate_done(args, cert):
            c["localize.candidate.contains"] += cert.contains_real

        def certify_done(args, cert):
            c["refine.certify.contains"] += cert.contains_real

        def refined(args, final):
            c["refine.final_intervals"] += len(final)

        def bareiss_args(args, result):
            c["kernels.bareiss.max_input_bits"] = max(
                c["kernels.bareiss.max_input_bits"], _max_bits(args[0]))

        def json_done(args, text):
            c["report.json_bytes"] += len(text.encode("utf-8"))

        self._span(cli, "main", "cli.main")
        self._span(cli, "load_matrix", "cli.parse")
        self._span(cli, "build_report", "report.build")
        self._span(cli, "to_json", "report.json", json_done)
        for owner in (localize, cli):
            self._span(owner, "locate", "localize.locate")
        for owner in (refine, cli):
            self._span(owner, "refine_all", "refine.refine_all", refined)
        self._span(localize, "certify_disk", "localize.disk", disk_done)
        self._span(localize, "certify_interval", "localize.candidate", candidate_done)
        self._span(refine, "certify_interval", "refine.certify", certify_done)
        self._span(localize, "charpoly", "charpoly")
        self._span(hermite, "charpoly", "charpoly")
        self._span(hermite, "faddeev_leverrier", "charpoly")
        self._span(charpoly, "hessenberg_reduce", "charpoly.hessenberg")
        self._span(charpoly, "labudde", "charpoly.labudde")
        self._span(localize, "square_free_part", "poly.square_free")
        self._span(localize, "hermite_base", "hermite.base")
        self._span(localize, "hermite_weighted", "hermite.weighted")
        self._span(hermite, "descartes_signature", "hermite.descartes")
        self._span(hermite, "inertia", "hermite.inertia")
        for fn in KERNELS:
            self._span(kernels, fn, f"kernels.{fn}",
                       bareiss_args if fn == "bareiss_inertia" else None)

        signature = self._wrap("hermite.signature", localize.signature)
        uncached = localize.signature

        def signature_test(form):
            # a form's signature is cached on it; a cached read is no test
            if form._signature is not None:
                return uncached(form)
            return signature(form)

        self._patch(localize, "signature", signature_test)

        evaluate = poly.Poly.eval

        def counted_eval(p, x):
            c["poly.eval.calls"] += 1
            return evaluate(p, x)

        self._patch(poly.Poly, "eval", counted_eval)
        return self

    def remove(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def summary(self) -> dict:
        """Per-span calls and seconds, per-layer self seconds, raw counts."""
        calls = Counter()
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        for index, (name, start, end, _) in enumerate(self.spans):
            self_s[name.split(".")[0]] += end - start - child[index]
        return {"calls": calls, "seconds": total, "self": self_s, "counts": self.counts}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    calls, sec, counts = summary["calls"], summary["seconds"], summary["counts"]
    out = {
        "cli.parse.s": (sec["cli.parse"], "s"),
        "report.build.s": (sec["report.build"], "s"),
        "report.json.s": (sec["report.json"], "s"),
        "report.json_bytes": (counts["report.json_bytes"], "bytes"),
        "charpoly.calls": (calls["charpoly"], "count"),
        "charpoly.s": (sec["charpoly"], "s"),
        "charpoly.hessenberg.s": (sec["charpoly.hessenberg"], "s"),
        "charpoly.labudde.s": (sec["charpoly.labudde"], "s"),
        "poly.square_free.s": (sec["poly.square_free"], "s"),
        "poly.eval.calls": (counts["poly.eval.calls"], "count"),
        "hermite.base.s": (sec["hermite.base"], "s"),
    }
    for what in ("weighted", "signature", "descartes", "inertia"):
        out[f"hermite.{what}.calls"] = (calls[f"hermite.{what}"], "count")
        out[f"hermite.{what}.s"] = (sec[f"hermite.{what}"], "s")
    for fn in KERNELS:
        out[f"kernels.{fn}.calls"] = (calls[f"kernels.{fn}"], "count")
        out[f"kernels.{fn}.s"] = (sec[f"kernels.{fn}"], "s")
    out["kernels.bareiss.max_input_bits"] = (counts["kernels.bareiss.max_input_bits"], "bits")
    tests = calls["localize.candidate"]
    certify = calls["refine.certify"]
    out.update({
        "localize.disk_tests": (counts["localize.disk_tests"], "count"),
        "localize.disk.s": (sec["localize.disk"], "s"),
        "localize.candidate_tests": (tests, "count"),
        "localize.candidate.s": (sec["localize.candidate"], "s"),
        "localize.candidate.contains_ratio":
            (_ratio(counts["localize.candidate.contains"], tests), "ratio"),
        "refine.certify_calls": (certify, "count"),
        "refine.certify.s": (sec["refine.certify"], "s"),
        "refine.useful_ratio": (_ratio(counts["refine.certify.contains"], certify), "ratio"),
        "refine.calls_per_interval":
            (_ratio(certify, counts["refine.final_intervals"]), "ratio"),
    })
    for layer, seconds in summary["self"].items():
        out[f"{layer}.self_s"] = (seconds, "s")
    return out


# Units of work counts, identical on every traced pass.  The report's size
# is not one: it embeds the run's wall time, so it varies by a few bytes.
EXACT_UNITS = ("count", "bits", "ratio")

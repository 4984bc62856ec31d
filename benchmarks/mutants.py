"""Run each mutant of the certification core against the tests that guard it.

A mutant is one edit of a file under src/eigencert: (name, file, exact old
text, new text, equivalent).  Each is applied alone to a temporary copy of
src/ and tests/, with certbench/tracing.py copied read-only beside them for
tests/test_tracing.py, and the copy runs

    python -m pytest -x -q -p no:cacheprovider -p mutant_profile TESTS

with a timeout.  A mutant is killed when the tests fail or time out,
survived when they pass, and stale when its old text is not in the tree
exactly once (the code moved; rewrite the mutant for it).  The tree is
first run with no mutant, which must pass.  An equivalent
mutant changes no result, so its survival is no finding.  Mutants run one
after another, never in parallel, each within 90 s and 2 GiB of address
space; Hypothesis reports a failing example without shrinking it.  The
exit code is 1 when a mutant that is not equivalent survives or is stale,
and 2 when the unmutated tree fails.

    python3 benchmarks/mutants.py

The list covers src/eigencert/localize.py, and the integer arithmetic of
src/eigencert/kernels.py and src/eigencert/charpoly.py that the chain is
built from; the mutants of src/eigencert/refine.py are still to come.
"""

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

TESTS = ("tests/test_localize.py", "tests/test_refine.py", "tests/test_chain.py",
         "tests/test_charpoly.py", "tests/test_kernels.py", "tests/test_root_accounting.py",
         "tests/test_tracing.py", "tests/test_metamorphic.py")
TRACING = "certbench/tracing.py"  # what tests/test_tracing.py installs


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    equivalent: bool = False


MEMORY_BYTES = 2 << 30  # address space of each test run
TIMEOUT_S = 90  # wall time of each test run

LOCALIZE = "src/eigencert/localize.py"
KERNELS = "src/eigencert/kernels.py"
CHARPOLY = "src/eigencert/charpoly.py"

MUTANTS = (
    # the one fill of locate, and the one-root and end reads of
    # CertificationContext.fill_keys
    Mutant("fill-sign-comparison-flipped", LOCALIZE,
           "(v_j if sign == s_j or not sign else v_i, sign)",
           "(v_j if sign != s_j or not sign else v_i, sign)"),
    Mutant("fill-root-at-run-end-read-as-same-sign", LOCALIZE,
           "(v_j if sign == s_j or not sign else v_i, sign)",
           "(v_j if sign * s_j >= 0 else v_i, sign)"),
    Mutant("fill-without-radius-zero-disks", LOCALIZE,
           "fill = {y for disk in disks for y in disk}",
           "fill = {y for disk in disks if disk[0] < disk[2] for y in disk}"),
    Mutant("fill-first-point-root-not-counted", LOCALIZE,
           "memo[keys[0]] = (at_neg - (sign == 0), sign)",
           "memo[keys[0]] = (at_neg, sign)"),
    Mutant("fill-last-point-read-as-minus-infinity", LOCALIZE,
           "memo[keys[last]] = (at_pos, sign)",
           "memo[keys[last]] = (at_neg, sign)"),
    Mutant("fill-column-ends-outside-hull", LOCALIZE,
           "fill.update(y for seg in col_segments for y in seg if left <= y <= right)",
           "fill.update(y for seg in col_segments for y in seg)",
           equivalent=True),  # column disks bound the roots too; only the memo grows
    Mutant("fill-drop-2-run-read-by-sign", LOCALIZE,
           "            if v_i - v_j > 1:\n",
           "            if v_i - v_j > 2:\n"),
    Mutant("fill-infers-over-dropping-run", LOCALIZE,
           "            if v_i == v_j:\n",
           "            if v_i - v_j <= 1:\n"),
    Mutant("at-infinity-signs-negated", LOCALIZE,
           "at_neg = [f[-1] if len(f) % 2 else -f[-1] for f in self.chain]",
           "at_neg = [-f[-1] if len(f) % 2 else f[-1] for f in self.chain]",
           equivalent=True),  # negating every sign keeps the variations
    # the chain in y = D*x
    Mutant("key-ignores-scale", LOCALIZE,
           "        g = gcd(self.scale, den)\n"
           "        return x.numerator * (self.scale // g), den // g\n",
           "        return x.numerator, den\n"),
    Mutant("chain-of-chi-a-not-chi-b", LOCALIZE,
           "coeffs = list(m.cleared_charpoly)",
           "coeffs = [int(c * m.cleared[1] ** m.n) for c in original.coeffs]"),
    # the subresultant sequence: the Sturm sign, psi and beta
    Mutant("sign-rule-flipped", LOCALIZE,
           "if g[-1] > 0 or gap % 2:",
           "if g[-1] < 0 or gap % 2:"),
    Mutant("sign-rule-ignores-leading-sign", LOCALIZE,
           "if g[-1] > 0 or gap % 2:",
           "if True:"),
    Mutant("psi-update-assumes-normal-step", LOCALIZE,
           "psi = lead**gap // psi**(gap - 1)",
           "psi = lead"),
    Mutant("beta-keeps-sign-of-leading-coefficient", LOCALIZE,
           "lead = abs(g[-1])",
           "lead = g[-1]"),
    Mutant("beta-division-unchecked", LOCALIZE,
           "if any(r for _, r in quotients):",
           "if False:"),
    Mutant("gcd-not-made-primitive", LOCALIZE,
           "            gcd_part = kernels.int_content_strip(gcd_part)\n",
           ""),
    Mutant("gcd-division-remainder-ignored", LOCALIZE,
           "if rem or len(sequence[-1]) > 1:",
           "if len(sequence[-1]) > 1:"),
    Mutant("gcd-sign-not-normalised", LOCALIZE,
           "            if gcd_part[-1] < 0:  # so the quotient keeps the sign of chi_B\n"
           "                gcd_part = [-c for c in gcd_part]\n",
           ""),
    # the disk and candidate tests on keys
    Mutant("disk-right-end-at-centre", LOCALIZE,
           "ctx.sigma_inside((lo, 1), (hi, 1))",
           "ctx.sigma_inside((lo, 1), (c, 1))"),
    Mutant("interval-compare-without-denominators", LOCALIZE,
           "if not lo[0] * hi[1] < hi[0] * lo[1]:",
           "if not lo[0] < hi[0]:"),
    Mutant("interval-verdict-always-contains", LOCALIZE,
           "CertifiedInterval(x_lo, x_hi, sigma != self.base_signature, sigma,",
           "CertifiedInterval(x_lo, x_hi, True, sigma,"),
    # breakpoints and sources
    Mutant("column-union-ends-not-breakpoints", LOCALIZE,
           "            points.update(seg)\n",
           "            pass\n"),
    Mutant("column-cover-not-checked", LOCALIZE,
           "    for region in regions:\n",
           "    for region in regions[:1]:\n"),
    Mutant("breakpoints-from-contains-real-ends-only", LOCALIZE,
           "    for lo, _, hi in disks:\n        points.add(lo)\n",
           "    for lo, _, hi in yes:\n        points.add(lo)\n"),
    Mutant("sources-bisect-left", LOCALIZE,
           "k = max(bisect_right(points, lo) - 1, 0)",
           "k = max(__import__('bisect').bisect_left(points, lo) - 1, 0)"),
    Mutant("sources-through-upper-end", LOCALIZE,
           "while k < last and points[k] < hi:",
           "while k < last and points[k] <= hi:"),
    # the spine that certbench's tracer wraps: a default binds the
    # unwrapped certify_disk, so the disk tests go round the tracer
    Mutant("locate-bypasses-certify-disk", LOCALIZE,
           "def locate(m: SquareMatrix, *, column_disks: bool = False) -> LocateResult:",
           "def locate(m: SquareMatrix, *, column_disks: bool = False,\n"
           "           certify_disk=certify_disk) -> LocateResult:"),
    # integer kernels of the chain and the characteristic polynomial
    Mutant("horner-integer-point-off-past-1e30", KERNELS,
           "            acc = acc * num + c\n        return acc\n",
           "            acc = acc * num + c\n        return acc + (abs(acc) > 10**30)\n"),
    Mutant("prem-skips-a-zero-top-coefficient", KERNELS,
           "            top = num[k + dg]\n",
           "            top = num[k + dg]\n"
           "            if not top:\n                continue\n"),
    Mutant("divmod-exact-past-an-inexact-step", KERNELS,
           "        q, r = divmod(rest[shift + dn], lead)\n        if r:\n            break\n",
           "        q, r = divmod(rest[shift + dn], lead)\n"),
    Mutant("berkowitz-diagonal-sign-flipped", KERNELS,
           "first = [1, -s[r]]",
           "first = [1, s[r]]"),
    Mutant("cleared-charpoly-one-power-of-d-more", CHARPOLY,
           "denom ** (n - k)",
           "denom ** (n - k + 1)"),
)


def apply(mutant: Mutant, root: Path) -> bool:
    """Edit the copy under root; False when the old text is not there exactly once."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


# a pytest plugin for the copy: Hypothesis reports the first failing
# example without shrinking it, which can take minutes on a mutant
NO_SHRINK = """from hypothesis import Phase, settings

settings.register_profile("mutants", database=None,
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("mutants")
"""


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_one(mutant: Mutant | None) -> str:
    """The outcome of the tests on a copy with mutant applied, or with none."""
    with tempfile.TemporaryDirectory(prefix="eigencert-mutant-") as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        (root / TRACING).parent.mkdir()
        shutil.copy(ROOT / TRACING, root / TRACING)
        (root / TRACING).chmod(0o444)
        if mutant is not None and not apply(mutant, root):
            return "stale"
        (root / "mutant_profile.py").write_text(NO_SHRINK, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
               "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "-p", "mutant_profile", *TESTS],
                cwd=root, env=env, capture_output=True, timeout=TIMEOUT_S,
                preexec_fn=limit_memory)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "survived" if done.returncode == 0 else "killed"


def main() -> int:
    control = run_one(None)
    print(f"{'(no mutant)':<44}{control}", flush=True)
    if control != "survived":
        print("the tests fail on the unmutated tree; no mutant was run")
        return 2
    findings = 0
    for m in MUTANTS:
        started = time.perf_counter()
        outcome = run_one(m)
        finding = outcome in ("survived", "stale") and not m.equivalent
        findings += finding
        note = " (equivalent)" if m.equivalent else ""
        print(f"{m.name:<44}{outcome}{note}  {time.perf_counter() - started:.1f} s", flush=True)
    print(f"{len(MUTANTS)} mutants, {findings} survived or stale")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark's tracer (certbench/tracing.py) wraps program functions by
name.  Installing it on the program must find every name it patches, and
removing it must put every original back."""

import importlib.util
import json
from pathlib import Path

import pytest

from eigencert import cli
from tests.conftest import WORKED_ROWS, repeated_block

TRACING = Path(__file__).resolve().parent.parent / "certbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("certbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PIPELINE_SPANS = ("cli.parse", "charpoly", "localize.disk", "localize.candidate")
HERMITE_SPANS = ("hermite.base", "hermite.weighted", "hermite.signature",
                 "kernels.power_sums", "kernels.hermite_product")


def test_tracer_patches_resolve_and_restore(tmp_path):
    path = tmp_path / "worked.csv"
    path.write_text("\n".join(",".join(row) for row in WORKED_ROWS) + "\n")
    tracer = load_tracing().Tracer()
    try:
        tracer.install()  # reads each patched name: a renamed one raises here
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original
        assert cli.main([str(path), "--format", "json", "--epsilon", "0.01"]) == 0
        exact_calls = tracer.summary()["calls"]
        exact_evals = tracer.counts["poly.eval.calls"]
        assert cli.main([str(path), "--format", "json", "--epsilon", "0.01",
                         "--mode", "float"]) == 0
    finally:
        tracer.remove()
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
    for span in PIPELINE_SPANS:
        assert exact_calls[span] > 0, f"no call reached the traced name of {span}"
    # the worked example's p is square-free: its one remainder sequence is
    # the Sturm chain, and square_free_part, though patched, is not called
    assert exact_calls["poly.square_free"] == 0
    # both modes read their signatures off the Sturm chain and their signs
    # by integer Horner; neither builds a Hermite form
    assert exact_evals == 0
    for span in HERMITE_SPANS:
        assert exact_calls[span] == 0, f"exact mode reached {span}"
    calls = tracer.summary()["calls"]
    for span in PIPELINE_SPANS:
        assert calls[span] > exact_calls[span], f"float mode did not reach {span}"
    assert tracer.counts["poly.eval.calls"] == 0
    assert calls["poly.square_free"] == 0
    for span in HERMITE_SPANS:
        assert calls[span] == 0, f"float mode reached {span}"


# B has eigenvalues 0.5 and 2.5 and a complex pair; D = 10
REPEATED_BLOCK = repeated_block(
    [["0.5", "0", "0", "0"], ["1", "2.5", "0", "0"], ["0", "0.3", "0", "-1"],
     ["0.2", "0", "1", "0"]],
    [5, 2, 7, 0, 3, 6, 1, 4],
)


@pytest.mark.parametrize("rows", [WORKED_ROWS, REPEATED_BLOCK], ids=["worked", "repeated-block"])
def test_tracer_spine_counts_one_span_per_test(tmp_path, capsys, rows):
    """certbench's per-layer times come from the spine's spans: one
    charpoly per locate, one localize.disk per disk and one
    localize.candidate per candidate of the report.  A locate that went
    round these names would read 0 there instead of failing."""
    path = tmp_path / "m.csv"
    path.write_text("\n".join(",".join(map(str, row)) for row in rows) + "\n")
    capsys.readouterr()
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert cli.main([str(path), "--format", "json", "--epsilon", "0.01"]) == 0
    finally:
        tracer.remove()
    report = json.loads(capsys.readouterr().out)
    calls = tracer.summary()["calls"]
    assert calls["localize.locate"] == 1
    assert calls["charpoly"] == 1
    assert calls["localize.disk"] == len(report["disks"]) == len(rows)
    assert calls["localize.candidate"] == len(report["initial_intervals"]) > 0

"""The benchmark's tracer (certbench/tracing.py) wraps program functions by
name.  Installing it on the program must find every name it patches, and
removing it must put every original back."""

import importlib.util
from pathlib import Path

from eigencert import cli
from tests.conftest import WORKED_ROWS

TRACING = Path(__file__).resolve().parent.parent / "certbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("certbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    finally:
        tracer.remove()
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
    calls = tracer.summary()["calls"]
    for span in ("cli.parse", "charpoly", "hermite.base", "hermite.weighted",
                 "hermite.signature", "kernels.power_sums", "kernels.hermite_product"):
        assert calls[span] > 0, f"no call reached the traced name of {span}"

"""Smoke test for the benchmark's tracer against the current code.

bench/tracing.py patches harmarea functions by name, so renaming a traced
function breaks `bench/run.py --trace 1`; this test makes that a suite
failure.
"""

import importlib.util
from pathlib import Path

import harmarea.cli as cli

_SPEC = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_traced_area_run(capsys, tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.job_scope("area-identity"):
        code = cli.main(["area", "--preset", "identity", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    counts = tracing.summarize(tracer.take())
    assert counts["distortion.image_area.calls"] == 1
    assert counts["cli.self_s"] > 0.0

"""Smoke test for the benchmark's tracer against the current code.

bench/tracing.py patches harmarea functions by name, so renaming a traced
function breaks `bench/run.py --trace 1`; this test makes that a suite
failure.
"""

import importlib.util
import re
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


def test_traced_family_search(capsys, tmp_path):
    # The lattice is scored in one batched pass, not through the traced
    # per-map calls; the objective count must still be the run's.
    family = tmp_path / "rawball.json"
    family.write_text('{"kind": "rawball", "degree": 2, "coeff_bound": 0.25}')
    argv = ["search", "--family", str(family), "--n", "3", "--out", str(tmp_path / "out")]
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.job_scope("search-rawball"):
        code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    counts = tracing.summarize(tracer.take())
    evaluations = int(re.search(r"^evaluations = (\d+)$", out, re.MULTILINE).group(1))
    assert counts["search.objective.calls"] == evaluations
    assert counts["cli.self_s"] > 0.0

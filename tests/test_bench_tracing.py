"""Smoke test for the benchmark's tracer against the current code.

bench/tracing.py patches harmarea functions by name, so renaming a traced
function breaks `bench/run.py --trace 1`; this test makes that a suite
failure.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

import harmarea.cli as cli
from harmarea import Disk, rasterize
from harmarea.serialize import region_to_json

_SPEC = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("preset, grid", [("identity", False), ("remark-shear-0.3", True)])
def test_traced_area_run(capsys, tmp_path, preset, grid):
    argv = ["area", "--preset", preset, "--out", str(tmp_path)]
    if grid:
        region = tmp_path / "grid.json"
        region.write_text(json.dumps(region_to_json(rasterize(Disk(0.5), 16))))
        argv += ["--region", str(region)]
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.job_scope(f"area-{preset}"):
        code = cli.main(argv)
    capsys.readouterr()
    assert code == 0
    counts = tracing.summarize(tracer.take())
    assert counts["distortion.image_area.calls"] == 1
    assert counts["cli.self_s"] > 0.0
    # A degree-2 map on a grid runs quadrature.integrate_grid, so renaming
    # that kernel makes the grid job read 0 here.
    assert (counts["quadrature.grid.evals"] > 0) == grid


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

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


def test_traced_verify_repeats(capsys, tmp_path):
    # The tracer wraps verification_suite, sup_dilatation and
    # star_contraction_report: a traced verify must run and count the same
    # layers in each cycle.
    counts = []
    for cycle in range(2):
        argv = ["verify", "--preset", "remark-shear-0.3", "--out", str(tmp_path / str(cycle))]
        tracer = tracing.Tracer()
        with tracer.installed(), tracer.job_scope("verify-remark-shear-0.3"):
            code = cli.main(argv)
        capsys.readouterr()
        assert code == 0
        summary = tracing.summarize(tracer.take())
        counts.append({name: summary[name] for name in tracing.COUNTS})
    assert counts[0] == counts[1]
    # One validate, a disk area and energy per radius, one batch per
    # reference integral; the points are the 9 x 256 dilatation circles,
    # f(0) and the shear reference's 9 x (16 + 32) Jacobian nodes.
    expected = {
        "distortion.image_area.calls": 9,
        "distortion.energy.calls": 9,
        "distortion.reference.calls": 2,
        "maps.validate.calls": 1,
        "maps.eval.points": 2737,
    }
    assert {name: counts[0][name] for name in expected} == expected

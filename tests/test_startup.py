"""Start-up: the CLI's parse stage answers without numpy, and the package
exports its names lazily from their home modules."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import harmarea

SRC = Path(harmarea.__file__).parents[1]
ENV = {
    **os.environ,
    "COLUMNS": "80",
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
}


def _console_script() -> str:
    """The call the installed `harmarea` script makes, read from pyproject."""
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    module, function = re.search(r'^harmarea = "([\w.]+):(\w+)"$', text, re.M).groups()
    return f"import {module}; sys.exit({module}.{function}())"


CALLS = {
    "python -m harmarea": "import runpy; runpy.run_module('harmarea', run_name='__main__')",
    "console script": _console_script(),
}

# A fresh interpreter runs the call with argv[2:] as the command line and
# writes the names in sys.modules to argv[1] on the way out.
PROBE = """\
import json, sys
record, sys.argv = sys.argv[1], ["harmarea", *sys.argv[2:]]
try:
    {call}
finally:
    with open(record, "w", encoding="utf-8") as handle:
        json.dump(sorted(sys.modules), handle)
"""


def fresh(call: str, argv: list[str], record: Path):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(call=call), str(record), *argv],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    return proc, set(json.loads(record.read_text(encoding="utf-8")))


NO_COMMAND = (
    "usage: harmarea [-h] {area,verify,sweep,search,oracle} ...\n"
    "harmarea: error: the following arguments are required: command\n"
)


class TestParseStage:
    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize(
        "argv, code, stderr",
        [
            (["--help"], 0, ""),
            (["verify", "--help"], 0, ""),
            ([], 2, NO_COMMAND),
            (["verify", "--tol", "nan"], 2, "error: --tol must be finite\n"),
            (["verify", "--seed", "-1"], 2, "error: --seed must be >= 0\n"),
            (["verify", "--r", "0.5"], 2, "error: verify does not read --r\n"),
            (["sweep", "--format", "json"], 2,
             "error: sweep writes CSV only: use --format csv or both\n"),
        ],
    )
    def test_answers_without_numerical_modules(self, tmp_path, call, argv, code, stderr):
        proc, loaded = fresh(CALLS[call], argv, tmp_path / "modules.json")
        assert (proc.returncode, proc.stderr) == (code, stderr)
        assert proc.stdout.startswith("usage: harmarea") == (code == 0)
        assert not {"numpy", "harmarea.distortion"} & loaded

    # The input refusals that argv alone decides: no input file is read (none
    # of these exists) and the command stage never loads.
    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["area", "--map", "x.json", "--preset", "identity"],
             "give either --map or --preset, not both"),
            (["oracle", "--preset", "identity", "--region", "r.json", "--r", "0.5"],
             "give either --region or --r, not both"),
            (["search", "--family", "f.json", "--preset", "identity"],
             "search takes --family or a map (--map/--preset), not both"),
            (["area"], "a map is required: pass --map FILE or --preset NAME"),
            (["sweep"], "a family is required: pass --family FILE"),
        ],
    )
    def test_input_refusals_answer_before_the_command_stage(
        self, tmp_path, call, argv, message
    ):
        out = tmp_path / "out"
        argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
        proc, loaded = fresh(CALLS[call], [*argv, "--out", str(out)], tmp_path / "modules.json")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
        assert not out.exists()
        assert not {"numpy", "harmarea.cli"} & loaded

    def test_a_command_still_loads_them(self, tmp_path):
        # The probe's record does see loaded modules, so the test above
        # cannot pass on an empty one.
        argv = ["area", "--preset", "identity", "--out", str(tmp_path / "out")]
        proc, loaded = fresh(CALLS["python -m harmarea"], argv, tmp_path / "modules.json")
        assert proc.returncode == 0, proc.stderr
        assert {"numpy", "harmarea.distortion"} <= loaded


class TestGaussTables:
    """The Gauss-Legendre tables are computed in the package, so no command
    loads numpy.polynomial (numpy's leggauss, an eigensolver call)."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify", "--preset", "automorphism-0.5"], 1),
            # Green's formula on a star's panels, for a map of degree 2.
            (["area", "--map", "MAP", "--region", "STAR"], 0),
            # arc_grid_area's circular segments, for a Mobius map on a grid.
            (["area", "--preset", "automorphism-0.5", "--region", "GRID"], 0),
        ],
    )
    def test_commands_leave_numpy_polynomial_unloaded(self, tmp_path, argv, code):
        from harmarea import Disk, rasterize
        from harmarea.serialize import region_to_json

        docs = {
            "MAP": {"form": "polynomial", "h": [[0, 0], [1, 0], [0.2, 0]], "g": [[0, 0], [0.1, 0]]},
            "STAR": {"kind": "star", "profile": [0.6 + 0.2 * (k % 2) for k in range(16)]},
            "GRID": region_to_json(rasterize(Disk(0.7), 16)),
        }
        for key, doc in docs.items():
            (tmp_path / f"{key}.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = [str(tmp_path / f"{arg}.json") if arg in docs else arg for arg in argv]
        argv += ["--format", "both", "--out", str(tmp_path / "out")]
        proc, loaded = fresh(CALLS["python -m harmarea"], argv, tmp_path / "modules.json")
        assert proc.returncode == code, proc.stderr
        assert "harmarea.quadrature" in loaded
        assert not {m for m in loaded if m.startswith("numpy.polynomial")}


class TestLazyPackage:
    @pytest.mark.parametrize("name", harmarea.__all__)
    def test_name_is_its_home_modules_object(self, name):
        home = importlib.import_module(f"harmarea.{harmarea._HOME[name]}")
        assert getattr(harmarea, name) is getattr(home, name)

    def test_names_are_looked_up_on_every_access(self, monkeypatch):
        import harmarea.maps

        sentinel = object()
        monkeypatch.setattr(harmarea.maps, "affine", sentinel)
        assert harmarea.affine is sentinel

    def test_dir_lists_every_export(self):
        assert set(harmarea.__all__) <= set(dir(harmarea))
        assert "__version__" in dir(harmarea)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'harmarea' has no attribute 'no_such'"):
            harmarea.no_such  # noqa: B018

    def test_star_import(self):
        namespace = {}
        exec("from harmarea import *", namespace)
        assert all(namespace[name] is getattr(harmarea, name) for name in harmarea.__all__)

    def test_import_alone_loads_no_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, harmarea; print('numpy' in sys.modules)"],
            capture_output=True, text=True, env=ENV, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

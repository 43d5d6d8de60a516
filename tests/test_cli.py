"""End-to-end CLI behavior: outputs, files, exit codes, determinism."""

import base64
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harmarea.cli
import harmarea.distortion
import harmarea.serialize
import oracles
from harmarea import Disk, PixelGrid, rasterize
from harmarea.cli import main
from harmarea.presets import preset_names
from harmarea.serialize import region_to_json


RAWBALL = {"kind": "rawball", "degree": 2, "coeff_bound": 0.25}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def csv_rows(path):
    return list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))


def stdout_value(text, key):
    for line in text.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"{key} not printed:\n{text}")


# `--help` at COLUMNS=80, as printed before the subcommands shared one
# parent parser for their options.
TOP_HELP = """\
usage: harmarea [-h] {area,verify,sweep,search,oracle} ...

Measure area distortion of planar harmonic maps: image areas, inequality margins, and extremal parameter searches.

positional arguments:
  {area,verify,sweep,search,oracle}
    area                image area of a region under a map, plus the area
                        ratio
    verify              run the full inequality suite for one map
    sweep               tabulate area ratios over a parameter lattice
    search              maximize area ratio (--family) or Schwarz-Pick ratio
                        (--map)
    oracle              cross-check the Jacobian integral against
                        rasterization

options:
  -h, --help            show this help message and exit

Exit codes:
  0  success (all checked inequalities pass)
  1  a checked inequality or oracle-agreement test failed
  2  input could not be parsed or violates a precondition
  3  quadrature refinement hit its caps without converging
  4  an evaluation budget would be exceeded
"""
PRESETS = (
    "{automorphism-0.5,example1-affine-0.2,example1-affine-0.5,example2-shear-0.1,"
    "identity,remark-shear-0.3,rotation}"
)
SUBCOMMAND_USAGE = """\
usage: harmarea {name} [-h] [--map MAP] [--region REGION] [--family FAMILY]
{pad}[--r R] [--tol TOL] [--n N] [--seed SEED] [--out OUT]
{pad}[--format {{json,csv,both}}]
{pad}[--preset {presets}]
{pad}[--workers WORKERS]
"""
SUBCOMMAND_OPTIONS = f"""\
options:
  -h, --help            show this help message and exit
  --map MAP             map definition JSON file
  --region REGION       region definition JSON file
  --family FAMILY       family definition JSON file
  --r R                 radius shorthand for a disk region (default 0.5)
  --tol TOL
  --n N                 resolution knob: raster size (oracle), lattice points
                        per axis (sweep), refinement iterations (search); area
                        and verify ignore it
  --seed SEED
  --out OUT
  --format {{json,csv,both}}
  --preset {PRESETS}
                        built-in map name (alternative to --map)
  --workers WORKERS
"""


class TestHelp:
    @pytest.mark.parametrize("command", ["", "area", "verify", "sweep", "search", "oracle"])
    def test_help_text_is_pinned(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        if command:
            pad = " " * len(f"usage: harmarea {command} ")
            usage = SUBCOMMAND_USAGE.format(name=command, pad=pad, presets=PRESETS)
            expected = usage + "\n" + SUBCOMMAND_OPTIONS
        else:
            expected = TOP_HELP
        assert capsys.readouterr().out == expected


class TestArea:
    def test_affine_preset_on_half_disk(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            ["area", "--preset", "example1-affine-0.5", "--out", str(tmp_path)],
        )
        assert code == 0
        assert stdout_value(out, "ratio") == "0.75"
        assert float(stdout_value(out, "m(f(E))")) == 0.75 * math.pi * 0.25
        rows = csv_rows(tmp_path / "area.csv")
        assert rows[0]["name"] == "area-ratio"
        assert rows[0]["pass"] == "true"

    def test_map_file_and_star_region(self, capsys, tmp_path):
        map_path = write_json(
            tmp_path / "map.json", {"form": "shear", "alpha": [0.3, 0.0], "power": 2}
        )
        code, out, _ = run(
            capsys,
            ["area", "--map", map_path, "--r", "0.5", "--out", str(tmp_path)],
        )
        assert code == 0
        got = float(stdout_value(out, "m(f(E))"))
        assert abs(got - oracles.FROZEN["shear-0.3-p2-disk-0.5"]) < 1e-9

    def test_region_file(self, capsys, tmp_path):
        region = write_json(
            tmp_path / "region.json", {"kind": "star", "profile": [0.5] * 16}
        )
        code, out, _ = run(
            capsys,
            [
                "area",
                "--preset",
                "rotation",
                "--region",
                region,
                "--out",
                str(tmp_path),
                "--format",
                "both",
            ],
        )
        assert code == 0
        assert abs(float(stdout_value(out, "ratio")) - 1.0) < 1e-9
        assert (tmp_path / "area.csv").exists()
        payload = json.loads((tmp_path / "area.json").read_text())
        assert payload["command"] == "area"
        assert abs(payload["ratio"] - 1.0) < 1e-9

    def test_map_and_preset_conflict(self, capsys, tmp_path):
        map_path = write_json(tmp_path / "m.json", {"form": "affine", "alpha": [0.1, 0]})
        code, _, err = run(
            capsys,
            ["area", "--map", map_path, "--preset", "rotation", "--out", str(tmp_path)],
        )
        assert code == 2
        assert "either" in err

    @pytest.mark.parametrize("command", ["area", "oracle", "search"])
    def test_radius_and_region_conflict(self, capsys, tmp_path, command):
        # Two regions contradict each other; neither may be dropped silently.
        region = write_json(tmp_path / "region.json", {"kind": "disk", "r": 0.2})
        code, out, err = run(
            capsys,
            [command, "--preset", "identity", "--region", region, "--r", "0.9",
             "--out", str(tmp_path / "out")],
        )
        assert code == 2
        assert err == "error: give either --region or --r, not both\n"
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("verify", "--region", "missing.json"),
            ("verify", "--r", "0.9"),
            ("verify", "--family", "missing.json"),
            ("area", "--family", "missing.json"),
            ("oracle", "--family", "missing.json"),
            ("sweep", "--map", "missing.json"),
            ("sweep", "--preset", "identity"),
        ],
    )
    def test_unread_input_refused(self, capsys, tmp_path, command, flag, value):
        # Without the refusal each run exits 0, the flag silently dropped.
        if command == "sweep":
            family = {"kind": "affine", "alpha_range": [0.0, 0.5]}
            source = ["--family", write_json(tmp_path / "family.json", family), "--n", "3"]
        else:
            source = ["--preset", "identity"]
        if value == "missing.json":
            value = str(tmp_path / value)
        code, out, err = run(
            capsys, [command, *source, flag, value, "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert err == f"error: {command} does not read {flag}\n"
        assert out == "" and not (tmp_path / "out").exists()

    def test_map_file_not_found(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, ["area", "--map", str(missing), "--out", str(tmp_path)])
        assert (code, out, err) == (2, "", f"error: file not found: {missing}\n")

    def test_missing_map(self, capsys, tmp_path):
        code, _, err = run(capsys, ["area", "--out", str(tmp_path)])
        assert code == 2
        assert "map is required" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["area", "--preset", "identity"], "give either --map or --preset, not both"),
            (["area", "--region", "missing.json", "--r", "0.5"],
             "give either --region or --r, not both"),
        ],
    )
    def test_conflict_refused_before_any_file_is_read(self, capsys, tmp_path, argv, message):
        # --map names no file: reading it would exit 2 with "file not found".
        missing = str(tmp_path / "missing.json")
        argv = [arg.replace("missing.json", missing) for arg in argv]
        code, out, err = run(capsys, [*argv, "--map", missing, "--out", str(tmp_path / "out")])
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_bad_radius(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["area", "--preset", "rotation", "--r", "1.5", "--out", str(tmp_path)],
        )
        assert code == 2

    def test_bad_json_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(
            capsys, ["area", "--map", str(bad), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "invalid JSON" in err

    def test_nonconvergent_quadrature_exit_code(self, capsys, tmp_path):
        # The Mobius pole sits 1e-6 outside the circle: no boundary level
        # under the node cap resolves it.
        map_path = write_json(
            tmp_path / "m.json", {"form": "automorphism", "a": [0.999999, 0.0]}
        )
        region = write_json(
            tmp_path / "region.json", {"kind": "star", "profile": [1.0] * 16}
        )
        code, _, err = run(
            capsys,
            ["area", "--map", map_path, "--region", region, "--out", str(tmp_path)],
        )
        assert code == 3
        assert "converge" in err

    def test_mobius_disk_near_circle_is_closed_form(self, capsys, tmp_path):
        map_path = write_json(
            tmp_path / "m.json", {"form": "automorphism", "a": [0.999, 0.0]}
        )
        code, out, _ = run(
            capsys,
            ["area", "--map", map_path, "--r", "0.999", "--out", str(tmp_path)],
        )
        assert code == 0
        got = float(stdout_value(out, "m(f(E))"))
        expected = oracles.mobius_disk_area(0.999, 0.999)
        assert abs(got - expected) <= 1e-14 * expected
        assert stdout_value(out, "evals") == "1"

    def test_mobius_grid_is_closed_form(self, capsys, tmp_path):
        # The midpoint rule printed 2.20836 with quadrature_error 0.0108, below
        # its true error of 0.014, and exited 0.
        map_path = write_json(
            tmp_path / "m.json", {"form": "automorphism", "a": [0.99, 0.0], "rotation": 0.3}
        )
        grid = region_to_json(rasterize(Disk(0.999), 1024))
        region = write_json(tmp_path / "grid.json", grid)
        code, out, _ = run(
            capsys,
            ["area", "--map", map_path, "--region", region, "--tol", "1e-9",
             "--out", str(tmp_path)],
        )
        assert code == 0
        expected = oracles.FROZEN["mobius-0.99-grid-disk-0.999"]
        assert abs(float(stdout_value(out, "m(f(E))")) - expected) <= 1e-12 * expected
        assert stdout_value(out, "quadrature_error") == "0"

    def test_mobius_pole_in_a_grid_cell_exits_three(self, capsys, tmp_path):
        a = 1.0 / (0.999 + 0.2j).conjugate()
        map_path = write_json(
            tmp_path / "m.json", {"form": "automorphism", "a": [a.real, a.imag]}
        )
        mask = np.zeros((8, 8), dtype=bool)
        mask[4, 7] = True  # the cell [0.75, 1] x [0, 0.25] holds the pole
        region = write_json(tmp_path / "grid.json", region_to_json(PixelGrid(8, mask)))
        code, _, err = run(
            capsys, ["area", "--map", map_path, "--region", region, "--out", str(tmp_path)]
        )
        assert code == 3
        assert "pole" in err

    def test_tol_floor(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            ["area", "--preset", "rotation", "--tol", "1e-13", "--out", str(tmp_path / "out")],
        )
        assert code == 2
        assert err == "error: --tol must be at least 1e-12\n"
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["area", "verify"])
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol(self, capsys, tmp_path, command, tol):
        code, out, err = run(
            capsys,
            [command, "--preset", "example1-affine-0.5", "--tol", tol, "--out", str(tmp_path)],
        )
        assert code == 2
        assert out == ""
        assert err == "error: --tol must be finite\n"
        assert not any(tmp_path.iterdir())

    def test_unknown_preset_rejected_by_parser(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["area", "--preset", "nope", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_n_is_ignored_and_documented_so(self, capsys, tmp_path):
        argv = ["area", "--preset", "remark-shear-0.3", "--out", str(tmp_path)]
        plain = run(capsys, argv)
        assert run(capsys, argv + ["--n", "7"]) == plain
        with pytest.raises(SystemExit):
            main(["area", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "raster size (oracle)" in text
        assert "area and verify ignore it" in text


# h' = 1 - z vanishes at the boundary sample z = 1.
CRITICAL_MAP = {
    "form": "polynomial",
    "h": [[0, 0], [1, 0], [-0.5, 0]],
    "g": [[0, 0], [0.1, 0]],
}
# f = z^2: h' = 2z vanishes at 0, which no point of a polar grid hits.
SQUARE_MAP = {"form": "polynomial", "h": [[0, 0], [0, 0], [1, 0]], "g": [[0, 0]]}
# The Mobius pole 1/conj(a) lies within 1e-15 of z = 1, which no kernel evaluates.
NEAR_POLE_MAP = {"form": "automorphism", "a": [0.999999999999999, 0], "rotation": 0}


class TestUnevaluableMaps:
    @pytest.mark.parametrize(
        "command, doc",
        [("area", CRITICAL_MAP), ("verify", CRITICAL_MAP)],
    )
    def test_precondition_exit_code(self, capsys, tmp_path, command, doc):
        map_path = write_json(tmp_path / "map.json", doc)
        code, _, err = run(capsys, [command, "--map", map_path, "--out", str(tmp_path)])
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_near_pole_automorphism_runs(self, capsys, tmp_path):
        # validate certifies an automorphism by its form, without sampling
        # the circle through the pole guard.  mpmath: 5.57612915522967e-30.
        map_path = write_json(tmp_path / "map.json", NEAR_POLE_MAP)
        argv = ["area", "--map", map_path, "--r", "0.5", "--out", str(tmp_path / "a")]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert stdout_value(out, "m(f(E))") == "5.5761291552296744e-30"
        code, _, err = run(capsys, ["verify", "--map", map_path, "--out", str(tmp_path / "v")])
        assert (code, err) == (0, "")
        assert len(csv_rows(tmp_path / "v" / "verify.csv")) == 117

    @pytest.mark.parametrize("command", ["area", "verify"])
    def test_critical_point_inside_the_disk_exits_two(self, capsys, tmp_path, command):
        map_path = write_json(tmp_path / "map.json", SQUARE_MAP)
        code, out, err = run(capsys, [command, "--map", map_path, "--out", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err == "error: sense-preservation undecidable: h' vanishes near z = 0j\n"


    @pytest.mark.parametrize("region", [None, {"kind": "star", "profile": [0.5, 0.6] * 8}])
    def test_closed_form_overflow_exits_two(self, capsys, tmp_path, region):
        # A degree-1 map's closed form squares |a_1| = 1e307 past the float range.
        doc = {"form": "polynomial", "h": [[0, 0], [1e307, 0]], "g": [[0, 0]]}
        argv = ["area", "--map", write_json(tmp_path / "map.json", doc), "--out", str(tmp_path)]
        if region:
            argv += ["--region", write_json(tmp_path / "star.json", region)]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", "error: the map's area integral overflows the float range\n")


class TestWholeNumberFields:
    """A fractional or infinite shear power or grid n is a bad input (exit 2),
    not a truncated map or an OverflowError."""

    @pytest.mark.parametrize("power, shown", [("2.5", "2.5"), ("1e999", "inf")])
    def test_shear_power(self, capsys, tmp_path, power, shown):
        path = tmp_path / "map.json"
        path.write_text(f'{{"form": "shear", "alpha": [0.3, 0], "power": {power}}}')
        code, out, err = run(capsys, ["area", "--map", str(path), "--out", str(tmp_path)])
        message = f"error: bad map document: shear power must be a whole number, not {shown}\n"
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("n, shown", [("4.7", "4.7"), ("1e999", "inf")])
    def test_grid_n(self, capsys, tmp_path, n, shown):
        path = tmp_path / "grid.json"
        path.write_text(f'{{"kind": "grid", "n": {n}, "mask": "AAA="}}')
        argv = ["area", "--preset", "identity", "--region", str(path), "--out", str(tmp_path)]
        code, out, err = run(capsys, argv)
        message = f"error: bad region document: grid n must be a whole number, not {shown}\n"
        assert (code, out, err) == (2, "", message)


BIG = 10**400  # a JSON integer past the float range


class TestInputContract:
    """A document the CLI would misread, or a path the system refuses, exits
    2 with one error line: not a different map (exit 0) or a traceback."""

    @pytest.mark.parametrize("command", ["area", "verify"])
    def test_unknown_map_key(self, capsys, tmp_path, command):
        path = write_json(tmp_path / "map.json", {"form": "shear", "alpha": [0.3, 0], "powr": 3})
        code, out, err = run(capsys, [command, "--map", path, "--out", str(tmp_path / "out")])
        assert (code, out, err) == (2, "", "error: unknown map key: 'powr'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, doc, message",
        [
            ("--map", {"form": "automorphism", "a": [0.5, 0], "rotaton": 1},
             "unknown map key: 'rotaton'"),
            ("--map", {"form": "automorphism", "a": [0.5, 0], "rotation": "2"},
             "bad map document: rotation must be a number, not '2'"),
            ("--map", {"form": "polynomial", "h": ["01", "10"], "g": [[0, 0]]},
             "h must be a [re, im] pair"),
            ("--map", {"form": "affine", "alpha": [0.3, 0, 9]}, "alpha must be a [re, im] pair"),
            ("--map", {"form": "affine", "alpha": [BIG, 0]},
             "bad map document: int too large to convert to float"),
            ("--map", {"form": "shear", "alpha": [0.1, 0], "power": BIG},
             "bad map document: int too large to convert to float"),
            ("--region", {"kind": "disk", "r": 0.5, "radius": 0.9}, "unknown region key: 'radius'"),
            ("--region", {"kind": "disk", "r": True},
             "bad region document: disk radius must be a number, not True"),
            ("--region", {"kind": "disk", "r": "0.5"},
             "bad region document: disk radius must be a number, not '0.5'"),
            ("--region", {"kind": "disk", "r": BIG},
             "bad region document: int too large to convert to float"),
            ("--region", {"kind": "star", "profile": "11111111"},
             "bad region document: profile value must be a number, not '1'"),
            ("--region", {"kind": "grid", "n": BIG, "mask": "AAA="},
             "grid n is too large for its 2-byte mask"),
            ("--family", {"kind": "rawball", "degree": True, "coeff_bound": 0.1},
             "bad family document: degree must be a number, not True"),
            ("--family", {"kind": "rawball", "degree": "2", "coeff_bound": 0.1},
             "bad family document: degree must be a number, not '2'"),
            ("--family", {"kind": "rawball", "degree": 2, "coeff_bound": "0.1"},
             "bad family document: coefficient bound must be a number, not '0.1'"),
            ("--family", {"kind": "rawball", "degree": 2, "coeff_bound": BIG},
             "bad family document: int too large to convert to float"),
            ("--family", {"kind": "shear", "alpha_range": [0, 0.3], "powers": "23"},
             "bad family document: shear power must be a number, not '2'"),
            ("--family", {"kind": "shear", "alpha_range": [0, 0.3], "powers": [BIG]},
             "bad family document: shear powers must be nonempty ints in [2, 64]"),
            ("--family", {"kind": "affine", "alpha_range": ["0", "0.3"]},
             "bad family document: alpha range must be a finite [lo, hi] interval"),
            ("--family", {"kind": "automorphism", "modulus_range": [0, 2, 3], "rotation_range": [0, 1]},
             "bad family document: modulus range must be a finite [lo, hi] interval"),
            ("--family", {"kind": "automorphism", "modulus_range": [0, 0.5], "rotation_range": [1, 0]},
             "bad family document: rotation range must be a finite [lo, hi] interval"),
        ],
    )
    def test_misread_document(self, capsys, tmp_path, flag, doc, message):
        path = write_json(tmp_path / "doc.json", doc)
        argv = {
            "--map": ["area", "--map", path],
            "--region": ["area", "--preset", "identity", "--region", path],
            "--family": ["sweep", "--family", path, "--n", "3"],
        }[flag]
        code, out, err = run(capsys, [*argv, "--out", str(tmp_path / "out")])
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["region is a directory", "out is a file", "out under a file"])
    def test_refused_path(self, tmp_path, case):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        argv = {
            "region is a directory": ["area", "--region", str(tmp_path), "--out", str(tmp_path)],
            "out is a file": ["verify", "--out", str(blocker)],
            "out under a file": ["area", "--out", str(blocker / "sub")],
        }[case]
        src = str(Path(harmarea.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "harmarea", *argv, "--preset", "identity"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("under", [False, True], ids=["out is a file", "out under a file"])
    @pytest.mark.parametrize("command", ["area", "verify", "sweep", "search", "oracle"])
    def test_out_not_a_directory_refused_before_any_work(self, capsys, tmp_path, command, under):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        fam = write_json(tmp_path / "fam.json", {"kind": "affine", "alpha_range": [0.0, 0.5]})
        inputs = ["--family", fam] if command in ("sweep", "search") else ["--preset", "identity"]
        out = blocker / "sub" if under else blocker
        code, stdout, err = run(capsys, [command, *inputs, "--n", "4", "--out", str(out)])
        assert (code, stdout) == (2, "")
        assert err == f"error: --out path {blocker} exists and is not a directory\n"
        assert blocker.read_text(encoding="utf-8") == "x"


class TestZeroMeasureRegion:
    """Every ratio divides by m(E); a region of zero measure is rejected up
    front, an empty grid as well as a disk or star whose measure underflows."""

    @pytest.mark.parametrize(
        "source",
        [
            ["area", "--preset", "identity"],
            ["sweep", "--family", "FAMILY"],
            ["search", "--family", "FAMILY"],
        ],
    )
    def test_empty_grid_exit_code(self, capsys, tmp_path, source):
        region = write_json(
            tmp_path / "region.json",
            {"kind": "grid", "n": 8, "mask": base64.b64encode(bytes(8)).decode()},
        )
        fam = write_json(
            tmp_path / "fam.json", {"kind": "affine", "alpha_range": [0.0, 0.5]}
        )
        argv = [fam if arg == "FAMILY" else arg for arg in source]
        code, _, err = run(
            capsys, [*argv, "--region", region, "--n", "3", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "zero measure" in err

    @pytest.mark.parametrize("region", ["grid", "disk", "star", "--r"])
    @pytest.mark.parametrize(
        "source",
        [
            ["area", "--preset", "identity"],
            ["sweep", "--family", "FAMILY"],
            ["search", "--family", "FAMILY"],
            ["search", "--preset", "identity"],
            ["oracle", "--preset", "identity"],
        ],
        ids=["area", "sweep", "search-family", "search-map", "oracle"],
    )
    def test_refused_with_one_error_line(self, capsys, tmp_path, source, region):
        # m(E) of a disk or star of radius 1e-300 underflows to 0: the
        # ratio once raised ZeroDivisionError (exit 1 with a traceback), and
        # search --map and oracle ran on.
        docs = {
            "grid": {"kind": "grid", "n": 8, "mask": base64.b64encode(bytes(8)).decode()},
            "disk": {"kind": "disk", "r": 1e-300},
            "star": {"kind": "star", "profile": [1e-300] * 8},
        }
        if region == "--r":
            where = ["--r", "1e-300"]
        else:
            where = ["--region", write_json(tmp_path / "region.json", docs[region])]
        fam = write_json(tmp_path / "fam.json", {"kind": "affine", "alpha_range": [0.0, 0.5]})
        argv = [fam if arg == "FAMILY" else arg for arg in source]
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, [*argv, *where, "--n", "3", "--out", str(out_dir)])
        assert (code, out, err) == (2, "", "error: region has zero measure\n")
        assert not out_dir.exists()


class TestVerify:
    def test_rotation_all_pass(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["verify", "--preset", "rotation", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "checked rows failing: 0" in out
        assert "[FAIL]" not in out
        rows = csv_rows(tmp_path / "verify.csv")
        assert len(rows) == 117
        by_name = {row["name"]: row for row in rows}
        assert by_name["areasp r=0.5"]["margin"] == "0"
        assert by_name["hyperbolic-le r=0.5"]["pass"] == "true"

    def test_automorphism_radial_failures_exit_one(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["verify", "--preset", "automorphism-0.5", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "[FAIL]" in out
        failing = [
            line for line in out.splitlines() if "[FAIL]" in line
        ]
        assert all(line.startswith("radial-worst") for line in failing)

    def test_json_format(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            [
                "verify",
                "--preset",
                "example2-shear-0.1",
                "--format",
                "json",
                "--out",
                str(tmp_path),
            ],
        )
        assert code == 0
        assert not (tmp_path / "verify.csv").exists()
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert len(payload) == 117
        claimed = [row for row in payload if "claimed" in row["name"]]
        assert claimed and all(row["checked"] is False for row in claimed)

    @pytest.mark.parametrize("preset", preset_names())
    def test_stdout_csv_and_json_rows_agree(self, capsys, tmp_path, preset):
        code, out, _ = run(
            capsys, ["verify", "--preset", preset, "--format", "both", "--out", str(tmp_path)]
        )
        *lines, summary = out.splitlines()
        rows = csv_rows(tmp_path / "verify.csv")
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert len(lines) == len(rows) == len(payload) == 117
        for line, row, doc in zip(lines, rows, payload):
            status = ("pass" if doc["pass"] else "FAIL") if doc["checked"] else "info"
            assert line == (
                f"{row['name']}: lhs={row['lhs']} rhs={row['rhs']} "
                f"margin={row['margin']} [{status}]"
            )
            assert row["name"] == doc["name"]
            for key, json_key in (("lhs", "lhs"), ("rhs", "rhs"), ("margin", "margin"),
                                  ("tol", "tolerance")):
                assert float(row[key]) == doc[json_key]
            assert row["pass"] == ("true" if doc["pass"] else "false")
        failing = [line for line in lines if line.endswith("[FAIL]")]
        assert summary == f"checked rows failing: {len(failing)}"
        assert code == (1 if failing else 0)

    @pytest.mark.parametrize(
        "fmt, built", [("csv", ["csv"]), ("json", ["json"]), ("both", ["csv", "json"])]
    )
    def test_rows_formatted_once_and_only_written_files_built(
        self, capsys, tmp_path, monkeypatch, fmt, built
    ):
        formatted, emitted = [], []
        fields = harmarea.serialize.report_fields

        def counted(rep):
            formatted.append(rep.name)
            return fields(rep)

        for module in (harmarea.cli, harmarea.serialize):
            monkeypatch.setattr(module, "report_fields", counted)
        for kind in ("csv", "json"):
            emit = getattr(harmarea.cli, f"reports_to_{kind}")
            monkeypatch.setattr(harmarea.cli, f"reports_to_{kind}",
                                lambda *a, emit=emit, kind=kind: emitted.append(kind) or emit(*a))
        code, out, _ = run(capsys, ["verify", "--preset", "rotation", "--format", fmt,
                                    "--out", str(tmp_path)])
        assert code == 0 and out.count("[pass]") + out.count("[info]") == 117
        assert len(formatted) == 117 and emitted == built
        assert sorted(path.suffix for path in tmp_path.iterdir()) == [f".{k}" for k in built]

    def test_two_runs_byte_identical(self, capsys, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run(capsys, ["verify", "--preset", "remark-shear-0.3", "--out", str(a_dir)])
        run(capsys, ["verify", "--preset", "remark-shear-0.3", "--out", str(b_dir)])
        assert (a_dir / "verify.csv").read_bytes() == (b_dir / "verify.csv").read_bytes()

    def test_worker_count_invariant(self, capsys, tmp_path):
        a_dir, b_dir = tmp_path / "w1", tmp_path / "w8"
        run(
            capsys,
            ["verify", "--preset", "example1-affine-0.2", "--workers", "1", "--out", str(a_dir)],
        )
        run(
            capsys,
            ["verify", "--preset", "example1-affine-0.2", "--workers", "8", "--out", str(b_dir)],
        )
        assert (a_dir / "verify.csv").read_bytes() == (b_dir / "verify.csv").read_bytes()

    def test_bad_worker_count(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["verify", "--preset", "rotation", "--workers", "0", "--out", str(tmp_path)],
        )
        assert code == 2


class TestSweep:
    def test_affine_family(self, capsys, tmp_path):
        fam = write_json(
            tmp_path / "fam.json", {"kind": "affine", "alpha_range": [0.0, 0.8]}
        )
        code, out, _ = run(
            capsys,
            ["sweep", "--family", fam, "--n", "5", "--out", str(tmp_path)],
        )
        assert code == 0
        assert "best: alpha=0 ratio=1 feasible=true" in out
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "index,alpha,ratio,feasible,note"
        assert len(lines) == 6

    def test_missing_family(self, capsys, tmp_path):
        code, _, err = run(capsys, ["sweep", "--out", str(tmp_path)])
        assert code == 2
        assert "family is required" in err

    def test_budget_exit_code(self, capsys, tmp_path):
        fam = write_json(
            tmp_path / "fam.json",
            {"kind": "rawball", "degree": 8, "coeff_bound": 0.05},
        )
        code, _, err = run(
            capsys, ["sweep", "--family", fam, "--n", "3", "--out", str(tmp_path)]
        )
        assert code == 4
        assert "budget" in err

    def test_tol_reaches_the_star_quadrature(self, capsys, tmp_path, monkeypatch):
        seen = []
        original = harmarea.distortion._boundary_batch

        def recording(parts, stars, tol, **kwargs):
            seen.append(tol)
            return original(parts, stars, tol, **kwargs)

        monkeypatch.setattr(harmarea.distortion, "_boundary_batch", recording)
        # A shear family: degree-1 maps take the closed form on every region.
        fam = write_json(tmp_path / "fam.json", {"kind": "shear", "alpha_range": [0.0, 0.3]})
        star = write_json(tmp_path / "star.json", {"kind": "star", "profile": [0.5, 0.6] * 8})
        argv = ["sweep", "--family", fam, "--region", star, "--n", "3", "--out", str(tmp_path)]
        assert run(capsys, argv + ["--tol", "1e-5"])[0] == 0
        assert seen and set(seen) == {1e-5}

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "rawball", "degree": 2.9, "coeff_bound": 0.1},
            {"kind": "shear", "alpha_range": [0.0, 0.3], "powers": [2.5]},
        ],
    )
    def test_fractional_degree_or_power_exits_2(self, capsys, tmp_path, doc):
        fam = write_json(tmp_path / "fam.json", doc)
        code, _, err = run(capsys, ["sweep", "--family", fam, "--n", "3", "--out", str(tmp_path)])
        assert code == 2
        assert "whole number" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"kind": "shear", "alpha_range": [0.0, 0.3], "power": [3]}, "power"),
            ({**RAWBALL, "require_selfmap": True}, "require_selfmap"),
        ],
    )
    def test_unknown_family_key_exits_2(self, capsys, tmp_path, doc, key):
        fam = write_json(tmp_path / "fam.json", doc)
        code, out, err = run(capsys, ["sweep", "--family", fam, "--n", "3", "--out", str(tmp_path)])
        assert (code, out, err) == (2, "", f"error: unknown family key: {key!r}\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_deterministic(self, capsys, tmp_path):
        fam = write_json(
            tmp_path / "fam.json",
            {"kind": "automorphism", "modulus_range": [0.0, 0.6], "rotation_range": [0.0, 6.28]},
        )
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run(capsys, ["sweep", "--family", fam, "--n", "5", "--out", str(a_dir)])
        run(capsys, ["sweep", "--family", fam, "--n", "5", "--out", str(b_dir)])
        assert (a_dir / "sweep.csv").read_bytes() == (b_dir / "sweep.csv").read_bytes()


class TestSearch:
    def test_family_area_objective(self, capsys, tmp_path):
        fam = write_json(
            tmp_path / "fam.json", {"kind": "affine", "alpha_range": [0.0, 0.9]}
        )
        code, out, _ = run(
            capsys,
            ["search", "--family", fam, "--n", "60", "--out", str(tmp_path)],
        )
        assert code == 0
        assert "objective = area-ratio" in out
        best = float(stdout_value(out, "evaluations"))
        assert best > 0
        lines = (tmp_path / "search.csv").read_text().strip().split("\n")
        assert lines[0] == "iteration,alpha,value,feasible"

    def test_zero_rawball_bound_prints_zeros(self, capsys, tmp_path):
        fam = write_json(tmp_path / "fam.json", {"kind": "rawball", "degree": 2, "coeff_bound": 0})
        code, out, _ = run(capsys, ["search", "--family", fam, "--out", str(tmp_path)])
        assert code == 0
        assert "best: h2=0 g1=0 g2=0 value=1\n" in out
        trace = (tmp_path / "search.csv").read_text()
        assert trace.splitlines()[1] == "0,0,0,0,1,true"
        assert "-0" not in trace

    def test_fixed_map_sp_objective(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            [
                "search",
                "--preset",
                "automorphism-0.5",
                "--r",
                "0.5",
                "--n",
                "40",
                "--out",
                str(tmp_path),
            ],
        )
        assert code == 0
        assert "objective = sp-ratio" in out
        assert "exceeds_one = false" in out
        lines = (tmp_path / "search.csv").read_text().strip().split("\n")
        assert lines[0] == "iteration,x,y,value,feasible"

    def test_escaping_shear_flags_exceeds_one(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            [
                "search",
                "--preset",
                "remark-shear-0.3",
                "--r",
                "0.9",
                "--n",
                "40",
                "--out",
                str(tmp_path),
            ],
        )
        assert code == 0
        assert "exceeds_one = true" in out
        assert "value=inf" in out

    def test_family_and_map_conflict(self, capsys, tmp_path):
        fam = write_json(
            tmp_path / "fam.json", {"kind": "affine", "alpha_range": [0.0, 0.5]}
        )
        code, _, err = run(
            capsys,
            [
                "search",
                "--family",
                fam,
                "--preset",
                "rotation",
                "--out",
                str(tmp_path),
            ],
        )
        assert code == 2
        assert "not both" in err

    def test_deterministic_trace(self, capsys, tmp_path):
        fam = write_json(
            tmp_path / "fam.json",
            {"kind": "shear", "alpha_range": [0.0, 0.4], "powers": [2]},
        )
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run(
            capsys,
            ["search", "--family", fam, "--n", "50", "--seed", "42", "--out", str(a_dir)],
        )
        run(
            capsys,
            ["search", "--family", fam, "--n", "50", "--seed", "42", "--out", str(b_dir)],
        )
        assert (a_dir / "search.csv").read_bytes() == (b_dir / "search.csv").read_bytes()


    @pytest.mark.parametrize("argv", [[], ["--r", "0.6"]], ids=["family", "map"])
    def test_negative_seed_exits_two_before_any_scoring(self, capsys, tmp_path, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("scored with a negative seed")

        monkeypatch.setattr(harmarea.cli, "maximize_area_ratio", refuse)
        monkeypatch.setattr(harmarea.cli, "maximize_sp_ratio", refuse)
        if argv:
            argv = ["--preset", "example1-affine-0.2", *argv]
        else:
            argv = ["--family", write_json(tmp_path / "rawball.json", RAWBALL)]
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, ["search", *argv, "--seed", "-1", "--out", str(out_dir)])
        assert code == 2
        assert out == ""
        assert "--seed must be >= 0" in err
        assert not out_dir.exists()


class TestCsvOnlyCommands:
    @pytest.mark.parametrize("command", ["sweep", "search"])
    def test_json_format_exits_two_before_any_output(self, capsys, tmp_path, command):
        fam = write_json(
            tmp_path / "fam.json", {"kind": "affine", "alpha_range": [0.0, 0.5]}
        )
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys,
            [command, "--family", fam, "--n", "5", "--format", "json", "--out", str(out_dir)],
        )
        assert code == 2
        assert out == ""
        assert "CSV only" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["sweep", "search"])
    def test_both_format_writes_the_csv_alone(self, capsys, tmp_path, command):
        fam = write_json(
            tmp_path / "fam.json", {"kind": "affine", "alpha_range": [0.0, 0.5]}
        )
        csv_dir, both_dir = tmp_path / "csv", tmp_path / "both"
        argv = [command, "--family", fam, "--n", "5"]
        run(capsys, argv + ["--out", str(csv_dir)])
        code, _, _ = run(capsys, argv + ["--format", "both", "--out", str(both_dir)])
        assert code == 0
        assert sorted(p.name for p in both_dir.iterdir()) == [f"{command}.csv"]
        assert (both_dir / f"{command}.csv").read_bytes() == (
            csv_dir / f"{command}.csv"
        ).read_bytes()


class TestOracle:
    def test_identity_grids_agree(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["oracle", "--preset", "identity", "--out", str(tmp_path)]
        )
        assert code == 0
        gap = float(stdout_value(out, "relative_gap"))
        assert gap <= 0.03
        rows = csv_rows(tmp_path / "oracle.csv")
        assert [row["name"] for row in rows] == ["oracle-le", "oracle-ge"]
        assert all(row["pass"] == "true" for row in rows)

    def test_mobius_cross_validation(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            [
                "oracle",
                "--preset",
                "automorphism-0.5",
                "--n",
                "2048",
                "--out",
                str(tmp_path),
            ],
        )
        assert code == 0
        integral = float(stdout_value(out, "jacobian_integral"))
        assert abs(integral - oracles.FROZEN["mobius-0.5-disk-0.5"]) < 1e-9

    def test_image_beyond_the_default_window(self, capsys, tmp_path):
        # |f| reaches 2.7 on the disk, past the raster's starting window [-2, 2]^2.
        map_path = write_json(
            tmp_path / "m.json", {"form": "polynomial", "h": [[0, 0], [3, 0]], "g": [[0, 0]]}
        )
        code, out, _ = run(
            capsys,
            ["oracle", "--map", map_path, "--r", "0.9", "--n", "512", "--out", str(tmp_path)],
        )
        assert code == 0
        assert float(stdout_value(out, "relative_gap")) <= 0.02

    def test_overflowing_image_exits_two(self, capsys, tmp_path):
        # f = 1e308 (z + z^2) overflows to inf and nan on the raster, so no
        # window holds the image; doubling the window used to loop forever.
        # The overflow is refused with its own message, and numpy warns of
        # nothing: pytest turns a RuntimeWarning into an error.
        map_path = write_json(
            tmp_path / "m.json",
            {"form": "polynomial", "h": [[0, 0], [1e308, 0], [1e308, 0]], "g": [[0, 0]]},
        )
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, ["oracle", "--map", map_path, "--r", "0.9", "--n", "64", "--out", str(out_dir)]
        )
        assert (code, out, err) == (2, "", "error: the map's image overflows every raster window\n")
        assert not out_dir.exists()

    def test_overflowing_raster_area_exits_two(self, capsys, tmp_path):
        # |f| < 1e307 fits a window of finite width, but the raster area
        # count * cell * cell overflows to inf.
        map_path = write_json(
            tmp_path / "m.json", {"form": "polynomial", "h": [[0, 0], [1e307, 0]], "g": [[0, 0]]}
        )
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, ["oracle", "--map", map_path, "--r", "0.9", "--n", "64", "--out", str(out_dir)]
        )
        assert code == 2
        assert out == ""
        assert "overflows every raster window" in err
        assert not out_dir.exists()

    def test_bad_resolution(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["oracle", "--preset", "identity", "--n", "1000", "--out", str(tmp_path)],
        )
        assert code == 2
        # n = 2 is a power of two, but its half-resolution pass would be 1 x 1.
        code, _, err = run(
            capsys,
            ["oracle", "--preset", "identity", "--n", "2", "--out", str(tmp_path)],
        )
        assert code == 2
        assert "power of two in [4, 4096]" in err

    @pytest.mark.parametrize("n", ["4", "16"])
    def test_vacuous_threshold_exits_two(self, capsys, tmp_path, n):
        # At n = 4 the threshold is 80 against an integral of pi/4: even a
        # raster area of 0 would pass, so the run is refused before output.
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, ["oracle", "--preset", "identity", "--n", n, "--out", str(out_dir)]
        )
        assert code == 2
        assert out == ""
        assert "raise --n" in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

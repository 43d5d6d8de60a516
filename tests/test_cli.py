"""End-to-end CLI behavior: outputs, files, exit codes, determinism."""

import base64
import csv
import json
import math

import pytest

import harmarea.cli
import harmarea.distortion
import oracles
from harmarea.cli import main


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

    def test_missing_map(self, capsys, tmp_path):
        code, _, err = run(capsys, ["area", "--out", str(tmp_path)])
        assert code == 2
        assert "map is required" in err

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

    def test_tol_floor(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["area", "--preset", "rotation", "--tol", "1e-13", "--out", str(tmp_path)],
        )
        assert code == 2

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
# The Mobius pole 1/conj(a) lies within 1e-15 of the boundary sample z = 1.
NEAR_POLE_MAP = {"form": "automorphism", "a": [0.999999999999999, 0], "rotation": 0}


class TestUnevaluableMaps:
    @pytest.mark.parametrize(
        "command, doc",
        [("area", CRITICAL_MAP), ("verify", CRITICAL_MAP), ("area", NEAR_POLE_MAP)],
    )
    def test_precondition_exit_code(self, capsys, tmp_path, command, doc):
        map_path = write_json(tmp_path / "map.json", doc)
        code, _, err = run(capsys, [command, "--map", map_path, "--out", str(tmp_path)])
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["area", "verify"])
    def test_critical_point_inside_the_disk_exits_two(self, capsys, tmp_path, command):
        map_path = write_json(tmp_path / "map.json", SQUARE_MAP)
        code, out, err = run(capsys, [command, "--map", map_path, "--out", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err == "error: sense-preservation undecidable: h' vanishes near z = 0j\n"


    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("region", [None, {"kind": "star", "profile": [0.5, 0.6] * 8}])
    def test_closed_form_overflow_exits_two(self, capsys, tmp_path, region):
        # A degree-1 map's closed form squares |a_1| = 1e307 past the float range.
        doc = {"form": "polynomial", "h": [[0, 0], [1e307, 0]], "g": [[0, 0]]}
        argv = ["area", "--map", write_json(tmp_path / "map.json", doc), "--out", str(tmp_path)]
        if region:
            argv += ["--region", write_json(tmp_path / "star.json", region)]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", "error: the map's area integral overflows the float range\n")


class TestZeroMeasureRegion:
    """Every ratio divides by m(E); an empty grid is rejected up front."""

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
        original = harmarea.distortion.integrate_boundary

        def recording(parts, E, tol, **kwargs):
            seen.append(tol)
            return original(parts, E, tol, **kwargs)

        monkeypatch.setattr(harmarea.distortion, "integrate_boundary", recording)
        # A shear family: degree-1 maps take the closed form on every region.
        fam = write_json(tmp_path / "fam.json", {"kind": "shear", "alpha_range": [0.0, 0.3]})
        star = write_json(tmp_path / "star.json", {"kind": "star", "profile": [0.5, 0.6] * 8})
        argv = ["sweep", "--family", fam, "--region", star, "--n", "3", "--out", str(tmp_path)]
        assert run(capsys, argv + ["--tol", "1e-5"])[0] == 0
        assert seen and set(seen) == {1e-5}

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_image_exits_two(self, capsys, tmp_path):
        # f = 1e308 (z + z^2) overflows to inf and nan on the raster, so no
        # window holds the image; doubling the window used to loop forever.
        map_path = write_json(
            tmp_path / "m.json",
            {"form": "polynomial", "h": [[0, 0], [1e308, 0], [1e308, 0]], "g": [[0, 0]]},
        )
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, ["oracle", "--map", map_path, "--r", "0.9", "--n", "64", "--out", str(out_dir)]
        )
        assert code == 2
        assert out == ""
        assert "overflows every raster window" in err
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

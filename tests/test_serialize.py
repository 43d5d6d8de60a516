"""JSON round-trips and deterministic CSV emission."""

import base64
import json
import math

import numpy as np
import pytest

from harmarea import (
    Disk,
    FamilySpec,
    RawBall,
    SearchResult,
    StarShaped,
    affine,
    automorphism,
    identity_map,
    image_area,
    rasterize,
    raw_polynomial,
    rescaled_affine,
    shear,
    star_cos3,
    sweep,
)
from harmarea.distortion import report
from harmarea.search import AffineFamily, AutomorphismFamily, ShearFamily, SweepRow
from harmarea.serialize import (
    ParseError,
    family_from_json,
    family_to_json,
    fmt,
    map_from_json,
    map_to_json,
    region_from_json,
    region_to_json,
    reports_to_csv,
    reports_to_json,
    search_result_to_csv,
    sweep_to_csv,
)


class TestFmt:
    def test_seventeen_significant_digits(self):
        assert fmt(math.pi) == "3.1415926535897931"
        assert fmt(0.1) == "0.10000000000000001"
        assert fmt(1.0) == "1"
        assert float(fmt(math.pi)) == math.pi  # round-trip exact


class TestMapRoundTrip:
    @pytest.mark.parametrize(
        "f",
        [
            identity_map(),
            affine(0.5),
            affine(0.3 + 0.2j),
            shear(0.3, 2),
            shear(0.1, 3),
            rescaled_affine(0.4),
            automorphism(0.5),
            automorphism(0.3 + 0.2j, rotation=1.1),
            raw_polynomial((0.0, 1.0, 0.1j), (0.0, 0.2, 0.05)),
        ],
    )
    def test_round_trip_preserves_behavior(self, f):
        g = map_from_json(json.loads(json.dumps(map_to_json(f))))
        for z in (0.0, 0.3 + 0.4j, -0.5j, 0.9):
            assert g.evaluate(z) == f.evaluate(z)
            assert g.jacobian(z) == f.jacobian(z)

    def test_named_forms_parse(self):
        f = map_from_json({"form": "affine", "alpha": [0.5, 0.0]})
        assert abs(f.jacobian(0.0) - 0.75) < 1e-15
        f = map_from_json({"form": "shear", "alpha": [0.3, 0.0], "power": 2})
        assert abs(f.evaluate(0.5) - (0.5 + 0.3 * 0.25)) < 1e-15
        f = map_from_json({"form": "automorphism", "a": [0.5, 0.0]})
        assert abs(f.evaluate(0.5)) < 1e-15

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            map_from_json({"form": "spiral"})
        with pytest.raises(ParseError):
            map_from_json({"form": "affine", "alpha": 0.5})
        with pytest.raises(ParseError):
            map_from_json({"form": "polynomial", "h": [], "g": [[0, 0]]})
        with pytest.raises(ParseError):
            map_from_json([1, 2, 3])

    def test_image_area_survives_round_trip(self):
        f = shear(0.3, 2)
        g = map_from_json(map_to_json(f))
        a = image_area(f, Disk(0.5), check_sense=False)
        b = image_area(g, Disk(0.5), check_sense=False)
        assert a.value == b.value


class TestRegionRoundTrip:
    def test_disk(self):
        E = region_from_json(region_to_json(Disk(0.37)))
        assert E == Disk(0.37)

    def test_star(self):
        E = star_cos3(64, scale=0.8)
        back = region_from_json(region_to_json(E))
        assert back == E

    def test_grid_mask_bits(self):
        rng = np.random.default_rng(3)
        n = 64
        xs = (np.arange(n) + 0.5) * (2.0 / n) - 1.0
        inside = np.hypot(xs[None, :], xs[:, None]) < 0.8
        mask = inside & (rng.random((n, n)) < 0.5)
        from harmarea import PixelGrid

        g = PixelGrid(n, mask)
        back = region_from_json(region_to_json(g))
        assert back == g

    def test_raster_round_trip(self):
        g = rasterize(Disk(0.5), 128)
        assert region_from_json(region_to_json(g)) == g

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            region_from_json({"kind": "annulus"})
        with pytest.raises(ParseError):
            region_from_json({"kind": "disk"})
        with pytest.raises(ParseError):
            region_from_json({"kind": "grid", "n": 8, "mask": "@@@"})
        with pytest.raises(ParseError):
            region_from_json({"kind": "star", "profile": [0.5] * 4})

    @pytest.mark.parametrize("size", [1, 7, 9])
    def test_grid_mask_length_must_match(self, size):
        # n = 8 needs exactly 8 mask bytes; a short mask must not zero-pad.
        mask = base64.b64encode(bytes(size)).decode("ascii")
        with pytest.raises(ParseError, match="8 bytes"):
            region_from_json({"kind": "grid", "n": 8, "mask": mask})


class TestFamilyRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec(AffineFamily((0.0, 0.9))),
            FamilySpec(ShearFamily((0.0, 0.3), powers=(2, 3)), require_self_map=True),
            FamilySpec(
                AutomorphismFamily((0.0, 0.8), (0.0, 6.28)),
                require_sense_preserving=False,
            ),
            FamilySpec(RawBall(4, 0.1)),
        ],
    )
    def test_round_trip(self, spec):
        assert family_from_json(family_to_json(spec)) == spec

    def test_defaults(self):
        spec = family_from_json({"kind": "affine", "alpha_range": [0.0, 0.5]})
        assert not spec.require_self_map
        assert spec.require_sense_preserving

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            family_from_json({"kind": "moebius"})
        with pytest.raises(ParseError):
            family_from_json({"kind": "affine", "alpha_range": [0.1]})
        with pytest.raises(ParseError):
            family_from_json({"kind": "rawball", "degree": 2})

    @pytest.mark.parametrize("key", ["require_self_map", "require_sense_preserving"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_constraint_flags_must_be_booleans(self, key, value):
        doc = {"kind": "affine", "alpha_range": [0.0, 0.5], key: value}
        with pytest.raises(ParseError, match=key):
            family_from_json(doc)


class TestReportCsv:
    def test_exact_layout(self):
        rows = [
            report("check-a", 1.0, 2.0, 1e-9, evals=12),
            report("check-b", 3.0, 1.0, 1e-9),
        ]
        text = reports_to_csv(rows)
        lines = text.split("\n")
        assert lines[0] == "name,lhs,rhs,margin,pass,tol,evals"
        assert lines[1] == "check-a,1,2,1,true,1.0000000000000001e-09,12"
        assert lines[2] == "check-b,3,1,-2,false,1.0000000000000001e-09,0"
        assert lines[3] == ""

    def test_json_mirror_carries_detail_and_checked(self):
        rows = [report("x", 0.0, 1.0, 1e-9, detail="why", checked=False)]
        payload = json.loads(reports_to_json(rows))
        assert payload[0]["detail"] == "why"
        assert payload[0]["checked"] is False
        assert payload[0]["pass"] is True


class TestSearchCsv:
    def test_trace_layout(self):
        res = SearchResult(
            best_params=(0.5, 0.25),
            best_value=2.0,
            evaluations=7,
            trace=(((0.0, 0.0), 1.0), ((0.5, 0.25), 2.0)),
            seed=42,
        )
        text = search_result_to_csv(res, ("alpha", "beta"))
        lines = text.strip().split("\n")
        assert lines[0] == "iteration,alpha,beta,value,feasible"
        assert lines[1] == "0,0,0,1,true"
        assert lines[2] == "1,0.5,0.25,2,true"

    def test_infinite_value_serialized(self):
        res = SearchResult(
            best_params=(0.1,),
            best_value=math.inf,
            evaluations=1,
            trace=(((0.1,), math.inf),),
            seed=1,
        )
        text = search_result_to_csv(res, ("x",))
        assert "inf,true" in text


class TestSweepCsv:
    def test_layout_and_nan_literal(self):
        rows = [
            SweepRow(0, (0.0,), 1.0, True, ""),
            SweepRow(1, (1.2,), math.nan, False, "construction: bad"),
        ]
        text = sweep_to_csv(rows, ("alpha",))
        lines = text.strip().split("\n")
        assert lines[0] == "index,alpha,ratio,feasible,note"
        assert lines[1] == "0,0,1,true,"
        assert lines[2] == "1,1.2,nan,false,construction: bad"

    def test_matches_live_sweep(self):
        fam = FamilySpec(AffineFamily((0.0, 0.8)))
        rows = sweep(fam, Disk(0.5), 5)
        text = sweep_to_csv(rows, fam.kind.param_names)
        lines = text.strip().split("\n")
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[1] == "0" and first[3] == "true"

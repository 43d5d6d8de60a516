"""JSON round-trips and deterministic CSV emission."""

import base64
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

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
from harmarea.distortion import VerificationReport
from harmarea.search import AffineFamily, AutomorphismFamily, ShearFamily, SweepRow
from harmarea.serialize import (
    _FAMILIES,
    ParseError,
    family_from_json,
    family_to_json,
    fmt,
    map_from_json,
    map_to_json,
    region_from_json,
    region_to_json,
    report_fields,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
    reports_to_text,
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

    @pytest.mark.parametrize("power, shown", [(2.5, "2.5"), (math.inf, "inf"), (math.nan, "nan")])
    def test_shear_power_must_be_whole(self, power, shown):
        doc = {"form": "shear", "alpha": [0.3, 0.0], "power": power}
        message = f"bad map document: shear power must be a whole number, not {shown}"
        with pytest.raises(ParseError) as excinfo:
            map_from_json(doc)
        assert str(excinfo.value) == message

    def test_whole_float_shear_power_parses(self):
        for power in (2.0, 3.0):
            doc = {"form": "shear", "alpha": [0.3, 0.0], "power": power}
            assert map_from_json(doc) == shear(0.3, int(power))

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

    @pytest.mark.parametrize("n, shown", [(4.7, "4.7"), ("1e999", "inf")])
    def test_grid_n_must_be_whole(self, n, shown):
        mask = base64.b64encode(bytes(3)).decode("ascii")
        text = f'{{"kind": "grid", "n": {n}, "mask": "{mask}"}}'
        with pytest.raises(ParseError) as excinfo:
            region_from_json(json.loads(text))
        assert str(excinfo.value) == f"bad region document: grid n must be a whole number, not {shown}"

    def test_whole_float_grid_n_parses(self):
        g = rasterize(Disk(0.5), 8)
        doc = region_to_json(g)
        assert region_from_json({**doc, "n": 8.0}) == g

    @pytest.mark.parametrize("size", [1, 7, 9])
    def test_grid_mask_length_must_match(self, size):
        # n = 8 needs exactly 8 mask bytes; a short mask must not zero-pad.
        mask = base64.b64encode(bytes(size)).decode("ascii")
        with pytest.raises(ParseError, match="8 bytes"):
            region_from_json({"kind": "grid", "n": 8, "mask": mask})

    @pytest.mark.parametrize(
        "n, message",
        [
            (-8, "bad region document: grid resolution must be >= 2"),
            (-(10**400), "bad region document: grid resolution must be >= 2"),
            (64, "grid mask must be 512 bytes for n = 64"),
            (65, "grid n is too large for its 8-byte mask"),
            (10**400, "grid n is too large for its 8-byte mask"),
        ],
    )
    def test_grid_n_out_of_range(self, n, message):
        # 8 mask bytes hold n * n bits for n = 8 only; past n = 64 the
        # message no longer names the size that n needs.
        mask = base64.b64encode(bytes(8)).decode("ascii")
        with pytest.raises(ParseError) as excinfo:
            region_from_json({"kind": "grid", "n": n, "mask": mask})
        assert str(excinfo.value) == message


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

    @pytest.mark.parametrize("value", [[0.1], [0.0, 0.1, 0.2], "01", 0.5, None])
    def test_range_must_be_two_numbers(self, value):
        with pytest.raises(ParseError, match=r"^bad family document: alpha range must be"):
            family_from_json({"kind": "affine", "alpha_range": value})

    @pytest.mark.parametrize(
        "modulus, rotation, message",
        [
            ([0.0, "0.5"], [0.0, 1.0], "modulus range must be a finite [lo, hi] interval"),
            ([0.5, 0.1], [0.0, 1.0], "modulus range must be a finite [lo, hi] interval"),
            ([-0.1, 0.5], [0.0, 1.0], "modulus range must be nonnegative"),
            ([0.0, 0.5], [0.0, math.inf], "rotation range must be a finite [lo, hi] interval"),
            ([0.0, 0.5], [1.0], "rotation range must be a finite [lo, hi] interval"),
            # The ranges are checked in order, then the sign of the modulus.
            ([0.5, 0.1], [1.0, 0.0], "modulus range must be a finite [lo, hi] interval"),
            ([-0.1, 0.5], [1.0, 0.0], "rotation range must be a finite [lo, hi] interval"),
        ],
    )
    def test_automorphism_ranges_refused(self, modulus, rotation, message):
        doc = {"kind": "automorphism", "modulus_range": modulus, "rotation_range": rotation}
        with pytest.raises(ParseError) as excinfo:
            family_from_json(doc)
        assert str(excinfo.value) == f"bad family document: {message}"

    # One document of each kind, its range fields in the order the kind declares.
    KIND_EXAMPLES = {
        "affine": {"alpha_range": [0.1, 0.4]},
        "shear": {"alpha_range": [0.0, 0.3], "powers": [2, 3]},
        "automorphism": {"modulus_range": [0.2, 0.5], "rotation_range": [-1.0, 1.0]},
        "rawball": {"degree": 2, "coeff_bound": 0.1},
    }

    @pytest.mark.parametrize("kind", sorted(_FAMILIES))
    def test_kind_states_its_box_once(self, kind):
        assert sorted(self.KIND_EXAMPLES) == sorted(_FAMILIES)
        doc = self.KIND_EXAMPLES[kind]
        family = family_from_json({"kind": kind, **doc}).kind
        assert type(family) is _FAMILIES[kind] and family.KIND == kind
        assert family.RANGES == tuple(key for key in doc if key.endswith("_range"))
        if family.RANGES:
            assert family.continuous_bounds() == tuple(getattr(family, key) for key in family.RANGES)
            assert family.continuous_bounds() == tuple(tuple(doc[key]) for key in family.RANGES)
        else:  # rawball: every coefficient in [-coeff_bound, coeff_bound]
            assert family.continuous_bounds() == ((-0.1, 0.1),) * 3  # h2, g1, g2
        assert family_to_json(FamilySpec(family))["kind"] == kind

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "rawball", "degree": 2.9, "coeff_bound": 0.1},
            {"kind": "shear", "alpha_range": [0.0, 0.3], "powers": [2, 2.5]},
        ],
    )
    def test_fractional_degree_and_powers_refused(self, doc):
        with pytest.raises(ParseError, match="whole number"):
            family_from_json(doc)

    def test_whole_floats_parse_to_ints(self):
        doc = {"kind": "rawball", "degree": 2.0, "coeff_bound": 0.1}
        assert family_from_json(doc) == FamilySpec(RawBall(2, 0.1))
        assert family_to_json(family_from_json(doc))["degree"] == 2

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"kind": "shear", "alpha_range": [0.0, 0.3], "power": [3]}, "power"),
            ({"kind": "affine", "alpha_range": [0.0, 0.3], "require_selfmap": True}, "require_selfmap"),
            # Two unknown keys: the first in sorted order is named.
            ({"kind": "rawball", "degree": 2, "coeff_bound": 0.1, "zeta": 1, "bound": 2}, "bound"),
            # A field of another family is unknown to this one.
            ({"kind": "affine", "alpha_range": [0.0, 0.3], "powers": [2]}, "powers"),
        ],
    )
    def test_unknown_keys_refused(self, doc, key):
        with pytest.raises(ParseError) as excinfo:
            family_from_json(doc)
        assert str(excinfo.value) == f"unknown family key: {key!r}"

    def test_unhashable_kind(self):
        with pytest.raises(ParseError, match="unknown family kind"):
            family_from_json({"kind": ["affine"]})

    @pytest.mark.parametrize("key", ["require_self_map", "require_sense_preserving"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_constraint_flags_must_be_booleans(self, key, value):
        doc = {"kind": "affine", "alpha_range": [0.0, 0.5], key: value}
        with pytest.raises(ParseError, match=key):
            family_from_json(doc)


FINITE = st.floats(-0.7, 0.7)
COEFFS = st.lists(st.builds(complex, FINITE, FINITE), min_size=1, max_size=4)
MAPS = st.builds(raw_polynomial, COEFFS, COEFFS) | st.builds(
    automorphism, st.builds(complex, FINITE, FINITE), st.floats(-7.0, 7.0)
)
REGIONS = (
    st.builds(Disk, st.floats(0.01, 1.0))
    | st.builds(StarShaped, st.lists(st.floats(0.01, 1.0), min_size=8, max_size=16))
    | st.builds(lambda n, r: rasterize(Disk(r), n), st.integers(2, 24), st.floats(0.1, 1.0))
)


def ranges(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2).map(sorted).map(tuple)


KINDS = (
    st.builds(AffineFamily, ranges(-0.9, 0.9))
    | st.builds(ShearFamily, ranges(-0.4, 0.4), st.lists(st.integers(2, 6), min_size=1).map(tuple))
    | st.builds(AutomorphismFamily, ranges(0.0, 0.9), ranges(-7.0, 7.0))
    | st.builds(RawBall, st.integers(1, 4), st.floats(0.0, 1.0))
)
DRAWN = (
    st.tuples(st.just("map"), MAPS)
    | st.tuples(st.just("region"), REGIONS)
    | st.tuples(st.just("family"), st.builds(FamilySpec, KINDS, st.booleans(), st.booleans()))
)
READERS = {
    "map": (map_from_json, map_to_json),
    "region": (region_from_json, region_to_json),
    "family": (family_from_json, family_to_json),
}


def numeric_leaves(node, path=()):
    """Paths to the JSON numbers in a document (a bool is not one)."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from numeric_leaves(value, (*path, key))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


class TestOneReader:
    """Maps, regions and families are read by one rule: the tag picks a
    builder, the other keys are its parameters, any other key is refused and
    a number is a JSON number."""

    @given(DRAWN)
    def test_round_trip(self, drawn):
        what, obj = drawn
        read, write = READERS[what]
        assert read(json.loads(json.dumps(write(obj)))) == obj

    @given(DRAWN, st.text(min_size=1, max_size=8))
    def test_unknown_key_is_named(self, drawn, key):
        what, obj = drawn
        read, write = READERS[what]
        doc = write(obj)
        assume(key not in doc)
        with pytest.raises(ParseError) as excinfo:
            read({**doc, key: 0.5})
        assert str(excinfo.value) == f"unknown {what} key: {key!r}"

    @given(DRAWN, st.data())
    def test_wrong_leaf_type_refused(self, drawn, data):
        what, obj = drawn
        read, write = READERS[what]
        doc = write(obj)
        *head, last = data.draw(st.sampled_from(list(numeric_leaves(doc))))
        node = doc
        for key in head:
            node = node[key]
        node[last] = data.draw(st.sampled_from([str(node[last]), True]))
        with pytest.raises(ParseError):
            read(doc)


class TestReportCsv:
    def test_exact_layout(self):
        rows = [
            VerificationReport("check-a", 1.0, 2.0, 1e-9, evals=12),
            VerificationReport("check-b", 3.0, 1.0, 1e-9),
        ]
        text = reports_to_csv(rows)
        lines = text.split("\n")
        assert lines[0] == "name,lhs,rhs,margin,pass,tol,evals"
        assert lines[1] == "check-a,1,2,1,true,1.0000000000000001e-09,12"
        assert lines[2] == "check-b,3,1,-2,false,1.0000000000000001e-09,0"
        assert lines[3] == ""

    @given(
        st.lists(
            st.builds(
                VerificationReport,
                name=st.text(max_size=12),
                lhs=st.floats(allow_nan=False, allow_infinity=False),
                rhs=st.floats(allow_nan=False, allow_infinity=False),
                tolerance=st.floats(),
                detail=st.text(st.sampled_from('ab"\\},{\n\t é∮'), max_size=20)
                | st.sampled_from(['},\n    {"x": 1}', 'a"b\\c', "}, {", "k=1 \u00e9"]),
                checked=st.booleans(),
                evals=st.integers(0, 2**40),
            ),
            max_size=4,
        )
    )
    @example([])
    @example([VerificationReport("r", 0.0, 1.0, math.inf, '},\n    {"', evals=3)])
    @example([VerificationReport("r", 0.0, 1.0, math.nan), VerificationReport("s", 1.0, 0.0, 0.0)])
    def test_json_matches_the_indented_encoder(self, reports):
        dicts = [report_to_dict(r) for r in reports]
        assert reports_to_json(reports) == json.dumps(dicts, indent=2, sort_keys=True)

    def test_json_mirror_carries_detail_and_checked(self):
        rows = [VerificationReport("x", 0.0, 1.0, 1e-9, detail="why", checked=False)]
        payload = json.loads(reports_to_json(rows))
        assert payload[0]["detail"] == "why"
        assert payload[0]["checked"] is False
        assert payload[0]["pass"] is True


class TestReportText:
    def test_exact_lines(self):
        rows = [
            VerificationReport("check-a", 1.0, 2.0, 1e-9),
            VerificationReport("check-b", 3.0, 1.0, 1e-9),
            VerificationReport("claim-c", 3.0, 1.0, 1e-9, checked=False),
        ]
        assert reports_to_text(rows) == (
            "check-a: lhs=1 rhs=2 margin=1 [pass]\n"
            "check-b: lhs=3 rhs=1 margin=-2 [FAIL]\n"
            "claim-c: lhs=3 rhs=1 margin=-2 [info]\n"
        )

    @given(
        st.builds(
            VerificationReport,
            name=st.text(max_size=12),
            lhs=st.floats(allow_nan=False, allow_infinity=False),
            rhs=st.floats(allow_nan=False, allow_infinity=False),
            tolerance=st.floats(),
            evals=st.integers(0, 2**40),
        )
    )
    def test_fields_match_the_report(self, rep):
        # margin and pass are computed once, as the report's properties are.
        assert report_fields(rep) == [
            rep.name,
            fmt(rep.lhs),
            fmt(rep.rhs),
            fmt(rep.margin),
            "true" if rep.passed else "false",
            fmt(rep.tolerance),
            rep.evals,
        ]


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
            SweepRow(0, (0.0,), 1.0, ""),
            SweepRow(1, (1.2,), math.nan, "construction: bad"),
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

"""Parameter sweeps and derivative-free maximization."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import harmarea.distortion
import harmarea.maps
import harmarea.search
import oracles
from harmarea import (
    AffineFamily,
    AutomorphismFamily,
    BudgetError,
    ConstructionError,
    CriticalPointError,
    Disk,
    FamilySpec,
    HypothesisError,
    RawBall,
    SearchResult,
    ShearFamily,
    StarShaped,
    affine,
    maximize_area_ratio,
    maximize_sp_ratio,
    rasterize,
    raw_polynomial,
    rescaled_affine,
    rotation_map,
    shear,
    star_cos3,
    sweep,
    validate,
)
from harmarea.cli import main
from harmarea.quadrature import DEFAULT_TOL

TWO_PI = 2.0 * math.pi


class TestFamilies:
    def test_affine_range_validated(self):
        with pytest.raises(ConstructionError):
            AffineFamily(alpha_range=(0.5, 0.1))
        with pytest.raises(ConstructionError):
            AffineFamily(alpha_range=(0.0, math.inf))

    def test_shear_powers_validated(self):
        with pytest.raises(ConstructionError):
            ShearFamily(alpha_range=(0.0, 0.3), powers=())
        with pytest.raises(ConstructionError):
            ShearFamily(alpha_range=(0.0, 0.3), powers=(1,))

    def test_fractional_degree_and_powers_refused(self):
        # int() would truncate them: degree 2.9 to 2, power 2.5 to 2.
        with pytest.raises(ConstructionError, match="whole number"):
            RawBall(2.9, 0.1)
        with pytest.raises(ConstructionError, match="whole number"):
            ShearFamily((0.0, 0.3), powers=(2.5,))
        with pytest.raises(ConstructionError, match="whole number"):
            RawBall(math.inf, 0.1)
        assert RawBall(2.0, 0.1) == RawBall(2, 0.1)
        assert ShearFamily((0.0, 0.3), powers=(2.0, 3)).powers == (2, 3)

    def test_range_needs_exactly_two_values(self):
        with pytest.raises(ConstructionError, match="alpha range"):
            AffineFamily(alpha_range=(0.0, 0.3, 0.5))
        with pytest.raises(ConstructionError, match="alpha range"):
            AffineFamily(alpha_range=(0.1,))

    def test_automorphism_modulus_nonnegative(self):
        with pytest.raises(ConstructionError):
            AutomorphismFamily(modulus_range=(-0.1, 0.5), rotation_range=(0.0, 1.0))

    def test_rawball_parameter_layout(self):
        fam = RawBall(degree=3, coeff_bound=0.2)
        assert fam.param_names == ("h2", "h3", "g1", "g2", "g3")
        f = fam.construct((0.1, 0.0, 0.05, 0.0, 0.0))
        assert abs(f.evaluate(0.5) - (0.5 + 0.1 * 0.25 + 0.05 * 0.5)) < 1e-15

    @pytest.mark.parametrize("bound", [-1.0, math.inf])
    def test_rawball_bound_finite_and_nonnegative(self, bound):
        with pytest.raises(ConstructionError, match="coefficient bound must be finite and >= 0"):
            RawBall(2, bound)

    def test_rawball_degree_cap(self):
        with pytest.raises(ConstructionError):
            RawBall(degree=0, coeff_bound=0.1)
        with pytest.raises(ConstructionError):
            RawBall(degree=65, coeff_bound=0.1)

    def test_family_spec_constraints(self):
        spec = FamilySpec(AffineFamily((0.0, 0.9)), require_self_map=True)
        spec.build((0.0,))
        with pytest.raises(Exception):
            spec.build((0.5,))  # |f| reaches 1.5 on the boundary


class TestSweep:
    def test_affine_ratios_match_jacobian(self):
        rows = sweep(FamilySpec(AffineFamily((0.0, 0.9))), Disk(0.5), 10)
        assert len(rows) == 10
        for row in rows:
            assert row.feasible
            assert abs(row.ratio - (1.0 - row.params[0] ** 2)) < 1e-12
        ratios = [row.ratio for row in rows]
        assert ratios == sorted(ratios, reverse=True)
        assert rows[0].params == (0.0,)

    def test_identity_ratio_is_exactly_one(self):
        fam = FamilySpec(AffineFamily((0.0, 0.0)))
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            (row,) = sweep(fam, Disk(r), 3)
            assert row.params == (0.0,) and row.ratio == 1.0

    def test_rotations_all_area_preserving(self):
        fam = FamilySpec(AutomorphismFamily((0.0, 0.0), (0.0, TWO_PI)))
        rows = sweep(fam, Disk(0.5), 4)
        for row in rows:
            assert abs(row.ratio - 1.0) < 1e-12

    def test_self_map_requirement_moves_no_automorphism_row(self):
        # Automorphisms are self-maps by construction, so requiring one moves
        # no row.  Sampling them on the circle once raised PoleError at
        # |a| = 1 - 1e-15, where |1 - conj(a) z| < POLE_EPS at z = 1.
        kind = AutomorphismFamily((0.0, 0.999999999999999), (0.0, 0.0))
        rows = sweep(FamilySpec(kind, require_self_map=True), Disk(0.5), 33)
        assert rows == sweep(FamilySpec(kind), Disk(0.5), 33)
        assert len(rows) == 33 and all(row.feasible for row in rows)

    def test_shear_grid_covers_powers(self):
        fam = FamilySpec(ShearFamily((0.0, 0.4), powers=(2, 3)))
        rows = sweep(fam, Disk(0.5), 3)
        assert len(rows) == 6
        rated = [row for row in rows if row.feasible]
        # alpha = 0.4 with p = 3 has p*alpha >= 1 and cannot be built
        assert len(rated) == 5
        for row in rated:
            alpha, p = row.params
            expected = oracles.shear_disk_area(alpha, int(p), 0.5) / (math.pi * 0.25)
            assert abs(row.ratio - expected) < 1e-10

    def test_unconstructible_rows_flagged_without_ratio(self):
        rows = sweep(FamilySpec(AffineFamily((0.5, 1.5))), Disk(0.5), 3)
        bad = [row for row in rows if not row.feasible]
        assert len(bad) == 2
        assert all(math.isnan(row.ratio) for row in bad)
        assert all("construction" in row.note for row in bad)
        # infeasible rows sort after every rated row, in lattice order
        assert [row.index for row in rows[-2:]] == [1, 2]

    def test_constraint_violations_keep_ratio(self):
        fam = FamilySpec(AffineFamily((0.0, 0.6)), require_self_map=True)
        rows = sweep(fam, Disk(0.5), 4)
        flagged = [row for row in rows if not row.feasible]
        assert len(flagged) == 3
        for row in flagged:
            assert "constraint" in row.note
            assert abs(row.ratio - (1.0 - row.params[0] ** 2)) < 1e-12

    def test_each_map_constructed_once(self, monkeypatch):
        calls = []

        def counted(alpha):
            calls.append(alpha)
            return affine(alpha)

        monkeypatch.setattr(harmarea.search, "affine", counted)
        fam = FamilySpec(AffineFamily((0.0, 0.6)), require_self_map=True)
        rows = sweep(fam, Disk(0.5), 4)
        assert len(calls) == len(rows) == 4
        assert sum(not row.feasible for row in rows) == 3

    def test_budget_enforced(self):
        fam = FamilySpec(RawBall(degree=8, coeff_bound=0.05))
        with pytest.raises(BudgetError):
            sweep(fam, Disk(0.5), 3)  # 3^15 lattice points

    def test_grid_floor(self):
        with pytest.raises(ConstructionError):
            sweep(FamilySpec(AffineFamily((0.0, 0.5))), Disk(0.5), 0)

    def test_tol_reaches_the_star_quadrature(self, monkeypatch):
        seen = []
        original = harmarea.distortion._boundary_batch

        def recording(parts, stars, tol, **kwargs):
            seen.append(tol)
            return original(parts, stars, tol, **kwargs)

        monkeypatch.setattr(harmarea.distortion, "_boundary_batch", recording)
        fam = FamilySpec(ShearFamily((0.0, 0.3), powers=(2,)))
        sweep(fam, star_cos3(64), 3, tol=1e-5)
        assert seen and set(seen) == {1e-5}
        seen.clear()
        sweep(fam, star_cos3(64), 3)
        assert seen and set(seen) == {DEFAULT_TOL}

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 1e-13])
    def test_tol_checked(self, tol):
        with pytest.raises(ConstructionError):
            sweep(FamilySpec(AffineFamily((0.0, 0.5))), Disk(0.5), 3, tol=tol)


class TestMaximizeAreaRatio:
    def test_affine_peak_at_zero(self):
        res = maximize_area_ratio(
            FamilySpec(AffineFamily((0.0, 0.9))), Disk(0.5), iterations=60
        )
        assert abs(res.best_value - 1.0) < 1e-6
        assert abs(res.best_params[0]) < 1e-3

    def test_rotations_score_exactly_one(self):
        fam = FamilySpec(AutomorphismFamily((0.0, 0.0), (0.0, TWO_PI)))
        res = maximize_area_ratio(fam, Disk(0.5), iterations=40, grid_per_axis=5)
        assert abs(res.best_value - 1.0) < 1e-12
        assert res.best_params == (0.0, 0.0)  # first lattice point wins ties

    def test_dominates_lattice(self):
        fam = FamilySpec(ShearFamily((0.0, 0.45), powers=(2,)))
        rows = sweep(fam, Disk(0.5), 9)
        res = maximize_area_ratio(fam, Disk(0.5), iterations=60, grid_per_axis=9)
        assert res.best_value >= max(row.ratio for row in rows) - 1e-12

    def test_all_infeasible_family(self):
        fam = FamilySpec(AffineFamily((1.0, 1.5)))
        res = maximize_area_ratio(fam, Disk(0.5), iterations=10, grid_per_axis=5)
        assert res.best_value == -1.0
        assert res.trace == ()

    def test_self_map_constraint_pins_search(self):
        fam = FamilySpec(AffineFamily((0.0, 0.9)), require_self_map=True)
        res = maximize_area_ratio(fam, Disk(0.5), iterations=40, grid_per_axis=9)
        # only alpha = 0 is a self-map, so the max cannot beat ratio 1
        assert res.best_value <= 1.0 + 1e-9

    def test_budget_guard(self):
        fam = FamilySpec(RawBall(degree=8, coeff_bound=0.05))
        with pytest.raises(BudgetError):
            maximize_area_ratio(fam, Disk(0.5), grid_per_axis=3)

    def test_trace_is_feasible_and_monotone(self):
        fam = FamilySpec(ShearFamily((0.0, 0.45)), require_sense_preserving=True)
        res = maximize_area_ratio(fam, Disk(0.5), iterations=50, grid_per_axis=5)
        values = [v for _, v in res.trace]
        assert all(v > -1.0 for v in values)
        assert values == sorted(values)
        assert values[-1] == res.best_value

    def test_seed_reproducibility(self):
        fam = FamilySpec(AutomorphismFamily((0.0, 0.8), (0.0, TWO_PI)))
        a = maximize_area_ratio(fam, Disk(0.5), iterations=30, grid_per_axis=5, seed=123)
        b = maximize_area_ratio(fam, Disk(0.5), iterations=30, grid_per_axis=5, seed=123)
        assert a == b

    def test_iterations_floor(self):
        fam = FamilySpec(AffineFamily((0.0, 0.5)))
        with pytest.raises(ConstructionError):
            maximize_area_ratio(fam, Disk(0.5), iterations=0)

    @pytest.mark.parametrize("grid_per_axis", [0, -3])
    def test_grid_floor(self, grid_per_axis):
        fam = FamilySpec(AffineFamily((0.0, 0.5)))
        with pytest.raises(ConstructionError, match="grid_per_axis must be >= 1"):
            maximize_area_ratio(fam, Disk(0.5), grid_per_axis=grid_per_axis)


class TestMaximizeSpRatio:
    def test_fixed_rotation_constant_objective(self):
        res = maximize_sp_ratio(rotation_map(0.7), Disk(0.5), iterations=30)
        assert abs(res.best_value - 1.0) < 1e-12

    def test_fixed_affine_matches_brute_force(self):
        res = maximize_sp_ratio(affine(0.5), Disk(0.6), iterations=100)
        brute = oracles.affine_sp_ratio_grid(0.5, 0.6, 512)
        assert abs(res.best_value - brute) <= 1e-4 * max(1.0, brute)

    def test_escaping_map_reports_infinity(self):
        # |f(0.9)| = 0.9 + 0.3*0.81 > 1, so some feasible z is flagged inf
        res = maximize_sp_ratio(shear(0.3, 2), Disk(0.9), iterations=60)
        assert math.isinf(res.best_value)

    def test_escaping_affine_matches_brute_force(self):
        res = maximize_sp_ratio(affine(0.5), Disk(0.9), iterations=60)
        assert math.isinf(res.best_value)
        assert math.isinf(oracles.affine_sp_ratio_grid(0.5, 0.9, 256))

    def test_domain_must_be_compact(self):
        with pytest.raises(Exception):
            maximize_sp_ratio(rotation_map(0.0), Disk(1.0))

    def test_trace_reproducible(self):
        a = maximize_sp_ratio(affine(0.4), Disk(0.5), iterations=50, seed=9)
        b = maximize_sp_ratio(affine(0.4), Disk(0.5), iterations=50, seed=9)
        assert a.trace == b.trace

    @pytest.mark.parametrize("grid_per_axis", [0, -3])
    def test_grid_floor(self, grid_per_axis):
        with pytest.raises(ConstructionError, match="grid_per_axis must be >= 1"):
            maximize_sp_ratio(affine(0.4), Disk(0.5), grid_per_axis=grid_per_axis)


class TestCriticalPoints:
    """RawBall(2, 0.5) has lattice points with h2 = -0.5, where h' = 1 - z
    vanishes at z = 1: not sense-preserving, so infeasible."""

    FAMILY = FamilySpec(RawBall(degree=2, coeff_bound=0.5))

    def test_build_raises_hypothesis_error(self):
        with pytest.raises(HypothesisError):
            self.FAMILY.build((-0.5, 0.0, 0.0))

    @pytest.mark.parametrize("self_map, sense", [(False, True), (True, False), (True, True)])
    def test_check_notes_the_critical_point(self, self_map, sense):
        # h' = 1 - z vanishes at the circle point z = 1, under either constraint.
        spec = FamilySpec(AffineFamily((0.0, 0.3)), self_map, sense)
        with pytest.raises(HypothesisError) as excinfo:
            spec.check(raw_polynomial((0.0, 1.0, -0.5), (0.0,)))
        assert str(excinfo.value) == "sense-preservation undecidable: h' vanishes near z = (1+0j)"

    def test_sweep_flags_point(self):
        rows = sweep(self.FAMILY, Disk(0.5), 3)
        critical = [row for row in rows if row.params[0] == -0.5]
        assert len(critical) == 9
        for row in critical:
            assert not row.feasible
            assert row.note.startswith("constraint:")
            assert math.isfinite(row.ratio)

    def test_search_scores_point_minus_one(self):
        res = maximize_area_ratio(self.FAMILY, Disk(0.5), iterations=20, grid_per_axis=3)
        # The nine h2 = -0.5 points lead the lattice; (0, -0.5, -0.5) is not
        # sense-preserving, so the first traced point is the next one.
        params, value = res.trace[0]
        assert params == (0.0, -0.5, 0.0)
        assert value == pytest.approx(0.75, rel=1e-14)

    @pytest.mark.parametrize("command", ["sweep", "search"])
    def test_cli_exits_zero(self, capsys, tmp_path, command):
        fam = tmp_path / "fam.json"
        fam.write_text('{"kind": "rawball", "degree": 2, "coeff_bound": 0.5}')
        argv = [command, "--family", str(fam), "--n", "3", "--out", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        rows = (tmp_path / f"{command}.csv").read_text().splitlines()
        if command == "sweep":
            flagged = [row for row in rows if row.split(",")[1] == "-0.5"]
            assert len(flagged) == 9
            assert all(",false,constraint:" in row for row in flagged)


STAR = StarShaped(tuple(0.55 + 0.25 * math.cos(3.0 * TWO_PI * k / 64) for k in range(64)))
LATTICE_REGIONS = {"disk": Disk(0.5), "star": STAR, "grid": rasterize(STAR, 32)}
# Each family's lattice reaches infeasible points: construction failures
# (shear), h' vanishing on the disk and certified reversal (rawball), and,
# with require_self_map, maps that leave the disk.
LATTICE_FAMILIES = {
    "affine": AffineFamily((0.0, 0.9)),
    "shear": ShearFamily((0.0, 0.6), (2, 3)),
    "automorphism": AutomorphismFamily((0.0, 0.8), (0.0, 6.0)),
    "rawball": RawBall(2, 0.5),
}


def _row_bits(rows):
    return [(row.index, row.params, repr(row.ratio), row.note) for row in rows]


class TestLatticeMatchesPerPointReference:
    """The batched lattice pass gives exactly what scoring one map at a time
    gives: rows, notes, ratios, incumbent, trace and evaluation count."""

    @pytest.mark.parametrize("self_map", [False, True])
    @pytest.mark.parametrize("region", sorted(LATTICE_REGIONS))
    @pytest.mark.parametrize("kind", sorted(LATTICE_FAMILIES))
    def test_families(self, kind, region, self_map):
        family = FamilySpec(LATTICE_FAMILIES[kind], require_self_map=self_map)
        E = LATTICE_REGIONS[region]
        self._check(family, E, 5)

    @pytest.mark.parametrize("self_map", [False, True])
    def test_degree_three_rawball_spans_blocks(self, self_map):
        # 5^5 = 3125 lattice points: several blocks of LATTICE_BLOCK rows.
        assert 5**5 > harmarea.search.LATTICE_BLOCK
        family = FamilySpec(RawBall(3, 0.25), require_self_map=self_map)
        self._check(family, Disk(0.6), 5)

    @staticmethod
    def _check(family, E, per_axis):
        rows = sweep(family, E, per_axis)
        assert _row_bits(rows) == _row_bits(oracles.sweep_per_point(family, E, per_axis))
        result = maximize_area_ratio(family, E, iterations=20, seed=3, grid_per_axis=per_axis)
        expected = oracles.maximize_area_ratio_per_point(family, E, 20, 3, per_axis, DEFAULT_TOL)
        assert result == expected


class TestOneScoringPath:
    """Simplex points go through the lattice's scorer: no search or sweep
    path builds a map with FamilySpec.build, and the results are still the
    reference's."""

    @pytest.mark.parametrize("region", ["disk", "star"])
    @pytest.mark.parametrize("kind", ["affine", "shear", "rawball"])
    def test_search_never_calls_build(self, kind, region, monkeypatch):
        family = FamilySpec(LATTICE_FAMILIES[kind], require_self_map=True)
        E = LATTICE_REGIONS[region]
        expected = oracles.maximize_area_ratio_per_point(family, E, 20, 3, 5, DEFAULT_TOL)

        def refuse(self, params):
            raise AssertionError("FamilySpec.build called")

        monkeypatch.setattr(FamilySpec, "build", refuse)
        assert maximize_area_ratio(family, E, iterations=20, seed=3, grid_per_axis=5) == expected
        assert _row_bits(sweep(family, E, 5)) == _row_bits(oracles.sweep_per_point(family, E, 5))


# Families whose lattices mix certified rows with every kind of note:
# construction failures (affine, shear), reversal and vanishing h' (rawball),
# and maps that leave the disk.
NOTE_FAMILIES = {
    "rawball": RawBall(2, 0.5),
    "affine": AffineFamily((-1.2, 1.2)),
    "shear": ShearFamily((-0.6, 0.6), (2, 3)),
    "automorphism": AutomorphismFamily((0.0, 0.8), (0.0, 6.0)),
}
REQUIREMENTS = {"sense": (False, True), "self-map": (True, False), "both": (True, True)}


def _notes_validating_every_row(family, params):
    """_score_block's notes from validate on every constructible row,
    automorphisms included; a CriticalPointError is its row's entry."""
    notes, validity = [""] * len(params), {}
    for i, p in enumerate(params.tolist()):
        try:
            f = family.kind.construct(p)
        except ConstructionError as exc:
            notes[i] = f"construction: {exc}"
            continue
        try:
            validity[i] = validate(f)
        except CriticalPointError as exc:
            validity[i] = exc
    for j, why in family._violations(list(validity.values())).items():
        notes[list(validity)[j]] = f"constraint: {why}"
    return notes


class TestCertificateKeepsNotes:
    """Rows that the coefficient certificate decides, and automorphisms,
    skip the circle, and every note is still what validating every row
    gives, in a block or alone."""

    @pytest.mark.parametrize("require", sorted(REQUIREMENTS))
    @pytest.mark.parametrize("kind", sorted(NOTE_FAMILIES))
    def test_notes_match_validating_every_row(self, kind, require, monkeypatch):
        self_map, sense = REQUIREMENTS[require]
        family = FamilySpec(NOTE_FAMILIES[kind], self_map, sense)
        params = harmarea.search._lattice(
            family.kind.continuous_bounds(), family.kind.discrete_axes(), 9
        )
        notes = harmarea.search._score_block(family, Disk(0.5), params, DEFAULT_TOL)[0]
        assert notes == _notes_validating_every_row(family, params)
        assert notes[::7] == [
            harmarea.search._score_block(family, Disk(0.5), params[i : i + 1], DEFAULT_TOL)[0][0]
            for i in range(0, len(params), 7)
        ]
        if kind != "automorphism":  # conformal rows never reach the certificate
            built = [
                family.kind.construct(p)
                for p, note in zip(params.tolist(), notes)
                if not note.startswith("construction")
            ]
            rows = harmarea.maps.coefficient_rows(built)[0]
            # Not vacuous: without a self-map to show, the certificate decides rows.
            assert harmarea.maps._coefficient_certificate(rows, self_map).any() or self_map
            monkeypatch.setattr(
                harmarea.search, "_coefficient_certificate", lambda rows, _: np.zeros(len(rows), bool)
            )
            forced = harmarea.search._score_block(family, Disk(0.5), params, DEFAULT_TOL)[0]
            assert forced == _notes_validating_every_row(family, params)


class _ListedMaps:
    """A family kind whose parameter row (i,) is the i-th of its maps."""

    def __init__(self, maps):
        self.maps = maps

    def construct(self, params):
        return self.maps[int(params[0])]


# Rows that break two constraints, one, and none.
PRECEDENCE_MAPS = [
    raw_polynomial((0, 1, -0.5), (0,)),  # h' vanishes at z = 1; sup |f| = 1.5
    raw_polynomial((0, 1), (0, 2)),  # reversing; sup |f| = 3
    raw_polynomial((0, 2), (0,)),  # only sup |f| = 2
    rescaled_affine(0.2),  # feasible
]
_CRITICAL = "sense-preservation undecidable: h' vanishes near z = (1+0j)"
PRECEDENCE_NOTES = {
    "sense": [_CRITICAL, "not sense-preserving (certified)", "", ""],
    "self-map": [_CRITICAL, "not a self-map (sup |f| = 3)", "not a self-map (sup |f| = 2)", ""],
    "both": [_CRITICAL, "not sense-preserving (certified)", "not a self-map (sup |f| = 2)", ""],
}


class TestNotePrecedence:
    """A row that breaks two constraints is noted by the first of: its
    CriticalPointError, a certified reversal, sup |f| past the disk."""

    @pytest.mark.parametrize("require", sorted(REQUIREMENTS))
    def test_score_block_notes(self, require):
        family = FamilySpec(_ListedMaps(PRECEDENCE_MAPS), *REQUIREMENTS[require])
        params = np.arange(len(PRECEDENCE_MAPS), dtype=float)[:, None]
        notes = harmarea.search._score_block(family, Disk(0.5), params, DEFAULT_TOL)[0]
        expected = [why and f"constraint: {why}" for why in PRECEDENCE_NOTES[require]]
        assert notes == expected

    @pytest.mark.parametrize("require", sorted(REQUIREMENTS))
    def test_check_notes(self, require):
        family = FamilySpec(_ListedMaps(PRECEDENCE_MAPS), *REQUIREMENTS[require])
        for f, why in zip(PRECEDENCE_MAPS, PRECEDENCE_NOTES[require]):
            if why:
                with pytest.raises(HypothesisError) as refused:
                    family.check(f)
                assert str(refused.value) == why
            else:
                family.check(f)


# The 64-sample star of test_golden's search jobs: r(t) = 0.55 + 0.25 cos 3t.
GOLDEN_STAR = StarShaped(
    tuple(round(0.55 + 0.25 * math.cos(3.0 * TWO_PI * k / 64), 4) for k in range(64))
)
SP_MAPS = {
    "rescaled-affine": rescaled_affine(0.5),
    "affine": affine(0.2),
    # h = 0.6 z + 0.1 z^3, g = 0.1 z^2: |f| <= 0.8 on the disk.
    "degree-3": raw_polynomial((0.0, 0.6, 0.0, 0.1), (0.0, 0.0, 0.1)),
}


class TestSpSearchMatchesPerPointReference:
    """maximize_sp_ratio, whose lattice tests membership in one call, gives
    exactly what scoring one point at a time gives: incumbent, trace and
    evaluation count."""

    @pytest.mark.parametrize("domain", [Disk(0.6), GOLDEN_STAR], ids=["disk", "star"])
    @pytest.mark.parametrize("name", sorted(SP_MAPS))
    def test_maps(self, name, domain):
        f = SP_MAPS[name]
        result = maximize_sp_ratio(f, domain, iterations=40, seed=3)
        assert result == oracles.maximize_sp_ratio_per_point(f, domain, 40, 3, 17)


SCORE_TABLE = (-1.0, math.nan, 0.0, 0.5, 0.5, 1.0, 2.0)


def _score(kind, bounds):
    """A deterministic score of a tuple of floats, with ties, -1.0 and nan:
    "constant" is 0.0, so every step ties; "table" reads SCORE_TABLE at a
    checksum of the point's repr; "peak" is -1.0 outside bounds, nan past
    the middle of the last axis, and else a rounded distance to 0, so
    neighbours tie."""

    def score(point):
        if kind == "constant":
            return 0.0
        if kind == "table":
            return SCORE_TABLE[zlib.crc32(repr(point).encode()) % len(SCORE_TABLE)]
        if not all(lo <= c <= hi for c, (lo, hi) in zip(point, bounds)):
            return -1.0
        if point[-1] > (bounds[-1][0] + bounds[-1][1]) / 2.0:
            return math.nan
        return -round(math.hypot(*point), 1)

    return score


def _scored(refine, kind, x0, bounds, steps, iterations):
    """The points, as bit strings, that refine passes to a score of kind, in
    the order it passes them."""
    score, calls = _score(kind, bounds), []

    def recorded(point):
        point = tuple(float(c) for c in point)
        calls.append(tuple(c.hex() for c in point))
        return score(point)

    refine(recorded, x0, bounds, steps, iterations)
    return calls


def _check_simplex(kind, x0, bounds, steps, iterations):
    expected = _scored(oracles.simplex_refine_numpy, kind, x0, bounds, steps, iterations)
    got = _scored(harmarea.search._simplex_refine, kind, x0, bounds, steps, iterations)
    assert got == expected


_coordinate = st.one_of(st.just(-0.0), st.floats(-10.0, 10.0))
_step = st.one_of(st.just(-0.0), st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))


@st.composite
def _simplex_cases(draw):
    dim = draw(st.integers(1, 4))
    bounds = [tuple(sorted(draw(st.tuples(_coordinate, _coordinate)))) for _ in range(dim)]
    x0 = tuple(draw(_coordinate) for _ in range(dim))
    steps = [draw(_step) for _ in range(dim)]
    return x0, bounds, steps


class TestSimplexMatchesNumpyReference:
    """The float-tuple simplex scores bit for bit the points of its numpy
    form (oracles.simplex_refine_numpy), in the same order."""

    @settings(max_examples=200)
    @given(
        case=_simplex_cases(),
        kind=st.sampled_from(["constant", "table", "peak"]),
        iterations=st.integers(1, 30),
    )
    @example(case=((-0.0,), [(-0.0, 1.0)], [-0.0]), kind="table", iterations=5)
    @example(case=((-0.0, 2.0), [(-1.0, -0.0), (0.0, 3.0)], [0.5, 1.0]), kind="peak", iterations=30)
    def test_same_points_in_order(self, case, kind, iterations):
        _check_simplex(kind, *case, iterations)

    def test_centroid_sums_left_to_right(self):
        # The first centroid's first column is 1.0, 1e16 (= 1.0 + 1e16) and
        # 1.0: added left to right each 1.0 is lost, while a compensated sum
        # (math.fsum, or sum() from Python 3.12) keeps both and moves the
        # reflected point.
        _check_simplex("constant", (1.0, 0.0, 0.0), [(-1e17, 1e17)] * 3, [1e16, 1.0, 1.0], 1)

    def test_centroid_sums_from_positive_zero(self):
        # The second column is -0.0 at every vertex.  np.mean adds from
        # +0.0, so the contracted point (the fifth) reads +0.0 there, where
        # a sum started from the first vertex would keep -0.0.
        case = ((-0.0, -0.0), [(-1.0, 1.0)] * 2, [1.0, -0.0], 1)
        calls = _scored(harmarea.search._simplex_refine, "constant", *case)
        assert calls[4] == ((0.25).hex(), (0.0).hex())
        _check_simplex("constant", *case)

    def test_shrink_scores_vertices_in_order(self):
        # A constant score rejects reflection and contraction: all three
        # dimensions' vertices shrink, scored from the second onwards.
        _check_simplex("constant", (0.0, 0.0, 0.0), [(-1.0, 1.0)] * 3, [0.5, 0.25, 0.125], 2)


class TestSearchResult:
    def test_best_must_match_trace(self):
        with pytest.raises(ValueError):
            SearchResult(
                best_params=(0.0,),
                best_value=2.0,
                evaluations=3,
                trace=(((0.0,), 1.0),),
                seed=42,
            )

    def test_empty_trace_allowed(self):
        res = SearchResult(
            best_params=(0.0,), best_value=-1.0, evaluations=1, trace=(), seed=42
        )
        assert res.trace == ()

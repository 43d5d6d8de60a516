"""Inequality reports, reference integrals, and extremal-set envelopes."""

import cmath
import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from harmarea import (
    ConstructionError,
    Disk,
    DomainError,
    HypothesisError,
    NonConvergenceError,
    StarShaped,
    VerificationReport,
    affine,
    analytic_energy,
    automorphism,
    disk_contraction_report,
    hyperbolic_disk_integral,
    identity_map,
    image_area,
    integrate_polar,
    local_contraction_constant,
    quantitative_bounds,
    radial_bound_profile,
    rasterize,
    raw_polynomial,
    region_measure,
    rescaled_affine,
    rigidity_margin,
    rotation_map,
    shear,
    shear_disk_integral,
    small_set_threshold,
    sp_ratio,
    star_contraction_report,
    star_cos3,
    sup_dilatation,
    verification_suite,
    worst_case_image_area,
)
from harmarea.distortion import default_tolerance, report
from harmarea.quadrature import DEFAULT_M0, DEFAULT_Q0, DEFAULT_TOL

EXACT_RADII = (0.1, 0.3, 0.5, 0.7, 0.9)

# Fewer evaluations than one polar level means the value did not come from
# integrate_polar.
ONE_POLAR_LEVEL = DEFAULT_Q0 * DEFAULT_M0

coefficient = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(
    lambda xy: complex(*xy)
)
# Degree <= 4; no sense-preservation constraint, so J may change sign.
series = st.lists(coefficient, min_size=1, max_size=5)

disk_points = st.tuples(
    st.floats(0.0, 0.9), st.floats(0.0, 2.0 * math.pi)
).map(lambda rt: rt[0] * cmath.exp(1j * rt[1]))


class TestReportTypes:
    def test_pass_flag_must_match_margin(self):
        report("ok", 1.0, 2.0, 1e-9)
        with pytest.raises(ValueError):
            VerificationReport("bad", 1.0, 2.0, 1.0, False, 1e-9)
        with pytest.raises(ValueError):
            VerificationReport("bad", math.inf, 2.0, -math.inf, True, 1e-9)

    def test_negative_margin_within_tolerance_passes(self):
        rep = report("edge", 1.0 + 5e-10, 1.0, 1e-9)
        assert rep.passed and rep.margin < 0.0

    def test_default_tolerance(self):
        assert default_tolerance(1e-9) == 1e-9
        assert default_tolerance(1e-12) == 1e-9
        assert default_tolerance(1e-9, 1e-6) == pytest.approx(1e-5)


class TestImageArea:
    def test_affine_on_disk_exact(self):
        res = image_area(affine(0.5), Disk(0.5))
        assert abs(res.value - 0.75 * math.pi * 0.25) < 1e-12

    def test_affine_on_star(self):
        E = star_cos3(256)
        res = image_area(affine(0.2), E)
        expected = oracles.affine_image_area(0.2, oracles.pl_star_measure(E.profile))
        assert abs(res.value - expected) <= 1e-9 * expected

    def test_affine_on_raster(self):
        g = rasterize(Disk(0.5), 512)
        res = image_area(affine(0.5), g)
        assert abs(res.value - 0.75 * region_measure(g)) < 1e-12

    def test_mobius_matches_circle_image(self):
        res = image_area(automorphism(0.5), Disk(0.5))
        assert abs(res.value - oracles.FROZEN["mobius-0.5-disk-0.5"]) < 1e-9

    def test_warns_when_not_sense_preserving(self, caplog):
        f = raw_polynomial((0.0, 1.0), (0.0, 2.0))
        with caplog.at_level(logging.WARNING, logger="harmarea"):
            image_area(f, Disk(0.5))
        assert any("sense" in rec.message for rec in caplog.records)

    def test_check_sense_can_be_skipped(self, caplog):
        f = raw_polynomial((0.0, 1.0), (0.0, 2.0))
        with caplog.at_level(logging.WARNING, logger="harmarea"):
            image_area(f, Disk(0.5), check_sense=False)
        assert not caplog.records


class TestClosedFormDiskArea:
    def test_identity_polynomial_area_is_exact(self):
        f = raw_polynomial((0.0, 1.0), (0.0,))
        for r in EXACT_RADII:
            assert image_area(f, Disk(r)).value == math.pi * r * r
            assert analytic_energy(f, Disk(r)).value == math.pi * r * r

    def test_result_contract(self):
        f = raw_polynomial((0.0, 1.0, 0.2, 0.0, 0.1), (0.0, 0.3))
        res = image_area(f, Disk(0.7), check_sense=False)
        assert res.error_estimate == 0.0
        assert res.evals == 4
        assert analytic_energy(f, Disk(0.7)).evals == 4
        assert image_area(rotation_map(0.2), Disk(0.7)).evals == 1
        constant = raw_polynomial((0.5,), (0.0,))
        res = image_area(constant, Disk(0.7), check_sense=False)
        assert res.value == 0.0 and res.evals == 1

    def test_workers_do_not_change_bits(self):
        f = raw_polynomial((0.0, 1.0, 0.2j), (0.0, 0.3, -0.1))
        for r in EXACT_RADII:
            one = image_area(f, Disk(r))
            two = image_area(f, Disk(r))
            assert one == two
            assert analytic_energy(f, Disk(r)) == analytic_energy(f, Disk(r))

    def test_tolerance_floor(self):
        for f in (affine(0.5), rotation_map(0.0)):
            with pytest.raises(ConstructionError):
                image_area(f, Disk(0.5), tol=1e-13)
            with pytest.raises(ConstructionError):
                analytic_energy(f, Disk(0.5), tol=1e-13)

    def test_mobius_disk_exact_and_star_on_boundary_kernel(self):
        for f in (automorphism(0.5), automorphism(0.3 - 0.6j, 1.1)):
            res = image_area(f, Disk(0.5))
            assert res.evals == 1 and res.error_estimate == 0.0
            assert analytic_energy(f, Disk(0.5)) == res
        for f in (affine(0.2), automorphism(0.5)):
            assert image_area(f, star_cos3(64)).evals < ONE_POLAR_LEVEL
            assert analytic_energy(f, star_cos3(64)).evals < ONE_POLAR_LEVEL

    @given(
        h=series,
        g=series,
        r=st.floats(0.0, 0.95, exclude_min=True, exclude_max=True),
    )
    def test_matches_polar_quadrature(self, h, g, r):
        f = raw_polynomial(h, g)
        disk = Disk(r)
        for exact, field in (
            (image_area(f, disk, check_sense=False), f.jacobian),
            (analytic_energy(f, disk), f.analytic_energy_density),
        ):
            quad = integrate_polar(field, disk)
            assert quad.evals >= ONE_POLAR_LEVEL > exact.evals
            assert abs(exact.value - quad.value) <= DEFAULT_TOL * max(
                1.0, abs(quad.value)
            )


profiles = st.lists(
    st.floats(0.05, 1.0, exclude_min=True), min_size=8, max_size=128
).map(StarShaped)


def _agrees_with_polar(result, field, E):
    quad = integrate_polar(field, E)
    assert abs(result.value - quad.value) <= DEFAULT_TOL * max(1.0, abs(quad.value))


class TestStarBoundaryKernel:
    @given(h=series, g=series, E=profiles)
    def test_polynomial_matches_polar_quadrature(self, h, g, E):
        f = raw_polynomial(h, g)
        _agrees_with_polar(image_area(f, E, check_sense=False), f.jacobian, E)
        _agrees_with_polar(analytic_energy(f, E), f.analytic_energy_density, E)

    @given(
        a=disk_points.map(lambda z: z / 0.9 * 0.95),
        phi=st.floats(-math.pi, math.pi),
        E=profiles,
    )
    def test_mobius_matches_polar_quadrature(self, a, phi, E):
        f = automorphism(a, phi)
        area = image_area(f, E, check_sense=False)
        _agrees_with_polar(area, f.jacobian, E)
        assert analytic_energy(f, E) == area

    @given(
        modulus=st.floats(0.0, 1.0, exclude_max=True),
        phase=st.floats(0.0, 2.0 * math.pi),
        phi=st.floats(-math.pi, math.pi),
        samples=st.integers(8, 128),
    )
    @example(modulus=0.999, phase=0.0, phi=0.0, samples=16)
    def test_mobius_on_unit_disk_is_pi_or_raises(self, modulus, phase, phi, samples):
        f = automorphism(modulus * cmath.exp(1j * phase), phi)
        E = StarShaped((1.0,) * samples)
        try:
            res = image_area(f, E, check_sense=False)
        except NonConvergenceError:
            assert modulus > 0.99
            return
        assert abs(res.value - math.pi) <= DEFAULT_TOL * math.pi

    def test_pole_next_to_circle_raises(self):
        # Two coarse levels agree on about 7.6e-10 here; only the guard
        # keeps that from being returned as the area.  The second pole
        # faces the middle of a segment rather than a profile sample.
        for phase in (0.0, math.pi / 16.0):
            f = automorphism((1.0 - 1e-6) * cmath.exp(1j * phase))
            with pytest.raises(NonConvergenceError):
                image_area(f, StarShaped((1.0,) * 16))

    def test_pole_guard_measures_distance_to_the_star(self):
        # The pole is 1e-4 outside the unit circle at angle 0; the star
        # reaches the circle only at angle pi, about 2 away from it.
        f = automorphism(0.9999)
        E = StarShaped((0.5,) * 8 + (1.0,) + (0.5,) * 7)
        res = image_area(f, E, check_sense=False)
        assert res.evals < ONE_POLAR_LEVEL
        _agrees_with_polar(res, f.jacobian, E)

    def test_rotation_on_star_is_region_measure(self):
        E = star_cos3(256, scale=0.7)
        for f in (rotation_map(0.4), identity_map()):
            res = image_area(f, E)
            assert res == analytic_energy(f, E)
            assert res.value == region_measure(E)
            assert res.error_estimate == 0.0 and res.evals == 1


class TestMobiusDiskClosedForm:
    @given(
        a=st.floats(-0.95, 0.95),
        r=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_matches_circle_image_oracle(self, a, r):
        expected = oracles.mobius_disk_area(a, r)
        for f in (automorphism(a), automorphism(a * 1j, 2.0)):
            got = image_area(f, Disk(r)).value
            assert abs(got - expected) <= 1e-14 * expected
            assert analytic_energy(f, Disk(r)).value == got

    @given(
        a=disk_points.map(lambda z: z / 0.9 * 0.95),
        phi=st.floats(-math.pi, math.pi),
        r=st.floats(0.0, 0.95, exclude_min=True),
    )
    def test_matches_polar_quadrature(self, a, phi, r):
        f = automorphism(a, phi)
        _agrees_with_polar(image_area(f, Disk(r)), f.jacobian, Disk(r))


class TestEnergyAndDilatation:
    def test_shear_energy_is_disk_area(self):
        # h = z, so the energy integrand is 1
        res = analytic_energy(shear(0.3, 2), Disk(0.5))
        assert abs(res.value - math.pi * 0.25) < 1e-10

    def test_sup_dilatation_constant_for_affine(self):
        assert abs(sup_dilatation(affine(0.5), Disk(0.3)) - 0.5) < 1e-12

    def test_sup_dilatation_shear_scales_with_region(self):
        f = shear(0.3, 2)
        assert abs(sup_dilatation(f, Disk(0.5)) - 0.3) < 1e-12
        assert abs(sup_dilatation(f, Disk(1.0)) - 0.6) < 1e-12

    def test_sup_dilatation_on_raster(self):
        f = shear(0.3, 2)
        g = rasterize(Disk(0.5), 128)
        got = sup_dilatation(f, g)
        assert 0.29 < got <= 0.3 + 1e-12


class TestQuantitativeBounds:
    def test_affine_lower_bound_tight(self):
        lower, upper = quantitative_bounds(affine(0.5), Disk(0.5))
        assert lower.passed and upper.passed
        # constant dilatation makes the lower bound an equality
        assert abs(lower.margin) <= lower.tolerance
        assert upper.margin >= 0.0

    def test_rotation_bounds_collapse(self):
        lower, upper = quantitative_bounds(rotation_map(0.3), Disk(0.5))
        assert abs(lower.margin) <= lower.tolerance
        assert abs(upper.margin) <= upper.tolerance

    def test_degenerate_dilatation_rejected(self):
        f = raw_polynomial((0.0, 1.0), (0.0, 1.0))  # |omega| = 1 everywhere
        with pytest.raises(HypothesisError):
            quantitative_bounds(f, Disk(0.5))


class TestDiskContraction:
    def test_rotation_equality(self):
        areasp, energy, disk = disk_contraction_report(rotation_map(math.pi / 3), 0.5)
        assert energy.passed and disk.passed
        assert abs(energy.margin) <= 1e-9
        assert abs(disk.margin) <= 1e-9
        assert abs(areasp.lhs - math.pi * 0.25) < 1e-10

    def test_rescaled_affine_margins_positive(self):
        areasp, energy, disk = disk_contraction_report(rescaled_affine(0.5), 0.5)
        assert energy.passed and disk.passed
        assert energy.margin > 1e-3 and disk.margin > 1e-3
        expected = oracles.rescaled_affine_jacobian(0.5) * math.pi * 0.25
        assert abs(areasp.lhs - expected) < 1e-9

    def test_mobius_closed_form(self):
        areasp, energy, disk = disk_contraction_report(automorphism(0.5), 0.1)
        assert abs(areasp.lhs - oracles.FROZEN["mobius-0.5-disk-0.1"]) < 1e-10
        assert energy.passed and disk.passed

    def test_radius_range(self):
        with pytest.raises(HypothesisError):
            disk_contraction_report(identity_map(), 1.0)
        with pytest.raises(HypothesisError):
            disk_contraction_report(identity_map(), 0.0)

    @given(st.floats(0.1, 0.9))
    def test_chain_order_for_shears(self, r):
        _, energy, disk = disk_contraction_report(shear(0.3, 2), r)
        slack = energy.tolerance
        assert energy.lhs <= energy.rhs + slack
        assert disk.lhs <= disk.rhs + slack


class TestRadialBound:
    def test_rotation_exact_everywhere(self):
        rows = radial_bound_profile(rotation_map(1.0), 0.5, 32)
        assert len(rows) == 32
        for row in rows:
            assert abs(row.lhs - 0.125) <= 1e-10
            assert row.passed

    def test_shear_value_independent_of_theta(self):
        rows = radial_bound_profile(shear(0.3, 2), 0.5, 16)
        frozen = oracles.FROZEN["shear-0.3-p2-radial-0.5"]
        for row in rows:
            assert abs(row.lhs - frozen) < 1e-12
            assert row.margin > 0.0

    def test_mobius_axis_value_and_failure(self):
        rows = radial_bound_profile(automorphism(0.5), 0.5, 16)
        axis = rows[0]  # theta = 0 points straight at the pole
        assert abs(axis.lhs - oracles.FROZEN["mobius-0.5-radial-0.5"]) < 1e-9
        # the uniform r^2/2 bound genuinely fails along this direction
        assert axis.margin < 0.0 and not axis.passed
        assert any(row.passed for row in rows)

    def test_direction_count_floor(self):
        with pytest.raises(HypothesisError):
            radial_bound_profile(identity_map(), 0.5, 8)

    def test_report_detail_carries_theta(self):
        rows = radial_bound_profile(identity_map(), 0.3, 16)
        assert "theta" in rows[3].detail


class TestStarContraction:
    def test_rotation_equality_on_star(self):
        E = star_cos3(256)
        rep = star_contraction_report(rotation_map(1.0), E)
        assert rep.checked and rep.passed
        assert abs(rep.margin) <= 1e-8

    def test_rescaled_affine_margin_formula(self):
        E = star_cos3(256)
        rep = star_contraction_report(rescaled_affine(0.5), E)
        expected = (1.0 - oracles.rescaled_affine_jacobian(0.5)) * region_measure(E)
        assert rep.checked and rep.passed
        assert abs(rep.margin - expected) <= 1e-8

    def test_disk_regions_allowed(self):
        rep = star_contraction_report(shear(0.3, 2), Disk(0.5))
        assert rep.checked and rep.passed
        assert abs(rep.lhs - oracles.FROZEN["shear-0.3-p2-disk-0.5"]) < 1e-9

    def test_origin_hypothesis_downgrades(self):
        rep = star_contraction_report(automorphism(0.5), Disk(0.5))
        assert not rep.checked
        assert "hypothesis" in rep.detail

    def test_raster_region_rejected(self):
        g = rasterize(Disk(0.5), 32)
        with pytest.raises(HypothesisError):
            star_contraction_report(identity_map(), g)


class TestLocalContraction:
    def test_affine_constant(self):
        assert local_contraction_constant(affine(0.5), Disk(0.5)) == 0.75

    def test_mobius_peak_on_axis(self):
        got = local_contraction_constant(automorphism(0.5), Disk(0.5))
        assert abs(got - oracles.FROZEN["mobius-0.5-peak-disk-0.5"]) < 1e-12

    def test_shear_peak_at_origin(self):
        got = local_contraction_constant(shear(0.3, 2), Disk(0.5), grid=129)
        assert got == 1.0  # J(0) = 1 and the odd grid contains 0

    def test_raster_region(self):
        g = rasterize(Disk(0.5), 64)
        got = local_contraction_constant(automorphism(0.5), g)
        assert 1.5 < got <= 16.0 / 9.0 + 1e-9

    def test_boundary_touching_region_rejected(self):
        with pytest.raises(HypothesisError):
            local_contraction_constant(identity_map(), Disk(1.0))


class TestWorstCase:
    def test_affine_proportional(self):
        total = math.pi * 0.81
        for k in range(1, 21):
            s = k * total / 21.0
            got = worst_case_image_area(affine(0.5), Disk(0.9), s)
            assert abs(got - 0.75 * s) <= 1e-9 * s

    def test_identity_is_identity(self):
        got = worst_case_image_area(identity_map(), Disk(0.9), 0.2)
        assert abs(got - 0.2) < 1e-12

    def test_shear_small_sets_nearly_free(self):
        s = 1e-3
        got = worst_case_image_area(shear(0.3, 2), Disk(0.9), s, grid=256)
        assert abs(got - s) <= 1e-4 * s

    def test_shear_matches_radial_envelope(self):
        s = 0.4
        got = worst_case_image_area(shear(0.3, 2), Disk(0.9), s, grid=512)
        expected = oracles.shear_worst_case(0.3, s)
        # grid model resolves the extremal disk to O(1/grid)
        assert abs(got - expected) <= 5e-3

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            worst_case_image_area(identity_map(), Disk(0.5), 0.0)
        with pytest.raises(ValueError):
            worst_case_image_area(identity_map(), Disk(0.5), 1.0)

    def test_monotone_and_concave(self):
        f = automorphism(0.5)
        total = region_measure(Disk(0.8))
        ss = np.linspace(0.05, 0.95, 19) * total
        vals = [worst_case_image_area(f, Disk(0.8), float(s)) for s in ss]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-12
        for i in range(1, len(vals) - 1):
            mid = worst_case_image_area(f, Disk(0.8), float((ss[i - 1] + ss[i + 1]) / 2))
            assert mid >= (vals[i - 1] + vals[i + 1]) / 2.0 - 1e-10


class TestSmallSetThreshold:
    def test_global_contraction_returns_total(self):
        total = region_measure(Disk(0.9))
        assert small_set_threshold(affine(0.5), Disk(0.9)) == total
        assert small_set_threshold(shear(0.3, 2), Disk(0.9)) == total

    def test_expanding_map_gives_small_threshold(self):
        f = automorphism(0.5)
        total = region_measure(Disk(0.9))
        got = small_set_threshold(f, Disk(0.9))
        assert 0.0 <= got < 0.5 * total

    def test_threshold_consistent_with_envelope(self):
        f = automorphism(0.5)
        got = small_set_threshold(f, Disk(0.9), grid=128)
        if got > 0.0:
            w = worst_case_image_area(f, Disk(0.9), got, grid=128)
            assert w <= got + 1e-9


class TestSpRatio:
    @given(disk_points)
    def test_rotation_is_one(self, z):
        assert abs(sp_ratio(rotation_map(1.2), z) - 1.0) < 1e-12

    @given(disk_points, st.floats(0.0, 0.8))
    def test_mobius_equality_class(self, z, a):
        # conformal automorphisms achieve equality everywhere
        assert abs(sp_ratio(automorphism(a, rotation=0.4), z) - 1.0) < 1e-11

    def test_origin_value_is_jacobian(self):
        for f in (identity_map(), affine(0.5), shear(0.3, 2), rescaled_affine(0.2)):
            assert abs(sp_ratio(f, 0j) - f.jacobian(0j)) < 1e-12

    def test_escaping_point_is_flagged_infinite(self):
        f = affine(0.9)  # |f(x)| = 1.9|x| on the real axis
        assert math.isinf(sp_ratio(f, 0.9))

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            sp_ratio(identity_map(), 1.0)

    def test_affine_formula(self):
        z = 0.3 - 0.2j
        f = affine(0.5)
        w = oracles.affine_point(0.5, z)
        expected = 0.75 * (1.0 - abs(z) ** 2) ** 2 / (1.0 - abs(w) ** 2) ** 2
        assert abs(sp_ratio(f, z) - expected) < 1e-13


class TestReferenceIntegrals:
    @pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
    def test_hyperbolic_quadrature_vs_closed_form(self, r):
        ref = hyperbolic_disk_integral(r)
        assert abs(ref.quadrature - oracles.FROZEN[f"hyperbolic-{r}"]) <= 1e-8
        assert ref.closed_form == oracles.FROZEN[f"hyperbolic-{r}"]
        assert ref.claimed_value == oracles.FROZEN[f"hyperbolic-claim-{r}"]

    def test_hyperbolic_claim_only_matches_to_first_order(self):
        small = hyperbolic_disk_integral(1e-3)
        assert abs(small.closed_form / small.claimed_value - 1.0) < 1e-5
        big = hyperbolic_disk_integral(0.75)
        assert big.closed_form > 2.0 * big.claimed_value

    def test_shear_quadrature_and_flagged_claim(self):
        ref = shear_disk_integral(0.5, 0.3, 2)
        assert ref.evals >= ONE_POLAR_LEVEL
        assert abs(ref.quadrature - oracles.FROZEN["shear-0.3-p2-disk-0.5"]) <= 1e-8
        assert ref.closed_form == oracles.shear_disk_area(0.3, 2, 0.5)
        assert ref.claimed_value == oracles.shear_claimed_area(0.3, 2, 0.5)
        # the two reference values genuinely disagree; that gap is the point
        assert abs(ref.claimed_value - ref.closed_form) > 1e-3

    def test_shear_power_three(self):
        ref = shear_disk_integral(0.7, 0.1, 3)
        assert abs(ref.quadrature - oracles.shear_disk_area(0.1, 3, 0.7)) <= 1e-9


class TestRigidity:
    def test_rotation_margin_vanishes(self):
        for r in EXACT_RADII:
            assert rigidity_margin(rotation_map(0.4), r) == 0.0

    def test_contracting_map_margin_positive(self):
        got = rigidity_margin(rescaled_affine(0.5), 0.5)
        expected = math.pi * 0.25 * (1.0 - oracles.rescaled_affine_jacobian(0.5))
        assert abs(got - expected) < 1e-9

    def test_mobius_margin_matches_closed_form(self):
        got = rigidity_margin(automorphism(0.5), 0.1)
        expected = math.pi * 0.01 - oracles.FROZEN["mobius-0.5-disk-0.1"]
        assert abs(got - expected) < 1e-10


class TestVerificationSuite:
    def test_rotation_all_checked_rows_pass(self):
        rows = verification_suite(rotation_map(math.pi / 3.0))
        assert len(rows) == 117
        checked = [row for row in rows if row.checked]
        assert checked and all(row.passed for row in checked)

    def test_row_names_cover_all_checks(self):
        rows = verification_suite(identity_map())
        names = {row.name for row in rows}
        for stem in (
            "areasp",
            "chain-energy",
            "chain-disk",
            "radial-worst",
            "star-contraction",
            "sandwich-lower",
            "sandwich-upper",
            "hyperbolic-le",
            "hyperbolic-ge",
            "hyperbolic-claimed",
            "shear-le",
            "shear-ge",
            "shear-claimed",
        ):
            assert f"{stem} r=0.5" in names

    def test_reference_rows_come_from_quadrature(self):
        rows = verification_suite(identity_map())
        refs = [row for row in rows if row.name.startswith(("shear-", "hyperbolic-"))]
        assert len(refs) == 54
        assert all(row.evals >= ONE_POLAR_LEVEL for row in refs)
        # the disk rows of the identity take the closed form
        areasp = [row for row in rows if row.name.startswith("areasp")]
        assert all(row.evals == 1 and row.margin == 0.0 for row in areasp)

    @pytest.mark.parametrize("f", [automorphism(0.5), shear(0.3, 2)])
    def test_sandwich_rows_match_quantitative_bounds(self, f):
        rows = {row.name: row for row in verification_suite(f)}
        for r in (0.1, 0.5, 0.9):
            lower, upper = quantitative_bounds(f, Disk(r))
            assert rows[f"sandwich-lower r={r:.1f}"] == replace(
                lower, name=f"sandwich-lower r={r:.1f}"
            )
            assert rows[f"sandwich-upper r={r:.1f}"] == replace(
                upper, name=f"sandwich-upper r={r:.1f}"
            )
            for row in disk_contraction_report(f, r):
                assert rows[row.name] == row

    def test_claimed_rows_never_counted(self):
        rows = verification_suite(rotation_map(0.0))
        claimed = [row for row in rows if "claimed" in row.name]
        assert len(claimed) == 18
        assert all(not row.checked for row in claimed)

    def test_non_self_map_downgrades_hypothesis_rows(self):
        rows = verification_suite(affine(0.5))
        by_name = {row.name: row for row in rows}
        assert not by_name["areasp r=0.5"].checked
        assert not by_name["chain-disk r=0.5"].checked
        assert not by_name["star-contraction r=0.5"].checked
        # the first chain link needs no self-map hypothesis
        assert by_name["chain-energy r=0.5"].checked
        assert by_name["chain-energy r=0.5"].passed

    def test_worker_count_does_not_change_bits(self):
        a = verification_suite(shear(0.3, 2))
        b = verification_suite(shear(0.3, 2))
        assert [(r.lhs, r.rhs, r.margin) for r in a] == [
            (r.lhs, r.rhs, r.margin) for r in b
        ]

    def test_mobius_suite_records_honest_failures(self):
        rows = verification_suite(automorphism(0.5))
        radial = [row for row in rows if row.name.startswith("radial-worst")]
        assert any(row.checked and not row.passed for row in radial)
        # close to the boundary the area comparison itself still holds
        areasp = {row.name: row for row in rows if row.name.startswith("areasp")}
        assert all(row.passed for row in areasp.values())

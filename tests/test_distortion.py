"""Inequality reports, reference integrals, and extremal-set envelopes."""

import cmath
import logging
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from harmarea import (
    ConstructionError,
    Disk,
    DomainError,
    HypothesisError,
    NonConvergenceError,
    PixelGrid,
    QuadResult,
    StarShaped,
    VerificationReport,
    affine,
    analytic_energy,
    automorphism,
    contains_points,
    disk_contraction_report,
    hyperbolic_disk_integral,
    identity_map,
    image_area,
    integrate_grid,
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
from harmarea import distortion
from harmarea.distortion import _sorted_jacobian_cells, default_tolerance
from harmarea.presets import preset_map, preset_names
from harmarea.quadrature import (
    DEFAULT_M0,
    DEFAULT_Q0,
    DEFAULT_TOL,
    integrate_boundary,
    integrate_runs,
)

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
root_points = st.tuples(
    st.floats(0.01, 2.0), st.floats(0.0, 2.0 * math.pi)
).map(lambda rt: rt[0] * cmath.exp(1j * rt[1]))


class TestReportTypes:
    def test_pass_flag_must_match_margin(self):
        with pytest.raises(ValueError):
            VerificationReport("bad", math.inf, 2.0, 1e-9)

    def test_negative_margin_within_tolerance_passes(self):
        rep = VerificationReport("edge", 1.0 + 5e-10, 1.0, 1e-9)
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

    @pytest.mark.parametrize(
        "f",
        [affine(0.5), shear(0.3, 2), raw_polynomial([0, 1, 0.2j, 0.05], [0, 2.0])],
        ids=["affine", "shear", "reversing"],
    )
    def test_polynomial_maps_on_grids_skip_the_midpoint_rule(self, f, monkeypatch):
        def forbidden(field, E):
            raise AssertionError("integrate_grid called for a polynomial map")

        monkeypatch.setattr(distortion, "integrate_grid", forbidden)
        g = rasterize(Disk(0.9), 128)
        assert image_area(f, g, check_sense=False).error_estimate == 0.0
        assert analytic_energy(f, g).error_estimate == 0.0

    @pytest.mark.parametrize(
        "f",
        [automorphism(0.5), automorphism(0.3 - 0.4j, rotation=1.1)],
        ids=["mobius", "rotated-mobius"],
    )
    def test_automorphisms_on_grids_keep_the_midpoint_rule(self, f, monkeypatch):
        calls = []

        def spy(field, E):
            calls.append(E)
            return integrate_grid(field, E)

        monkeypatch.setattr(distortion, "integrate_grid", spy)
        g = rasterize(Disk(0.9), 128)
        area = image_area(f, g)
        energy = analytic_energy(f, g)
        assert calls == [g, g]
        assert area == integrate_grid(f.jacobian, g)
        assert energy == integrate_grid(f.analytic_energy_density, g)

    @pytest.mark.parametrize(
        "f", [rotation_map(1.1), identity_map()], ids=["rotation", "identity"]
    )
    def test_rotations_on_grids_are_region_measure(self, f, monkeypatch):
        def forbidden(field, E):
            raise AssertionError("integrate_grid called for a rotation")

        monkeypatch.setattr(distortion, "integrate_grid", forbidden)
        for n in (128, 100):
            g = rasterize(Disk(0.9), n)
            exact = QuadResult(region_measure(g), 0.0, 1)
            assert image_area(f, g) == analytic_energy(f, g) == exact
            midpoint = integrate_grid(f.jacobian, g).value
            assert abs(exact.value - midpoint) <= 1e-15 * midpoint

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

    @pytest.mark.parametrize(
        "h, g",
        [
            ((0.0, 1e155), (0.0,)),  # |a_1|^2 passes the float range
            ((0.0, 0.0, 1e154), (0.0,)),  # 2 |a_2|^2 does
            ((0.0, 0.0, 1e154), (0.0, 0.0, 1e154)),  # inf - inf
            ((0.0, 1e154, 0.8e154), (0.0,)),  # the sum of the terms does
            ((0.0, 1e154), (0.0,)),  # m(E) times the sum does
        ],
    )
    def test_a_value_past_the_float_range_raises(self, h, g):
        with pytest.raises(ConstructionError, match="area integral overflows the float range"):
            image_area(raw_polynomial(h, g), Disk(1.0), check_sense=False)

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

    def test_non_finite_tolerance(self):
        for tol in (math.nan, math.inf):
            with pytest.raises(ConstructionError):
                image_area(affine(0.5), Disk(0.5), tol=tol)
            with pytest.raises(ConstructionError):
                image_area(affine(0.5), star_cos3(64), tol=tol)

    @pytest.mark.parametrize(
        "f, tol",
        [
            (affine(0.5), math.nan),
            (rotation_map(0.3), -1.0),
            (automorphism(0.4), 1e-13),
            (shear(0.3, 2), math.inf),
        ],
        ids=["runs-nan", "rotation-negative", "midpoint-floor", "runs-inf"],
    )
    def test_grids_check_the_tolerance(self, f, tol):
        # Grid areas ignore tol, but a bad one is still refused, as on stars.
        g = rasterize(Disk(0.5), 16)
        with pytest.raises(ConstructionError):
            image_area(f, g, tol=tol)
        with pytest.raises(ConstructionError):
            analytic_energy(f, g, tol=tol)

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


def _complex(lo, hi):
    return st.complex_numbers(
        min_magnitude=lo, max_magnitude=hi, allow_nan=False, allow_infinity=False
    )


# h = a_0 + a_1 z and g = b_0 + b_1 z with complex coefficients and nonzero
# constant terms.  |b_1| <= |a_1| / 2 keeps J_f >= 3 |a_1|^2 / 4, so the
# rounding of |h'|^2 - |g'|^2 stays small against J_f.
degree_one = st.builds(
    lambda a0, a1, b0, t: raw_polynomial((a0, a1), (b0, a1 * t)),
    _complex(0.01, 1.0),
    _complex(0.5, 2.0),
    _complex(0.01, 1.0),
    _complex(0.0, 0.5),
)
grids = st.builds(
    lambda prof, n: rasterize(StarShaped(tuple(prof)), n),
    st.lists(st.floats(0.05, 1.0), min_size=8, max_size=16),
    st.integers(2, 64),
)


def _area_and_energy(f, E):
    """(result, series) for the area and the energy of f on E."""
    return (
        (image_area(f, E, check_sense=False), [(1.0, f.h), (-1.0, f.g)]),
        (analytic_energy(f, E), [(1.0, f.h)]),
    )


class TestConstantJacobianClosedForm:
    """A polynomial map of degree <= 1 has the constant Jacobian
    |a_1|^2 - |b_1|^2, so its area on any region is m(E) times it."""

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.3 + 0.4j])
    def test_affine_grid_area_is_measure_times_jacobian(self, alpha):
        E = rasterize(star_cos3(256, 0.9), 256)
        res = image_area(affine(alpha), E)
        assert res.value == region_measure(E) * (1.0 - abs(alpha) ** 2)
        assert (res.error_estimate, res.evals) == (0.0, 1)
        assert analytic_energy(affine(alpha), E) == QuadResult(region_measure(E), 0.0, 1)

    @given(f=degree_one, E=profiles)
    def test_stars_match_the_boundary_integral(self, f, E):
        for got, series in _area_and_energy(f, E):
            parts = [
                (sign, s._evaluate_unchecked, s.derivative()._evaluate_unchecked)
                for sign, s in series
            ]
            quad = integrate_boundary(parts, E, DEFAULT_TOL, min_nodes=8)
            assert (got.error_estimate, got.evals) == (0.0, 1)
            assert abs(got.value - quad.value) <= DEFAULT_TOL * max(1.0, abs(got.value))

    @given(f=degree_one, E=grids)
    def test_grids_match_the_run_rule(self, f, E):
        for got, series in _area_and_energy(f, E):
            slopes = [(sign, s.derivative()._evaluate_unchecked) for sign, s in series]
            runs = integrate_runs(lambda z: sum(c * np.abs(d(z)) ** 2 for c, d in slopes), E, 1)
            assert math.isclose(got.value, runs.value, rel_tol=1e-15)
            assert (got.error_estimate, got.evals) == (0.0, 1)

    @given(f=degree_one, r=st.floats(0.0, 1.0, exclude_min=True))
    def test_disks_keep_the_series_bits(self, f, r):
        # The disk series m(D_r) * fsum of sign n |c_n|^2 r^(2n - 2), term for term.
        for got, series in _area_and_energy(f, Disk(r)):
            terms = [
                sign * n * abs(c) ** 2 * r ** (2 * n - 2)
                for sign, s in series
                for n, c in enumerate(s.coefficients[1:], 1)
            ]
            assert got == QuadResult(region_measure(Disk(r)) * math.fsum(terms), 0.0, 1)


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
    @example(modulus=1.0 - 1e-7, phase=0.0, phi=0.0, samples=16)
    @example(modulus=1.0 - 1e-8, phase=0.0, phi=0.0, samples=16)
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


def _poly_style_map(seed: int):
    """h = 2uz + sum_{k=2}^4 a_k z^k, g = sum_{k=1}^4 b_k z^k, |u| = 1,
    sum k|a_k| = sum k|b_k| = 0.4: |h'| >= 1.6 > 0.4 >= |g'| on the disk."""
    rng = random.Random(f"poly-{seed}")

    def phase():
        return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))

    def weighted(ks):
        raw = [rng.uniform(0.2, 1.0) * phase() for _ in ks]
        scale = 0.4 / math.fsum(k * abs(c) for k, c in zip(ks, raw))
        return [c * scale for c in raw]

    h = [0j, 2.0 * phase()] + weighted(range(2, 5))
    g = [0j] + weighted(range(1, 5))
    return raw_polynomial(h, g)


# h' vanishes at Z0, which lies between the angular samples of the boundary.
Z0 = 0.4 * cmath.exp(1j * math.pi / 256)
CRITICAL_AT_Z0 = raw_polynomial([0, 1, -1 / (2 * Z0)], [0, 1e-4])


class TestSupDilatationBoundaryRule:
    def test_zero_of_h_prime_on_the_region_raises(self):
        # The polar grid misses Z0 and returned k = 0.00778 on Disk(0.5).
        for E in (Disk(0.5), star_cos3(256, 0.9)):
            with pytest.raises(HypothesisError, match="zero"):
                sup_dilatation(CRITICAL_AT_Z0, E)
            with pytest.raises(HypothesisError):
                quantitative_bounds(CRITICAL_AT_Z0, E)

    def test_zero_of_h_prime_outside_the_bounding_disk_is_allowed(self):
        E = Disk(0.3)
        k = sup_dilatation(CRITICAL_AT_Z0, E)
        assert k == 0.0003996390579631751
        assert k == oracles.sup_dilatation_polar(CRITICAL_AT_Z0, E.r)

    @pytest.mark.parametrize("E", [Disk(0.5), star_cos3(256, 0.5)], ids=["disk", "star"])
    def test_vanishing_h_prime_raises(self, E):
        with pytest.raises(HypothesisError):
            sup_dilatation(raw_polynomial([0.25], [0, 0.1]), E)

    def test_automorphism_on_a_star_is_zero(self):
        assert sup_dilatation(automorphism(0.5, 1.0), star_cos3(256, 0.9)) == 0.0

    def test_only_boundary_points_are_evaluated(self, monkeypatch):
        f = _poly_style_map(1)
        E = star_cos3(256, 0.7)
        seen = []
        original = type(f).dilatation

        def spy(self, z):
            seen.append(np.asarray(z))
            return original(self, z)

        monkeypatch.setattr(type(f), "dilatation", spy)
        sup_dilatation(f, E)
        (pts,) = seen
        assert pts.shape == (distortion.DILATATION_ANGULAR,)
        assert np.all(contains_points(E, pts * (1.0 - 1e-9)))
        assert not np.any(contains_points(E, pts * (1.0 + 1e-9)))

    @given(roots=st.lists(root_points, min_size=1, max_size=3), r=st.floats(0.05, 0.95))
    def test_zero_test_agrees_with_the_roots_of_h_prime(self, roots, r):
        # h' = prod (z - z_j); a margin of 1e-3 keeps a triple root, moved
        # by coefficient rounding, and |h'| on the circle clear of r.
        nearest = min(abs(z) for z in roots)
        assume(abs(nearest - r) > 1e-3)
        h_prime = np.poly(roots)[::-1].tolist()
        h = [0j] + [c / (k + 1) for k, c in enumerate(h_prime)]
        f = raw_polynomial(h, [0j, 0.1, 0.05j])
        if nearest <= r:
            with pytest.raises(HypothesisError):
                sup_dilatation(f, Disk(r))
        else:
            assert sup_dilatation(f, Disk(r)) <= oracles.sup_dilatation_polar(f, r)

    @pytest.mark.parametrize(
        "name_or_seed", list(preset_names()) + list(range(1, 21))
    )
    def test_matches_the_polar_grid_bit_for_bit(self, name_or_seed):
        if isinstance(name_or_seed, str):
            f = preset_map(name_or_seed)
        else:
            f = _poly_style_map(name_or_seed)
        for r in distortion.VERIFY_RADII:
            star = star_cos3(256, r)
            for E, profile in ((Disk(r), r), (star, star.profile)):
                k = sup_dilatation(f, E)
                reference = oracles.sup_dilatation_polar(f, profile)
                assert k <= reference
                assert k == reference


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
        rows = radial_bound_profile(rotation_map(1.0), 0.5)
        assert len(rows) == 64
        for row in rows:
            assert abs(row.lhs - 0.125) <= 1e-10
            assert row.passed

    def test_shear_value_independent_of_theta(self):
        rows = radial_bound_profile(shear(0.3, 2), 0.5)
        frozen = oracles.FROZEN["shear-0.3-p2-radial-0.5"]
        for row in rows:
            assert abs(row.lhs - frozen) < 1e-12
            assert row.margin > 0.0

    def test_mobius_axis_value_and_failure(self):
        rows = radial_bound_profile(automorphism(0.5), 0.5)
        axis = rows[0]  # theta = 0 points straight at the pole
        assert abs(axis.lhs - oracles.FROZEN["mobius-0.5-radial-0.5"]) < 1e-9
        # the uniform r^2/2 bound genuinely fails along this direction
        assert axis.margin < 0.0 and not axis.passed
        assert any(row.passed for row in rows)

    def test_report_detail_carries_theta(self):
        rows = radial_bound_profile(identity_map(), 0.3)
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

    @pytest.mark.parametrize(
        "region, grid",
        [(PixelGrid(8, np.zeros((8, 8), dtype=bool)), 129), (Disk(0.001), 2)],
        ids=["empty-grid", "corners-outside-disk"],
    )
    def test_empty_sample_rejected(self, region, grid):
        with pytest.raises(HypothesisError, match="no sample point"):
            local_contraction_constant(affine(0.5), region, grid=grid)


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

    @pytest.mark.parametrize(
        "f, E",
        [
            (shear(0.3, 2), Disk(0.9)),
            (automorphism(0.5), star_cos3(256, 0.9)),
            (raw_polynomial([0, 1, 0.3], [0, 0.1]), rasterize(Disk(0.7), 128)),
        ],
        ids=["shear-disk", "mobius-star", "raw-grid"],
    )
    def test_budget_sequence_samples_once(self, f, E):
        calls = []

        class Counted:
            def jacobian(self, z):
                calls.append(z.size)
                return f.jacobian(z)

        total = region_measure(E)
        budgets = [k * total / 7 for k in range(1, 8)] + [total * (1.0 + 1e-13)]
        got = worst_case_image_area(Counted(), E, budgets)
        assert len(calls) == 1
        assert got == [worst_case_image_area(f, E, s) for s in budgets]
        assert worst_case_image_area(f, E, np.array(budgets[:2])) == got[:2]

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            worst_case_image_area(identity_map(), Disk(0.5), 0.0)
        with pytest.raises(ValueError):
            worst_case_image_area(identity_map(), Disk(0.5), [0.1, 1.0])
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


THRESHOLD_MAPS = {
    **{name: preset_map(name) for name in preset_names()},
    "raw-contracting": raw_polynomial([0, 0.5, 0.2], [0, 0.1, 0.05]),
    "raw-expanding": raw_polynomial([0, 1, 0.3], [0, 0.1]),
}
THRESHOLD_REGIONS = {
    "disk-0.5": Disk(0.5),
    "disk-0.9": Disk(0.9),
    "star": star_cos3(256, 0.9),
    "grid": rasterize(Disk(0.7), 128),
}


class TestSmallSetThreshold:
    @pytest.mark.parametrize("region", sorted(THRESHOLD_REGIONS))
    @pytest.mark.parametrize("name", sorted(THRESHOLD_MAPS))
    def test_matches_the_envelope(self, name, region):
        """The threshold is the largest s with W(s') <= s' on (0, s], where W
        is the layer-cake envelope: m(E) when W never crosses the diagonal,
        0.0 when it crosses within the first cell."""
        f, E = THRESHOLD_MAPS[name], THRESHOLD_REGIONS[region]
        total = region_measure(E)
        got = small_set_threshold(f, E)
        if got == total:
            budgets = [k * total / 50 for k in range(1, 51)]
            for s, w in zip(budgets, worst_case_image_area(f, E, budgets)):
                assert w <= s * (1.0 + 1e-12)
        else:
            assert got == 0.0
            w = _sorted_jacobian_cells(f, E, 256)[1]
            assert worst_case_image_area(f, E, w / 2) > w / 2

    @pytest.mark.parametrize(
        "f", [identity_map(), rotation_map(1.0)], ids=["identity", "rotation"]
    )
    @pytest.mark.parametrize(
        "E",
        [Disk(0.5), Disk(0.9), star_cos3(256, 0.9)],
        ids=["disk-0.5", "disk-0.9", "star"],
    )
    def test_equality_case_returns_the_measure(self, f, E):
        assert small_set_threshold(f, E) == region_measure(E)

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

    def test_jacobian_sampled_once(self):
        f = automorphism(0.5)
        calls = []

        class Counted:
            def jacobian(self, z):
                calls.append(z.size)
                return f.jacobian(z)

        got = small_set_threshold(Counted(), Disk(0.9))
        assert len(calls) == 1
        assert got == small_set_threshold(f, Disk(0.9))


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

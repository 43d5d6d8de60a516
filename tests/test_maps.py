"""Map construction, evaluation, and validation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from harmarea import (
    AnalyticSeries,
    ConstructionError,
    CriticalPointError,
    DiskAutomorphism,
    DomainError,
    PoleError,
    PolynomialMap,
    affine,
    automorphism,
    identity_map,
    raw_polynomial,
    rescaled_affine,
    rotation_map,
    shear,
    validate,
)


class TestAnalyticSeries:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ConstructionError):
            AnalyticSeries(())
        with pytest.raises(ConstructionError):
            AnalyticSeries((0.0, math.inf))
        with pytest.raises(ConstructionError):
            AnalyticSeries((0.0, complex(0.0, math.nan)))

    def test_degree_cap(self):
        AnalyticSeries((0.0,) * 64 + (1.0,))  # degree 64 is the limit
        with pytest.raises(ConstructionError):
            AnalyticSeries((0.0,) * 65 + (1.0,))

    def test_evaluate_matches_polyval(self):
        rng = np.random.default_rng(7)
        coeffs = tuple(rng.normal(size=6) + 1j * rng.normal(size=6))
        s = AnalyticSeries(coeffs)
        z = 0.3 - 0.4j
        expected = complex(np.polyval(list(reversed(coeffs)), z))
        assert abs(s.evaluate(z) - expected) < 1e-14

    def test_evaluate_vectorized_agrees_with_scalar(self):
        s = AnalyticSeries((1.0, -2.0j, 0.5))
        zs = np.array([0.1 + 0.2j, -0.7j, 0.99])
        vec = s.evaluate(zs)
        for z, v in zip(zs, vec):
            assert v == s.evaluate(complex(z))

    def test_domain_guard(self):
        s = AnalyticSeries((0.0, 1.0))
        assert s.evaluate(1.0) == 1.0  # closed disk boundary is allowed
        with pytest.raises(DomainError):
            s.evaluate(1.0 + 1e-9)
        with pytest.raises(DomainError):
            s.evaluate(np.array([0.5, 1.2j]))

    def test_derivative(self):
        s = AnalyticSeries((0.0, 0.0, 0.0, 1.0))  # z^3
        d = s.derivative()
        assert d.coefficients == (0.0, 0.0, 3.0)
        assert d.derivative().coefficients == (0.0, 6.0)

    @given(st.floats(0.0, 0.99), st.floats(0.0, 2.0 * math.pi))
    def test_horner_on_disk_points(self, r, t):
        s = AnalyticSeries((0.25, 0.0, -0.125, 0.0625))
        z = r * cmath.exp(1j * t)
        direct = 0.25 - 0.125 * z**2 + 0.0625 * z**3
        assert abs(s.evaluate(z) - direct) < 1e-14


class TestPolynomialMap:
    def test_affine_jacobian_constant(self):
        f = affine(0.5)
        for z in (0.0, 0.3 + 0.4j, -0.9j):
            assert abs(f.jacobian(z) - 0.75) < 1e-15

    def test_affine_evaluate(self):
        f = affine(0.5)
        z = 0.2 - 0.6j
        assert abs(f.evaluate(z) - oracles.affine_point(0.5, z)) < 1e-15

    def test_shear_dilatation(self):
        f = shear(0.3, 2)
        assert abs(f.dilatation(0.5) - 2.0 * 0.3 * 0.5) < 1e-15
        assert abs(f.dilatation(0.0)) == 0.0

    def test_affine_dilatation_is_conjugate_parameter(self):
        f = affine(0.4 + 0.1j)
        w = f.dilatation(0.3 + 0.2j)
        assert abs(w - (0.4 - 0.1j)) < 1e-15

    def test_dilatation_critical_point(self):
        f = raw_polynomial((0.0, 0.0, 1.0), (0.0, 0.5))  # h = z^2, h'(0) = 0
        with pytest.raises(CriticalPointError):
            f.dilatation(0.0)

    def test_analytic_energy_density(self):
        f = shear(0.3, 2)
        z = 0.5j
        # |h'|^2 with h = z
        assert abs(f.analytic_energy_density(z) - 1.0) < 1e-15

    def test_jacobian_formula(self):
        f = raw_polynomial((0.0, 1.0, 0.25), (0.0, 0.5))
        z = 0.4 - 0.2j
        hp = 1.0 + 0.5 * z
        gp = 0.5
        assert abs(f.jacobian(z) - (abs(hp) ** 2 - abs(gp) ** 2)) < 1e-14


class TestDiskAutomorphism:
    def test_rejects_modulus_one(self):
        with pytest.raises(ConstructionError):
            DiskAutomorphism(1.0, 0.0)
        with pytest.raises(ConstructionError):
            automorphism(0.3 + 0.954j)  # |a| just above 1

    def test_rotation_jacobian_exact(self):
        f = rotation_map(math.pi / 3)
        assert f.jacobian(0.3 + 0.1j) == 1.0

    def test_fixed_point_and_circle_image(self):
        f = automorphism(0.5)
        assert abs(f.evaluate(0.5)) < 1e-15
        for t in np.linspace(0.0, 2.0 * math.pi, 17):
            assert abs(abs(f.evaluate(cmath.exp(1j * t))) - 1.0) < 1e-14

    def test_jacobian_matches_closed_form(self):
        f = automorphism(0.5)
        for z in (0.0, 0.5, -0.3 + 0.4j):
            assert abs(f.jacobian(z) - oracles.mobius_jacobian(0.5, z)) < 1e-14

    def test_pole_guard(self):
        f = DiskAutomorphism(1.0 - 1e-15, 0.0)
        with pytest.raises(PoleError):
            f.evaluate(1.0)

    def test_dilatation_is_zero(self):
        f = automorphism(0.4, rotation=1.0)
        assert f.dilatation(0.2 + 0.1j) == 0.0

    @given(st.floats(0.0, 0.9), st.floats(0.0, 2.0 * math.pi))
    def test_boundary_goes_to_boundary(self, a, t):
        f = automorphism(a)
        w = f.evaluate(cmath.exp(1j * t))
        assert abs(abs(w) - 1.0) < 1e-12


BLOCKWISE_MAPS = [
    affine(0.5),
    shear(0.3),
    raw_polynomial([0, 1, 0.2j, 0.05], [0, 0.1, 0.05 - 0.1j]),
    identity_map(),
    rotation_map(1.1),
    automorphism(0.5),
    automorphism(0.3 - 0.4j, rotation=1.1),
]


@pytest.mark.parametrize("f", BLOCKWISE_MAPS, ids=repr)
def test_evaluation_does_not_depend_on_array_length(f):
    # Blocked passes call the kernels on slices, so every bit of a result
    # must be the same whether a point arrives in a long or a short array.
    rng = np.random.default_rng(3)
    z = 0.9 * np.sqrt(rng.uniform(size=20000)) * np.exp(2j * np.pi * rng.uniform(size=20000))
    kernels = ["evaluate", "jacobian", "dilatation", "analytic_energy_density"]
    if isinstance(f, DiskAutomorphism):
        kernels.append("analytic_derivative")
    for name in kernels:
        kernel = getattr(f, name)
        whole = np.asarray(kernel(z))
        parts = np.concatenate([np.asarray(kernel(z[i : i + 100])) for i in range(0, z.size, 100)])
        assert whole.dtype == parts.dtype and whole.tobytes() == parts.tobytes(), name


class TestFactories:
    def test_affine_rejects_large_alpha(self):
        with pytest.raises(ConstructionError):
            affine(1.0)
        with pytest.raises(ConstructionError):
            affine(-1.2)

    def test_shear_rejects_bad_parameters(self):
        with pytest.raises(ConstructionError):
            shear(0.5, 2)  # p*|alpha| = 1 kills sense-preservation
        with pytest.raises(ConstructionError):
            shear(0.1, 1)
        shear(0.49, 2)

    def test_identity(self):
        f = identity_map()
        assert f.evaluate(0.3 + 0.2j) == 0.3 + 0.2j
        assert f.jacobian(0.5) == 1.0

    def test_rescaled_affine_is_self_map(self):
        rep = validate(rescaled_affine(0.5))
        assert rep.sense_preserving
        assert rep.self_map_sup <= 1.0 + 1e-12
        f = rescaled_affine(0.5)
        assert abs(f.jacobian(0.1j) - oracles.rescaled_affine_jacobian(0.5)) < 1e-15


class TestValidate:
    def test_affine_report(self):
        rep = validate(affine(0.5))
        assert rep.sense_preserving
        assert abs(rep.sup_abs_dilatation - 0.5) < 1e-12
        # theta grid includes 0 and the radial grid reaches r = 1
        assert abs(rep.self_map_sup - 1.5) < 1e-12
        assert rep.angular_samples == 64 and rep.radial_samples == 32

    @pytest.mark.parametrize(
        "excess, self_map", [(0.0, True), (5e-10, True), (2e-9, False)]
    )
    def test_self_map_flag_uses_the_slack(self, excess, self_map):
        # sup |f| on the circle is exactly the scale 1 + excess
        rep = validate(raw_polynomial((0.0, 1.0 + excess), (0.0,)))
        assert rep.self_map is self_map

    def test_shear_sup_dilatation_hits_boundary(self):
        rep = validate(shear(0.3, 2))
        assert abs(rep.sup_abs_dilatation - 0.6) < 1e-12

    def test_sample_count_floor(self):
        with pytest.raises(ValueError):
            validate(identity_map(), angular_samples=8)
        with pytest.raises(ValueError):
            validate(identity_map(), radial_samples=15)

    def test_not_sense_preserving(self):
        f = raw_polynomial((0.0, 1.0), (0.0, 2.0))  # |g'| = 2 > |h'|
        rep = validate(f)
        assert not rep.sense_preserving
        assert rep.sup_abs_dilatation > 1.0

    def test_critical_point_makes_validation_fail_loudly(self):
        # h'(z) = z - 1/32 vanishes exactly at the first radial grid node
        f = raw_polynomial((0.0, -0.03125, 0.5), (0.0, 0.01))
        with pytest.raises(CriticalPointError):
            validate(f)

    @given(st.floats(0.0, 0.8), st.floats(0.0, 2.0 * math.pi))
    def test_automorphisms_validate(self, a, rho):
        rep = validate(automorphism(a, rotation=rho), angular_samples=16, radial_samples=16)
        assert rep.sense_preserving
        assert rep.sup_abs_dilatation == 0.0
        assert rep.self_map_sup <= 1.0 + 1e-12

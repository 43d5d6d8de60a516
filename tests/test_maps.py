"""Map construction, evaluation, and validation."""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import harmarea.maps
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
from harmarea.maps import DOMAIN_EPS, SENSE_MARGIN, _zero_free_closed_disk
from harmarea.presets import preset_map, preset_names
from harmarea.search import AffineFamily, AutomorphismFamily, RawBall, ShearFamily, _lattice


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

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=9,
        ),
        st.integers(1, 70000),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_evaluation_matches_the_zero_start(self, coeffs, size, seed):
        # Horner from the leading coefficient against Horner from 0: == holds
        # bit for bit, up to the sign of a zero.
        s = AnalyticSeries(coeffs)
        rng = np.random.default_rng(seed)
        z = np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))
        z[rng.uniform(size=size) < 0.01] = 0.0
        got = s.evaluate(z)
        assert isinstance(got, np.ndarray) and got.dtype == complex and got.shape == z.shape
        assert np.array_equal(got, oracles.horner_from_zero(s.coefficients, z))
        for point in (complex(z[-1]), z[-1], 0j):
            assert complex(s.evaluate(point)) == oracles.horner_from_zero(s.coefficients, point)

    @pytest.mark.parametrize(
        "point",
        [
            complex(math.nan, 0.0),
            complex(0.0, math.inf),
            complex(-math.inf, math.nan),
            1.0 + DOMAIN_EPS,
            complex(0.0, 1.0 + DOMAIN_EPS),
            float(np.nextafter(1.0 + DOMAIN_EPS, 2.0)),
            complex(0.0, np.nextafter(1.0 + DOMAIN_EPS, 2.0)),
            3.0 - 4.0j,
            1.0 + 2e-12,
            0.6 + (0.8 + 2e-12) * 1j,
            1.0 + 0.5 * DOMAIN_EPS,
        ],
        ids=repr,
    )
    @pytest.mark.parametrize(
        "shape", ["scalar", "array", "after-outside", "complex", "complex128"]
    )
    def test_domain_check_matches_three_passes(self, point, shape):
        z = {
            "scalar": point,
            # A Python complex takes the scalar test; np.complex128 is one too.
            "complex": complex(point),
            "complex128": np.complex128(point),
            "array": np.array([0.5, point]),
            # An outside point first: a non-finite one still names finiteness.
            "after-outside": np.array([2.0, point, 0.1j]),
        }[shape]
        try:
            oracles.check_disk_three_pass(z)
        except DomainError as exc:
            with pytest.raises(DomainError) as info:
                harmarea.maps._check_disk(z)
            assert type(info.value) is type(exc) and str(info.value) == str(exc)
        else:
            harmarea.maps._check_disk(z)


    @pytest.mark.parametrize(
        "coefficients", [(0.3,), (0.0, 1.0), (1.0, -2.0j, 0.5), (0.0,) * 64 + (1.0,)], ids=len
    )
    def test_derivative_is_built_once(self, coefficients):
        s = AnalyticSeries(coefficients)
        fresh = AnalyticSeries(coefficients)
        before = (repr(s), hash(s))
        d = s.derivative()
        assert s.derivative() is d and d.derivative() is d.derivative()
        assert d == AnalyticSeries(tuple((k + 1) * c for k, c in enumerate(coefficients[1:])) or (0j,))
        # The memo is not a field: eq, hash and repr read the coefficients only.
        assert (repr(s), hash(s)) == before == (repr(fresh), hash(fresh))
        assert s == fresh and repr(s) == f"AnalyticSeries(coefficients={s.coefficients!r})"
        assert [f.name for f in dataclasses.fields(s)] == ["coefficients"]


class TestPolynomialMap:
    @given(
        st.lists(st.complex_numbers(max_magnitude=10.0), min_size=1, max_size=9),
        st.lists(st.complex_numbers(max_magnitude=10.0), min_size=1, max_size=9),
        st.integers(0, 2**32 - 1),
    )
    def test_unchecked_evaluation_is_evaluate(self, h, g, seed):
        f = raw_polynomial(h, g)
        rng = np.random.default_rng(seed)
        z = np.sqrt(rng.uniform(size=300)) * np.exp(2j * np.pi * rng.uniform(size=300))
        assert f._evaluate_unchecked(z).tobytes() == f.evaluate(z).tobytes()
        for point in (complex(z[0]), z[1], 0j, 1.0):
            assert repr(f._evaluate_unchecked(point)) == repr(f.evaluate(point))

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
        # the circle samples include theta = 0
        assert abs(rep.self_map_sup - 1.5) < 1e-12

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

    @pytest.mark.parametrize("top", [2.2250738585e-313, 5e-324, -1e-310j])
    def test_subnormal_leading_coefficient_is_a_critical_point_at_zero(self, top):
        # h' = 2z + 3 top z^2: np.roots once overflowed dividing by the
        # subnormal leading coefficient, with two RuntimeWarnings and a
        # LinAlgError.  Its zeros are 0 and one past the float range.
        f = raw_polynomial((0.0, 0.0, 1.0, top), (0.0,))
        with pytest.raises(CriticalPointError, match=r"undecidable: h' vanishes near z = 0j$"):
            validate(f)

    @given(st.floats(0.0, 0.8), st.floats(0.0, 2.0 * math.pi))
    def test_automorphisms_validate(self, a, rho):
        rep = validate(automorphism(a, rotation=rho))
        assert rep.sense_preserving
        assert rep.certified
        assert rep.sup_abs_dilatation == 0.0
        assert rep.self_map_sup <= 1.0 + 1e-12


def _excursion_map(k=20, peak=1.001):
    """h = z and g' = b (1 + e^{i phi} z)^k with |g'| peaking at `peak`.

    phi = pi/64 puts the peak, at z = e^{-i phi}, half a spacing away from
    every point of the 64-angle grid, where |g'| is only peak cos(pi/128)^k.
    """
    phi = math.pi / 64.0
    b = peak / 2.0**k
    g = [0j] + [
        b * math.comb(k, j - 1) * cmath.exp(1j * phi * (j - 1)) / j for j in range(1, k + 2)
    ]
    return raw_polynomial((0.0, 1.0), g)


def _lattice_maps(kind, per_axis):
    lattice = _lattice(kind.continuous_bounds(), kind.discrete_axes(), per_axis)
    return [kind.construct(params) for params in lattice]


# The bench's degree-2 rawball and sweep families, the critical-point
# rawball of test_search.TestCriticalPoints, and the presets.
AGREEMENT_CASES = {
    "rawball-0.25": lambda: _lattice_maps(RawBall(2, 0.25), 17),
    "rawball-0.5": lambda: _lattice_maps(RawBall(2, 0.5), 17),
    "affine": lambda: _lattice_maps(AffineFamily((0.0, 0.9)), 33),
    "shear": lambda: _lattice_maps(ShearFamily((0.0, 0.3), (2, 3)), 65),
    "automorphism": lambda: _lattice_maps(AutomorphismFamily((0.0, 0.8), (0.0, 6.0)), 17),
    "presets": lambda: [preset_map(name) for name in preset_names()],
}


class TestSenseCertificate:
    def test_between_sample_excursion_is_caught(self):
        f = _excursion_map()
        sampled_sense, sampled_k, _ = oracles.sampled_validity(f)
        assert sampled_sense and sampled_k < 0.999
        rep = validate(f)
        assert not rep.sense_preserving
        assert rep.certified
        assert rep.sup_abs_dilatation >= 1.0 - SENSE_MARGIN

    def test_excursion_below_the_margin_is_certified(self):
        rep = validate(_excursion_map(peak=0.9))
        assert rep.sense_preserving and rep.certified

    @pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
    def test_decisions_match_the_sampled_disk_grid(self, case):
        maps = AGREEMENT_CASES[case]()
        assert maps
        for f in maps:
            try:
                expected = oracles.sampled_validity(f)
            except CriticalPointError:
                with pytest.raises(CriticalPointError):
                    validate(f)
                continue
            rep = validate(f)
            assert rep.certified, f
            assert rep.sense_preserving is expected[0], f
            assert rep.self_map_sup == expected[2], f

    def test_huge_derivative_is_certified_without_overflow(self):
        # |h'|^2 = 1e320 overflows; the certificate must not square it.
        rep = validate(raw_polynomial((0.0, 1e160), (0.0,)))
        assert rep.sense_preserving and rep.certified
        assert rep.sup_abs_dilatation == 0.0

    @pytest.mark.parametrize(
        "h, g, sup_k",
        [
            ((0.0, 1.0), (0.0, 1e200), 1e200),  # ratio * ratio overflows
            ((0.0, 1e-5), (0.0, 1e305), math.inf),  # g'/h' overflows
            ((0.0, 1.0, 0.3), (0.0, 0.0, 1e180), 5e180),  # 2e180 / |h'(-1)|
        ],
    )
    def test_huge_dilatation_is_a_certified_reversal_without_warnings(self, h, g, sup_k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = validate(raw_polynomial(h, g))
        assert not rep.sense_preserving and rep.certified
        # The dilatation is read from the unclipped ratio.
        assert rep.sup_abs_dilatation == sup_k

    @pytest.mark.parametrize(
        "f",
        [
            _excursion_map(),
            _excursion_map(peak=0.9),
            shear(0.3, 2),
            RawBall(2, 0.5).construct((-0.4375, -0.4375, 0.1875)),  # doubles the circle
        ],
    )
    def test_power_of_two_scaling_keeps_the_decision(self, f):
        # Scaling h and g by 2^600 scales every sample exactly, so the
        # decision and the dilatation keep their bits, past |h'|^2's range.
        scaled = raw_polynomial(*[[c * 2.0**600 for c in s.coefficients] for s in (f.h, f.g)])
        rep, big = validate(f), validate(scaled)
        assert (big.sense_preserving, big.certified, big.sup_abs_dilatation) == (
            rep.sense_preserving,
            rep.certified,
            rep.sup_abs_dilatation,
        )

    def test_uncertified_past_the_cap_decides_from_the_circle(self, monkeypatch):
        # This rawball point needs a 1024-point circle to certify.
        f = RawBall(2, 0.5).construct((-0.4375, -0.4375, 0.1875))
        assert validate(f).certified
        monkeypatch.setattr(harmarea.maps, "CIRCLE_CAP", 64)
        rep = validate(f)
        circle = np.exp(2j * np.pi * np.arange(64) / 64)
        assert not rep.certified
        assert rep.sense_preserving
        assert rep.sup_abs_dilatation == float(np.max(np.abs(f.dilatation(circle))))

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=0.3, allow_nan=False, allow_infinity=False),
            min_size=4,
            max_size=4,
        )
    )
    def test_certified_decision_holds_on_a_dense_circle(self, coeffs):
        f = raw_polynomial((0.0, 1.0, coeffs[0], coeffs[1]), (0.0, 0.5, coeffs[2], coeffs[3]))
        try:
            rep = validate(f)
        except CriticalPointError:
            return
        z = np.exp(2j * np.pi * np.arange(1 << 16) / (1 << 16))
        k = float(np.max(np.abs(f.dilatation(z))))
        if rep.certified:
            assert rep.sense_preserving is (k < 1.0 - SENSE_MARGIN)


def _roots_decision(coeffs):
    """(no zero in the closed disk, distance of the nearest zero to the circle)."""
    if not any(coeffs):
        return False, math.inf
    roots = np.roots(list(reversed(coeffs)))
    if roots.size == 0:
        return True, math.inf
    nearest = float(np.min(np.abs(roots)))
    return nearest > 1.0, abs(nearest - 1.0)


# h' = a0 + a1 z with |a0| one ulp above |a1|: its zero lies within rounding
# of the circle, about half a sample spacing from the 64-point grid.
ULP_PAIR = (-0.7767808583035435 - 0.6297709886722399j, 0.8085397783429935 + 0.5884415237192758j)


# Real and imaginary parts of magnitude 0 or in [2^-20, 4]: scaled by 2^k,
# |k| <= 900, none is subnormal or leaves the float range.
_part = st.just(0.0) | st.builds(
    math.copysign, st.floats(2.0**-20, 4.0), st.sampled_from([1.0, -1.0])
)


class TestZeroFreeClosedDisk:
    @given(
        st.lists(st.builds(complex, _part, _part), min_size=1, max_size=9),
        st.integers(-900, 900),
    )
    @example([complex(0.5, 0.25), complex(4.0, -3.0), complex(2.0**-20, 1.0)], 900)
    @example([complex(3.0, 1.0), complex(-1.0, 0.5), complex(0.25, 0.125)], -900)
    @settings(max_examples=300)
    def test_decision_is_invariant_under_powers_of_two(self, coeffs, k):
        # Each step scales p by an exact power of two before it squares the
        # coefficients' scale, so 2^k p takes the same steps bit for bit.
        scaled = [complex(math.ldexp(c.real, k), math.ldexp(c.imag, k)) for c in coeffs]
        assert _zero_free_closed_disk(scaled) is _zero_free_closed_disk(coeffs)

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=9,
        )
    )
    @settings(max_examples=300)
    def test_matches_numpy_roots_off_the_circle(self, coeffs):
        expected, gap = _roots_decision(coeffs)
        assume(gap > 1e-6)
        assert _zero_free_closed_disk(coeffs) is expected

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            ((1.0, -1.0), False),  # h' = 1 - z vanishes at z = 1
            ((-0.03125, 1.0), False),  # at z = 1/32
            ((0.0,), False),  # h' = 0
            ((0.0, 0.0, 0.0), False),
            ((2.0,), True),
            ((1.0, 0.0, 0.0), True),  # trailing zeros do not count
            ((1.0, 0.0, -1.0), False),  # z = +-1
            ((1.0, 0.5j, 0.25), True),
            # |a0| exceeds |a1| by one ulp, but the reduction cancels to 0.
            (ULP_PAIR, False),
        ],
    )
    def test_explicit_cases(self, coeffs, expected):
        assert _zero_free_closed_disk([complex(c) for c in coeffs]) is expected

    def test_zero_on_the_circle_raises_in_validate(self):
        with pytest.raises(CriticalPointError, match="undecidable"):
            validate(raw_polynomial((0.0, 1.0, -0.5), (0.0,)))
        with pytest.raises(CriticalPointError, match="undecidable"):
            validate(raw_polynomial((0.3,), (0.0, 0.1)))
        with pytest.raises(CriticalPointError, match="undecidable"):
            validate(raw_polynomial((0.0, ULP_PAIR[0], ULP_PAIR[1] / 2.0), (0.0,)))

    @pytest.mark.parametrize(
        "h, where",
        [
            ((0.0, -0.03125, 0.5), "h' vanishes near z = (0.03125+0j)"),  # a grid node
            ((0.0, 0.0, 1.0), "h' vanishes near z = 0j"),  # f = z^2, between nodes
            ((0.0, 1.0, -0.5), "h' vanishes near z = (1+0j)"),  # a circle sample
            ((0.3,), "h' vanishes near z = (1+0j)"),  # h' = 0
        ],
    )
    def test_error_names_the_critical_point(self, h, where):
        with pytest.raises(CriticalPointError) as excinfo:
            validate(raw_polynomial(h, (0.0,)))
        assert str(excinfo.value) == f"sense-preservation undecidable: {where}"


_SMALL = st.complex_numbers(max_magnitude=0.4, allow_nan=False, allow_infinity=False)
_ANY = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
# Stacked rows of degree <= 4: h = z + small terms (mostly sense-preserving),
# arbitrary h and g (h' often vanishes in the disk), and fixed rows that
# validate must treat specially.
_STACKED_MAP = st.one_of(
    st.builds(
        lambda h, g: raw_polynomial([0.0, 1.0, *h], g),
        st.lists(_SMALL, max_size=3),
        st.lists(_SMALL, min_size=1, max_size=5),
    ),
    st.builds(raw_polynomial, st.lists(_ANY, min_size=1, max_size=5), st.lists(_ANY, min_size=1, max_size=5)),
    st.sampled_from(
        [
            raw_polynomial((0.0, 1.0, -0.5), (0.0,)),  # h' vanishes at the sample z = 1
            raw_polynomial((0.0, ULP_PAIR[0], ULP_PAIR[1] / 2.0), (0.0,)),  # between samples
            raw_polynomial((0.0, -0.03125, 0.5), (0.0, 0.01)),  # inside the disk
            raw_polynomial((0.3,), (0.0, 0.1)),  # h' = 0
            # Needs a 1024-point circle to certify.
            RawBall(2, 0.5).construct((-0.4375, -0.4375, 0.1875)),
            raw_polynomial((0.0, 1.0), (0.0, 2.0)),  # not sense-preserving
            shear(0.3, 3),
            affine(0.5),
        ]
    ),
)


_AUTOMORPHISM = st.builds(
    automorphism,
    st.complex_numbers(max_magnitude=0.99, allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestValidateRows:
    """validate_rows on a stack of polynomial maps of mixed degree gives each
    row what validate gives the map alone, bit for bit; validate gives each
    automorphism its conformal report."""

    @pytest.mark.parametrize("cap", [None, 64])
    @given(
        st.one_of(
            st.lists(_STACKED_MAP, min_size=1, max_size=12),
            st.lists(_AUTOMORPHISM, min_size=1, max_size=12),
        )
    )
    @example(
        maps=[
            affine(0.5),
            raw_polynomial((0.0, 1.0, -0.5), (0.0,)),  # h' vanishes at the sample z = 1
            raw_polynomial((0.3,), (0.0, 0.1)),  # h' = 0
            raw_polynomial((0.0, 1.0), (0.0, 2.0)),  # reversing
            RawBall(2, 0.5).construct((-0.4375, -0.4375, 0.1875)),  # doubles the circle
            shear(0.3, 3),
            raw_polynomial((0.0, 1.0), (0.0, 0.5, 0.0, 0.25)),  # reversing, degree 3
            raw_polynomial((0.0, 2.0), (0.0, 0.0, 0.0, 0.3)),  # not a self-map
        ]
    )
    @example(maps=[automorphism(0.99 + 0j, 3.0), identity_map(), automorphism(-0.5j, -1e300)])
    # h' = 2z + 6.7e-313 z^2: np.roots once overflowed dividing by the
    # subnormal leading coefficient and raised LinAlgError.
    @example(maps=[raw_polynomial((0.0, 0.0, 1.0, 2.2250738585e-313), (0.0,)), affine(0.5)])
    @settings(max_examples=300, deadline=None)
    def test_rows_match_one_row_validate(self, cap, maps):
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                # Past the cap the samples decide, uncertified.
                mp.setattr(harmarea.maps, "CIRCLE_CAP", cap)
            if isinstance(maps[0], DiskAutomorphism):
                stacked = [validate(f) for f in maps]
            else:
                stacked = harmarea.maps.validate_rows(*harmarea.maps.coefficient_rows(maps))
            assert len(stacked) == len(maps)
            for f, row in zip(maps, stacked):
                try:
                    alone = validate(f)
                except CriticalPointError as exc:
                    assert isinstance(row, CriticalPointError)
                    assert str(row) == str(exc)
                    continue
                assert row.sense_preserving is alone.sense_preserving
                assert row.certified is alone.certified
                assert row.sup_abs_dilatation.hex() == alone.sup_abs_dilatation.hex()
                assert row.self_map_sup.hex() == alone.self_map_sup.hex()
                if isinstance(f, DiskAutomorphism):
                    # Conformal: certified, dilatation 0, |f| at the circle samples.
                    circle = np.exp(1j * (2.0 * np.pi * np.arange(64) / 64))
                    assert (row.sense_preserving, row.certified) == (True, True)
                    assert row.sup_abs_dilatation == 0.0
                    assert row.self_map_sup == float(np.max(np.abs(f.evaluate(circle))))

    def test_doubling_and_cap_rows_take_their_own_path(self, monkeypatch):
        slow = RawBall(2, 0.5).construct((-0.4375, -0.4375, 0.1875))
        maps = [affine(0.5), slow, shear(0.3, 3), slow]
        stacked = harmarea.maps.validate_rows(*harmarea.maps.coefficient_rows(maps))
        assert [row.certified for row in stacked] == [True] * 4
        assert stacked[1] == stacked[3] == validate(slow)
        monkeypatch.setattr(harmarea.maps, "CIRCLE_CAP", 64)
        stacked = harmarea.maps.validate_rows(*harmarea.maps.coefficient_rows(maps))
        assert [row.certified for row in stacked] == [True, False, True, False]

    def test_derivative_samples_past_the_float_range_are_undecidable(self):
        # h' = 1e308 + 2e308 z overflows: that row is undecidable.  h =
        # 1e308 + 1e308 z overflows at z = 1 but h' does not: that row is
        # decided, with sup |f| = inf.  Neither prints a RuntimeWarning, and
        # each stacked row is what validate gives the map alone.
        huge_h_prime = raw_polynomial((0.0, 1e308, 1e308), (0.0,))
        huge_h = raw_polynomial((1e308, 1e308), (0.0,))
        maps = [huge_h_prime, huge_h, shear(0.3, 3)]
        stacked = harmarea.maps.validate_rows(*harmarea.maps.coefficient_rows(maps))
        assert isinstance(stacked[0], CriticalPointError)
        assert "overflows the float range" in str(stacked[0])
        with pytest.raises(CriticalPointError, match="overflows the float range"):
            validate(huge_h_prime)
        assert stacked[1].sense_preserving and stacked[1].certified
        assert stacked[1].self_map_sup == math.inf
        assert [stacked[1], stacked[2]] == [validate(f) for f in maps[1:]]

    def test_sup_f_past_the_float_range_reads_inf_not_nan(self):
        # At z = 1, h and conj(g) overflow with opposite signs, so sup |f|
        # once read nan.  f = 0.7e308 z - 0.6e308 conj(z) peaks at 1.3e308
        # (z = i); f = 1e308 (z - conj z) peaks at 2e308, past the float
        # range.  pytest turns a RuntimeWarning into an error.
        peak = validate(raw_polynomial((1.2e308, 0.7e308), (-1.2e308, -0.6e308)))
        assert peak.sense_preserving and peak.certified
        assert peak.self_map_sup == pytest.approx(1.3e308, rel=1e-15)
        assert validate(raw_polynomial((1e308, 1e308), (-1e308, -1e308))).self_map_sup == math.inf
        # A row whose sup |f| is finite keeps every bit beside such rows.
        maps = [raw_polynomial((1.2e308, 0.7e308), (-1.2e308, -0.6e308)), shear(0.3, 3)]
        stacked = harmarea.maps.validate_rows(*harmarea.maps.coefficient_rows(maps))
        assert stacked == [peak, validate(shear(0.3, 3))]


class TestWholeShearPower:
    """shear takes a whole power: 2.0 is 2, a fraction or an infinity is refused."""

    def test_whole_float_is_the_int(self):
        assert shear(0.3, 2.0) == shear(0.3, 2)
        assert shear(0.1, 3.0).g.degree == 3

    @pytest.mark.parametrize("power", [2.5, 3.000001, math.inf, -math.inf, math.nan])
    def test_fraction_or_infinity_refused(self, power):
        with pytest.raises(ConstructionError, match=r"^shear power must be a whole number, not "):
            shear(0.3, power)


# The certificate's bound on sum k|b_k| / low.
_MARGIN = (1.0 - 1e-6) * (1.0 - SENSE_MARGIN)
# A factor on one side of a threshold: 1e-7 from it, or anywhere around it.
_NEAR = st.one_of(st.sampled_from([1.0 - 1e-7, 1.0 + 1e-7]), st.floats(0.0, 1.5))


@st.composite
def _certificate_row(draw):
    """Coefficients (2, degree + 1) of h and g, degree 0 to 8, built at or
    around each of the certificate's thresholds, at scales 1e-150 to 1e150."""
    degree = draw(st.integers(0, 8))
    unit = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    weights = np.array(draw(st.lists(unit, min_size=2 * degree + 2, max_size=2 * degree + 2)))
    turns = np.array(draw(st.lists(unit, min_size=2 * degree + 2, max_size=2 * degree + 2)))
    row = (weights * np.exp(2j * np.pi * turns)).reshape(2, degree + 1)
    k = np.arange(degree + 1)
    if degree >= 1:
        row[0, 1] = np.exp(2j * np.pi * turns[1])
        # sum_{k>=2} k|a_k| = 1 - low, with low = 1e-6 (at the first
        # threshold) or anywhere in [-0.2, 1].
        low = draw(st.one_of(_NEAR.map(lambda t: 1e-6 * t), st.floats(-0.2, 1.0)))
        tail = np.sum(k[2:] * np.abs(row[0, 2:]))
        if tail > 0.0:
            row[0, 2:] *= (1.0 - low) / tail
        # sum k|b_k| at the second threshold, or around it.
        slope = np.sum(k[1:] * np.abs(row[1, 1:]))
        if slope > 0.0 and low > 0.0:
            row[1, 1:] *= draw(_NEAR) * _MARGIN * low / slope
    row[:, 0] *= draw(st.floats(0.0, 0.5))
    if draw(st.booleans()):
        # The self-map threshold: sum |a_k| + sum |b_k| = 1 - 1e-6, or around it.
        row *= draw(_NEAR) * (1.0 - 1e-6) / max(np.sum(np.abs(row)), 1e-300)
    else:
        row *= 10.0 ** draw(st.integers(-150, 150))
    return row


class TestCoefficientCertificate:
    """maps._coefficient_certificate decides a row only where validate_rows
    gives it no CriticalPointError and calls it sense-preserving (and, when
    asked, a self-map): search feasibility can skip the circle there."""

    @given(st.lists(_certificate_row(), min_size=1, max_size=8), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_certified_rows_are_feasible(self, rows, self_map):
        n = max(row.shape[1] for row in rows)
        coefficients = np.array([np.pad(row, ((0, 0), (0, n - row.shape[1]))) for row in rows])
        sure = harmarea.maps._coefficient_certificate(coefficients, self_map)
        validity = harmarea.maps.validate_rows(coefficients, np.array([r.shape[1] - 1 for r in rows]))
        for i in np.flatnonzero(sure).tolist():
            assert not isinstance(validity[i], CriticalPointError)
            assert validity[i].sense_preserving
            assert validity[i].self_map or not self_map

    def test_certifies_most_of_the_bench_rawball(self):
        kind = RawBall(2, 0.25)
        lattice = _lattice(kind.continuous_bounds(), (), 17)
        coefficients = kind.coefficients(lattice)
        sure = harmarea.maps._coefficient_certificate(coefficients, False)
        validity = harmarea.maps.validate_rows(coefficients, np.full(len(lattice), 2))
        assert sure.mean() > 0.9
        certified = [validity[i] for i in np.flatnonzero(sure).tolist()]
        assert not any(isinstance(report, CriticalPointError) for report in certified)
        assert all(report.sense_preserving for report in certified)
        # h = z + ...: sum |a_k| >= 1, so no row is a certified self-map.
        assert not harmarea.maps._coefficient_certificate(coefficients, True).any()

    @staticmethod
    def _decide(h, g, self_map=False):
        (coefficients, degree) = harmarea.maps.coefficient_rows([raw_polynomial(h, g)])
        sure = harmarea.maps._coefficient_certificate(coefficients, self_map)
        return bool(sure[0]), harmarea.maps.validate_rows(coefficients, degree)[0]

    def test_weights_by_k(self):
        # sum |b_k| = 0.6 < 1, but g' = 1.2 z reaches 1.2 on the circle.
        sure, report = self._decide((0.0, 1.0), (0.0, 0.0, 0.6))
        assert not sure and not report.sense_preserving and report.certified

    def test_keeps_the_sense_margin(self):
        # Between (1 - 1e-6)(1 - SENSE_MARGIN) and 1 - 1e-6: refused.
        assert not self._decide((0.0, 1.0), (0.0, (1.0 - 1e-6) * (1.0 - SENSE_MARGIN / 2)))[0]
        assert self._decide((0.0, 1.0), (0.0, (1.0 - 1e-6) * (1.0 - 2 * SENSE_MARGIN)))[0]

    def test_keeps_the_relative_floor(self):
        # low = 1 - 2|a_2| against 1e-6 |a_1|, far above the 1e-10 floor.
        assert not self._decide((0.0, 1.0, (1.0 - 0.5e-6) / 2), (0.0,))[0]
        assert self._decide((0.0, 1.0, (1.0 - 2e-6) / 2), (0.0,))[0]

    def test_self_map_needs_the_coefficient_sum(self):
        sure, report = self._decide((0.0, 1.5), (0.0, 0.1), self_map=True)
        assert not sure and report.sense_preserving and not report.self_map
        assert self._decide((0.0, 1.5), (0.0, 0.1))[0]
        assert self._decide((0.1, 0.7), (0.05, 0.1), self_map=True)[0]

    @pytest.mark.parametrize(
        "h, g",
        [
            ((0.3,), (0.0,)),  # degree 0: h' = 0
            ((0.0, 1e-11), (0.0,)),  # |h'| below the floor
            ((0.0, 1.0, 0.5), (0.0,)),  # h' = 1 + z vanishes at -1
        ],
    )
    def test_undecided_rows(self, h, g):
        assert not self._decide(h, g)[0]

    @pytest.mark.parametrize(
        "row", [[[0, 1e308 + 1e308j, 0], [0, 0, 0]], [[0, 1e308, 1e308], [0, 0, 0]], [[0, 1, 0], [1e308, 0, 1e308]]]
    )
    def test_overflowing_sums_certify_nothing(self, row):
        assert not harmarea.maps._coefficient_certificate(np.array([row], dtype=complex), True).any()

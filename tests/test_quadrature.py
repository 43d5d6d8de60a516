"""Polar and grid quadrature plus the raster cross-check estimator."""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from harmarea import (
    ConstructionError,
    Disk,
    NonConvergenceError,
    PixelGrid,
    QuadResult,
    StarShaped,
    affine,
    analytic_energy,
    automorphism,
    contains_points,
    identity_map,
    image_area,
    integrate_boundary,
    integrate_grid,
    integrate_polar,
    mc_image_area,
    raw_polynomial,
    rasterize,
    region_measure,
    rescaled_affine,
    rotation_map,
    shear,
    star_cos3,
)
from harmarea import quadrature
from harmarea.quadrature import BOUNDARY_POLE_CAP, _dilate, _panels, arc_grid_area


def one(z):
    return np.ones_like(np.asarray(z, dtype=complex), dtype=float)


def hyperbolic(z):
    return 1.0 / (1.0 - np.abs(z) ** 2) ** 2


def traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestQuadResult:
    def test_invariants(self):
        QuadResult(1.0, 0.0, 1)
        with pytest.raises(ConstructionError):
            QuadResult(1.0, -1e-16, 1)
        with pytest.raises(ConstructionError):
            QuadResult(1.0, 0.0, 0)
        with pytest.raises(ConstructionError):
            QuadResult(math.nan, 0.0, 1)


def mp_gauss_legendre(nodes, q: int):
    """The q-node rule at 40 digits: two Newton steps on mpmath's P_q from
    each node (quadratic from 1e-16), then the weight 2 / ((1 - x^2) P_q'^2)."""
    out = []
    with mpmath.workdps(40):
        for x in map(mpmath.mpf, nodes.tolist()):
            for step in range(3):
                p, pm = mpmath.legendre(q, x), mpmath.legendre(q - 1, x)
                dp = q * (pm - x * p) / (1 - x * x)
                if step < 2:
                    x -= p / dp
            out.append((x, 2 / ((1 - x * x) * dp * dp)))
    return out


class TestGaussTable:
    """quadrature._gauss against mpmath: every quadrature layer reads it."""

    @pytest.mark.parametrize("q", [*range(1, 65), 128, 256])
    def test_matches_forty_digits(self, q):
        x, w = quadrature._gauss(q)
        assert x.shape == w.shape == (q,) and np.all(np.diff(x) > 0)
        # Exact mirror images: odd moments vanish, and the halves agree bit for bit.
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert abs(math.fsum(w.tolist()) - 2.0) <= 4 * np.spacing(2.0)
        for xi, wi, (xr, wr) in zip(x.tolist(), w.tolist(), mp_gauss_legendre(x, q)):
            assert abs(float(xr) - xi) <= 2.3e-16  # numpy's leggauss: up to 2.2e-16
            assert abs(float((wi - wr) / wr)) <= 2e-13  # leggauss: 1.4e-11 at q = 128

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 7, 16, 33, 64, 128, 256])
    def test_integrates_even_powers_exactly(self, q):
        x, w = quadrature._gauss(q)
        for k in range(q):  # 2k <= 2q - 2
            # x^(2k) carries 2k times a node's rounding: numpy's leggauss
            # reaches 26 (2k + 1) eps at q = 128.
            moment = math.fsum((w * x ** (2 * k)).tolist())
            rel = 4 * (2 * k + 1) * np.spacing(1.0)
            assert moment == pytest.approx(2.0 / (2 * k + 1), rel=rel, abs=0.0)


class TestIntegratePolar:
    def test_constant_over_disk(self):
        res = integrate_polar(one, Disk(0.5))
        assert abs(res.value - math.pi * 0.25) < 1e-12
        assert res.error_estimate <= 1e-9 * max(1.0, res.value)
        assert res.evals > 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_radial_monomials_integrated_exactly(self, m):
        # int over rD of |z|^(2m) = 2 pi r^(2m+2)/(2m+2)
        r = 0.8
        field = lambda z: np.abs(z) ** (2 * m)
        expected = 2.0 * math.pi * r ** (2 * m + 2) / (2 * m + 2)
        res = integrate_polar(field, Disk(r))
        assert abs(res.value - expected) < 1e-12 * expected

    def test_shear_jacobian_closed_form(self):
        f = shear(0.3, 2)
        res = integrate_polar(f.jacobian, Disk(0.5))
        assert abs(res.value - oracles.FROZEN["shear-0.3-p2-disk-0.5"]) < 1e-10

    def test_hyperbolic_density(self):
        field = lambda z: (1.0 - np.abs(z) ** 2) ** -2.0
        res = integrate_polar(field, Disk(0.5))
        assert abs(res.value - math.pi / 3.0) < 1e-9

    def test_mobius_jacobian_closed_form(self):
        f = automorphism(0.5)
        res = integrate_polar(f.jacobian, Disk(0.5))
        assert abs(res.value - oracles.FROZEN["mobius-0.5-disk-0.5"]) < 1e-9

    def test_constant_over_star_matches_measure(self):
        E = star_cos3(64)
        res = integrate_polar(one, E)
        assert abs(res.value - region_measure(E)) < 2e-9

    def test_affine_jacobian_over_star(self):
        E = star_cos3(256)
        res = integrate_polar(affine(0.5).jacobian, E)
        expected = 0.75 * oracles.pl_star_measure(E.profile)
        assert abs(res.value - expected) <= 1e-9 * expected

    def test_deterministic_and_worker_invariant(self):
        f = automorphism(0.6, rotation=0.7)
        a = integrate_polar(f.jacobian, Disk(0.9))
        b = integrate_polar(f.jacobian, Disk(0.9))
        c = integrate_polar(f.jacobian, Disk(0.9))
        assert a.value == b.value == c.value
        E = star_cos3(64)
        sa = integrate_polar(f.jacobian, E)
        sb = integrate_polar(f.jacobian, E)
        assert sa.value == sb.value

    @pytest.mark.parametrize("E", [Disk(0.9), star_cos3(64)])
    def test_one_field_call_per_level(self, E):
        shapes = []

        def counted(z):
            shapes.append(z.shape)
            return automorphism(0.6).jacobian(z)

        res = integrate_polar(counted, E)
        # both node counts double per level, so each call covers a whole level
        assert len(shapes) >= 2
        assert shapes == [
            (shapes[0][0] << k, shapes[0][1] << k) for k in range(len(shapes))
        ]
        assert sum(a * b for a, b in shapes) == res.evals

    @pytest.mark.parametrize(
        "field, E",
        [
            (hyperbolic, Disk(0.9)),
            (automorphism(0.3 - 0.4j, rotation=1.1).jacobian, star_cos3(64, 0.9)),
            (shear(0.3).jacobian, StarShaped((0.9, 0.5, 0.8, 0.3, 0.95, 0.6, 0.7, 0.4))),
        ],
        ids=["hyperbolic-disk", "rotated-mobius-cos3", "shear-star8"],
    )
    def test_row_blocks_do_not_change_bits(self, field, E, monkeypatch):
        streamed = integrate_polar(field, E)
        for block in (1, 100, 2**62):  # one row, a few rows, whole levels
            monkeypatch.setattr(quadrature, "BLOCK", block)
            assert integrate_polar(field, E) == streamed

    def test_nonconvergence_raises(self):
        f = automorphism(0.999)
        with pytest.raises(NonConvergenceError) as exc:
            integrate_polar(f.jacobian, Disk(0.999))
        assert "cap" in str(exc.value)

    def test_cap_level_peak_memory_is_blocked(self):
        # The last level has 4096 x 256 nodes; held whole, its complex and
        # real temporaries peak at 73 MiB.
        def capped():
            with pytest.raises(NonConvergenceError):
                integrate_polar(automorphism(0.999).jacobian, Disk(0.999))

        assert traced_peak(capped) <= 16 * 2**20

    def test_tolerance_floor(self):
        with pytest.raises(ValueError):
            integrate_polar(one, Disk(0.5), tol=1e-13)

    def test_grid_region_dispatch_rejected(self):
        g = rasterize(Disk(0.5), 16)
        with pytest.raises(ConstructionError):
            integrate_polar(one, g)


def _identity(z):
    return z


profile_values = st.lists(
    st.floats(0.05, 1.0, exclude_min=True), min_size=8, max_size=64
)


def _unit(z):
    return np.ones_like(z)


class TestIntegrateBoundary:
    def test_identity_gives_region_measure(self):
        # F = z has |F'|^2 = 1, so the boundary integral is m(E).
        irregular = StarShaped((0.4, 0.6, 0.5, 0.9, 0.3, 0.7, 0.8, 0.55))
        for E in (star_cos3(64), irregular):
            res = integrate_boundary([(1.0, _identity, _unit)], E)
            exact = oracles.pl_star_measure(E.profile)
            assert abs(res.value - exact) <= 1e-14 * exact
            assert res.error_estimate <= 1e-9

    def test_signed_parts_subtract(self):
        # h = z, g = 0.5 z: J = 1 - 0.25 everywhere.
        E = star_cos3(64)
        half = lambda z: 0.5 * z
        res = integrate_boundary(
            [(1.0, _identity, _unit), (-1.0, half, lambda z: 0.5 * np.ones_like(z))], E
        )
        exact = 0.75 * oracles.pl_star_measure(E.profile)
        assert abs(res.value - exact) <= 1e-14 * exact

    def test_constant_shift_does_not_matter(self):
        E = star_cos3(64)
        plain = integrate_boundary([(1.0, _identity, _unit)], E)
        shifted = integrate_boundary([(1.0, lambda z: z + 5.0 - 3.0j, _unit)], E)
        assert abs(plain.value - shifted.value) <= 1e-15

    def test_min_nodes_sets_first_level(self):
        E = StarShaped((0.5,) * 8)
        res = integrate_boundary([(1.0, _identity, _unit)], E, min_nodes=260)
        # 8 segments need 64 nodes each for 260 nodes: levels 64 and 128.
        assert res.evals == 8 * (64 + 128)

    def test_unresolvable_pole_raises_before_evaluating(self):
        f = automorphism(1.0 - 1e-6)
        calls = []

        def h(z):
            calls.append(z.size)
            return f.evaluate(z)

        with pytest.raises(NonConvergenceError) as exc:
            integrate_boundary(
                [(1.0, h, f.analytic_derivative)],
                StarShaped((1.0,) * 16),
                pole=1.0 / (1.0 - 1e-6),
            )
        assert "cap" in str(exc.value)
        assert calls == []

    @given(
        prof=profile_values,
        # 1 - |a| down to 1e-5, so some poles lie within the cap.  The
        # reference's sector distances overflow for a pole near infinity.
        modulus=st.just(0.0)
        | st.floats(1e-6, 0.99)
        | st.floats(2.0, 5.0).map(lambda k: 1.0 - 10.0**-k),
        phase=st.floats(0.0, 2.0 * math.pi),
        tol=st.sampled_from([1e-9, 1e-12]),
    )
    @example(prof=[1.0] * 16, modulus=0.99, phase=0.1, tol=1e-12)
    @example(prof=[1.0, 0.5] * 8, modulus=0.999, phase=0.0, tol=1e-9)
    @example(prof=[1.0] * 16, modulus=1.0 - 1e-5, phase=0.0, tol=1e-9)
    def test_panels_match_node_doubling_reference(self, prof, modulus, phase, tol):
        # Unsplit panels are the profile segments with the same float
        # expressions, so the bits agree; split panels agree within tol.
        a = modulus * cmath.exp(1j * phase)
        f = automorphism(a, rotation=0.3)
        parts = [(1.0, f.evaluate, f.analytic_derivative)]
        E = StarShaped(prof)
        pole = None if a == 0 else 1.0 / a.conjugate()
        try:
            ref = oracles.node_doubling_boundary(parts, E.profile, tol, pole=pole)
        except NonConvergenceError:
            ref = None
        try:
            res = integrate_boundary(parts, E, tol, pole=pole)
        except NonConvergenceError:
            assert ref is None
            return
        assume(ref is not None)
        if _panels(E, pole).shape[1] == len(prof):
            assert (res.value, res.error_estimate, res.evals) == ref
        else:
            assert abs(res.value - ref[0]) <= tol * max(1.0, abs(ref[0]))

    @given(
        prof=profile_values,
        rho=st.floats(1.0 + 1e-3, 3.0),
        psi=st.floats(0.0, 2.0 * math.pi),
    )
    def test_panels_bound_their_distance_to_the_pole(self, prof, rho, psi):
        E = StarShaped(prof)
        pole = rho * complex(math.cos(psi), math.sin(psi))
        panels = _panels(E, pole)
        start, width, r0, r1, slope = panels
        # The panels tile the circle and keep the slope of their segment.
        assert math.fsum(width) == pytest.approx(2.0 * math.pi, rel=1e-14)
        h = 2.0 * math.pi / len(prof)
        segment = ((start + 0.5 * width) // h).astype(int)
        seg_slope = (np.roll(E.profile, -1) - np.asarray(E.profile)) / h
        assert np.array_equal(slope, seg_slope[segment])
        arc = width * np.hypot(slope, np.maximum(r0, r1))
        mid = 0.5 * (r0 + r1) * np.exp(1j * (start + 0.5 * width))
        bound = np.abs(pole - mid) - 0.5 * arc
        x = quadrature._gauss(64)[0]
        frac = np.concatenate([[0.0], (x + 1.0) / 2.0, [1.0]])
        theta = start[:, None] + width[:, None] * frac
        z = (r0[:, None] + (r1 - r0)[:, None] * frac) * np.exp(1j * theta)
        seen = np.abs(z - pole).min(axis=1)
        assert np.all(bound <= seen * (1.0 + 1e-12))
        assert np.all(bound >= arc)

    @pytest.mark.parametrize("modulus", [0.995, 0.999])
    def test_pole_near_circle_is_resolved_by_panels(self, modulus):
        # The node doubling needed 6144 (0.995) and 49152 (0.999) evals.
        f = automorphism(modulus)
        res = integrate_boundary(
            [(1.0, f.evaluate, f.analytic_derivative)],
            StarShaped((1.0,) * 16),
            pole=1.0 / modulus,
        )
        assert abs(res.value - math.pi) <= 1e-9 * math.pi
        assert res.evals < 4096

    def test_deterministic(self):
        f = automorphism(0.6j, rotation=0.7)
        parts = [(1.0, f.evaluate, f.analytic_derivative)]
        E = star_cos3(64, scale=0.9)
        assert integrate_boundary(parts, E) == integrate_boundary(parts, E)

    def test_rejects_other_regions_and_tiny_tol(self):
        parts = [(1.0, _identity, _unit)]
        with pytest.raises(ConstructionError):
            integrate_boundary(parts, Disk(0.5))
        with pytest.raises(ConstructionError):
            integrate_boundary(parts, star_cos3(64), tol=1e-13)


def _parts(f, energy=False):
    """integrate_grid's (sign, F, dF) parts of a polynomial map's area, or
    of its energy."""
    series = [(1.0, f.h)] if energy else [(1.0, f.h), (-1.0, f.g)]
    return [(c, s._evaluate_unchecked, s.derivative()._evaluate_unchecked) for c, s in series]


def _polynomial_parts(h, g):
    """distortion's parts for the area integral of raw_polynomial(h, g)."""
    f = raw_polynomial(h, g)
    return [
        (sign, s._evaluate_unchecked, s.derivative()._evaluate_unchecked)
        for sign, s in ((1.0, f.h), (-1.0, f.g))
    ]


def _batch_matches_each_star_alone(parts, stars, tol, **options):
    """_boundary_batch equals, star by star, integrate_boundary and the
    written-out one-star kernel in value, error estimate and evals; when a
    star alone raises, the batch raises too."""
    try:
        alone = [oracles.panel_boundary_alone(parts, E, tol, **options) for E in stars]
    except NonConvergenceError:
        with pytest.raises(NonConvergenceError):
            quadrature._boundary_batch(parts, stars, tol, **options)
        return None
    batch = quadrature._boundary_batch(parts, stars, tol, **options)
    for E, got, ref in zip(stars, batch, alone):
        assert (got.value, got.error_estimate, got.evals) == ref
        assert integrate_boundary(parts, E, tol, **options) == got
    return batch


_coefficients = st.complex_numbers(max_magnitude=0.4, allow_nan=False, allow_infinity=False)
# Degree 2 to 8 in h, the canonical part.
_h_coefficients = st.integers(2, 8).flatmap(
    lambda d: st.lists(_coefficients, min_size=d + 1, max_size=d + 1)
)


class TestBoundaryBatch:
    @given(
        h=_h_coefficients,
        g=st.lists(_coefficients, min_size=1, max_size=9),
        prof=profile_values,
        scales=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
        other=profile_values,
        tol=st.sampled_from([1e-9, 1e-12]),
    )
    def test_polynomial_batches_match_each_star_alone(self, h, g, prof, scales, other, tol):
        stars = [StarShaped([s * v for v in prof]) for s in scales] + [StarShaped(other)]
        degree = max(len(h), len(g)) - 1
        _batch_matches_each_star_alone(
            _polynomial_parts(h, g), stars, tol, min_nodes=4 * (degree + 1)
        )

    @given(
        modulus=st.floats(0.0, 0.99),
        phase=st.floats(0.0, 2.0 * math.pi),
        prof=profile_values,
        scales=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
        tol=st.sampled_from([1e-9, 1e-12]),
    )
    @example(modulus=0.99, phase=0.0, prof=[1.0] * 16, scales=[1, 0.995, 0.9, 0.5], tol=1e-9)
    def test_mobius_batches_match_each_star_alone(self, modulus, phase, prof, scales, tol):
        a = modulus * cmath.exp(1j * phase)
        f = automorphism(a, rotation=0.3)
        stars = [StarShaped([s * v for v in prof]) for s in scales]
        pole = None if a == 0 else 1.0 / a.conjugate()
        parts = [(1.0, f.evaluate, f.analytic_derivative)]
        _batch_matches_each_star_alone(parts, stars, tol, pole=pole)

    def test_groups_and_levels_differ_within_one_batch(self):
        # The pole 1/0.99 splits the unit circle's panels more often than
        # those of the smaller stars: three panel layouts in one batch.
        f = automorphism(0.99)
        stars = [StarShaped([s] * 16) for s in (1.0, 0.995, 0.9, 0.5)]
        layouts = {_panels(E, 1.0 / 0.99)[:2].tobytes() for E in stars}
        assert len(layouts) >= 2
        parts = [(1.0, f.evaluate, f.analytic_derivative)]
        batch = _batch_matches_each_star_alone(parts, stars, 1e-9, pole=1.0 / 0.99)
        nodes = {q.evals // _panels(E, 1.0 / 0.99).shape[1] for E, q in zip(stars, batch)}
        assert len(nodes) >= 2
        # One layout, levels that differ: a degree-8 map on scaled stars.
        h = [0, 1] + [0.1] * 7
        stars = [star_cos3(64, s) for s in (0.1, 0.5, 1.0)]
        batch = _batch_matches_each_star_alone(_polynomial_parts(h, [0]), stars, 1e-12)
        assert len({q.evals for q in batch}) >= 2


class TestIntegrateGrid:
    def test_identity_counts_cells(self):
        g = rasterize(Disk(0.5), 64)
        res = integrate_grid([(1.0, _identity, _unit)], g, 1)
        assert math.isclose(res.value, region_measure(g), rel_tol=1e-15)
        assert res.error_estimate == 0.0

    def test_monotone_in_mask_for_nonnegative_fields(self):
        small = rasterize(Disk(0.3), 64)
        big = rasterize(Disk(0.6), 64)
        parts = _parts(raw_polynomial([0, 1, 0.25], [0]))  # |F'|^2 = |1 + z/2|^2 > 0
        assert integrate_grid(parts, small, 2).value < integrate_grid(parts, big, 2).value

    def test_evals_count_four_sides_of_nodes_per_run(self):
        g = rasterize(star_cos3(256, 0.9), 128)
        res = integrate_grid(_parts(shear(0.3, 3)), g, 3)
        assert res.evals == 12 * len(g.runs)

    @pytest.mark.parametrize("block", [1, 100, 2**62])
    def test_block_size_is_invisible(self, block, monkeypatch):
        # The unit disk's rim sides lie past the circle.
        h = raw_polynomial([0, 1, 0.1, -0.05j, 0.02], [0]).h
        F, dF = h._evaluate_unchecked, h.derivative()._evaluate_unchecked
        g = rasterize(Disk(1.0), 256)
        monkeypatch.setattr(quadrature, "BLOCK", block)
        res = integrate_grid([(1.0, F, dF)], g, 4)
        assert res.value == oracles.grid_gauss_sides(F, dF, g.mask, 4)

    def test_empty_grid(self):
        empty = PixelGrid(4, np.zeros((4, 4), dtype=bool))
        assert integrate_grid(_parts(shear(0.3, 2)), empty, 2) == QuadResult(0.0, 0.0, 1)
        assert arc_grid_area(automorphism(0.5).evaluate, empty, 2.0) == QuadResult(0.0, 0.0, 1)

    def test_rejects_other_regions(self):
        with pytest.raises(ConstructionError):
            integrate_grid(_parts(shear(0.3, 2)), Disk(0.5), 2)


_COEFF = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_SERIES = st.lists(_COEFF, min_size=1, max_size=5)
_RASTERS = st.one_of(
    st.builds(
        lambda r, n: rasterize(Disk(r), n), st.floats(0.05, 1.0), st.integers(2, 64)
    ),
    st.builds(
        lambda prof, n: rasterize(StarShaped(tuple(prof)), n),
        st.lists(st.floats(0.05, 1.0), min_size=8, max_size=16),
        st.integers(2, 64),
    ),
)


class TestPolynomialGrids:
    @settings(max_examples=50)
    @given(_RASTERS, _SERIES, _SERIES)
    def test_polynomial_maps_match_the_exact_oracle(self, E, h, g):
        # Degree <= 4, sense-preserving or not: area and energy are exact.
        f = raw_polynomial(h, g)
        area = image_area(f, E, check_sense=False)
        energy = analytic_energy(f, E)
        for got, is_energy in ((area, False), (energy, True)):
            expected = oracles.grid_polynomial_integral(h, g, E.mask, energy=is_energy)
            assert abs(got.value - expected) <= 1e-12 * max(1.0, abs(got.value))
            assert got.error_estimate == 0.0

    @pytest.mark.parametrize(
        "f",
        [
            shear(0.3, 2),
            raw_polynomial([0, 1, 0.2j, 0.05], [0, 0.1, 0.05 - 0.1j]),
            raw_polynomial([0, 1, 0.1, -0.05j, 0.02], [0.1, 0.2j, 0, 0.01]),
            raw_polynomial([0] + [0.5**k for k in range(1, 9)], [0, 0.1]),
        ],
        ids=["shear", "degree-3", "degree-4", "degree-8"],
    )
    def test_matches_the_tensor_rule(self, f):
        g = rasterize(Disk(0.9), 1024)
        d = max(f.h.degree, f.g.degree)
        for energy in (False, True):
            parts = _parts(f, energy)
            density = lambda z: sum(c * np.abs(dF(z)) ** 2 for c, _, dF in parts)
            expected = oracles.grid_tensor_rule(density, g.mask, d)
            got = integrate_grid(parts, g, d)
            assert math.isclose(got.value, expected, rel_tol=1e-14)
            assert got.evals == 4 * d * len(g.runs)

    @pytest.mark.parametrize(
        "f",
        [
            shear(0.3, 2),
            raw_polynomial([0, 1, 0.2j, 0.05], [0, 0.1, 0.05 - 0.1j]),
            raw_polynomial([0, 1, 0.1, -0.05j, 0.02], [0.1, 0.2j, 0, 0.01]),
        ],
        ids=["shear", "degree-3", "degree-4"],
    )
    def test_agrees_with_the_midpoint_rule(self, f):
        g = rasterize(Disk(0.9), 1024)
        exact = integrate_grid(_parts(f), g, max(f.h.degree, f.g.degree))
        midpoint = oracles.grid_midpoint_whole(
            f.jacobian, oracles.cell_centers_whole(g.mask), g.n
        )
        assert 0.0 < abs(exact.value - midpoint[0]) <= 10.0 * midpoint[1]

    @pytest.mark.parametrize(
        "f",
        [affine(0.2), affine(0.5), affine(0.8), affine(0.3 + 0.4j), rescaled_affine(0.5)],
        ids=["0.2", "0.5", "0.8", "complex", "rescaled"],
    )
    @pytest.mark.parametrize("n", [64, 256])
    def test_affine_maps_keep_the_midpoint_bits(self, f, n):
        # A constant Jacobian c: the closed form and the midpoint rule give
        # c * m(E) rounded once.
        g = rasterize(star_cos3(256, 0.9), n)
        got = image_area(f, g)
        value, estimate, _ = oracles.grid_midpoint_whole(
            f.jacobian, oracles.cell_centers_whole(g.mask), n
        )
        assert (got.value, got.error_estimate) == (value, estimate)
        assert got.evals == 1

    def test_peak_memory_is_blocked(self):
        # Blocks of about BLOCK side nodes: 4.4 MiB measured for degree 8,
        # against 10 MiB for the cell-center array alone.
        f = raw_polynomial([0] + [0.5**k for k in range(1, 9)], [0, 0.1])
        g = rasterize(Disk(0.9), 1024)
        g.runs
        peak = traced_peak(lambda: image_area(f, g, check_sense=False))
        assert peak <= 8 * 2**20


# A rim cell of an 8 x 8 grid that holds the pole 0.999 + 0.2i of the
# automorphism with a = 1/conj(0.999 + 0.2i), |a| = 0.9815.
_POLE_CELL = PixelGrid(8, np.arange(64).reshape(8, 8) == 4 * 8 + 7)
_POLE_A = 1.0 / (0.999 + 0.2j).conjugate()


class TestArcGridArea:
    @settings(max_examples=50)
    @example(_POLE_CELL, _POLE_A, 0.0)
    @example(rasterize(Disk(1.0), 64), 0.99j, 0.3)
    @given(
        _RASTERS,
        st.complex_numbers(max_magnitude=0.99, allow_nan=False, allow_infinity=False),
        st.floats(-math.pi, math.pi),
    )
    def test_mobius_maps_match_the_gauss_side_reference(self, E, a, rotation):
        f = automorphism(a, rotation)
        assume(f.a != 0)
        pole = 1.0 / f.a.conjugate()
        if E.mask.any() and oracles.rectangle_distances(E.mask, pole).min() < BOUNDARY_POLE_CAP:
            with pytest.raises(NonConvergenceError):
                image_area(f, E)
            return
        got = image_area(f, E)
        assert got.error_estimate == 0.0 and analytic_energy(f, E) == got
        F, dF = oracles.mobius_parts(f.a, f.rotation)
        coarse, fine = (oracles.grid_gauss_sides(F, dF, E.mask, m, pole) for m in (64, 128))
        for value in (coarse, got.value):
            assert abs(value - fine) <= max(1e-13 * abs(fine), 1e-15)

    def test_pole_inside_a_rim_cell_is_refused(self):
        # The midpoint rule returned 0.2046 here, estimate 1.32, for an
        # integral that diverges.
        with pytest.raises(NonConvergenceError):
            image_area(automorphism(_POLE_A), _POLE_CELL)

    def test_midpoint_estimate_sees_three_quarters_of_its_error(self):
        # The midpoint rule's dyadic estimate of an O(h^2) error is 3/4 of it.
        f = automorphism(0.9 * cmath.exp(0.7j), 0.3)
        g = rasterize(Disk(0.9), 256)
        exact = image_area(f, g).value
        value, estimate, _ = oracles.grid_midpoint_whole(
            f.jacobian, oracles.cell_centers_whole(g.mask), g.n
        )
        assert 1.25 <= abs(exact - value) / estimate <= 1.45

    def test_evals_count_corners_and_midpoints(self):
        g = rasterize(Disk(0.9), 128)
        assert image_area(automorphism(0.5), g).evals == 8 * len(g.runs)


def _whole_member(region):
    """Membership for the raster reference: the all-points profile test on
    a star; disks and grids keep contains_points, whose paths test every
    point."""
    if isinstance(region, StarShaped):
        return lambda z: oracles.star_contains_whole(region.profile, z)
    return lambda z: contains_points(region, z)


class TestMcImageArea:
    @given(
        n=st.sampled_from([4, 7, 64, 255, 2048]),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dilate_matches_eight_shifts(self, n, density, seed):
        occ = np.random.default_rng(seed).random((n, n)) < density
        assert np.array_equal(_dilate(occ), oracles.dilate_8_shifts(occ))

    @given(
        region=st.one_of(
            st.floats(0.05, 1.0).map(Disk),
            st.lists(st.floats(0.05, 1.0), min_size=8, max_size=24).map(
                lambda p: StarShaped(tuple(p))
            ),
            st.lists(st.sampled_from([0.4, 1.0]), min_size=8, max_size=16).map(
                lambda p: StarShaped(tuple(p))
            ),
            st.builds(
                lambda r, k: rasterize(Disk(r), k), st.floats(0.05, 1.0), st.integers(2, 96)
            ),
        ),
        f=st.sampled_from(
            [
                affine(0.5),
                automorphism(0.3 - 0.2j),
                raw_polynomial([0, 1, 0.2j], [0, 0.1]),
                # Images reach |Re w| = 3.5 and 7: the window doubles to 4 and to 8.
                raw_polynomial([0, 3], [0, 0.5]),
                raw_polynomial([0, 6], [0, 1]),
            ]
        ),
        n=st.sampled_from([4, 16, 128]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_matches_the_full_length_center_reference(self, region, f, n, seed):
        res = mc_image_area(f, region, n=n, seed=seed)
        expected = oracles.mc_image_area_whole(f, _whole_member(region), n, seed)
        assert (res.value, res.error_estimate, res.evals) == expected

    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize(
        "region",
        [Disk(1.0), star_cos3(256, 1.4), rasterize(Disk(0.8), 300)],
        ids=["unit-disk", "cos3", "grid"],
    )
    def test_matches_the_reference_at_full_size(self, region, seed):
        res = mc_image_area(affine(0.5), region, n=1024, seed=seed)
        expected = oracles.mc_image_area_whole(affine(0.5), _whole_member(region), 1024, seed)
        assert (res.value, res.error_estimate, res.evals) == expected

    def test_identity_matches_measure(self):
        res = mc_image_area(identity_map(), Disk(0.5), n=2048)
        assert abs(res.value - math.pi * 0.25) <= 0.02 * math.pi * 0.25

    def test_affine_matches_closed_form(self):
        res = mc_image_area(affine(0.5), Disk(0.5), n=2048)
        expected = 0.75 * math.pi * 0.25
        assert abs(res.value - expected) <= 0.02 * expected

    def test_rotation_on_star(self):
        E = star_cos3(64, scale=0.9)
        res = mc_image_area(rotation_map(1.0), E, n=2048)
        expected = region_measure(E)
        assert abs(res.value - expected) <= 0.02 * expected

    def test_deterministic_for_fixed_seed(self):
        a = mc_image_area(automorphism(0.5), Disk(0.5), n=512, seed=7)
        b = mc_image_area(automorphism(0.5), Disk(0.5), n=512, seed=7)
        assert a.value == b.value and a.error_estimate == b.error_estimate

    def test_seed_only_moves_error_estimate(self):
        a = mc_image_area(automorphism(0.5), Disk(0.5), n=512, seed=1)
        b = mc_image_area(automorphism(0.5), Disk(0.5), n=512, seed=2)
        assert a.value == b.value
        assert a.error_estimate != b.error_estimate

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            mc_image_area(identity_map(), Disk(0.5), n=1000)
        with pytest.raises(ValueError):
            mc_image_area(identity_map(), Disk(0.5), n=8192)
        with pytest.raises(ValueError, match=r"power of two in \[4, 4096\]"):
            mc_image_area(identity_map(), Disk(0.5), n=2)

    def test_grid_region_supported(self):
        g = rasterize(Disk(0.5), 256)
        res = mc_image_area(affine(0.5), g, n=1024)
        expected = 0.75 * region_measure(g)
        assert abs(res.value - expected) <= 0.03 * expected

    def test_peak_memory_is_blocked(self):
        # With whole-array rasters both passes peak at 65 MiB here.
        peak = traced_peak(lambda: mc_image_area(affine(0.5), star_cos3(256, 0.9), n=1024))
        assert peak <= 24 * 2**20


@given(st.floats(0.1, 1.0), st.floats(-0.9, 0.9))
def test_disk_linear_field_closed_form(r, c):
    # int over rD of (1 + c*Re z) = pi r^2 (the odd part cancels)
    field = lambda z: 1.0 + c * np.real(z)
    res = integrate_polar(field, Disk(r))
    assert abs(res.value - math.pi * r * r) < 1e-9 * max(1.0, math.pi * r * r)

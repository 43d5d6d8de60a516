"""Region types, measures, profiles, membership, rasterization."""

import cmath
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from harmarea import (
    ConstructionError,
    Disk,
    PixelGrid,
    StarShaped,
    bounding_radius,
    contains,
    contains_points,
    integrate_polar,
    radial_profile,
    rasterize,
    region_measure,
    star_cos3,
)
from harmarea.regions import BLOCK

_RANGE = "star profile values must lie in (0, 1]"

EIGHT = (0.4, 0.6, 0.4, 0.6, 0.4, 0.6, 0.4, 0.6)


class TestConstruction:
    def test_disk_radius_range(self):
        Disk(1.0)
        Disk(1e-6)
        for bad in (0.0, -0.5, 1.0 + 1e-9, math.nan):
            with pytest.raises(ConstructionError):
                Disk(bad)

    def test_star_needs_eight_samples(self):
        StarShaped(EIGHT)
        with pytest.raises(ConstructionError):
            StarShaped((0.5,) * 7)

    def test_star_profile_range(self):
        with pytest.raises(ConstructionError):
            StarShaped((0.5,) * 7 + (0.0,))
        with pytest.raises(ConstructionError):
            StarShaped((0.5,) * 7 + (1.1,))

    @pytest.mark.parametrize(
        "profile, message",
        [
            ((0.5,) * 7, "star profile needs at least 8 samples"),
            ((0.5,) * 7 + (math.nan,), _RANGE),
            ((0.5,) * 7 + (math.inf,), _RANGE),
            ((0.5,) * 7 + (0.0,), _RANGE),
            ((0.5,) * 7 + (-0.5,), _RANGE),
            ((0.5,) * 7 + (1.0 + 1e-15,), _RANGE),
            ([[0.5] * 8], "float() argument must be a string or a real number, not 'list'"),
            ((0.5,) * 8 + ([0.5],), "float() argument must be a string or a real number, not 'list'"),
            (0.5, "'float' object is not iterable"),
        ],
        ids=["short", "nan", "inf", "zero", "negative", "above-one", "nested", "ragged", "scalar"],
    )
    def test_star_profile_errors(self, profile, message):
        error = ConstructionError if "profile" in message else TypeError
        with pytest.raises(error) as exc:
            StarShaped(profile)
        assert type(exc.value) is error and str(exc.value) == message

    def test_star_profile_is_a_tuple_of_floats(self):
        for profile in (np.full(8, 0.5), [1] * 8, ["0.25"] * 8, (x / 8 for x in range(1, 9))):
            E = StarShaped(profile)
            assert isinstance(E.profile, tuple)
            assert all(type(v) is float for v in E.profile)

    def test_grid_rejects_cells_outside_disk(self):
        n = 4
        with pytest.raises(ConstructionError):
            PixelGrid(n, np.ones((n, n), dtype=bool))  # corner centers leave D

    def test_grid_mask_is_frozen_and_compared_by_value(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1:3, 1:3] = True
        g1 = PixelGrid(4, mask)
        g2 = PixelGrid(4, mask.copy())
        assert g1 == g2
        with pytest.raises(ValueError):
            g1.mask[0, 0] = True

    def test_grid_is_not_equal_to_other_types(self):
        assert (PixelGrid(4, np.zeros((4, 4), dtype=bool)) == 3) is False

    def test_grid_shape_checked(self):
        with pytest.raises(ConstructionError):
            PixelGrid(4, np.zeros((4, 5), dtype=bool))
        with pytest.raises(ConstructionError):
            PixelGrid(1, np.zeros((1, 1), dtype=bool))

    @staticmethod
    def _accepted(n, mask):
        try:
            PixelGrid(n, mask)
        except ConstructionError:
            return False
        return True

    def test_grid_check_matches_whole_array_check_on_random_masks(self):
        rng = np.random.default_rng(8)
        for _ in range(400):
            n = int(rng.integers(2, 48))
            axis = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
            inside = np.hypot(axis[None, :], axis[:, None]) < 1.0
            mask = (rng.random((n, n)) < rng.random()) & inside
            if rng.random() < 0.5:
                mask[rng.integers(n), rng.integers(n)] = True
            assert self._accepted(n, mask) is oracles.pixel_centers_inside_whole(mask)

    @pytest.mark.parametrize("n", [4, 7, 64, 301])
    def test_single_rim_cell(self, n):
        # The cells nearest the circle from each side, alone in the mask.
        axis = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
        radius = np.hypot(axis[None, :], axis[:, None])
        for cell, accepted in (
            (np.where(radius < 1.0, radius, -1.0).argmax(), True),
            (np.where(radius >= 1.0, radius, 3.0).argmin(), False),
        ):
            mask = np.zeros((n, n), dtype=bool)
            mask.flat[cell] = True
            assert oracles.pixel_centers_inside_whole(mask) is accepted
            assert self._accepted(n, mask) is accepted

    def test_grid_check_memory_stays_near_the_mask(self):
        # Full-length index and coordinate arrays of the 667k true cells
        # peaked at 26.1 MiB; per-row extremes need about one mask copy.
        mask = rasterize(Disk(0.9), 1024).mask
        tracemalloc.start()
        try:
            PixelGrid(1024, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


class TestMeasure:
    def test_disk_closed_form(self):
        assert region_measure(Disk(0.5)) == math.pi * 0.25
        assert region_measure(Disk(1.0)) == math.pi

    def test_constant_star_equals_disk(self):
        E = StarShaped((0.5,) * 16)
        assert abs(region_measure(E) - math.pi * 0.25) < 1e-12

    @pytest.mark.parametrize("m", [8, 64, 256])
    def test_star_matches_piecewise_linear_closed_form(self, m):
        E = star_cos3(m)
        exact = oracles.pl_star_measure(E.profile)
        assert abs(region_measure(E) - exact) <= 1e-14 * exact

    def test_irregular_star_matches_closed_form(self):
        prof = (0.4, 0.6, 0.5, 0.9, 0.3, 0.7, 0.8, 0.55)
        exact = oracles.pl_star_measure(prof)
        assert abs(region_measure(StarShaped(prof)) - exact) <= 1e-14 * exact

    @given(st.lists(st.floats(0.05, 1.0, exclude_min=True), min_size=8, max_size=128))
    def test_star_measure_matches_polar_quadrature(self, prof):
        E = StarShaped(prof)
        quad = integrate_polar(lambda z: np.ones(z.shape), E)
        exact = region_measure(E)
        assert abs(quad.value - exact) <= 1e-9 * max(1.0, exact)

    @given(st.floats(0.05, 1.0))
    def test_star_dilation_law(self, t):
        base = star_cos3(64)
        scaled = StarShaped(tuple(t * v for v in base.profile))
        ratio = region_measure(scaled) / region_measure(base)
        assert abs(ratio - t * t) < 1e-10

    def test_grid_measure_is_cell_count(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = mask[2, 2] = True
        assert region_measure(PixelGrid(4, mask)) == 2 * 0.25


class TestRadialProfile:
    def test_disk_profile_constant(self):
        assert radial_profile(Disk(0.7), 1.234) == 0.7

    def test_star_interpolates_between_samples(self):
        E = StarShaped(EIGHT)
        assert abs(radial_profile(E, math.pi / 8.0) - 0.5) < 1e-12
        assert abs(radial_profile(E, 0.0) - 0.4) < 1e-12

    def test_star_profile_periodic(self):
        E = star_cos3(64)
        for t in (0.3, 1.7, 4.0):
            a = radial_profile(E, t)
            b = radial_profile(E, t + 2.0 * math.pi)
            assert abs(a - b) < 1e-12

    def test_cos3_node_value(self):
        E = star_cos3(256)
        assert abs(radial_profile(E, 0.0) - 0.7) < 1e-12

    def test_grid_has_no_profile(self):
        g = rasterize(Disk(0.5), 16)
        with pytest.raises(ValueError):
            radial_profile(g, 0.0)


class TestMembership:
    def test_disk_boundary_inclusive(self):
        assert contains(Disk(0.5), 0.5)
        assert not contains(Disk(0.5), 0.5 + 1e-12)

    def test_star_membership(self):
        E = StarShaped((0.5,) * 8)
        assert contains(E, 0.45)
        assert not contains(E, 0.6)
        assert contains(E, 0.0)

    def test_grid_membership(self):
        g = rasterize(Disk(0.5), 64)
        assert contains(g, 0.0)
        assert not contains(g, 0.9)
        assert not contains(g, 2.0)  # outside the [-1,1]^2 frame entirely

    def test_contains_points_vectorized(self):
        E = Disk(0.5)
        zs = np.array([0.0, 0.4j, 0.6, -0.5])
        got = contains_points(E, zs)
        assert got.tolist() == [True, True, False, True]


class TestRasterize:
    @pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
    def test_disk_raster_measure_converges(self, r):
        exact = math.pi * r * r
        for n in (128, 256, 512):
            got = region_measure(rasterize(Disk(r), n))
            # boundary cells live in an O(1/n) annulus
            assert abs(got - exact) <= 8.0 * 2.0 * math.pi * r / n

    def test_star_raster_measure(self):
        E = star_cos3(256, scale=0.9)
        got = region_measure(rasterize(E, 1024))
        assert abs(got - region_measure(E)) <= 0.01 * region_measure(E)

    def test_needs_two_cells_a_side(self):
        with pytest.raises(ConstructionError, match="grid resolution must be >= 2"):
            rasterize(Disk(0.5), 1)

    def test_raster_of_grid_at_same_resolution_is_identity(self):
        g = rasterize(Disk(0.5), 32)
        assert rasterize(g, 32) == g

    def test_unit_disk_raster_clips_to_open_disk(self):
        g = rasterize(Disk(1.0), 64)
        assert np.all(np.abs(g.cell_centers()) < 1.0)

    @pytest.mark.parametrize(
        "E",
        [Disk(1.0), StarShaped(tuple(min(1.0, 0.75 + 0.35 * math.cos(2.0 * t))
                                     for t in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)))],
        ids=["unit-disk", "star-reaching-one"],
    )
    def test_unit_circle_clip_never_drops_a_member(self, E):
        # Centres are (a + ib)/n with a and b of the parity of n + 1, so
        # a^2 + b^2 != n^2 and each lies about 1/(2n^2) or more off the unit
        # circle: a member (|z| <= R <= 1) always has |z| < 1.
        for n in [*range(2, 301), 512, 1024, 2048, 4096]:
            axis = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
            step = max(1, BLOCK // n)
            for r in range(0, n, step):
                z = axis[None, :] + 1j * axis[r : r + step, None]
                inside = contains_points(E, z)
                assert np.array_equal(inside & (np.abs(z) < 1.0), inside), n

    def test_cell_centers_row_major(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = True
        mask[2, 1] = True
        g = PixelGrid(4, mask)
        centers = g.cell_centers()
        assert centers[0] == pytest.approx(0.25 - 0.25j)  # row 1, col 2 first
        assert centers[1] == pytest.approx(-0.25 + 0.25j)

    @pytest.mark.parametrize("n", [300, 512])
    @pytest.mark.parametrize(
        "E",
        [Disk(1.0), Disk(0.7), StarShaped(EIGHT), star_cos3(256, 0.9), rasterize(Disk(0.6), 64),
         # Its cells reach past the unit circle, so finer centers there are clipped.
         rasterize(Disk(1.0), 4)],
        ids=["unit-disk", "disk", "star8", "cos3", "grid", "coarse-grid"],
    )
    def test_blocked_raster_matches_whole_array_reference(self, E, n):
        # n = 300 ends in a partial row block; n = 512 fills whole blocks.
        assert (n % (BLOCK // n) != 0) == (n == 300)
        expected = oracles.rasterize_whole(lambda z: contains_points(E, z), n)
        assert np.array_equal(rasterize(E, n).mask, expected)

    def test_raster_peak_memory_is_blocked(self):
        # A whole-array raster of this star peaks at 64 MiB (n x n complex
        # meshgrids); row blocks keep it near the mask and one block.
        E = star_cos3(256, 0.9)
        tracemalloc.start()
        try:
            rasterize(E, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestBoundingRadius:
    def test_disk(self):
        assert bounding_radius(Disk(0.3)) == 0.3

    def test_star_uses_max_profile(self):
        assert abs(bounding_radius(star_cos3(256)) - 0.7) < 1e-12

    def test_grid_covers_cells(self):
        g = rasterize(Disk(0.5), 64)
        b = bounding_radius(g)
        assert np.all(np.abs(g.cell_centers()) <= b)
        assert b < 0.5 + 0.05

    @pytest.mark.parametrize(
        "g",
        [
            rasterize(Disk(0.5), 64),
            rasterize(Disk(1.0), 300),
            rasterize(star_cos3(256, 0.9), 512),
            PixelGrid(8, np.eye(8, dtype=bool) & (np.arange(8) % 7 != 0)),
        ],
        ids=["disk", "unit-disk-300", "star", "diagonal"],
    )
    def test_grid_matches_every_cell_center(self, g):
        # The run ends give the bits of the maximum over all cell centers.
        expected = float(np.max(np.abs(g.cell_centers()))) + math.sqrt(2.0) / g.n
        assert bounding_radius(g) == expected

    def test_random_grids_match_every_cell_center(self):
        # hypot and the complex abs of cell_centers can differ in the last
        # ulp; bounding_radius keeps the bits of the latter.
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 80))
            axis = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
            inside = np.hypot(axis[None, :], axis[:, None]) < 1.0
            mask = (rng.random((n, n)) < 0.3 * rng.random()) & inside
            g = PixelGrid(n, mask)
            expected = (
                float(np.max(np.abs(g.cell_centers()))) + math.sqrt(2.0) / n
                if mask.any()
                else 0.0
            )
            assert bounding_radius(g) == expected

    def test_empty_grid(self):
        assert bounding_radius(PixelGrid(8, np.zeros((8, 8), dtype=bool))) == 0.0


def _star_values(m: int, seed: int) -> list[float]:
    # Log-uniform in [1e-300, 1], so samples span the normal range below 1.
    return np.clip(10.0 ** np.random.default_rng(seed).uniform(-300.0, 0.0, m), 1e-300, 1.0).tolist()


class TestComputedWhenBuilt:
    """region_measure and bounding_radius read what each region works out
    when built, and so do a star's interpolant and membership: the bits of
    the per-kind references."""

    @staticmethod
    def _same_bits(E):
        for got, want in (
            (region_measure(E), oracles.region_measure_per_kind(E)),
            (bounding_radius(E), oracles.bounding_radius_per_kind(E)),
        ):
            assert type(got) is float
            assert got.hex() == want.hex()

    @given(st.floats(0.0, 1.0, exclude_min=True))
    @example(5e-324)
    @example(1.0)
    def test_disks(self, r):
        self._same_bits(Disk(r))

    @given(
        st.lists(st.floats(1e-300, 1.0), min_size=8, max_size=64)
        | st.builds(_star_values, st.integers(8, 4096), st.integers(0, 2**32 - 1))
    )
    @example([1e-300] * 8)
    @example([1.0] * 4096)
    def test_stars(self, profile):
        E = StarShaped(profile)
        self._same_bits(E)
        # Angles on and between the samples, and points at R(theta) scaled
        # across both of contains_points' radius margins.
        between = np.random.default_rng(len(profile)).uniform(0.0, 2.0 * np.pi, 256)
        theta = np.concatenate((E._theta, between))
        R = radial_profile(E, theta)
        assert _bits(R) == _bits(oracles.profile_interp_whole(profile, np.mod(theta, 2.0 * np.pi)))
        scales = np.array([0.5, 1.0 - 2e-12, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.0 + 2e-12, 1.5])
        z = np.outer(R * np.exp(1j * theta), scales).ravel()
        assert np.array_equal(contains_points(E, z), oracles.star_contains_whole(profile, z))

    @given(st.integers(2, 64), st.sampled_from(["empty", "full", "random"]), st.integers(0, 2**32 - 1))
    def test_grids(self, n, kind, seed):
        inside = oracles.rasterize_whole(lambda z: np.ones(z.shape, dtype=bool), n)
        rng = np.random.default_rng(seed)
        mask = {
            "empty": np.zeros((n, n), dtype=bool),
            "full": inside,
            "random": inside & (rng.random((n, n)) < rng.random()),
        }[kind]
        self._same_bits(PixelGrid(n, mask))

    def test_stored_star_profile_is_read_only(self):
        E = star_cos3(64)
        for stored in (E._closed, E._theta):
            with pytest.raises(ValueError):
                stored[0] = 0.5
        assert E._closed.tolist() == [*E.profile, E.profile[0]]
        assert _bits(E._theta) == _bits(2.0 * np.pi * np.arange(65) / 64)
        assert E._floor == min(E.profile)

    def test_replace_works_the_values_out_again(self):
        E = replace(Disk(0.5), r=0.25)
        assert region_measure(E) == math.pi / 16
        assert bounding_radius(E) == 0.25
        star = replace(star_cos3(64), profile=EIGHT)
        assert region_measure(star) == region_measure(StarShaped(EIGHT))
        assert bounding_radius(star) == 0.6

    def test_profile_and_membership_keep_their_bits(self):
        E = star_cos3(256, 0.9)
        rng = np.random.default_rng(45)
        theta = rng.uniform(-10.0, 10.0, 10**4)
        expected = oracles.profile_interp_whole(E.profile, np.mod(theta, 2.0 * np.pi))
        assert _bits(radial_profile(E, theta)) == _bits(expected)
        z = rng.uniform(-1.0, 1.0, 10**4) + 1j * rng.uniform(-1.0, 1.0, 10**4)
        assert np.array_equal(contains_points(E, z), oracles.star_contains_whole(E.profile, z))


def _mask_from_runs(n: int, runs: np.ndarray) -> np.ndarray:
    mask = np.zeros((n, n), dtype=bool)
    for row, start, stop in runs:
        mask[row, start:stop] = True
    return mask


# Star profiles for the radius-first membership: general, with repeated
# minima and samples on the unit circle, and constant (min R = max R).
_PROFILES = st.one_of(
    st.lists(st.floats(0.05, 1.0), min_size=8, max_size=40),
    st.lists(st.sampled_from([0.3, 0.55, 1.0]), min_size=8, max_size=24),
    st.builds(lambda v, m: [v] * m, st.floats(0.05, 1.0) | st.just(1.0), st.integers(8, 32)),
)
_MARGINS = (0.0, 1e-13, 1e-12, 2e-12, 1e-9, 1e-3)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestRadiusFirstMembership:
    @given(_PROFILES, st.lists(st.complex_numbers(max_magnitude=1.2), max_size=50))
    def test_star_membership_matches_the_all_points_reference(self, profile, extra):
        # Points at each sample's radius and at min R and max R, scaled by
        # 1 +- each margin, where the radius test and the profile test meet.
        E = StarShaped(tuple(profile))
        m = len(profile)
        theta = 2.0 * np.pi * np.arange(2 * m) / (2 * m)
        radii = np.concatenate(
            (np.repeat(profile, 2), [min(profile)] * 2 * m, [max(profile)] * 2 * m)
        )
        base = radii * np.exp(1j * np.tile(theta, 3))
        scales = np.array([1.0 + s * d for d in _MARGINS for s in (-1.0, 1.0)])
        z = np.concatenate(((base[:, None] * scales[None, :]).ravel(), extra))
        expected = oracles.star_contains_whole(profile, z)
        assert np.array_equal(contains_points(E, z), expected)

    @given(_PROFILES, st.sampled_from([2, 3, 16, 64, 257, 300]))
    def test_star_raster_matches_the_all_points_reference(self, profile, n):
        expected = oracles.rasterize_whole(
            lambda z: oracles.star_contains_whole(profile, z), n
        )
        assert np.array_equal(rasterize(StarShaped(tuple(profile)), n).mask, expected)

    @pytest.mark.parametrize(
        "E",
        [Disk(0.39), StarShaped(tuple(1.0 if k % 8 == 4 else 0.5 for k in range(16)))],
        ids=["disk", "star-peaks-on-the-y-axis"],
    )
    def test_row_blocks_beyond_the_radius_at_full_size(self, E):
        # Rows and columns stop at |axis| <= reach: at n = 2048 a reach of
        # 0.9 * bounding_radius would drop member cells.
        if isinstance(E, Disk):
            member = lambda z: np.abs(z) <= E.r
        else:
            member = lambda z: oracles.star_contains_whole(E.profile, z)
        expected = oracles.rasterize_whole(member, 2048)
        assert np.array_equal(rasterize(E, 2048).mask, expected)

    @given(st.floats(0.01, 1.0), st.sampled_from([2, 5, 64, 257, 300]))
    def test_disk_raster_skips_rows_beyond_the_radius(self, r, n):
        expected = oracles.rasterize_whole(lambda z: np.abs(z) <= r, n)
        assert np.array_equal(rasterize(Disk(r), n).mask, expected)

    @given(st.integers(2, 40), st.data())
    def test_cell_centers_match_full_length_nonzero(self, n, data):
        bits = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        mask = oracles.rasterize_whole(lambda z: np.ones(z.shape, dtype=bool), n)
        mask &= np.array(bits).reshape(n, n)
        got = PixelGrid(n, mask).cell_centers()
        assert _bits(got) == _bits(oracles.cell_centers_whole(mask))

    @pytest.mark.parametrize("n", [300, 1024])
    def test_cell_centers_of_many_row_blocks(self, n):
        # n = 300 ends in a partial row block; n = 1024 fills 16 rows a block.
        g = rasterize(star_cos3(256, 1.4), n)
        assert _bits(g.cell_centers()) == _bits(oracles.cell_centers_whole(g.mask))


_POINTS = st.lists(
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False), max_size=30
)


class TestBlockMembership:
    """One contains_points call on a block answers, point by point, what
    contains answers for each point alone."""

    @staticmethod
    def _agrees(E, block):
        block = np.asarray(block, dtype=complex)
        assert contains_points(E, block).tolist() == [contains(E, z) for z in block.tolist()]

    @given(st.floats(0.01, 1.0), st.lists(st.floats(0.0, 2.0 * math.pi), max_size=20), _POINTS)
    def test_disk(self, r, angles, extra):
        self._agrees(Disk(r), [*(r * np.exp(1j * np.array(angles))), *extra])

    @given(_PROFILES, st.lists(st.floats(0.0, 2.0 * math.pi), max_size=20), _POINTS)
    def test_star_with_boundary_points(self, profile, angles, extra):
        # R(theta) e^{i theta} at the profile's samples, midway between
        # them, and at drawn angles: the points exactly on the boundary.
        E = StarShaped(tuple(profile))
        theta = np.concatenate((np.pi * np.arange(2 * len(profile)) / len(profile), angles))
        boundary = radial_profile(E, theta) * np.exp(1j * theta)
        self._agrees(E, [*boundary, *extra])

    @given(_PROFILES, st.sampled_from([2, 7, 64]), _POINTS)
    def test_grid_with_cell_edges(self, profile, n, extra):
        g = rasterize(StarShaped(tuple(profile)), n)
        edges = np.linspace(-1.0, 1.0, n + 1)
        self._agrees(g, [*(edges + 1j * edges[::-1]), *extra])


class TestRuns:
    @given(st.integers(2, 24), st.data())
    def test_runs_rebuild_the_mask(self, n, data):
        bits = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        # Clip to cells with centers in the open unit disk, as PixelGrid needs.
        mask = oracles.rasterize_whole(lambda z: np.ones(z.shape, dtype=bool), n)
        mask &= np.array(bits).reshape(n, n)
        runs = PixelGrid(n, mask).runs
        assert runs.shape == (len(runs), 3)
        assert np.array_equal(_mask_from_runs(n, runs), mask)
        # Row-major, non-empty and maximal: no two runs of a row touch.
        keys = [(int(r), int(a)) for r, a, _ in runs]
        assert keys == sorted(keys)
        assert np.all(runs[:, 2] > runs[:, 1])
        same_row = runs[1:, 0] == runs[:-1, 0]
        assert np.all(runs[1:, 1][same_row] > runs[:-1, 2][same_row])

    def test_full_row_ends_at_n(self):
        # Row 32's centers have |y| = 1/64, so the whole row is inside.
        mask = np.zeros((64, 64), dtype=bool)
        mask[32] = True
        assert PixelGrid(64, mask).runs.tolist() == [[32, 0, 64]]

    def test_read_only_and_computed_once(self):
        g = rasterize(Disk(0.5), 32)
        assert g.runs is g.runs
        with pytest.raises(ValueError):
            g.runs[0, 0] = 5

    def test_empty_grid_has_no_runs(self):
        assert PixelGrid(4, np.zeros((4, 4), dtype=bool)).runs.shape == (0, 3)


class TestStarCos3:
    def test_profile_shape(self):
        E = star_cos3(256)
        assert len(E.profile) == 256
        lo, hi = min(E.profile), max(E.profile)
        assert lo >= 0.3 - 1e-12 and hi <= 0.7 + 1e-12

    def test_scale(self):
        E = star_cos3(64, scale=0.5)
        assert abs(max(E.profile) - 0.35) < 1e-12

    def test_sample_count_floor(self):
        with pytest.raises(ConstructionError):
            star_cos3(4)

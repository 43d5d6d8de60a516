"""Plane regions inside the unit disk: disks, star-shaped sets, pixel grids.

A star-shaped region is stored as M >= 8 radial samples R_j = R(2*pi*j/M)
in (0, 1], interpreted by piecewise-linear periodic interpolation.  A pixel
grid covers [-1,1]^2 with n x n cells; a cell belongs to the region when its
mask entry is true, and every true cell's center must lie in the open unit
disk.  Each region works out its measure and reach (region_measure and
bounding_radius read them) once, when built; a star also keeps min R, its
closed profile R_0, ..., R_{M-1}, R_0 and its angles 2 pi j / M, read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConstructionError

MIN_PROFILE_SAMPLES = 8
# Points per block for passes over large arrays (rasterize here, the grid
# and polar sums in quadrature): every such pass works on index-ordered
# blocks of about this many points, so its temporaries stay a few MB.
BLOCK = 2 ** 16


@dataclass(frozen=True)
class Disk:
    """Centered disk of radius r, 0 < r <= 1."""

    r: float

    def __post_init__(self):
        r = float(self.r)
        if not math.isfinite(r) or not 0.0 < r <= 1.0:
            raise ConstructionError("disk radius must lie in (0, 1]")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_measure", math.pi * r * r)
        object.__setattr__(self, "_reach", r)


@dataclass(frozen=True)
class StarShaped:
    """Region |z| <= R(arg z) with piecewise-linear periodic profile R: its
    measure int R^2/2 dtheta is the exact sum over segments of width h =
    2*pi/M of (h/6)(R_j^2 + R_j R_{j+1} + R_{j+1}^2), fsum-reduced."""

    profile: tuple[float, ...]

    def __post_init__(self):
        prof = tuple(map(float, self.profile))
        if len(prof) < MIN_PROFILE_SAMPLES:
            raise ConstructionError(
                f"star profile needs at least {MIN_PROFILE_SAMPLES} samples"
            )
        closed = np.array(prof + prof[:1])
        if not ((closed > 0.0) & (closed <= 1.0)).all():  # a nan fails both
            raise ConstructionError("star profile values must lie in (0, 1]")
        a, b = closed[:-1], closed[1:]
        terms = 2.0 * math.pi / a.size / 6.0 * (a * a + a * b + b * b)
        theta = 2.0 * np.pi * np.arange(closed.size) / a.size
        closed.flags.writeable = theta.flags.writeable = False
        object.__setattr__(self, "profile", prof)
        object.__setattr__(self, "_closed", closed)
        object.__setattr__(self, "_theta", theta)
        object.__setattr__(self, "_measure", math.fsum(terms.tolist()))
        object.__setattr__(self, "_floor", float(closed.min()))
        object.__setattr__(self, "_reach", float(closed.max()))


@dataclass(frozen=True, eq=False)
class PixelGrid:
    """n x n boolean mask over [-1,1]^2; cell side 2/n."""

    n: int
    mask: np.ndarray

    def __post_init__(self):
        n = int(self.n)
        if n < 2:
            raise ConstructionError("grid resolution must be >= 2")
        mask = np.ascontiguousarray(np.asarray(self.mask, dtype=bool))
        if mask.shape != (n, n):
            raise ConstructionError(f"mask must have shape ({n}, {n})")
        # In a row, hypot(cx, cy) is largest at its first or last true
        # column, so those two per row decide every true cell and hold the
        # farthest center: the reach pads its complex abs, the bits of
        # cell_centers (hypot can differ by an ulp), by half a cell diagonal.
        occupied = mask.any(axis=1)
        reach = 0.0
        if occupied.any():
            rows = np.flatnonzero(occupied)
            first = mask.argmax(axis=1)[occupied]
            last = n - 1 - mask[:, ::-1].argmax(axis=1)[occupied]
            cx = -1.0 + (np.concatenate((first, last)) + 0.5) * (2.0 / n)
            cy = -1.0 + (np.concatenate((rows, rows)) + 0.5) * (2.0 / n)
            if np.any(np.hypot(cx, cy) >= 1.0):
                raise ConstructionError(
                    "true cells must have centers in the open unit disk"
                )
            reach = float(np.max(np.abs(cx + 1j * cy))) + math.sqrt(2.0) / n
        mask.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_measure", int(np.count_nonzero(mask)) * (2.0 / n) * (2.0 / n))
        object.__setattr__(self, "_reach", reach)

    def __eq__(self, other):
        if not isinstance(other, PixelGrid):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.mask, other.mask)

    def cell_centers(self) -> np.ndarray:
        """Complex centers axis[col] + 1j * axis[row] of the true cells, in
        row-major order: the members of _member_blocks' raster walk."""
        return np.concatenate([z[inside] for _, _, z, inside in _member_blocks(self, self.n)])

    @functools.cached_property
    def runs(self) -> np.ndarray:
        """Maximal horizontal runs of true cells, row-major order.

        A read-only integer array of shape (k, 3): row, first column and
        stop column (one past the last) of each run.  Computed on first use
        from one difference pass over the mask padded by a false cell at
        both ends of every row, so no run crosses a row.
        """
        n = self.n
        padded = np.zeros((n, n + 2), dtype=np.int8)
        padded[:, 1:-1] = self.mask
        edges = np.diff(padded.ravel())
        starts = np.flatnonzero(edges == 1) + 1
        stops = np.flatnonzero(edges == -1) + 1
        out = np.column_stack(
            (starts // (n + 2), starts % (n + 2) - 1, stops % (n + 2) - 1)
        )
        out.flags.writeable = False
        return out


Region = Union[Disk, StarShaped, PixelGrid]


def _interp_profile(E: StarShaped, t) -> np.ndarray:
    """The profile's interpolant at angles t in [0, 2 pi]."""
    return np.interp(t, E._theta, E._closed)


def radial_profile(E: Region, theta: float):
    """Boundary radius in direction theta (any real; profile is periodic)."""
    if isinstance(E, Disk):
        return E.r
    if isinstance(E, StarShaped):
        out = _interp_profile(E, np.mod(np.asarray(theta, dtype=float), 2.0 * np.pi))
        return float(out) if out.ndim == 0 else out
    raise ValueError("radial_profile is undefined for pixel grids")


def region_measure(E: Region) -> float:
    """Lebesgue measure of the region in closed form, as built: pi r^2, true
    cells times the cell area, or StarShaped's exact segment sum."""
    return E._measure


def contains(E: Region, z: complex) -> bool:
    """Membership of a single point under the region's geometric model."""
    return bool(contains_points(E, np.asarray([complex(z)]))[0])


def contains_points(E: Region, z: np.ndarray) -> np.ndarray:
    """Vectorized membership for an array of complex points.

    A star decides by radius first: |z| < min R * (1 - 1e-12) is inside,
    |z| > max R * (1 + 1e-12) outside, and only the ring between gets the
    full test |z| <= R(arg z).  The interpolated R strays from [min R, max R]
    by a few ulps at most, far inside the margins, so no answer changes.
    """
    z = np.asarray(z, dtype=complex)
    if isinstance(E, Disk):
        return np.abs(z) <= E.r
    if isinstance(E, StarShaped):
        r = np.abs(z)
        out = r < E._floor * (1.0 - 1e-12)
        ring = ~out & (r <= E._reach * (1.0 + 1e-12))
        theta = np.angle(z[ring])
        theta[theta < 0.0] += 2.0 * np.pi  # np.mod(theta, 2 pi), to the bit
        out[ring] = r[ring] <= _interp_profile(E, theta)
        return out
    return _grid_membership(E, z)


def _grid_membership(E: PixelGrid, z: np.ndarray) -> np.ndarray:
    side = 2.0 / E.n
    cols = np.floor((z.real + 1.0) / side).astype(int)
    rows = np.floor((z.imag + 1.0) / side).astype(int)
    ok = (cols >= 0) & (cols < E.n) & (rows >= 0) & (rows < E.n)
    out = np.zeros(z.shape, dtype=bool)
    idx = np.nonzero(ok)
    out[idx] = E.mask[rows[idx], cols[idx]]
    return out


def rasterize(E: Region, n: int) -> PixelGrid:
    """Pixel-grid approximation: a cell is true iff its center is in E.

    Filled from `_member_blocks`; cells outside its window stay false.
    """
    n = int(n)
    if n < 2:
        raise ConstructionError("grid resolution must be >= 2")
    mask = np.zeros((n, n), dtype=bool)
    for rows, cols, _, inside in _member_blocks(E, n):
        mask[rows, cols] = inside
    return PixelGrid(n=n, mask=mask)


def _member_blocks(E: Region, n: int):
    """Yield (rows, cols, z, inside) per row block of E's n x n raster, in
    row-major order: centers z = axis[cols] + 1j * axis[rows] and membership.
    On a disk or a star both stop at |axis| <= reach = bounding_radius(E) *
    (1 + 1e-12), one slice as |axis| is even and convex; a center beyond has
    |z| > reach.  Centers are (a + ib)/n, a and b of the parity of n + 1, so
    none has |z| = 1, and members (|z| <= R <= 1) need no clip to |z| < 1;
    PixelGrid inputs, whose finer centers can leave the disk, keep it."""
    axis = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    reach = math.inf if isinstance(E, PixelGrid) else bounding_radius(E) * (1.0 + 1e-12)
    near = np.flatnonzero(np.abs(axis) <= reach)
    cols = slice(near[0], near[-1] + 1) if near.size else slice(0, 0)
    step = max(1, BLOCK // n)
    for r in range(cols.start, cols.stop, step):
        rows = slice(r, min(r + step, cols.stop))
        z = np.empty((rows.stop - rows.start, cols.stop - cols.start), dtype=complex)
        z.real, z.imag = axis[None, cols], axis[rows, None]
        inside = contains_points(E, z)
        if isinstance(E, PixelGrid):
            inside &= np.abs(z) < 1.0
        yield rows, cols, z, inside


def bounding_radius(E: Region) -> float:
    """Smallest centered disk radius covering the region model, as built: r,
    max R, or the farthest true cell center plus half a cell diagonal (0.0
    for an empty grid)."""
    return E._reach


def star_cos3(m: int = 256, scale: float = 1.0) -> StarShaped:
    """Built-in star region R(theta) = scale*(0.5 + 0.2*cos(3*theta))."""
    theta = 2.0 * np.pi * np.arange(m) / m
    return StarShaped((float(scale) * (0.5 + 0.2 * np.cos(3.0 * theta))).tolist())

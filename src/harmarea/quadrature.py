"""Deterministic quadrature over disk and star regions, plus a
rasterization-based area oracle that bypasses the Jacobian entirely.

Polar integration pairs Gauss-Legendre in radius with a trapezoid rule in
angle (per-segment Gauss nodes on star regions, whose piecewise-linear
boundary puts kinks at known angles).  Both directions refine by doubling
until two successive levels agree to the requested tolerance.

Determinism contract: each refinement level evaluates the field once on
the whole (angular x radial) node array, in one thread, and reduces the
index-ordered terms with math.fsum, so identical inputs give bitwise
identical results.  The workers keyword is accepted for compatibility and
changes neither the result nor the work done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, NonConvergenceError
from .regions import Disk, PixelGrid, Region, StarShaped, rasterize

DEFAULT_TOL = 1e-9
MIN_TOL = 1e-12
DEFAULT_Q0 = 16
DEFAULT_M0 = 64
Q_CAP = 256
M_CAP = 4096

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(q: int) -> tuple[np.ndarray, np.ndarray]:
    got = _GAUSS_CACHE.get(q)
    if got is None:
        got = np.polynomial.legendre.leggauss(q)
        _GAUSS_CACHE[q] = got
    return got


def check_tol(tol: float) -> None:
    """Reject a tolerance below MIN_TOL with ConstructionError."""
    if tol < MIN_TOL:
        raise ConstructionError("tolerance below 1e-12 is not supported")


@dataclass(frozen=True)
class QuadResult:
    """Integral value, two-level error estimate, and evaluation count.

    A value from a closed form (disks under polynomial maps and rotations,
    see distortion.image_area) is exact up to rounding: its error_estimate
    is 0.0 and evals counts the series terms summed, at least 1.
    """

    value: float
    error_estimate: float
    evals: int

    def __post_init__(self):
        if not math.isfinite(self.value) or not math.isfinite(self.error_estimate):
            raise ConstructionError("quadrature result fields must be finite")
        if self.error_estimate < 0 or self.evals <= 0:
            raise ConstructionError("invalid quadrature result fields")


def _angular_layout(E, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular nodes, weights, and boundary radii for one refinement level.

    Disks use the periodic trapezoid rule with m nodes.  Star regions use
    Gauss-Legendre nodes on each profile segment; m is interpreted as the
    per-segment node count there.
    """
    if isinstance(E, Disk):
        theta = 2.0 * np.pi * np.arange(m) / m
        w = np.full(m, 2.0 * np.pi / m)
        radii = np.full(m, E.r)
        return theta, w, radii
    prof = np.asarray(E.profile, dtype=float)
    p = prof.size
    seg_width = 2.0 * np.pi / p
    x, gw = _gauss(m)
    starts = seg_width * np.arange(p)
    # theta[j, i]: node i inside segment j; boundary radius is linear there.
    frac = (x + 1.0) / 2.0
    theta = starts[:, None] + seg_width * frac[None, :]
    nxt = np.roll(prof, -1)
    radii = prof[:, None] + (nxt - prof)[:, None] * frac[None, :]
    w = np.broadcast_to(gw[None, :] * (seg_width / 2.0), theta.shape)
    return theta.ravel(), np.ascontiguousarray(w).ravel(), radii.ravel()


def _polar_level(field, E, q: int, m: int) -> tuple[float, int]:
    theta, wtheta, radii = _angular_layout(E, m)
    x, gw = _gauss(q)
    frac = (x + 1.0) / 2.0
    rad = radii[:, None]
    t = rad * frac[None, :]
    z = t * np.exp(1j * theta[:, None])
    vals = np.asarray(field(z), dtype=float)
    # dA = t dt dtheta: radial Gauss weight gw*rad/2 times the factor t.
    terms = wtheta[:, None] * (rad / 2.0) * gw[None, :] * t * vals
    return math.fsum(terms.ravel().tolist()), terms.size


def integrate_polar(
    field,
    E: Region,
    tol: float = DEFAULT_TOL,
    *,
    q0: int = DEFAULT_Q0,
    m0: int = DEFAULT_M0,
    q_cap: int = Q_CAP,
    m_cap: int = M_CAP,
    workers: int = 1,
) -> QuadResult:
    """Integrate a scalar field over a Disk or StarShaped region.

    The field must accept a complex numpy array and return real values of
    the same shape.  Radial and angular node counts double together until
    the two finest levels agree to tol*max(1, |value|); hitting both caps
    with the estimate above 10x that target raises NonConvergenceError.
    Every level runs serially; workers is accepted and ignored.
    """
    if isinstance(E, PixelGrid):
        raise ConstructionError("integrate_polar needs a Disk or StarShaped region")
    check_tol(tol)
    if isinstance(E, StarShaped):
        p = len(E.profile)
        start = max(1, m0 // p)
        cap = max(2 * start, m_cap // p)
    else:
        start, cap = m0, m_cap

    q = q0
    m = start
    value, evals = _polar_level(field, E, q, m)
    total_evals = evals
    while True:
        q_next = min(2 * q, q_cap)
        m_next = min(2 * m, cap)
        if q_next == q and m_next == m:
            raise NonConvergenceError(
                f"quadrature caps reached (q={q}, angular nodes at cap) with "
                "no refinement left",
                value,
                value,
            )
        q, m = q_next, m_next
        new_value, evals = _polar_level(field, E, q, m)
        total_evals += evals
        err = abs(new_value - value)
        scale = max(1.0, abs(new_value))
        capped = q >= q_cap and m >= cap
        if err <= tol * scale or (capped and err <= 10.0 * tol * scale):
            return QuadResult(new_value, err, total_evals)
        if capped:
            raise NonConvergenceError(
                f"quadrature caps reached (q={q_cap}, angular cap {cap}) with "
                f"error estimate {err:.3e} above 10*tol",
                new_value,
                value,
            )
        value = new_value


def integrate_grid(field, E: PixelGrid) -> QuadResult:
    """Midpoint rule over the true cells of a pixel grid.

    The error estimate compares one dyadic mask refinement; refined
    subcenters falling outside the open unit disk reuse their parent
    center's field value (fields here are only defined on the disk).
    """
    if not isinstance(E, PixelGrid):
        raise ConstructionError("integrate_grid needs a PixelGrid region")
    centers = E.cell_centers()
    count = centers.size
    if count == 0:
        return QuadResult(0.0, 0.0, 1)
    side = 2.0 / E.n
    area = side * side
    vals = np.asarray(field(centers), dtype=float)
    base = math.fsum((vals * area).tolist())

    quarter = side / 4.0
    offsets = np.array(
        [-quarter - 1j * quarter, quarter - 1j * quarter,
         -quarter + 1j * quarter, quarter + 1j * quarter]
    )
    sub = centers[None, :] + offsets[:, None]
    sub_vals = np.broadcast_to(vals[None, :], sub.shape).copy()
    inside = np.abs(sub) < 1.0
    if np.any(inside):
        sub_vals[inside] = np.asarray(field(sub[inside]), dtype=float)
    refined = math.fsum((sub_vals * (area / 4.0)).ravel().tolist())
    return QuadResult(base, abs(refined - base), count + 4 * count)


def mc_image_area(f, E: Region, n: int = 1024, seed: int = 42) -> QuadResult:
    """Rasterization estimate of the image area m(f(E)).

    Maps the centers of an n x n rasterization of E, bins the image points
    onto an n x n grid over [-2,2]^2, dilates occupied cells by one cell to
    close coverage gaps, and returns the occupied area.  The error estimate
    repeats the construction at half resolution with seed-jittered sample
    offsets; the main estimate itself is seed-independent.  Assumes f is
    injective on E (not checked).
    """
    n = int(n)
    if n < 2 or (n & (n - 1)) != 0 or n > 4096:
        raise ConstructionError("raster resolution must be a power of two <= 4096")
    rng = np.random.default_rng(seed)
    base, evals_base = _raster_pass(f, E, n, None)
    half, evals_half = _raster_pass(f, E, n // 2, rng)
    return QuadResult(base, abs(base - half), max(1, evals_base + evals_half))


def _raster_pass(f, E: Region, n: int, rng) -> tuple[float, int]:
    centers = rasterize(E, n).cell_centers()
    if centers.size == 0:
        return 0.0, 0
    if rng is not None:
        side = 2.0 / n
        jitter = rng.uniform(-0.5, 0.5, size=(2, centers.size)) * (side / 2.0)
        centers = centers + jitter[0] + 1j * jitter[1]
        centers = centers[np.abs(centers) < 1.0]
    w = np.asarray(f.evaluate(centers))
    cell = 4.0 / n
    ix = np.floor((w.real + 2.0) / cell).astype(int)
    iy = np.floor((w.imag + 2.0) / cell).astype(int)
    ok = (ix >= 0) & (ix < n) & (iy >= 0) & (iy < n)
    occ = np.zeros((n, n), dtype=bool)
    occ[iy[ok], ix[ok]] = True
    area = float(np.count_nonzero(_dilate(occ))) * cell * cell
    return area, centers.size


def _dilate(occ: np.ndarray) -> np.ndarray:
    out = occ.copy()
    out[1:, :] |= occ[:-1, :]
    out[:-1, :] |= occ[1:, :]
    out[:, 1:] |= occ[:, :-1]
    out[:, :-1] |= occ[:, 1:]
    out[1:, 1:] |= occ[:-1, :-1]
    out[1:, :-1] |= occ[:-1, 1:]
    out[:-1, 1:] |= occ[1:, :-1]
    out[:-1, :-1] |= occ[1:, 1:]
    return out

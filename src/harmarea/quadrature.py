"""Deterministic quadrature over disk, star and pixel-grid regions, plus a
rasterization-based area oracle that bypasses the Jacobian entirely.

Polar integration pairs Gauss-Legendre in radius with a trapezoid rule in
angle (per-segment Gauss nodes on star regions, whose piecewise-linear
boundary puts kinks at known angles).  Both directions refine by doubling
until two successive levels agree to the requested tolerance.

Area integrals of analytic functions over star regions reduce to boundary
integrals by Green's formula, int_E |F'|^2 dA = (1/2i) oint conj(F) dF
(Duren, Harmonic Mappings in the Plane, 2004); integrate_boundary sums
those over Gauss-Legendre nodes on boundary panels, the profile segments
bisected toward any pole of the integrand, and refines by doubling in the
same way.

On pixel grids, integrate_runs applies a tensor Gauss-Legendre rule to each
horizontal run of true cells; it is exact for the polynomial Jacobians and
energy densities of polynomial maps.  integrate_grid keeps the midpoint
rule, with a refinement estimate, for fields that are not polynomials (disk
automorphisms, whose pole may lie just past a rim cell).

Determinism contract: every pass evaluates its fields in one thread, on
fixed index-ordered blocks of about regions.BLOCK points, and reduces the
terms with math.fsum.  Fields act elementwise and fsum is correctly
rounded, so the block boundaries are invisible in the result and identical
inputs give bitwise identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConstructionError, NonConvergenceError
from .regions import BLOCK, Disk, PixelGrid, Region, StarShaped, _member_blocks

DEFAULT_TOL = 1e-9
MIN_TOL = 1e-12
DEFAULT_Q0 = 16
DEFAULT_M0 = 64
Q_CAP = 256
M_CAP = 4096
# Boundary levels are 1-D: start at 4 Gauss nodes per panel and allow up to
# 2^15 nodes per level.  Panels are graded toward a pole, which must lie at
# least 2^-12 from the boundary.
BOUNDARY_M0 = 4
BOUNDARY_NODE_CAP = 2 ** 15
BOUNDARY_POLE_CAP = 2.0 ** -12

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(q: int) -> tuple[np.ndarray, np.ndarray]:
    got = _GAUSS_CACHE.get(q)
    if got is None:
        got = np.polynomial.legendre.leggauss(q)
        _GAUSS_CACHE[q] = got
    return got


def check_tol(tol: float) -> None:
    """Reject a tolerance that is not finite or lies below MIN_TOL with
    ConstructionError."""
    if not MIN_TOL <= tol < math.inf:
        raise ConstructionError("tolerance must be finite and at least 1e-12")


@dataclass(frozen=True)
class QuadResult:
    """Integral value, two-level error estimate, and evaluation count.

    A value from a closed form (see distortion.image_area) is exact up to
    rounding: its error_estimate is 0.0 and evals counts the series terms
    summed, at least 1.
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
    rows = max(1, BLOCK // q)

    def block_terms():
        for b in range(0, theta.size, rows):
            rad = radii[b : b + rows, None]
            t = rad * frac[None, :]
            z = t * np.exp(1j * theta[b : b + rows, None])
            vals = np.asarray(field(z), dtype=float)
            # dA = t dt dtheta: radial Gauss weight gw*rad/2 times the factor t.
            w = wtheta[b : b + rows, None] * (rad / 2.0) * gw[None, :] * t
            yield (w * vals).ravel().tolist()

    return math.fsum(chain.from_iterable(block_terms())), theta.size * q


def integrate_polar(field, E: Region, tol: float = DEFAULT_TOL) -> QuadResult:
    """Integrate a scalar field over a Disk or StarShaped region.

    The field must accept a complex numpy array and return real values of
    the same shape.  Radial and angular node counts double together, from
    DEFAULT_Q0 radial and DEFAULT_M0 angular nodes (per segment on a star,
    DEFAULT_M0 split over the segments), until the two finest levels agree
    to tol*max(1, |value|); hitting Q_CAP and M_CAP with the estimate above
    10x that target raises NonConvergenceError.
    """
    if isinstance(E, PixelGrid):
        raise ConstructionError("integrate_polar needs a Disk or StarShaped region")
    check_tol(tol)
    if isinstance(E, StarShaped):
        p = len(E.profile)
        start = max(1, DEFAULT_M0 // p)
        cap = max(2 * start, M_CAP // p)
    else:
        start, cap = DEFAULT_M0, M_CAP
    levels = [(DEFAULT_Q0, start)]
    while True:
        q, m = levels[-1]
        step = (min(2 * q, Q_CAP), min(2 * m, cap))
        if step == (q, m):
            break
        levels.append(step)
    return _refine(
        lambda qm: _polar_level(field, E, *qm),
        levels,
        tol,
        f"q={Q_CAP}, angular cap {cap}",
    )


def _refine(level, params, tol: float, caps: str) -> QuadResult:
    """Evaluate level(p) for p in params until two successive values agree.

    params holds at least two levels.  Agreement means a difference within
    tol*max(1, |value|), or within 10x that at the last level; the
    difference is the error estimate.  Running out of levels first raises
    NonConvergenceError naming the caps.
    """
    value, total_evals = level(params[0])
    for k, p in enumerate(params[1:], 2):
        new_value, evals = level(p)
        total_evals += evals
        err = abs(new_value - value)
        slack = 10.0 if k == len(params) else 1.0
        if err <= slack * tol * max(1.0, abs(new_value)):
            return QuadResult(new_value, err, total_evals)
        value = new_value
    raise NonConvergenceError(
        f"quadrature caps reached ({caps}) with error estimate {err:.3e} "
        "above 10*tol"
    )


def _panels(E: StarShaped, pole: complex | None) -> np.ndarray:
    """Boundary panels (start angle, width, R at both ends, R'), one per column.

    The panels start as the profile segments.  A panel of width w has arc
    length at most a = w * hypot(R', max R), so its points lie at least
    |pole - gamma(mid)| - a/2 from the pole; a panel nearer the pole than a
    is halved, which keeps R linear and R' unchanged (Trefethen and
    Weideman, SIAM Review 56(3), 2014).  A panel shorter than
    BOUNDARY_POLE_CAP whose bound is still below it raises
    NonConvergenceError.
    """
    prof = np.asarray(E.profile, dtype=float)
    p, nxt = prof.size, np.roll(prof, -1)
    h = 2.0 * np.pi / p
    panels = np.stack([h * np.arange(p), np.full(p, h), prof, nxt, (nxt - prof) / h])
    while pole is not None:
        start, width, r0, r1, slope = panels
        arc = width * np.hypot(slope, np.maximum(r0, r1))
        mid = 0.5 * (r0 + r1) * np.exp(1j * (start + 0.5 * width))
        bound = np.abs(pole - mid) - 0.5 * arc
        if np.any((bound < BOUNDARY_POLE_CAP) & (arc < BOUNDARY_POLE_CAP)):
            raise NonConvergenceError(
                f"pole within the cap of {BOUNDARY_POLE_CAP:.3g} of the boundary"
            )
        split = bound < arc
        if not split.any():
            break
        start, width, r0, r1, slope = panels[:, split]
        half, r_mid = 0.5 * width, 0.5 * (r0 + r1)
        left = [start, half, r0, r_mid, slope]
        right = [start + half, half, r_mid, r1, slope]
        panels = np.concatenate([panels[:, ~split], left, right], axis=1)
    return panels


def _boundary_level(parts, panels: np.ndarray, m: int) -> tuple[float, int]:
    """Boundary sum over m Gauss-Legendre nodes on each panel.

    gamma(theta) = R(theta) e^{i theta} with R linear on each panel, so
    gamma' = (R' + i R) e^{i theta} and R' is the panel's slope.
    """
    start, width, r0, r1, slope = panels[:, :, None]
    x, gw = _gauss(m)
    frac = (x + 1.0) / 2.0
    radii = r0 + (r1 - r0) * frac
    rot = np.exp(1j * (start + width * frac))
    z = (radii * rot).ravel()
    dz = ((slope + 1j * radii) * rot).ravel()
    w = (gw * (width / 2.0)).ravel()
    terms = []
    for sign, F, dF in parts:
        # Shifting F by the constant F(0) leaves oint conj(F) dF unchanged.
        flux = np.conjugate(F(z) - F(0j)) * dF(z) * dz
        terms.append((0.5 * sign) * w * flux.imag)
    return math.fsum(np.concatenate(terms).tolist()), z.size


def integrate_boundary(
    parts,
    E: StarShaped,
    tol: float = DEFAULT_TOL,
    *,
    min_nodes: int = 1,
    pole: complex | None = None,
) -> QuadResult:
    """Sum of sign * int_E |F'|^2 dA over (sign, F, dF) parts, on the boundary.

    F must be analytic on a neighbourhood of E and, like dF, accept a
    complex numpy array; pole, if given, is a singularity outside E.  Each
    part contributes Im(conj(F - F(0)) F' gamma')/2 at Gauss-Legendre nodes
    on every boundary panel: the profile segments, bisected toward the pole
    until each lies at least its own arc length from it (see _panels).
    Nodes per panel double from BOUNDARY_M0 until two levels agree, as in
    integrate_polar; the first level has at least min_nodes nodes.  A pole
    within BOUNDARY_POLE_CAP of the boundary, or a level of more than
    BOUNDARY_NODE_CAP nodes, raises NonConvergenceError.
    """
    if not isinstance(E, StarShaped):
        raise ConstructionError("integrate_boundary needs a StarShaped region")
    check_tol(tol)
    panels = _panels(E, pole)
    count = panels.shape[1]
    cap = max(2 * BOUNDARY_M0, BOUNDARY_NODE_CAP // count)
    m = BOUNDARY_M0
    while m <= cap and m * count < min_nodes:
        m *= 2
    if 2 * m > cap:
        raise NonConvergenceError(
            f"resolving the integrand needs more than the cap of {cap} "
            "boundary nodes per panel"
        )
    levels = [m << k for k in range((cap // m).bit_length())]
    caps = f"{cap} boundary nodes per panel"
    return _refine(lambda k: _boundary_level(parts, panels, k), levels, tol, caps)


def quarter_cells(centers: np.ndarray, n: int) -> np.ndarray:
    """Centers of the four quarter cells of each n x n grid cell, shape (4, N)."""
    q = 0.5 / n
    offsets = np.array([-q - 1j * q, q - 1j * q, -q + 1j * q, q + 1j * q])
    return centers[None, :] + offsets[:, None]


def integrate_grid(field, E: PixelGrid) -> QuadResult:
    """Midpoint rule over the true cells of a pixel grid.

    For fields that are not polynomials; integrate_runs is exact for those
    that are.  The error estimate compares one dyadic mask refinement;
    refined subcenters falling outside the open unit disk reuse their parent
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
    blocks = [slice(i, i + BLOCK) for i in range(0, count, BLOCK)]
    vals = np.empty(count)
    for b in blocks:
        vals[b] = field(centers[b])
    base = math.fsum(chain.from_iterable((vals[b] * area).tolist() for b in blocks))

    def refined_terms():
        for b in blocks:
            sub = quarter_cells(centers[b], E.n)
            sub_vals = np.broadcast_to(vals[b], sub.shape).copy()
            inside = np.abs(sub) < 1.0
            if np.any(inside):
                sub_vals[inside] = field(sub[inside])
            yield (sub_vals * (area / 4.0)).ravel().tolist()

    refined = math.fsum(chain.from_iterable(refined_terms()))
    return QuadResult(base, abs(refined - base), count + 4 * count)


# Veltkamp's splitting constant 2^27 + 1 for binary64.
_SPLIT = 134217729.0


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _exact_products(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise p + e == a * b exactly, barring overflow and underflow
    (Dekker, Numer. Math. 18, 1971)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def integrate_runs(field, E: PixelGrid, nodes: int) -> QuadResult:
    """Tensor Gauss-Legendre rule, nodes x nodes points on each run of E.

    E.runs splits the true cells into row runs; on each run rectangle the
    rule is exact for polynomials of degree at most 2*nodes - 1 in x and in
    y, so a polynomial field of that degree integrates exactly up to
    rounding and the error estimate is 0.0.  Rim runs put nodes just outside
    the unit disk, so the field must accept them.  Every node term is split
    into two floats whose sum is exact, and fsum rounds the whole sum once.
    With nodes = 1 and n a power of two the weights width * side^2 are
    exact too, so a constant field c gives the bits of the midpoint rule's
    sum of c * side^2 over the cells.  evals counts runs * nodes^2.
    """
    if not isinstance(E, PixelGrid):
        raise ConstructionError("integrate_runs needs a PixelGrid region")
    runs = E.runs
    if runs.shape[0] == 0:
        return QuadResult(0.0, 0.0, 1)
    x, gw = _gauss(nodes)
    frac = (x + 1.0) / 2.0
    side = 2.0 / E.n
    wy = gw * (side / 2.0)
    per_block = max(1, BLOCK // (nodes * nodes))

    def block_terms():
        for b in range(0, runs.shape[0], per_block):
            row, start, stop = runs[b : b + per_block].T
            width = stop - start
            xs = -1.0 + (start[:, None] + width[:, None] * frac[None, :]) * side
            ys = -1.0 + (row[:, None] + frac[None, :]) * side
            z = xs[:, None, :] + 1j * ys[:, :, None]
            wx = (width * side / 2.0)[:, None] * gw[None, :]
            w = wy[None, :, None] * wx[:, None, :]
            vals = np.asarray(field(z), dtype=float)
            for part in _exact_products(vals, w):
                yield part.ravel().tolist()

    value = math.fsum(chain.from_iterable(block_terms()))
    return QuadResult(value, 0.0, runs.shape[0] * nodes * nodes)


def mc_image_area(f, E: Region, n: int = 1024, seed: int = 42) -> QuadResult:
    """Rasterization estimate of the image area m(f(E)).

    Streams row blocks of an n x n rasterization of E: maps each block's cell
    centers and bins the images onto an n x n grid over [-W,W]^2, then dilates
    occupied cells by one cell to close coverage gaps and returns their area.
    W doubles from 2 until the extremes of Re and Im of the images fit
    (ConstructionError if no finite W holds them).  The error estimate repeats
    this at half resolution with seed-jittered offsets; the main estimate is
    seed-independent.  Assumes f is injective on E (not checked).
    """
    n = int(n)
    # The error estimate's half pass needs n // 2 >= 2.
    if n < 4 or (n & (n - 1)) != 0 or n > 4096:
        raise ConstructionError("raster resolution must be a power of two in [4, 4096]")
    rng = np.random.default_rng(seed)
    base, evals_base = _raster_pass(f, E, n, None)
    half, evals_half = _raster_pass(f, E, n // 2, rng)
    return QuadResult(base, abs(base - half), max(1, evals_base + evals_half))


def _raster_pass(f, E: Region, n: int, rng) -> tuple[float, int]:
    centers = (z[inside] for _, _, z, inside in _member_blocks(E, n))
    if rng is not None:
        # One (2, N) draw of half-cell offsets, sliced row-major over the blocks.
        centers = list(centers)
        sizes = [c.size for c in centers]
        jitter = rng.uniform(-0.5, 0.5, size=(2, sum(sizes))) / n
        parts = np.split(jitter, np.cumsum(sizes)[:-1], axis=1)
        centers = [c + j[0] + 1j * j[1] for c, j in zip(centers, parts)]
        centers = [c[np.abs(c) < 1.0] for c in centers]
    images = [np.asarray(f.evaluate(c)) for c in centers if c.size]
    if not images:
        return 0.0, 0
    ends = [(w.real.min(), w.real.max(), w.imag.min(), w.imag.max()) for w in images]
    # Rounded +, / by cell > 0 and floor are monotone, so the extremes decide
    # if every bin index lies in [0, n); np.min and np.max keep a nan.
    lo, hi = float(np.min(ends)), float(np.max(ends))
    half_width = 2.0
    while True:
        cell = 2.0 * half_width / n
        if not math.isfinite(cell):
            raise ConstructionError("the map's image overflows every raster window")
        if (lo + half_width) / cell >= 0 and (hi + half_width) / cell < n:
            break
        half_width *= 2.0
    occ = np.zeros(n * n, dtype=bool)
    for w in images:
        # Every coordinate is >= 0 in the window, so astype truncates as floor.
        iy = ((w.imag + half_width) / cell).astype(np.intp)
        occ[iy * n + ((w.real + half_width) / cell).astype(np.intp)] = True
    area = float(np.count_nonzero(_dilate(occ.reshape(n, n)))) * cell * cell
    if not math.isfinite(area):
        raise ConstructionError("the map's image overflows every raster window")
    return area, sum(w.size for w in images)


def _dilate(occ: np.ndarray) -> np.ndarray:
    """One-cell 3 x 3 dilation, as a pass over rows and then over columns."""
    rows = occ.copy()
    rows[1:, :] |= occ[:-1, :]
    rows[:-1, :] |= occ[1:, :]
    out = rows.copy()
    out[:, 1:] |= rows[:, :-1]
    out[:, :-1] |= rows[:, 1:]
    return out

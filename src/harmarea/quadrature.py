"""Deterministic quadrature over disk, star and pixel-grid regions, plus a
rasterization-based area oracle that bypasses the Jacobian entirely.

integrate_polar pairs Gauss-Legendre in radius with a trapezoid rule in
angle (per-segment Gauss nodes on stars), refining both by doubling until
two levels agree.  No package code calls it: it stays public as the
independent slow path that tests check the closed forms against.

Area integrals of analytic functions reduce to boundary integrals by
Green's formula, int_E |F'|^2 dA = (1/2i) oint conj(F) dF (Duren, Harmonic
Mappings in the Plane, 2004).  _boundary_batch, the star kernel, sums those
over Gauss-Legendre nodes on star boundary panels, the profile segments
bisected toward any pole of the integrand, and refines by doubling.  On
pixel grids the boundary is the four sides of each horizontal run of true
cells: integrate_grid puts a fixed number of Gauss-Legendre nodes on each
side, exact for polynomials, and arc_grid_area sums the closed-form areas
of a Mobius map's circular-arc images of the sides.

Determinism contract: every pass evaluates its fields in one thread, on fixed
index-ordered blocks (of about regions.BLOCK points, BOUNDARY_CHUNK in a boundary
batch), and reduces each integral's terms with its own math.fsum.  Fields act
elementwise and fsum is correctly rounded, so blocks and batches are invisible:
identical inputs give identical bits, and a star in a batch the bits it gets alone.
The Gauss-Legendre tables are computed here (_gauss), the same on every numpy version.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DEFAULT_TOL, MIN_TOL, ConstructionError, NonConvergenceError
from .regions import BLOCK, Disk, PixelGrid, Region, StarShaped, _member_blocks

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
BOUNDARY_CHUNK = 2 ** 12  # nodes a boundary batch evaluates at once: ~1 MB of temporaries


@functools.cache
def _gauss(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The q-node Gauss-Legendre rule on [-1, 1], nodes ascending: Newton on
    the three-term recurrence of P_q from Tricomi's starting values, all nodes
    at once (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013), each weight
    corrected to first order for its node's rounding.  After math's starting
    values only +, -, * and / run, so numpy's version moves no bit."""
    half, c = q // 2, 1.0 - (q - 1) / (8 * q**3)
    phi = [(4 * k - 1) * math.pi / (4 * q + 2) for k in range(1, half + 1)]
    x = np.array([(c - (39 - 28 / math.sin(t) ** 2) / (384 * q**4)) * math.cos(t) for t in phi]
                 + [0.0] * (q % 2))

    def legendre(x):  # P_q, P_q' and 1 - x^2: P_{n+1} = t + n/(n+1) (t - P_{n-1}), t = x P_n
        p0, p1 = np.ones_like(x), x
        for n in range(1, q):
            t = x * p1
            p0, p1 = p1, t + n / (n + 1) * (t - p0)
        s2 = (1.0 - x) * (1.0 + x)
        return p1, q * (p0 - x * p1) / s2, s2

    for _ in range(4):  # the rounding floor for q <= 256
        p, dp, s2 = legendre(x)
        x = x - p / dp
    p, dp, s2 = legendre(x)
    w = 2.0 / (s2 * dp * dp) * (1.0 + 2.0 * x * p / (s2 * dp))
    return (np.concatenate([-x[:half], x[half:], x[:half][::-1]]),
            np.concatenate([w[:half], w[half:], w[:half][::-1]]))


def check_tol(tol: float) -> None:
    """Reject a tolerance that is not finite or lies below MIN_TOL with
    ConstructionError."""
    if not MIN_TOL <= tol < math.inf:
        raise ConstructionError("tolerance must be finite and at least 1e-12")


@dataclass(frozen=True)
class QuadResult:
    """Integral value, two-level error estimate, and evaluation count.

    A value from a closed form or an exact rule (see distortion.image_area)
    is exact up to rounding: its error_estimate is 0.0 and evals counts the
    series terms summed or the points evaluated, at least 1.
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
    m Gauss-Legendre nodes on each profile segment, the panels of
    _panels(E, None).
    """
    if isinstance(E, Disk):
        theta = 2.0 * np.pi * np.arange(m) / m
        w = np.full(m, 2.0 * np.pi / m)
        radii = np.full(m, E.r)
        return theta, w, radii
    start, width, r0, r1, _ = _panels(E, None)[:, :, None]
    x, gw = _gauss(m)
    frac = (x + 1.0) / 2.0
    # theta[j, i]: node i inside segment j; boundary radius is linear there.
    theta, radii = start + width * frac, r0 + (r1 - r0) * frac
    return theta.ravel(), (gw * (width / 2.0)).ravel(), radii.ravel()


def _polar_level(field, E, q: int, m: int) -> tuple[list[float], int]:
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

    return [math.fsum(chain.from_iterable(block_terms()))], theta.size * q


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
    caps = f"q={Q_CAP}, angular cap {cap}"
    return _refine(lambda qm, _: _polar_level(field, E, *qm), levels, tol, caps)[0]


def _refine(level, params, tol: float, caps: str, size: int = 1) -> list[QuadResult]:
    """Evaluate level(p, live) for p in params until two successive values of
    each of size integrals agree; level gives the values of the integrals
    numbered in live and the evals each spent.

    params holds at least two levels.  Agreement means a difference within
    tol*max(1, |value|), or within 10x that at the last level; the
    difference is the error estimate.  An integral that agrees leaves live,
    so its result is the one it gives alone.  Running out of levels first
    raises NonConvergenceError naming the caps.
    """
    live = list(range(size))
    values, evals = level(params[0], live)
    last, spent, out = dict(zip(live, values)), [evals] * size, [None] * size
    for k, p in enumerate(params[1:], 2):
        values, evals = level(p, live)
        slack = 10.0 if k == len(params) else 1.0
        errors = {}
        for i, new_value in zip(live, values):
            spent[i] += evals
            err = abs(new_value - last[i])
            if err <= slack * tol * max(1.0, abs(new_value)):
                out[i] = QuadResult(new_value, err, spent[i])
            else:
                last[i], errors[i] = new_value, err
        live = list(errors)
        if not live:
            return out
    raise NonConvergenceError(
        f"quadrature caps reached ({caps}) with error estimate {errors[live[0]]:.3e} "
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
    p, prof, nxt = len(E.profile), E._closed[:-1], E._closed[1:]
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


def _green_terms(parts, z, dz, w) -> np.ndarray:
    """Terms w * sign * Im(conj(F(z) - F(0)) F'(z) dz)/2 of Green's formula
    int_E |F'|^2 dA = (1/2i) oint conj(F) dF, stacked on the second-to-last
    axis for the (sign, F, dF) parts, at nodes z, tangents dz, weights w."""
    terms = []
    for sign, F, dF in parts:
        # Shifting F by the constant F(0) leaves oint conj(F) dF unchanged.
        flux = np.conjugate(F(z) - F(0j)) * dF(z) * dz
        terms.append((0.5 * sign) * w * flux.imag)
    return np.stack(terms, axis=-2)


def _boundary_batch(parts, stars, tol: float, *, min_nodes: int = 1, pole=None):
    """Sum of sign * int_E |F'|^2 dA over (sign, F, dF) parts, on the
    boundary of each StarShaped E in stars.

    F must be analytic on a neighbourhood of each E and, like dF, accept a
    complex numpy array; pole, if given, is a singularity outside them.
    Each part contributes Im(conj(F - F(0)) F' gamma')/2 at Gauss-Legendre
    nodes on every boundary panel: the profile segments, bisected toward the
    pole until each lies at least its own arc length from it (_panels).
    With R linear on a panel, gamma' = (R' + i R) e^{i theta}, R' the
    panel's slope.  Nodes per panel double from BOUNDARY_M0 until two levels
    agree (_refine); the first level has at least min_nodes nodes.  A pole
    within BOUNDARY_POLE_CAP of a boundary, or a level of more than
    BOUNDARY_NODE_CAP nodes, raises NonConvergenceError.  Its one caller
    passes min_nodes <= 4 * (maps.DEGREE_CAP + 1) = 260, so its first level
    (BOUNDARY_M0 a panel, or under 520 nodes in all) is at most half the cap
    max(2 * BOUNDARY_M0, BOUNDARY_NODE_CAP // panels): two levels or more.

    Stars whose panels share their start angles and widths are refined
    together; a level evaluates e^{i theta} once for them and the parts on
    their live stars, about BOUNDARY_CHUNK nodes at a time.  Each star gets
    the bits it gets alone, in a batch of any size.
    """
    check_tol(tol)
    groups: dict[bytes, list] = {}
    for i, E in enumerate(stars):
        panels = _panels(E, pole)
        groups.setdefault(panels[:2].tobytes(), []).append((i, panels))
    out = {}
    for members in groups.values():
        start, width = members[0][1][:2, :, None]
        r0, r1, slope = np.stack([panels[2:, :, None] for _, panels in members], axis=1)
        cap = max(2 * BOUNDARY_M0, BOUNDARY_NODE_CAP // start.size)
        m = BOUNDARY_M0
        while m <= cap and m * start.size < min_nodes:
            m *= 2

        def level(m: int, live: list[int]) -> tuple[list[float], int]:
            x, gw = _gauss(m)
            frac = (x + 1.0) / 2.0
            rot, w = np.exp(1j * (start + width * frac)), (gw * (width / 2.0)).ravel()
            values, per = [], max(1, BOUNDARY_CHUNK // rot.size)
            for rows in (live[c : c + per] for c in range(0, len(live), per)):
                radii = r0[rows] + (r1[rows] - r0[rows]) * frac
                z = (radii * rot).reshape(len(rows), -1)
                dz = ((slope[rows] + 1j * radii) * rot).reshape(len(rows), -1)
                terms = _green_terms(parts, z, dz, w).reshape(len(rows), -1)
                values += [math.fsum(row.tolist()) for row in terms]
            return values, rot.size

        levels = [m << k for k in range((cap // m).bit_length())]
        results = _refine(level, levels, tol, f"{cap} boundary nodes per panel", len(members))
        out.update(zip([i for i, _ in members], results))
    return [out[i] for i in range(len(stars))]


def _run_corners(E: PixelGrid) -> np.ndarray:
    """Corners of each run rectangle of E, counterclockwise from the lower
    left, shape (k, 4); side j runs from corner j to corner j + 1 (mod 4)."""
    row, start, stop = E.runs.T
    side = 2.0 / E.n
    x0, x1 = -1.0 + start * side, -1.0 + stop * side
    y0, y1 = -1.0 + row * side, -1.0 + (row + 1) * side
    return np.stack([x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1], axis=1)


def integrate_grid(parts, E: PixelGrid, nodes: int) -> QuadResult:
    """Sum of sign * int_E |F'|^2 dA over (sign, F, dF) parts on a pixel grid.

    Green's formula with _boundary_batch's terms (_green_terms), at nodes
    Gauss-Legendre nodes on each side of each run rectangle of E.  The
    integrand has degree 2 deg F - 1 in the side parameter, so for deg F <=
    nodes the rule is exact up to rounding (error estimate 0.0).  Rim sides
    reach past the unit disk: F and dF must accept those points.  evals is
    4 * nodes a run.
    """
    if not isinstance(E, PixelGrid):
        raise ConstructionError("integrate_grid needs a PixelGrid region")
    corners = _run_corners(E)
    x, gw = _gauss(nodes)
    frac, w = (x + 1.0) / 2.0, gw / 2.0
    per_block = max(1, BLOCK // (4 * nodes))

    def block_terms():
        for b in range(0, corners.shape[0], per_block):
            start = corners[b : b + per_block, :, None]
            dz = np.roll(start, -1, axis=1) - start
            yield _green_terms(parts, start + dz * frac, dz, w).ravel().tolist()

    value = math.fsum(chain.from_iterable(block_terms()))
    return QuadResult(value, 0.0, max(1, 4 * nodes * corners.shape[0]))


# (2b - sin 2b)/(8 sin^2 b) = (b/6)(1 + 2b^2/15 + ...) to rounding for |b| < 0.1,
# where the closed form loses about eps/b^2 of itself to cancellation.
_SEGMENT_SERIES = (1.0, 2 / 15, 2 / 105, 4 / 1575, 2 / 6237, 2764 / 70945875)


def arc_grid_area(mobius, E: PixelGrid, pole: complex) -> QuadResult:
    """m(mobius(E)) in closed form for a Mobius map with its pole at pole.

    The map sends each side A -> B of a run rectangle to a circular arc
    through w_M = mobius((A + B)/2) that turns by beta = arg((w_B - w_M) /
    (w_M - w_A)), half its central angle.  A rectangle's image is its chord
    quadrilateral, half the cross product of the diagonals, plus the
    segment (L^2/8)(2 beta - sin 2 beta)/sin^2 beta, L = |w_B - w_A|, of
    each side.  Exact up to rounding (error_estimate 0.0); evals counts the
    8 points of a run.  Rim rectangles reach past the unit disk: mobius must
    accept those points.  A pole within BOUNDARY_POLE_CAP of a run
    rectangle raises NonConvergenceError.
    """
    corners = _run_corners(E)
    lo, hi = corners[:, 0], corners[:, 2]
    near = np.clip(pole.real, lo.real, hi.real) + 1j * np.clip(pole.imag, lo.imag, hi.imag)
    if np.any(np.abs(pole - near) < BOUNDARY_POLE_CAP):
        raise NonConvergenceError(
            f"Mobius pole within the cap of {BOUNDARY_POLE_CAP:.3g} of a run rectangle"
        )
    w = mobius(corners)
    w_mid = mobius((corners + np.roll(corners, -1, axis=1)) / 2.0)
    w_end = np.roll(w, -1, axis=1)
    quad = 0.5 * (np.conjugate(w[:, 2] - w[:, 0]) * (w[:, 3] - w[:, 1])).imag
    beta = np.angle(np.conjugate(w_mid - w) * (w_end - w_mid))
    b2, series = beta * beta, 0.0
    for c in reversed(_SEGMENT_SERIES):
        series = c + series * b2
    shape = beta / 6.0 * series
    wide = np.abs(beta) >= 0.1
    b = beta[wide]
    shape[wide] = (2.0 * b - np.sin(2.0 * b)) / (8.0 * np.sin(b) ** 2)
    segments = (np.abs(w_end - w) ** 2 * shape).ravel()
    value = math.fsum(chain(quad.tolist(), segments.tolist()))
    return QuadResult(value, 0.0, max(1, 8 * corners.shape[0]))


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
        for c, (jx, jy) in zip(centers, parts):
            c.real, c.imag = c.real + jx, c.imag + jy  # c is a fresh copy
        centers = [c[np.abs(c) < 1.0] for c in centers]
    # Every center lies in the open unit disk, so the domain check is skipped.
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite extremes raise below
        images = [np.asarray(f._evaluate_unchecked(c)) for c in centers if c.size]
    if not images:
        return 0.0, 0
    ends = np.array([(w.real.min(), w.real.max(), w.imag.min(), w.imag.max()) for w in images])
    # Rounded +, / by cell > 0 and floor are monotone, so the extremes decide
    # if every bin index lies in [0, n), and bound the occupied box; np.min
    # and np.max keep a nan.
    lo, hi = float(np.min(ends)), float(np.max(ends))
    half_width = 2.0
    while True:
        cell = 2.0 * half_width / n
        if not math.isfinite(cell):
            raise ConstructionError("the map's image overflows every raster window")
        if (lo + half_width) / cell >= 0 and (hi + half_width) / cell < n:
            break
        half_width *= 2.0
    # The box of occupied bins, padded by the dilation's one cell and clipped
    # to the window: no cell outside it is occupied or dilated.
    x0, y0 = (((ends[:, ::2].min(axis=0) + half_width) / cell).astype(np.intp) - 1).clip(0)
    x1, y1 = (((ends[:, 1::2].max(axis=0) + half_width) / cell).astype(np.intp) + 2).clip(0, n)
    width = x1 - x0
    occ = np.zeros((y1 - y0) * width, dtype=bool)
    for w in images:
        # Every coordinate is >= 0 in the window, so astype truncates as floor.
        index = ((w.imag + half_width) / cell).astype(np.intp) - y0
        index *= width
        index += ((w.real + half_width) / cell).astype(np.intp) - x0
        occ[index] = True
    area = float(np.count_nonzero(_dilate(occ.reshape(-1, width)))) * cell * cell
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

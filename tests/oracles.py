"""Closed-form reference values, derived by hand integration, and
whole-array reference versions of the package's blocked array passes.

Nothing here calls back into harmarea's quadrature, measure, or search
code; these are the independent answers the package is tested against.
Numeric cross-checks of the formulas themselves (via scipy.integrate)
live in test_oracles.py.  The one exception is the per-point search at the
end: it scores a search lattice one map at a time through the package's
per-map functions, as the reference for the search's batched lattice pass,
and a Schwarz-Pick lattice one point at a time, as the reference for its
batched membership test; its simplex, simplex_refine_numpy, keeps each
point a numpy array, as the reference for the float-tuple simplex.
suite_per_radius likewise composes verify's suite one radius at a time
from the package's one-region functions, as the reference for the suite's
layers, each run once for all nine radii.  The
Gauss-Legendre tables are the package's own
(gauss_table): the references below that use one pin how the package batches
and blocks a rule, not the rule, which test_quadrature checks against mpmath.
node_doubling_boundary keeps the boundary kernel that resolved a pole by
raising the node count on every profile segment, as the reference for the
graded boundary panels.  star_contains_whole and mc_image_area_whole keep
the star membership that interpolates the profile at every point and the
raster estimate built on full-length np.nonzero centers and binned on the
whole n x n window, as the references for the radius-first membership, the
row-block centers and the occupied box that the raster pass bins into.
horner_from_zero and check_disk_three_pass keep series evaluation from a
zero start and the domain check's three separate passes, as the references
for the leading-coefficient start and the one-pass check.
grid_midpoint_whole and grid_tensor_rule keep the midpoint rule and the
tensor Gauss rule per run that pixel grids used before Green's formula on
the run sides; grid_gauss_sides is that formula by plain Gauss sums, the
reference for the closed-form arcs of Mobius maps.
region_measure_per_kind and bounding_radius_per_kind keep region_measure
and bounding_radius as they branched on the region kind at each call, and
profile_interp_whole the star interpolant that rebuilt the closed profile at
each call, as the references for the values a region stores when built.
"""

import cmath
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np


def gauss_table(nodes: int):
    """quadrature._gauss(nodes): Gauss-Legendre nodes (ascending) and weights."""
    from harmarea.quadrature import _gauss

    return _gauss(nodes)


def horner_from_zero(coefficients, z):
    """sum c_k z^k by Horner from a zero start, so the leading c enters as
    0 * z + c; a scalar z other than an ndarray starts from 0j."""
    result = np.zeros_like(np.asarray(z), dtype=complex) if isinstance(z, np.ndarray) else 0j
    for c in reversed(coefficients):
        result = result * z + c
    return result


def check_disk_three_pass(z) -> None:
    """The closed-disk domain check as three passes: finite real parts,
    finite imaginary parts, then |z| <= 1 + DOMAIN_EPS."""
    from harmarea.errors import DomainError
    from harmarea.maps import DOMAIN_EPS

    arr = np.asarray(z)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise DomainError("evaluation point must be finite")
    if np.any(np.abs(arr) > 1.0 + DOMAIN_EPS):
        raise DomainError("evaluation point outside the closed unit disk")


def disk_area(r: float) -> float:
    return math.pi * r * r


def pl_star_measure(profile) -> float:
    """Exact area of {|z| <= R(arg z)} for a piecewise-linear periodic R.

    On one segment R runs linearly from a to b over angular width H, and
    int R^2/2 dtheta = H*(a^2 + a*b + b^2)/6.
    """
    prof = [float(v) for v in profile]
    m = len(prof)
    h = 2.0 * math.pi / m
    total = 0.0
    for i in range(m):
        a = prof[i]
        b = prof[(i + 1) % m]
        total += h * (a * a + a * b + b * b) / 6.0
    return total


def affine_image_area(alpha: float, domain_measure: float) -> float:
    # z + alpha*conj(z) has constant Jacobian 1 - alpha^2
    return (1.0 - alpha * alpha) * domain_measure


def affine_point(alpha: float, z: complex) -> complex:
    return z + alpha * z.conjugate()


def shear_disk_area(alpha: float, power: int, r: float) -> float:
    """Image area of h=z, g=alpha*z^p over a centered disk of radius r.

    J = 1 - p^2 alpha^2 t^(2p-2); integrating t J over [0,r] and theta
    over [0,2pi) gives pi r^2 - pi p alpha^2 r^(2p).
    """
    return math.pi * r * r - math.pi * power * alpha * alpha * r ** (2 * power)


def shear_claimed_area(alpha: float, power: int, r: float) -> float:
    # widely quoted but miscomputed value: drops the leading factor p
    return math.pi * r * r - math.pi * alpha * alpha * r ** (2 * power)


def shear_radial_integral(alpha: float, power: int, r: float) -> float:
    # int_0^r (1 - p^2 a^2 t^(2p-2)) t dt; independent of theta
    return r * r / 2.0 - power * alpha * alpha * r ** (2 * power) / 2.0


def shear_worst_case(alpha: float, s: float) -> float:
    """sup over |E| = s of the image area for h=z, g=alpha*z^2.

    J = 1 - 4 alpha^2 t^2 decreases in t, so the extremal E is the
    centered disk of area s (radius sqrt(s/pi)).
    """
    return s - 2.0 * alpha * alpha * s * s / math.pi


def mobius_jacobian(a: float, z: complex) -> float:
    return (1.0 - a * a) ** 2 / abs(1.0 - a * z) ** 4


def mobius_disk_area(a: float, r: float) -> float:
    """Area of phi_a(rD) for real a.

    Mobius maps send circles to circles; |z| = r lands on a circle of
    radius r(1-a^2)/(1-a^2 r^2), so the area is pi times its square.
    """
    rho = r * (1.0 - a * a) / (1.0 - a * a * r * r)
    return math.pi * rho * rho


def mobius_radial_integral_axis(a: float, r: float) -> float:
    """int_0^r J_{phi_a}(t) t dt along theta = 0, for real a in (0,1).

    Substituting u = 1 - a t gives the antiderivative
    (1-a^2)^2/a^2 * (u^{-2}/2 - u^{-3}/3); with v = 1 - a r the definite
    integral is (1-a^2)^2/a^2 * (1/6 + v^{-3}/3 - v^{-2}/2).
    """
    v = 1.0 - a * r
    lead = (1.0 - a * a) ** 2 / (a * a)
    return lead * (1.0 / 6.0 + 1.0 / (3.0 * v**3) - 1.0 / (2.0 * v**2))


def mobius_radial_integral_axis_exact(a: float, r: float) -> float:
    """mobius_radial_integral_axis in exact rational arithmetic, rounded once;
    the antiderivative holds for real a of either sign, a != 0."""
    a, r = Fraction(a), Fraction(r)
    v = 1 - a * r
    return float((1 - a * a) ** 2 / (a * a) * (Fraction(1, 6) + 1 / (3 * v**3) - 1 / (2 * v**2)))


def mobius_radial_integral(a: complex, r: float, theta: float) -> float:
    """int_0^r (1 - |a|^2)^2 t / |1 - conj(a) t e^{i theta}|^4 dt for any
    direction, by mpmath's tanh-sinh rule at 40 digits on the exact float
    inputs, rounded once."""
    with mpmath.workdps(40):
        a = mpmath.mpc(a.real, a.imag)
        w = mpmath.conj(a) * mpmath.expj(mpmath.mpf(theta))
        lead = (1 - abs(a) ** 2) ** 2
        return float(mpmath.quad(lambda t: lead * t / abs(1 - w * t) ** 4, [0, r]))


def polynomial_radial_integral_axis(h, g, r: float) -> float:
    """int_0^r J_f(t) t dt along theta = 0 for f = h + conj(g), in exact
    rational arithmetic, rounded once.

    On the real axis h'(t) conj(h'(t)) = sum_{j,k} j k a_j conj(a_k)
    t^{j+k-2}, so the integral is sum_{j,k} j k Re(a_j conj(a_k) - b_j
    conj(b_k)) r^{j+k} / (j+k); floats are exact rationals.
    """
    r = Fraction(r)
    total = Fraction(0)
    for sign, cs in ((1, h), (-1, g)):
        parts = [
            (n, Fraction(complex(c).real), Fraction(complex(c).imag)) for n, c in enumerate(cs)
        ]
        for (j, xj, yj), (k, xk, yk) in itertools.product(parts[1:], repeat=2):
            total += sign * j * k * (xj * xk + yj * yk) * r ** (j + k) / (j + k)
    return float(total)


def perturbed_identity_radial_axis(eps: float, r: float) -> float:
    """int_0^r J_f(t) t dt along theta = 0 for f = (z + eps z^2)/(1 + eps),
    g = 0, in exact rational arithmetic, rounded once.

    h'(t) = (1 + 2 eps t)/(1 + eps), and int_0^r (1 + 2 eps t)^2 t dt =
    r^2/2 + 4 eps r^3/3 + eps^2 r^4, so the integral is
    (1 + 8 eps r/3 + 2 eps^2 r^2)/(1 + eps)^2 * r^2/2: past r^2/2 once
    r (8/3 + 2 eps r) > 2 + eps.
    """
    e, r = Fraction(eps), Fraction(r)
    return float((1 + 8 * e * r / 3 + 2 * e * e * r * r) / (1 + e) ** 2 * r * r / 2)


def hyperbolic_disk_integral(r: float) -> float:
    # int over rD of (1-|z|^2)^{-2}; radial antiderivative 1/(2(1-t^2))
    return math.pi * r * r / (1.0 - r * r)


def rescaled_affine_jacobian(alpha: float) -> float:
    # (z + alpha*conj(z))/(1+alpha) has constant J = (1-a^2)/(1+a)^2
    return (1.0 - alpha * alpha) / (1.0 + alpha) ** 2


def affine_sp_ratio_grid(alpha: float, bound: float, n: int):
    """Brute-force sup of the pointwise contraction ratio of z+alpha*conj(z)
    over an n x n cell grid on [-bound, bound]^2 clipped to |z| <= bound.

    n counts cells, so the n+1 node lines include the square's boundary and
    center; the maximizer often sits exactly on the clipping circle.
    Matches the ratio convention J(z)(1-|z|^2)^2/(1-|f(z)|^2)^2 with the
    value +inf once 1-|f(z)|^2 drops below 1e-12.  Pure formula work.
    """
    xs = np.linspace(-bound, bound, n + 1)
    x, y = np.meshgrid(xs, xs)
    z = x + 1j * y
    keep = np.abs(z) <= bound
    w = z + alpha * np.conj(z)
    gap = 1.0 - np.abs(w) ** 2
    if np.any(keep & (gap < 1e-12)):
        return math.inf
    num = (1.0 - alpha * alpha) * (1.0 - np.abs(z) ** 2) ** 2
    vals = np.where(keep, num / gap**2, -np.inf)
    return float(vals.max())


def mobius_area_ratio_max(modulus_range, r: float, n: int) -> float:
    """Brute-force max of m(phi_a(rD))/(pi r^2) over n modulus samples.

    The rotation parameter never changes the ratio, so a 1-D scan covers
    the full 2-D (modulus, rotation) lattice.
    """
    a = np.linspace(modulus_range[0], modulus_range[1], n)
    ratio = (1.0 - a * a) ** 2 / (1.0 - a * a * r * r) ** 2
    return float(ratio.max())


def rasterize_whole(member, n: int) -> np.ndarray:
    """n x n mask of cell centers z with member(z) true and |z| < 1.

    member maps a complex array to a boolean array of the same shape; it is
    called once, on the full meshgrid of centers.
    """
    side = 2.0 / n
    axis = -1.0 + (np.arange(n) + 0.5) * side
    xx, yy = np.meshgrid(axis, axis)
    z = xx + 1j * yy
    return member(z) & (np.abs(z) < 1.0)


def profile_interp_whole(profile, t) -> np.ndarray:
    """R(t) for angles t in [0, 2 pi], R the periodic piecewise-linear
    interpolant of the profile samples, closed afresh from the samples."""
    prof = np.asarray(profile, dtype=float)
    m = prof.size
    xp = 2.0 * np.pi * np.arange(m + 1) / m
    fp = np.append(prof, prof[0])
    return np.interp(t, xp, fp)


def star_contains_whole(profile, z: np.ndarray) -> np.ndarray:
    """|z| <= R(arg z) at every point, R the periodic piecewise-linear
    interpolant of the profile samples."""
    return np.abs(z) <= profile_interp_whole(profile, np.mod(np.angle(z), 2.0 * np.pi))


def region_measure_per_kind(E) -> float:
    """m(E) worked out from the region's fields by its kind: pi r^2, the
    fsum of (h/6)(a^2 + ab + b^2) over a star's segments, or the true-cell
    count times the cell area."""
    from harmarea.regions import Disk, PixelGrid

    if isinstance(E, Disk):
        return math.pi * E.r * E.r
    if isinstance(E, PixelGrid):
        side = 2.0 / E.n
        return int(np.count_nonzero(E.mask)) * side * side
    ends = np.array(E.profile + E.profile[:1])
    a, b = ends[:-1], ends[1:]
    return math.fsum((2.0 * math.pi / a.size / 6.0 * (a * a + a * b + b * b)).tolist())


def bounding_radius_per_kind(E) -> float:
    """The smallest centered disk radius covering E, from its fields: r,
    max R, or the largest |center| over every true cell plus half a cell
    diagonal (0.0 for an empty grid)."""
    from harmarea.regions import Disk, PixelGrid

    if isinstance(E, Disk):
        return E.r
    if isinstance(E, PixelGrid):
        centers = cell_centers_whole(E.mask)
        return float(np.max(np.abs(centers))) + math.sqrt(2.0) / E.n if centers.size else 0.0
    return max(E.profile)


def cell_centers_whole(mask: np.ndarray) -> np.ndarray:
    """Complex centers of the true cells of an n x n mask, row-major, from
    full-length np.nonzero index arrays."""
    rows, cols = np.nonzero(mask)
    side = 2.0 / mask.shape[0]
    return (-1.0 + (cols + 0.5) * side) + 1j * (-1.0 + (rows + 0.5) * side)


def _raster_pass_whole(f, mask: np.ndarray, rng) -> tuple[float, int]:
    n = mask.shape[0]
    centers = cell_centers_whole(mask)
    if rng is not None:
        side = 2.0 / n
        jitter = rng.uniform(-0.5, 0.5, size=(2, centers.size)) * (side / 2.0)
        centers = centers + jitter[0] + 1j * jitter[1]
        centers = centers[np.abs(centers) < 1.0]
    if centers.size == 0:
        return 0.0, 0
    w = np.asarray(f.evaluate(centers))
    half_width = 2.0
    while True:
        cell = 2.0 * half_width / n
        ix = np.floor((w.real + half_width) / cell).astype(int)
        iy = np.floor((w.imag + half_width) / cell).astype(int)
        if min(ix.min(), iy.min()) >= 0 and max(ix.max(), iy.max()) < n:
            break
        half_width *= 2.0
    occ = np.zeros((n, n), dtype=bool)
    occ[iy, ix] = True
    return float(np.count_nonzero(dilate_8_shifts(occ))) * cell * cell, centers.size


def mc_image_area_whole(f, member, n: int, seed: int):
    """(value, error estimate, evals) of the raster estimate of m(f(E)).

    member is E's membership, as for rasterize_whole.  Each pass maps the
    centers of a whole-array rasterization, bins them on an n x n window
    that doubles from [-2, 2]^2 until it holds them all, and counts the
    3 x 3-dilated occupied cells; the half pass jitters its centers by one
    rng.uniform draw of shape (2, N) and drops those with |z| >= 1.
    """
    rng = np.random.default_rng(seed)
    base, evals_base = _raster_pass_whole(f, rasterize_whole(member, n), None)
    half, evals_half = _raster_pass_whole(f, rasterize_whole(member, n // 2), rng)
    return base, abs(base - half), max(1, evals_base + evals_half)


def grid_midpoint_whole(field, centers: np.ndarray, n: int):
    """(value, error estimate, evals) of the midpoint rule on grid cells.

    One field call on all centers and one on every quarter-cell center
    inside the open unit disk; quarter cells outside reuse their parent's
    value.  Both sums are math.fsum over full-length lists.
    """
    count = centers.size
    area = (2.0 / n) ** 2
    vals = np.asarray(field(centers), dtype=float)
    base = math.fsum((vals * area).tolist())
    q = 0.5 / n
    offsets = np.array([-q - 1j * q, q - 1j * q, -q + 1j * q, q + 1j * q])
    sub = centers[None, :] + offsets[:, None]
    sub_vals = np.broadcast_to(vals[None, :], sub.shape).copy()
    inside = np.abs(sub) < 1.0
    if np.any(inside):
        sub_vals[inside] = np.asarray(field(sub[inside]), dtype=float)
    refined = math.fsum((sub_vals * (area / 4.0)).ravel().tolist())
    return base, abs(refined - base), 5 * count


def dilate_8_shifts(occ: np.ndarray) -> np.ndarray:
    """One-cell 3 x 3 dilation as eight shifted ORs, one per neighbour."""
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


def _node_gaps(prof: np.ndarray) -> np.ndarray:
    """Per segment, m times a bound on the distance between neighbouring nodes.

    Neighbouring m-point Gauss-Legendre nodes lie less than pi/m apart on
    [-1, 1], so less than (pi/m) * h/2 in angle on a segment of width h,
    and |gamma'| <= hypot(R', max R) there.
    """
    nxt = np.roll(prof, -1)
    h = 2.0 * np.pi / prof.size
    return np.hypot((nxt - prof) / h, np.maximum(prof, nxt)) * (h * np.pi / 2.0)


def pole_distances(prof: np.ndarray, pole: complex) -> np.ndarray:
    """Per segment, a lower bound on the distance from pole to the boundary.

    Segment j lies in the sector r <= max(R_j, R_{j+1}), theta_j <= theta
    <= theta_{j+1}; this is the pole's distance to that sector.
    """
    rmax = np.maximum(prof, np.roll(prof, -1))
    h = 2.0 * np.pi / prof.size
    rho = abs(pole)
    past = np.mod(cmath.phase(pole) - h * np.arange(prof.size), 2.0 * np.pi)
    inside = past <= h
    # Angle from the pole to the nearer bounding ray of the sector.
    delta = np.minimum(np.minimum(past - h, 2.0 * np.pi - past), np.pi / 2.0)
    to_ray = np.where(
        rho * np.cos(delta) <= rmax,
        rho * np.sin(delta),
        np.sqrt(rho * rho + rmax * rmax - 2.0 * rho * rmax * np.cos(delta)),
    )
    return np.where(inside, rho - rmax, to_ray)


def segment_boundary_nodes(prof: np.ndarray, m: int):
    """Boundary points, tangents dgamma/dtheta and weights, m Gauss-Legendre
    nodes on each profile segment, gamma = R e^{i theta} with R linear."""
    p = prof.size
    seg_width = 2.0 * np.pi / p
    x, gw = gauss_table(m)
    frac = (x + 1.0) / 2.0
    theta = (seg_width * np.arange(p))[:, None] + seg_width * frac[None, :]
    nxt = np.roll(prof, -1)
    radii = (prof[:, None] + (nxt - prof)[:, None] * frac[None, :]).ravel()
    w = np.broadcast_to(gw[None, :] * (seg_width / 2.0), theta.shape).ravel()
    slope = np.repeat((nxt - prof) / seg_width, m)
    rot = np.exp(1j * theta.ravel())
    return radii * rot, (slope + 1j * radii) * rot, w


def node_doubling_boundary(parts, profile, tol, *, min_nodes=1, pole=None):
    """(value, error estimate, evals) of the boundary kernel that raised the
    node count on every segment to resolve a pole.

    m nodes per profile segment start at 4 and double until the first level
    has min_nodes nodes and, on each segment, m times the node gap bound
    beats the pole's sector distance; the levels then double up to 2^15
    nodes until two agree to tol * max(1, |value|) (10x that at the last).
    Running out of levels raises NonConvergenceError.
    """
    from harmarea.errors import NonConvergenceError

    prof = np.asarray(profile, dtype=float)
    p = prof.size
    cap = max(8, 2**15 // p)
    reach = np.inf if pole is None else pole_distances(prof, pole)
    m = 4
    while m <= cap and (m * p < min_nodes or np.any(_node_gaps(prof) > m * reach)):
        m *= 2
    if 2 * m > cap:
        raise NonConvergenceError("node cap")

    def level(k):
        z, dz, w = segment_boundary_nodes(prof, k)
        terms = [
            (0.5 * sign) * w * (np.conjugate(F(z) - F(0j)) * dF(z) * dz).imag
            for sign, F, dF in parts
        ]
        return math.fsum(np.concatenate(terms).tolist()), z.size

    return _doubling(level, [m << k for k in range((cap // m).bit_length())], tol)


def _doubling(level, levels, tol):
    """(value, error estimate, evals) of level(k) over levels until two
    agree to tol * max(1, |value|), 10x that at the last; else
    NonConvergenceError."""
    from harmarea.errors import NonConvergenceError

    value, evals = level(levels[0])
    for k, nodes in enumerate(levels[1:], 2):
        new_value, more = level(nodes)
        evals += more
        err = abs(new_value - value)
        slack = 10.0 if k == len(levels) else 1.0
        if err <= slack * tol * max(1.0, abs(new_value)):
            return new_value, err, evals
        value = new_value
    raise NonConvergenceError("node cap")


def panel_boundary_alone(parts, E, tol, *, min_nodes=1, pole=None):
    """(value, error estimate, evals) of quadrature._boundary_batch for the
    star E alone, written out: the levels on quadrature._panels(E, pole),
    each evaluated for E's nodes only and summed with one fsum."""
    from harmarea.errors import NonConvergenceError
    from harmarea.quadrature import _panels

    panels = _panels(E, pole)
    count = panels.shape[1]
    cap = max(8, 2**15 // count)
    m = 4
    while m <= cap and m * count < min_nodes:
        m *= 2
    if 2 * m > cap:
        raise NonConvergenceError("node cap")

    def level(k):
        start, width, r0, r1, slope = panels[:, :, None]
        x, gw = gauss_table(k)
        frac = (x + 1.0) / 2.0
        radii = r0 + (r1 - r0) * frac
        rot = np.exp(1j * (start + width * frac))
        z = (radii * rot).ravel()
        dz = ((slope + 1j * radii) * rot).ravel()
        w = (gw * (width / 2.0)).ravel()
        terms = [
            (0.5 * sign) * w * (np.conjugate(F(z) - F(0j)) * dF(z) * dz).imag
            for sign, F, dF in parts
        ]
        return math.fsum(np.concatenate(terms).tolist()), z.size

    return _doubling(level, [m << k for k in range((cap // m).bit_length())], tol)


def sampled_validity(f, angular_samples: int = 64, radial_samples: int = 32):
    """(sense_preserving, sup |dilatation|, sup |f|) sampled on a polar grid.

    The disk check validate used before it certified sense-preservation:
    |dilatation| on angular x radial points (radii k/radial_samples, so r = 1
    is included) must stay below 1 - 1e-9, and sup |f| is taken over the
    angular circle points.  Raises whatever f.dilatation raises, such as
    CriticalPointError where h' nearly vanishes on the grid.
    """
    theta = 2.0 * np.pi * np.arange(angular_samples) / angular_samples
    circle = np.exp(1j * theta)
    radii = (np.arange(radial_samples) + 1.0) / radial_samples
    grid = np.outer(radii, circle).ravel()
    k = float(np.max(np.abs(f.dilatation(grid))))
    self_sup = float(np.max(np.abs(f.evaluate(circle))))
    return k < 1.0 - 1e-9, k, self_sup


def sup_dilatation_polar(f, profile, angular: int = 256, radial: int = 64) -> float:
    """sup |dilatation| sampled on a polar grid over a disk or a star.

    The sampler sup_dilatation used before it read the boundary alone:
    angular directions theta_j = 2 pi j / angular, and in each the radii
    R(theta_j) k / radial for k = 1..radial, so the outer ring is the
    boundary.  profile is a disk's radius (a float) or a star's radial
    samples, interpolated piecewise-linearly and periodically.
    """
    theta = 2.0 * np.pi * np.arange(angular) / angular
    if np.ndim(profile) == 0:
        rim = np.full(angular, float(profile))
    else:
        prof = np.asarray(profile, dtype=float)
        xp = 2.0 * np.pi * np.arange(prof.size + 1) / prof.size
        rim = np.interp(np.mod(theta, 2.0 * np.pi), xp, np.append(prof, prof[0]))
    fractions = (np.arange(radial) + 1.0) / radial
    pts = (rim * np.exp(1j * theta))[None, :] * fractions[:, None]
    return float(np.max(np.abs(f.dilatation(pts))))


def pixel_centers_inside_whole(mask: np.ndarray) -> bool:
    """True iff every true cell of an n x n mask on [-1,1]^2 has its center
    in the open unit disk, checked on the full-length arrays of true cells."""
    n = mask.shape[0]
    rows, cols = np.nonzero(mask)
    cx = -1.0 + (cols + 0.5) * (2.0 / n)
    cy = -1.0 + (rows + 0.5) * (2.0 / n)
    return not np.any(np.hypot(cx, cy) >= 1.0)


def _derivative_parts(coeffs):
    """Real and imaginary parts of p'(x + iy), p = sum c_k z^k, as exact
    polynomials {(a, b): coefficient of x^a y^b} with Fraction coefficients.

    (x + iy)^k = sum_m C(k, m) x^(k-m) (iy)^m, and i^m cycles through
    1, i, -1, -i.
    """
    re, im = {}, {}
    for k, c in enumerate(coeffs[1:]):
        c = complex(c)
        a, b = Fraction(c.real) * (k + 1), Fraction(c.imag) * (k + 1)
        for m in range(k + 1):
            scale = math.comb(k, m)
            cr, ci = ((a, b), (-b, a), (-a, -b), (b, -a))[m % 4]
            key = (k - m, m)
            re[key] = re.get(key, 0) + scale * cr
            im[key] = im.get(key, 0) + scale * ci
    return re, im


def _square(p):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in p.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def grid_polynomial_integral(h, g, mask: np.ndarray, energy: bool = False) -> float:
    """Exact int over the true cells of |h'|^2 - |g'|^2 (|h'|^2 if energy).

    h and g are coefficient sequences of the polynomials h and g.  The
    density is expanded into monomials x^a y^b with Fraction coefficients,
    each monomial is integrated in closed form over every horizontal run of
    true cells of the n x n mask on [-1, 1]^2, and the exact sum is rounded
    to a float once.  Slow: meant for masks up to about 64 x 64.
    """
    density = {}
    for sign, coeffs in ((1, h),) if energy else ((1, h), (-1, g)):
        for part in _derivative_parts(coeffs):
            for key, c in _square(part).items():
                density[key] = density.get(key, 0) + sign * c
    n = mask.shape[0]
    edge = [Fraction(-1) + Fraction(2 * k, n) for k in range(n + 1)]
    total = Fraction(0)
    for row, start, stop in mask_runs(mask):
        y0, y1 = edge[row], edge[row + 1]
        x0, x1 = edge[start], edge[stop]
        for (a, b), c in density.items():
            total += (
                c
                * (x1 ** (a + 1) - x0 ** (a + 1)) / (a + 1)
                * (y1 ** (b + 1) - y0 ** (b + 1)) / (b + 1)
            )
    return float(total)


def mask_runs(mask: np.ndarray):
    """(row, first column, stop column) of each maximal horizontal run of
    true cells of a square mask, row by row, by a scan of every cell."""
    n = mask.shape[0]
    for row in range(n):
        col = 0
        while col < n:
            if not mask[row, col]:
                col += 1
                continue
            start = col
            while col < n and mask[row, col]:
                col += 1
            yield row, start, col


def run_rectangles(mask: np.ndarray) -> np.ndarray:
    """Corners (x0, y0, x1, y1) of each run of mask_runs on [-1, 1]^2,
    shape (k, 4)."""
    side = 2.0 / mask.shape[0]
    runs = np.array(list(mask_runs(mask)), dtype=float).reshape(-1, 3)
    row, start, stop = runs.T
    return np.stack(
        [-1.0 + start * side, -1.0 + row * side, -1.0 + stop * side, -1.0 + (row + 1) * side],
        axis=1,
    )


def grid_tensor_rule(density, mask: np.ndarray, nodes: int) -> float:
    """int of density over the true cells: a nodes x nodes tensor
    Gauss-Legendre rule on each run rectangle, one math.fsum over all node
    terms.  Exact for polynomials of degree at most 2 * nodes - 1 in x and
    in y; the density is called at every node at once, rim nodes included."""
    x, gw = gauss_table(nodes)
    frac = (x + 1.0) / 2.0
    x0, y0, x1, y1 = (c[:, None, None] for c in run_rectangles(mask).T)
    xs = x0 + (x1 - x0) * frac[None, None, :]
    ys = y0 + (y1 - y0) * frac[None, :, None]
    w = ((x1 - x0) / 2.0 * gw[None, None, :]) * ((y1 - y0) / 2.0 * gw[None, :, None])
    vals = np.asarray(density(xs + 1j * ys), dtype=float)
    return math.fsum((w * vals).ravel().tolist())


def mobius_parts(a: complex, rotation: float):
    """(F, dF) of the automorphism e^{i rotation} (z - a)/(1 - conj(a) z),
    written out here, defined off the disk too."""
    a, phase = complex(a), cmath.exp(1j * rotation)
    return (
        lambda z: phase * (z - a) / (1.0 - a.conjugate() * z),
        lambda z: phase * (1.0 - abs(a) ** 2) / (1.0 - a.conjugate() * z) ** 2,
    )


def rectangle_distances(mask: np.ndarray, point: complex) -> np.ndarray:
    """Distance from point to each run rectangle (0 inside it)."""
    x0, y0, x1, y1 = run_rectangles(mask).T
    dx = np.maximum(np.maximum(x0 - point.real, point.real - x1), 0.0)
    dy = np.maximum(np.maximum(y0 - point.imag, point.imag - y1), 0.0)
    return np.hypot(dx, dy)


def grid_gauss_sides(F, dF, mask: np.ndarray, nodes: int, pole=None) -> float:
    """int over the true cells of |F'|^2 by Green's formula, (1/2i) times
    the sum over the four sides of each run rectangle of int conj(F) dF.

    Each side is cut into equal pieces no longer than four times the
    rectangle's distance to pole (one piece when pole is None), with nodes
    Gauss-Legendre nodes on each piece; one math.fsum over all node terms.
    """
    x, gw = gauss_table(nodes)
    frac, half = (x + 1.0) / 2.0, gw / 2.0
    x0, y0, x1, y1 = run_rectangles(mask).T
    ends = [x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1]
    reach = np.inf if pole is None else 4.0 * rectangle_distances(mask, complex(pole))
    terms = []
    for a, b in zip(ends, ends[1:] + ends[:1]):
        pieces = np.maximum(1, np.ceil(np.abs(b - a) / reach)).astype(int)
        side = np.repeat(np.arange(a.size), pieces)
        k = np.concatenate([np.arange(p) for p in pieces]) if side.size else side
        step = ((b - a) / pieces)[side]
        z = (a[side] + step * k)[:, None] + step[:, None] * frac
        flux = np.conjugate(F(z) - F(0j)) * dF(z) * step[:, None]
        terms.extend((0.5 * half * flux.imag).ravel().tolist())
    return math.fsum(terms)


# Values frozen from the formulas above (computed once, pasted verbatim).
FROZEN = {
    "shear-0.3-p2-disk-0.5": 0.7500552460445631,
    "shear-claim-0.3-p2-disk-0.5": 0.7677267047210057,
    "shear-0.3-p2-radial-0.5": 0.119375,
    "hyperbolic-0.25": 0.20943951023931953,
    "hyperbolic-0.5": 1.0471975511965976,
    "hyperbolic-0.75": 4.039190554615448,
    "hyperbolic-claim-0.25": 0.19634954084936207,
    "hyperbolic-claim-0.5": 0.7853981633974483,
    "hyperbolic-claim-0.75": 1.7671458676442586,
    "mobius-0.5-disk-0.1": 0.017760148417602994,
    "mobius-0.5-disk-0.5": 0.5026548245743669,
    "mobius-0.5-radial-0.5": 0.1527777777777778,
    "mobius-0.5-peak-disk-0.5": 1.7777777777777777,
    "rescaled-0.5-jacobian": 0.3333333333333333,
    # grid_gauss_sides at 128 nodes (64 agree to 5e-15): automorphism(0.99,
    # 0.3) on rasterize(Disk(0.999), 1024).
    "mobius-0.99-grid-disk-0.999": 2.2227645989344706,
}


def _lattice_points(cont_bounds, disc_axes, grid_per_axis):
    """Row-major lattice tuples: continuous axes first, then discrete axes."""
    axes = [
        np.asarray([lo]) if lo == hi else np.linspace(lo, hi, grid_per_axis)
        for lo, hi in cont_bounds
    ]
    axes += [np.asarray(vals) for vals in disc_axes]
    return [tuple(float(v) for v in values) for values in itertools.product(*axes)]


def sweep_per_point(family, E, grid_per_axis):
    """search.sweep, constructing, checking and measuring one map at a time."""
    from harmarea.distortion import image_area
    from harmarea.errors import ConstructionError, HypothesisError
    from harmarea.regions import region_measure
    from harmarea.search import SweepRow

    m_e = region_measure(E)
    kind = family.kind
    lattice = _lattice_points(kind.continuous_bounds(), kind.discrete_axes(), grid_per_axis)
    rows = []
    for index, params in enumerate(lattice):
        note = ""
        ratio = math.nan
        try:
            f = family.kind.construct(params)
            try:
                family.check(f)
            except HypothesisError as exc:
                note = f"constraint: {exc}"
            ratio = image_area(f, E, check_sense=False).value / m_e
        except ConstructionError as exc:
            note = note or f"construction: {exc}"
        rows.append(SweepRow(index, params, ratio, note))
    return sorted(
        rows,
        key=lambda row: (-row.ratio if math.isfinite(row.ratio) else math.inf, row.index),
    )


SIMPLEX_DIAMETER = 1e-6


def simplex_refine_numpy(score, x0, bounds, steps, iterations):
    """search._simplex_refine in its numpy form, each point an array: the
    reference for the float-tuple simplex, which must score the same points
    in the same order.  Maximizing simplex with reflection 1.0, contraction
    0.5, shrink 0.5.

    score evaluates a point and records it (see _maximize).  Coordinates
    outside `bounds` are its problem (it penalizes infeasible points), so no
    projection happens here.
    """
    dim = len(x0)
    vertices = [np.asarray(x0, dtype=float)]
    for i in range(dim):
        v = vertices[0].copy()
        lo, hi = bounds[i]
        step = steps[i]
        if v[i] + step > hi and v[i] - step >= lo:
            step = -step
        v[i] = v[i] + step
        vertices.append(v)
    values = [score(v) for v in vertices]
    for _ in range(iterations):
        order = sorted(range(len(vertices)), key=lambda i: -values[i])
        vertices = [vertices[i] for i in order]
        values = [values[i] for i in order]
        spread = max(
            float(np.max(np.abs(v - vertices[0]))) for v in vertices[1:]
        )
        if spread < SIMPLEX_DIAMETER:
            break
        centroid = np.mean(vertices[:-1], axis=0)
        reflected = centroid + (centroid - vertices[-1])
        f_reflected = score(reflected)
        if f_reflected > values[-2]:
            vertices[-1] = reflected
            values[-1] = f_reflected
            continue
        contracted = (centroid + vertices[-1]) / 2.0
        f_contracted = score(contracted)
        if f_contracted > values[-1]:
            vertices[-1] = contracted
            values[-1] = f_contracted
            continue
        for i in range(1, len(vertices)):
            vertices[i] = vertices[0] + 0.5 * (vertices[i] - vertices[0])
            values[i] = score(vertices[i])


def _maximize_per_point(objective, cont_bounds, disc_axes, iterations, seed, grid_per_axis):
    """search._maximize with every lattice point and simplex point scored
    alone by objective, through one penalized, traced score."""
    from harmarea.search import SearchResult

    trace = []
    best_params, best_value, evaluations = None, -math.inf, 0

    def score(params):
        nonlocal best_params, best_value, evaluations
        evaluations += 1
        inside = all(lo <= c <= hi for c, (lo, hi) in zip(params, cont_bounds))
        val = objective(params) if inside else -1.0
        if val > best_value:
            best_value = val
            best_params = tuple(float(c) for c in params)
            if val > -1.0:
                trace.append((best_params, val))
        return val

    for params in _lattice_points(cont_bounds, disc_axes, grid_per_axis):
        score(np.asarray(params))
    n_cont = len(cont_bounds)
    disc_best = best_params[n_cont:]

    def frozen(x_cont):
        return score(np.concatenate([x_cont, disc_best]))

    steps = [
        (hi - lo) / (2.0 * max(1, grid_per_axis - 1)) if hi > lo else 1e-3
        for lo, hi in cont_bounds
    ]
    simplex_refine_numpy(frozen, best_params[:n_cont], cont_bounds, steps, iterations)
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-0.125, 0.125, size=n_cont)
    x1 = np.asarray(best_params[:n_cont]) + jitter * np.asarray(steps)
    simplex_refine_numpy(frozen, x1, cont_bounds, [s / 4.0 for s in steps], iterations)
    return SearchResult(best_params, best_value, evaluations, tuple(trace), seed)


def maximize_area_ratio_per_point(family, E, iterations, seed, grid_per_axis, tol):
    """search.maximize_area_ratio with the lattice scored one map at a time,
    each point through the same penalized, traced objective as the simplex."""
    from harmarea.distortion import image_area
    from harmarea.errors import ConstructionError, HypothesisError
    from harmarea.regions import region_measure

    m_e = region_measure(E)

    def objective(params):
        try:
            f = family.build(params)
        except (ConstructionError, HypothesisError):
            return -1.0
        return image_area(f, E, tol, check_sense=False).value / m_e

    kind = family.kind
    return _maximize_per_point(
        objective, list(kind.continuous_bounds()), list(kind.discrete_axes()),
        iterations, seed, grid_per_axis,
    )


def maximize_sp_ratio_per_point(f, domain, iterations, seed, grid_per_axis):
    """search.maximize_sp_ratio with sp_ratio scored one point at a time,
    each point tested for membership alone with regions.contains."""
    from harmarea.distortion import sp_ratio
    from harmarea.regions import bounding_radius, contains

    b = bounding_radius(domain)

    def objective(params):
        z = complex(params[0], params[1])
        return sp_ratio(f, z) if contains(domain, z) else -1.0

    return _maximize_per_point(objective, [(-b, b), (-b, b)], [], iterations, seed, grid_per_axis)


def suite_per_radius(f, tol):
    """distortion.verification_suite from the public one-region functions,
    radius by radius: validate and the reference integrals, then at each r
    the disk rows, the radial profile's worst direction, the star
    star_cos3(256, r) and the sandwich.  A map that fails raises the first
    error in that order."""
    from harmarea import distortion
    from harmarea.distortion import VerificationReport, default_tolerance
    from harmarea.maps import validate
    from harmarea.regions import Disk, star_cos3

    validity = validate(f)
    hyp = (
        f"self_map_sup={validity.self_map_sup:.17g} "
        f"sense_preserving={validity.sense_preserving}"
    )
    references = [
        (distortion.hyperbolic_disk_integral(r, tol), distortion.shear_disk_integral(r, 0.3, 2, tol))
        for r in distortion.VERIFY_RADII
    ]
    rows = []
    for r, refs in zip(distortion.VERIFY_RADII, references):
        rows += distortion.disk_contraction_report(f, r, tol)
        profile = distortion.radial_bound_profile(f, r)
        worst = min(profile, key=lambda row: row.margin)
        rows.append(replace(
            worst, name=f"radial-worst r={r:.1f}", detail=f"{hyp} worst {worst.detail}",
            checked=validity.self_map, evals=sum(row.evals for row in profile),
        ))
        star = distortion.star_contraction_report(f, star_cos3(256, r), tol)
        rows.append(replace(
            star, name=f"star-contraction r={r:.1f}", detail=f"{star.detail} {hyp}",
            checked=star.checked and validity.self_map,
        ))
        for row in distortion.quantitative_bounds(f, Disk(r), tol):
            rows.append(replace(row, name=f"{row.name.replace('quantitative', 'sandwich')} r={r:.1f}"))
        for tag, ref in zip(("hyperbolic", "shear"), refs):
            detail = (
                f"closed_form={ref.closed_form:.17g} claimed_value={ref.claimed_value:.17g} "
                f"err={ref.error_estimate:.3e}"
            )
            tolerance = default_tolerance(tol, ref.error_estimate)
            for suffix, lhs, rhs, checked, text in (
                ("le", ref.quadrature, ref.closed_form, True, detail),
                ("ge", ref.closed_form, ref.quadrature, True, detail),
                ("claimed", ref.quadrature, ref.claimed_value, False, f"{detail} informational"),
            ):
                rows.append(VerificationReport(
                    f"{tag}-{suffix} r={r:.1f}", lhs, rhs, tolerance, text, checked, ref.evals
                ))
    return rows

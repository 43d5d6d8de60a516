"""Area-distortion measurements for harmonic mappings.

Every operation computes both sides of an inequality and reports the
margin; nothing is asserted as an axiom.  Reports carry a `checked` flag:
rows whose hypotheses fail (not a self-map, f(0) != 0) or that exist only
for side-by-side comparison are recorded with checked=False and are meant
to be excluded from pass/fail aggregation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import ConstructionError, CriticalPointError, DomainError, HypothesisError
from .maps import DiskAutomorphism, HarmonicMap, ValidityReport, shear, validate
from .maps import _zero_free_closed_disk, coefficient_rows
from .quadrature import (
    DEFAULT_Q0,
    DEFAULT_TOL,
    Q_CAP,
    QuadResult,
    _gauss,
    _boundary_batch,
    _refine,
    arc_grid_area,
    check_tol,
    integrate_grid,
)
from .regions import (
    Disk,
    PixelGrid,
    Region,
    StarShaped,
    bounding_radius,
    contains_points,
    radial_profile,
    region_measure,
    star_cos3,
)

log = logging.getLogger(__name__)

# Slack for the theorem hypothesis f(0) = 0.
ORIGIN_SLACK = 1e-10

VERIFY_RADII = tuple(k / 10 for k in range(1, 10))
# verify's star at scale 1; r * profile is star_cos3(256, scale=r)'s profile.
_VERIFY_STAR = np.array(star_cos3(256).profile)

# Boundary points of sup_dilatation on a disk or a star, at these angles.
DILATATION_ANGULAR = 256
_DILATATION_THETA = 2.0 * np.pi * np.arange(DILATATION_ANGULAR) / DILATATION_ANGULAR


@dataclass(frozen=True)
class VerificationReport:
    """One inequality check lhs <= rhs: it passes when rhs - lhs >= -tolerance."""

    name: str
    lhs: float
    rhs: float
    tolerance: float
    detail: str = ""
    checked: bool = True
    evals: int = 0

    def __post_init__(self):
        for key in ("lhs", "rhs", "tolerance"):
            object.__setattr__(self, key, float(getattr(self, key)))
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            raise ValueError("report sides must be finite")

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tolerance


def default_tolerance(tol: float, *error_estimates: float) -> float:
    """10x the summed quadrature error, floored at the requested tol."""
    return max(tol, 1e-9, 10.0 * math.fsum(error_estimates))


def _area_integral(
    f: HarmonicMap, regions, tol: float, *, energy: bool
) -> list[QuadResult]:
    """Integrals of J_f (or |h'|^2 if energy) over each region of regions.

    Closed forms and exact rules, exact up to rounding (error_estimate 0.0):
    - any region under a polynomial map of degree at most 1: J_f is the
      constant |a_1|^2 - |b_1|^2, the n = 1 terms below, times m(E).
    - a disk under a polynomial map: for h = sum a_n z^n, g = sum b_n z^n
      the area formula gives int_{D_r} J_f = pi sum n (|a_n|^2 - |b_n|^2)
      r^{2n} (Duren, Harmonic Mappings in the Plane, 2004, sec. 1); the
      energy drops the b_n terms.  The value is m(D_r) * S with S = fsum
      of n (|a_n|^2 - |b_n|^2) r^{2(n-1)}, so a map with J_f = 1
      reproduces pi r^2 bit for bit.
    - a disk under an automorphism: its image is a disk, and the value is
      m(D_r) * S with S = ((1 - |a|^2) / (1 - |a|^2 r^2))^2, so S = 1 for
      a rotation.  An automorphism's energy density is its Jacobian.
    - any region under a rotation: J_f = 1, so the value is m(E).
    - a pixel grid under any other automorphism: the circular arcs of
      quadrature.arc_grid_area, which refuses a pole 1/conj(a) near a run.
    - a pixel grid under a polynomial map, d >= 2 the largest degree of the
      series integrated: the boundary integral below on the run sides, exact
      with d nodes per side (quadrature.integrate_grid).
    Other stars take the boundary integral of the canonical decomposition,
    int_E J_f = (1/2i) oint (conj(h) dh - conj(g) dg), with g = 0 for an
    automorphism, all stars in one quadrature._boundary_batch.
    """
    check_tol(tol)
    out = [None] * len(regions)
    if isinstance(f, DiskAutomorphism):
        pole = None if f.a == 0 else 1.0 / f.a.conjugate()
        parts, options = [(1.0, f.evaluate, f.analytic_derivative)], {"pole": pole}
        for i, E in enumerate(regions):
            if pole is None:
                out[i] = QuadResult(region_measure(E), 0.0, 1)
            elif isinstance(E, PixelGrid):
                out[i] = arc_grid_area(f._evaluate_unchecked, E, pole)
            elif isinstance(E, Disk):
                a2 = abs(f.a) ** 2
                s = (1.0 - a2) / (1.0 - a2 * E.r * E.r)
                out[i] = QuadResult(region_measure(E) * (s * s), 0.0, 1)
    else:
        series = [(1.0, f.h)] if energy else [(1.0, f.h), (-1.0, f.g)]
        degree = max(part.degree for _, part in series)
        rows = [[part.coefficients for _, part in series]]
        for i, E in enumerate(regions):
            if degree <= 1 or isinstance(E, Disk):
                out[i] = QuadResult(disk_series_rows(E, rows, degree)(0), 0.0, max(1, degree))
        if None in out:
            parts = [
                (sign, part._evaluate_unchecked, part.derivative()._evaluate_unchecked)
                for sign, part in series
            ]
            options = {"min_nodes": 4 * (degree + 1)}
            for i, E in enumerate(regions):
                if isinstance(E, PixelGrid):
                    out[i] = integrate_grid(parts, E, degree)
    stars = [E for E, q in zip(regions, out) if q is None]
    batch = iter(_boundary_batch(parts, stars, tol, **options) if stars else ())
    return [q or next(batch) for q in out]


def disk_series_rows(E: Region, rows, degree: int):
    """area(i), int_E |h'|^2 - |g'|^2 dA in closed form for the ascending
    coefficient lists (h, g) of rows[i] (int_E |h'|^2 for a row (h,)), of
    degree at most degree, on a disk or, when degree <= 1, on any region
    (see _area_integral): m(E) and the weights once, then one fsum per row.
    A value past the float range raises ConstructionError."""
    # The n = 1 weight r^0 is 1 on every region.
    powers = [1.0] + [E.r ** (2 * n - 2) for n in range(2, degree + 1)]
    weights, m_e = list(enumerate(powers, 1)), region_measure(E)

    def area(i: int) -> float:
        try:  # a float power past the range, or inf - inf in fsum
            terms = [
                sign * n * abs(c) ** 2 * p
                for sign, cs in zip((1.0, -1.0), rows[i])
                for (n, p), c in zip(weights, cs[1:])
            ]
            value = m_e * math.fsum(terms)
            if math.isfinite(value):
                return value
        except (OverflowError, ValueError):
            pass
        raise ConstructionError("the map's area integral overflows the float range")

    return area


def image_area(
    f: HarmonicMap,
    E: Region,
    tol: float = DEFAULT_TOL,
    *,
    check_sense: bool = True,
) -> QuadResult:
    """m(f(E)) via the area formula: integral of the Jacobian over E.

    Disks under any map, and any region under a rotation or a polynomial
    map of degree at most 1, use a closed form that is exact up to rounding
    (error_estimate 0.0).  Other stars take the boundary integral, whose bits
    are quadrature._boundary_batch's in a batch of any size.  Pixel grids
    are exact too: Green's formula on the sides of their runs, by the exact
    side rule of quadrature.integrate_grid under other polynomial maps and
    the closed-form arcs of quadrature.arc_grid_area under other
    automorphisms; see _area_integral.  Polar quadrature is never used.  On
    every region a tol that quadrature.check_tol rejects raises ConstructionError.
    """
    if check_sense:
        rep = validate(f)
        if not rep.sense_preserving:
            log.warning(
                "map is not sense-preserving (certified; sup |dilatation| >= "
                "%.6g); area formula may not equal m(f(E))",
                rep.sup_abs_dilatation,
            )
    return _area_integral(f, [E], tol, energy=False)[0]


def analytic_energy(f: HarmonicMap, E: Region, tol: float = DEFAULT_TOL) -> QuadResult:
    """Integral of |h'|^2 over E (the analytic part's area integral).

    Closed form where image_area has one, the boundary integral of h alone
    on other stars and on the run sides of pixel grids; an automorphism's
    energy density is its Jacobian, so its energy is its image_area.
    """
    return _area_integral(f, [E], tol, energy=True)[0]


def sup_dilatation(f: HarmonicMap, E: Region) -> float:
    """Sampled sup of |dilatation| over E (0.0 if empty): at a pixel grid's
    cell centers, else at the DILATATION_ANGULAR boundary points R e^{i theta}.

    On a disk or a star a Schur-Cohn test on h'(bz), b = bounding_radius(E),
    first certifies that h' has no zero on |z| <= b, else HypothesisError.
    So g'/h' is analytic on E and peaks on its boundary (maximum modulus
    principle).  An automorphism is conformal: its sup is 0.0, with no sample.
    """
    if isinstance(f, DiskAutomorphism):
        return 0.0
    if isinstance(E, PixelGrid):
        pts = E.cell_centers()
    else:
        b = bounding_radius(E)
        h_prime = f.h.derivative().coefficients
        if not _zero_free_closed_disk([c * b**k for k, c in enumerate(h_prime)]):
            raise HypothesisError(f"h' has a zero on the closed disk |z| <= {b:.6g}")
        pts = radial_profile(E, _DILATATION_THETA) * np.exp(1j * _DILATATION_THETA)
    try:
        return float(np.max(np.abs(f.dilatation(pts)), initial=0.0))
    except CriticalPointError as exc:
        raise HypothesisError(f"dilatation undefined on the region: {exc}") from exc


def quantitative_bounds(
    f: HarmonicMap, E: Region, tol: float = DEFAULT_TOL
) -> tuple[VerificationReport, VerificationReport]:
    """Sandwich (1-k^2) * int |h'|^2 <= m(f(E)) <= int |h'|^2.

    k is sup_dilatation(f, E); k >= 1 is a hypothesis error.
    """
    k = sup_dilatation(f, E)
    area = image_area(f, E, tol, check_sense=False)
    return _sandwich_rows(area, analytic_energy(f, E, tol), k, tol)


def _sandwich_rows(area: QuadResult, energy: QuadResult, k: float, tol: float):
    """quantitative_bounds' rows from the two integrals and k."""
    if k >= 1.0:
        raise HypothesisError(f"sampled dilatation bound k = {k:.6g} is not < 1")
    tolerance = default_tolerance(tol, area.error_estimate, energy.error_estimate)
    detail = (
        f"k={k:.17g} area_err={area.error_estimate:.3e} "
        f"energy_err={energy.error_estimate:.3e}"
    )
    evals = area.evals + energy.evals
    lower = VerificationReport(
        "quantitative-lower", (1.0 - k * k) * energy.value, area.value, tolerance, detail,
        evals=evals,
    )
    upper = VerificationReport(
        "quantitative-upper", area.value, energy.value, tolerance, detail, evals=evals
    )
    return lower, upper


def _hypothesis_detail(validity: ValidityReport) -> str:
    """Detail text naming the self-map and sense-preserving checks."""
    return (
        f"self_map_sup={validity.self_map_sup:.17g} "
        f"sense_preserving={validity.sense_preserving}"
    )


def disk_contraction_report(
    f: HarmonicMap, r: float, tol: float = DEFAULT_TOL
) -> tuple[VerificationReport, VerificationReport, VerificationReport]:
    """Rows areasp, chain-energy and chain-disk for the disk D_r.

    areasp is m(f(D_r)) <= pi r^2; the chain is m(f(D_r)) <= int_{D_r}
    |h'|^2 <= pi r^2, one row per link.  The rows that bound by pi r^2 need
    f to be a self-map of the disk and are checked=False when it is not.
    """
    if not 0.0 < r < 1.0:
        raise HypothesisError("radius must lie in (0, 1)")
    return _disk_rows(f, r, tol, validate(f))[0]


def _disk_rows(f: HarmonicMap, r: float, tol: float, validity: ValidityReport):
    """disk_contraction_report's rows, and the (area, energy) they compare."""
    disk = Disk(r)
    area = image_area(f, disk, tol, check_sense=False)
    energy = analytic_energy(f, disk, tol)
    reference = math.pi * r * r
    tolerance = default_tolerance(tol, area.error_estimate, energy.error_estimate)
    detail = _hypothesis_detail(validity)
    rows = [
        ("areasp", area.value, reference, validity.self_map, area.evals),
        ("chain-energy", area.value, energy.value, True, area.evals + energy.evals),
        ("chain-disk", energy.value, reference, validity.self_map, energy.evals),
    ]
    reports = tuple(
        VerificationReport(f"{name} r={r:.3g}", lhs, rhs, tolerance, detail, checked, evals)
        for name, lhs, rhs, checked, evals in rows
    )
    return reports, (area, energy)


RADIAL_DIRECTIONS = 64
# g(u) = sum_{k>=1} (-1)^(k+1) 2k u^(2k-2)/(2k + 1): Horner coefficients in u^2, k = 30 down.
_G_SERIES = [(-1) ** (k + 1) * 2 * k / (2 * k + 1) for k in range(30, 0, -1)]


def _radial_sums(field, radii, theta: np.ndarray, q: int) -> list[list[float]]:
    """For each r in radii, one math.fsum per direction theta of the q-node
    Gauss-Legendre rule for int_0^r field(t e^{i theta}) t dt."""
    x, w = _gauss(q)
    r = np.asarray(radii, dtype=float)[:, None, None]
    t = r * (x + 1.0) / 2.0
    vals = np.asarray(field(t * np.exp(1j * theta)[:, None]), dtype=float)
    terms = (vals * ((r / 2.0) * w * t)).tolist()
    return [[math.fsum(row) for row in rows] for rows in terms]


def _automorphism_radial(a: complex, radii, theta) -> np.ndarray:
    """int_0^r t (1 - |a|^2)^2 / |1 - conj(a) t e^{i theta}|^4 dt, rows radii, columns theta:
    (1 - |a|^2)^2 r^2/(2 p^2) (rho cos(phi) g(u)/p + 1/(1 + u^2)), rho = r|a|, phi = theta - arg a,
    p = 1 - rho + 2 rho sin^2(phi/2), u = rho |sin phi|/p, g(u) = (arctan(u)/u - 1/(1 + u^2))/u^2,
    by its series below u = 1/2.  1 - |a|^2 and 1 - rho = (1 - rho^2)/(1 + rho) are rounded from
    exact rationals, so p stays accurate at the pole.  numpy does only +, -, *, /: no SIMD loop."""
    (nx, dx), (ny, dy) = a.real.as_integer_ratio(), a.imag.as_integer_ratio()
    num, den = (nx * dy) ** 2 + (ny * dx) ** 2, (dx * dy) ** 2  # |a|^2 = num/den exactly
    phi = [t - math.atan2(a.imag, a.real) for t in np.ravel(theta).tolist()]
    half, cos, sin = np.array([[math.sin(t / 2), math.cos(t), abs(math.sin(t))] for t in phi]).T
    ratios = [x.as_integer_ratio() for x in radii]  # int / int rounds once
    far = np.array([[(d * d * den - n * n * num) / (d * d * den)] for n, d in ratios])
    lead, r = ((den - num) / den) ** 2, np.asarray(radii, dtype=float)[:, None]
    rho = r * abs(a)
    p = far / (1.0 + rho) + 2.0 * rho * (half * half)
    u = rho * sin / p
    s2, big = np.minimum(u * u, 0.25), np.maximum(u, 0.5)
    atan = np.array([math.atan(x) for x in big.ravel().tolist()]).reshape(big.shape)
    direct = (atan / big - 1.0 / (1.0 + big * big)) / (big * big)
    g = np.where(u < 0.5, reduce(lambda s, c: s * s2 + c, _G_SERIES, 0.0), direct)
    return lead * (r * r) / (2.0 * p * p) * (rho * cos * g / p + 1.0 / (1.0 + u * u))


def _radial_column(f: HarmonicMap, radii) -> tuple[np.ndarray, list[list[float]], int]:
    """theta, int_0^r J_f(t e^{i theta}) t dt per direction for each r in radii,
    and evals per direction, in closed form: _automorphism_radial for an
    automorphism, else in one pass for all radii
    sum_{j,k} j k (a_j conj(a_k) - b_j conj(b_k)) r^{j+k}/(j+k) e^{i(j-k) theta}
    (Duren 2004, sec. 1) as one fsum per direction of the diagonal sums c_m,
    j - k = m: c_0 and 2 Re(c_m e^{i m theta}).  Past the float range:
    ConstructionError."""
    if not all(0.0 < r < 1.0 for r in radii):
        raise HypothesisError("radius must lie in (0, 1)")
    theta = 2.0 * np.pi * np.arange(RADIAL_DIRECTIONS) / RADIAL_DIRECTIONS
    if isinstance(f, DiskAutomorphism):
        return theta, _automorphism_radial(f.a, radii, theta).tolist(), 1
    coefficients, (d,) = coefficient_rows([f])
    n = np.arange(1, d + 1)
    # r^n by cumprod, one rounded multiply per power at every SIMD level.
    powers = np.asarray(radii, dtype=float)[:, None].repeat(d, axis=1).cumprod(axis=1)
    a, b = coefficients[0, :, None, 1:] * (n * powers)
    with np.errstate(over="ignore", invalid="ignore"):
        c = a[:, :, None] * a[:, None].conj() - b[:, :, None] * b[:, None].conj()
        c /= np.add.outer(n, n)
        # sums[:, m] = c_m; c_0, the trace, is 0 for a constant map (d = 0).
        sums = np.stack([c.diagonal(-m, 1, 2).sum(axis=1) for m in range(max(d, 1))], axis=1)
        waves = 2.0 * (np.exp(1j * np.outer(theta, n[:-1])) * sums[:, None, 1:]).real
    try:  # inf - inf in fsum, or its intermediate overflow
        c0 = sums[:, 0].real.tolist()
        lhs = [[math.fsum([s, *row]) for row in rows] for s, rows in zip(c0, waves.tolist())]
        if all(math.isfinite(v) for column in lhs for v in column):
            return theta, lhs, max(1, int(d))
    except (OverflowError, ValueError):
        pass
    raise ConstructionError("the map's radial integral overflows the float range")


def radial_bound_profile(f: HarmonicMap, r: float) -> list[VerificationReport]:
    """Per-direction check of int_0^r J_f(t e^{i theta}) t dt <= r^2/2, one
    row for each of RADIAL_DIRECTIONS equally spaced directions."""
    theta, (lhs,), evals = _radial_column(f, [r])
    rhs = r * r / 2.0
    return [
        VerificationReport(f"radial-{j:03d}", v, rhs, 1e-9, f"theta={t:.17g}", evals=evals)
        for j, (t, v) in enumerate(zip(theta, lhs))
    ]


def star_contraction_report(
    f: HarmonicMap, E: Region, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """m(f(E)) <= m(E) for a star-shaped (or disk) region.

    The theorem hypothesis f(0) = 0 is checked to 1e-10; a violation
    downgrades the report to checked=False with a warning in the detail.
    """
    if isinstance(E, PixelGrid):
        raise HypothesisError("star contraction needs a Disk or StarShaped region")
    return _star_rows(f, [E], tol)[0]


def _star_rows(f: HarmonicMap, regions, tol: float) -> list[VerificationReport]:
    """star_contraction_report for each region, from one _area_integral."""
    origin_image = abs(complex(f.evaluate(0j)))
    hypothesis_ok = origin_image <= ORIGIN_SLACK
    unmet = "" if hypothesis_ok else " hypothesis-unmet: f(0) != 0"
    rows = []
    for E, area in zip(regions, _area_integral(f, regions, tol, energy=False)):
        detail = f"area_err={area.error_estimate:.3e} f(0)={origin_image:.3e}{unmet}"
        tolerance = default_tolerance(tol, area.error_estimate)
        report = (area.value, region_measure(E), tolerance, detail, hypothesis_ok, area.evals)
        rows.append(VerificationReport("star-contraction", *report))
    return rows


def _sample_points(E: Region, grid: int) -> np.ndarray:
    """Cartesian grid over the region's bounding square, filtered to E."""
    if isinstance(E, PixelGrid):
        return E.cell_centers()
    b = bounding_radius(E)
    axis = np.linspace(-b, b, grid)
    xx, yy = np.meshgrid(axis, axis)
    z = (xx + 1j * yy).ravel()
    return z[contains_points(E, z)]


def local_contraction_constant(f: HarmonicMap, E: Region, grid: int = 129) -> float:
    """sup of J_f over E, sampled on a grid and once-refined.

    E must sit compactly inside the unit disk (bounding radius <= 1 - 1e-6).
    """
    if bounding_radius(E) > 1.0 - 1e-6:
        raise HypothesisError("region must lie compactly inside the unit disk")
    coarse_pts = _sample_points(E, grid)
    if coarse_pts.size == 0:
        raise HypothesisError("no sample point lies in the region")
    if isinstance(E, PixelGrid):
        quarter = (0.5 / E.n) * np.array([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j])
        fine_pts = (coarse_pts[None, :] + quarter[:, None]).ravel()  # quarter cells
        fine_pts = fine_pts[np.abs(fine_pts) < 1.0]
    else:
        fine_pts = _sample_points(E, 2 * grid - 1)
    coarse = float(np.max(f.jacobian(coarse_pts)))
    fine = float(np.max(f.jacobian(fine_pts))) if fine_pts.size else coarse
    log.debug(
        "local contraction constant: coarse=%.17g fine=%.17g agreement=%.3e",
        coarse,
        fine,
        abs(fine - coarse),
    )
    return max(coarse, fine)


def _sorted_jacobian_cells(
    f: HarmonicMap, domain: Region, grid: int
) -> tuple[np.ndarray, float, float]:
    """Decreasing Jacobian samples, per-cell measure, total measure.

    Cell measure is normalized so the grid model carries exactly the true
    region measure; constant Jacobians then integrate exactly.
    """
    pts = _sample_points(domain, grid)
    if pts.size == 0:
        raise HypothesisError("domain grid is empty; increase the grid size")
    total = region_measure(domain)
    vals = np.sort(np.asarray(f.jacobian(pts), dtype=float))[::-1]
    return vals, total / pts.size, total


def worst_case_image_area(f: HarmonicMap, domain: Region, s, grid: int = 256):
    """Largest possible m(f(E)) over measurable E in the domain with m(E) = s.

    Layer-cake upper envelope in the grid model: fill cells in decreasing
    Jacobian order until the preimage measure reaches s.  s may also be a
    sequence of budgets: the Jacobian is then sampled and sorted once and a
    list of the envelope values is returned, each the value for its budget
    alone.
    """
    vals, w, total = _sorted_jacobian_cells(f, domain, grid)
    budgets = np.asarray(s, dtype=float).ravel().tolist()
    if not all(0.0 < b <= total * (1.0 + 1e-12) for b in budgets):
        raise HypothesisError("s must lie in (0, m(domain)]")
    terms = (vals * w).tolist()
    out = []
    for b in budgets:
        b = min(b, total)
        full = min(int(b / w), vals.size)
        acc = math.fsum(terms[:full])
        if full < vals.size:
            acc += vals[full] * (b - full * w)
        out.append(acc)
    return out if np.ndim(s) else out[0]


def small_set_threshold(f: HarmonicMap, domain: Region, grid: int = 256) -> float:
    """Largest s with worst_case_image_area(f, domain, s') <= s' for s' <= s.

    The envelope is concave, zero at 0, with initial slope the largest
    sampled Jacobian.  So it stays below the diagonal on all of (0, m(domain)]
    when that Jacobian is <= 1, and on no (0, s] otherwise: the threshold is
    m(domain) or 0.0.
    """
    vals, _, total = _sorted_jacobian_cells(f, domain, grid)
    return total if vals[0] <= 1.0 else 0.0


def sp_ratio(f: HarmonicMap, z: complex) -> float:
    """J_f(z) (1-|z|^2)^2 / (1-|f(z)|^2)^2; +inf when |f(z)| reaches 1."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("sp_ratio needs |z| < 1")
    a = abs(complex(f.evaluate(z)))
    if a >= 1.0:  # before the square, which overflows past 1.34e154
        return math.inf
    denom = 1.0 - a ** 2
    if denom < 1e-12:
        return math.inf
    num = (1.0 - abs(z) ** 2) ** 2
    with np.errstate(over="ignore"):  # an infinite J is an infinite ratio
        jacobian = float(f.jacobian(z))
    return jacobian * num / (denom * denom)


@dataclass(frozen=True)
class ReferenceIntegral:
    """Quadrature value next to the closed form and the claimed value."""

    quadrature: float
    closed_form: float
    claimed_value: float
    error_estimate: float
    evals: int


def _radial_reference(field, r, tol: float, forms):
    """ReferenceIntegral of q = 2 pi int_0^r field(t) t dt, a radial field's
    integral over D_r, and forms(r) = (closed form, claimed value): the Gauss
    rule in t along theta = 0, nodes doubling from DEFAULT_Q0 to Q_CAP
    (_refine), each level once for all radii of a sequence r not yet converged."""
    radii = np.asarray(r, dtype=float).ravel().tolist()
    if not all(0.0 < x < 1.0 for x in radii):
        raise HypothesisError("radius must lie in (0, 1)")
    check_tol(tol)

    def level(q: int, live: list[int]) -> tuple[list[float], int]:
        sums = _radial_sums(field, [radii[i] for i in live], np.zeros(1), q)
        return [2.0 * math.pi * column[0] for column in sums], q

    levels = [DEFAULT_Q0 << k for k in range((Q_CAP // DEFAULT_Q0).bit_length())]
    results = _refine(level, levels, tol, f"q={Q_CAP}", len(radii))
    out = [
        ReferenceIntegral(q.value, *forms(x), q.error_estimate, q.evals)
        for x, q in zip(radii, results)
    ]
    return out if np.ndim(r) else out[0]


def hyperbolic_disk_integral(r, tol: float = DEFAULT_TOL):
    """Integral of (1-|z|^2)^-2 over Disk{r}: quadrature vs pi r^2/(1-r^2).

    The claimed value pi r^2 is reported alongside; the two agree only to
    first order in r.  r may also be a sequence of radii: a list of the
    ReferenceIntegrals is then returned, each the one for its radius alone.
    """
    def forms(r: float) -> tuple[float, float]:
        return math.pi * r * r / (1.0 - r * r), math.pi * r * r

    return _radial_reference(lambda z: 1.0 / (1.0 - np.abs(z) ** 2) ** 2, r, tol, forms)


def shear_disk_integral(r, alpha: float = 0.3, power: int = 2, tol: float = DEFAULT_TOL):
    """Image area of the shear z + alpha conj(z)^power over Disk{r}.

    Closed form pi r^2 - pi p alpha^2 r^{2p}; the claimed value replaces
    the factor p by 1.  The quadrature comes from _radial_reference on the
    shear's Jacobian, never from image_area's closed form, so the reference
    rows keep comparing quadrature against the closed form.  r may also be
    a sequence of radii, as in hyperbolic_disk_integral.
    """
    a2 = alpha * alpha

    def forms(r: float) -> tuple[float, float]:
        return (
            math.pi * r * r - math.pi * power * a2 * r ** (2 * power),
            math.pi * r * r - math.pi * a2 * r ** (2 * power),
        )

    return _radial_reference(shear(alpha, power).jacobian, r, tol, forms)


def rigidity_margin(f: HarmonicMap, r: float, tol: float = DEFAULT_TOL) -> float:
    """pi r^2 - m(f(D_r)): zero only for the area-preserving equality case."""
    if not 0.0 < r < 1.0:
        raise HypothesisError("radius must lie in (0, 1)")
    area = image_area(f, Disk(r), tol, check_sense=False)
    return math.pi * r * r - area.value


def _reference_rows(
    tag: str, r: float, ref: ReferenceIntegral, tol: float
) -> list[VerificationReport]:
    tolerance = default_tolerance(tol, ref.error_estimate)
    detail = (
        f"closed_form={ref.closed_form:.17g} claimed_value={ref.claimed_value:.17g} "
        f"err={ref.error_estimate:.3e}"
    )
    rows = [
        ("le", ref.quadrature, ref.closed_form, True, detail),
        ("ge", ref.closed_form, ref.quadrature, True, detail),
        ("claimed", ref.quadrature, ref.claimed_value, False, detail + " informational"),
    ]
    return [
        VerificationReport(
            f"{tag}-{suffix} r={r:.1f}", lhs, rhs, tolerance, text, checked, ref.evals
        )
        for suffix, lhs, rhs, checked, text in rows
    ]


def verification_suite(
    f: HarmonicMap, tol: float = DEFAULT_TOL
) -> list[VerificationReport]:
    """Full inequality suite for one map, one report row per check per r.

    Rows whose theorem hypotheses the map does not satisfy (self-map of the
    disk, f(0) = 0) are emitted with checked=False, as are the rows quoting
    claimed reference values.  Each layer runs once for all nine radii, in
    this order, so a failing map raises the first failing layer's error:
    validate, the reference integrals, the disk rows, k from one dilatation
    pass with the sandwich rows (validate has certified that h' has no zero
    on the closed disk, so |g'/h'| peaks on each circle), the radial column
    and the star rows.  The rows are then assembled radius by radius.
    """
    validity = validate(f)
    hyp = _hypothesis_detail(validity)
    hyperbolic = hyperbolic_disk_integral(VERIFY_RADII, tol)
    shears = shear_disk_integral(VERIFY_RADII, 0.3, 2, tol)
    disks = [_disk_rows(f, r, tol, validity) for r in VERIFY_RADII]
    circles = np.multiply.outer(VERIFY_RADII, np.exp(1j * _DILATATION_THETA))
    ks = np.max(np.abs(f.dilatation(circles)), axis=1).tolist()
    sandwiches = [_sandwich_rows(*quantities, k, tol) for (_, quantities), k in zip(disks, ks)]
    theta, columns, evals = _radial_column(f, VERIFY_RADII)
    stars = _star_rows(f, [StarShaped((r * _VERIFY_STAR).tolist()) for r in VERIFY_RADII], tol)
    rows: list[VerificationReport] = []
    layers = zip(VERIFY_RADII, disks, columns, stars, sandwiches, hyperbolic, shears)
    for r, (disk_rows, _), lhs, star, (lower, upper), hyperbolic_r, shear_r in layers:
        rows.extend(disk_rows)
        rhs = r * r / 2.0
        j = min(range(RADIAL_DIRECTIONS), key=lambda j: rhs - lhs[j])
        detail = f"{hyp} worst theta={theta[j]:.17g}"
        worst = (lhs[j], rhs, 1e-9, detail, validity.self_map, evals * RADIAL_DIRECTIONS)
        rows.append(VerificationReport(f"radial-worst r={r:.1f}", *worst))
        name, detail = f"star-contraction r={r:.1f}", f"{star.detail} {hyp}"
        checked = star.checked and validity.self_map
        rows.append(replace(star, name=name, checked=checked, detail=detail))
        rows.append(replace(lower, name=f"sandwich-lower r={r:.1f}"))
        rows.append(replace(upper, name=f"sandwich-upper r={r:.1f}"))
        rows.extend(_reference_rows("hyperbolic", r, hyperbolic_r, tol))
        rows.extend(_reference_rows("shear", r, shear_r, tol))
    return rows

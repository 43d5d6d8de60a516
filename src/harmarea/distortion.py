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

import numpy as np

from .errors import CriticalPointError, DomainError, HypothesisError
from .maps import DiskAutomorphism, HarmonicMap, ValidityReport, shear, validate
from .quadrature import (
    DEFAULT_TOL,
    QuadResult,
    _gauss,
    check_tol,
    integrate_boundary,
    integrate_grid,
    integrate_polar,
    quarter_cells,
)
from .regions import (
    Disk,
    PixelGrid,
    Region,
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

# Polar sample grid of sup_dilatation: directions by radii per direction.
DILATATION_ANGULAR = 256
DILATATION_RADIAL = 64


@dataclass(frozen=True)
class VerificationReport:
    """One inequality check: pass means margin = rhs - lhs >= -tolerance."""

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    tolerance: float
    detail: str = ""
    checked: bool = True
    evals: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            raise ValueError("report sides must be finite")
        if self.passed != (self.margin >= -self.tolerance):
            raise ValueError("pass flag inconsistent with margin and tolerance")


def report(
    name: str,
    lhs: float,
    rhs: float,
    tolerance: float,
    detail: str = "",
    checked: bool = True,
    evals: int = 0,
) -> VerificationReport:
    margin = rhs - lhs
    return VerificationReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=margin,
        passed=margin >= -tolerance,
        tolerance=float(tolerance),
        detail=detail,
        checked=checked,
        evals=evals,
    )


def default_tolerance(tol: float, *error_estimates: float) -> float:
    """10x the summed quadrature error, floored at the requested tol."""
    return max(tol, 1e-9, 10.0 * math.fsum(error_estimates))


def _area_integral(
    f: HarmonicMap, E: Region, tol: float, *, energy: bool
) -> QuadResult:
    """Integral of J_f (or |h'|^2 if energy) over a Disk or StarShaped E.

    Closed forms, exact up to rounding (error_estimate 0.0):
    - a disk under a polynomial map: for h = sum a_n z^n, g = sum b_n z^n
      the area formula gives int_{D_r} J_f = pi sum n (|a_n|^2 - |b_n|^2)
      r^{2n} (Duren, Harmonic Mappings in the Plane, 2004, sec. 1); the
      energy drops the b_n terms.  The value is m(D_r) * S with S = fsum
      of n (|a_n|^2 - |b_n|^2) r^{2(n-1)}, so a map with J_f = 1
      reproduces pi r^2 bit for bit.
    - a disk under an automorphism: its image is a disk, and the value is
      m(D_r) * S with S = ((1 - |a|^2) / (1 - |a|^2 r^2))^2, so S = 1 for
      a rotation.  An automorphism's energy density is its Jacobian.
    - a star under a rotation: J_f = 1, so the value is m(E).
    Other stars take the boundary integral of the canonical decomposition,
    int_E J_f = (1/2i) oint (conj(h) dh - conj(g) dg), with g = 0 for an
    automorphism.
    """
    check_tol(tol)
    if isinstance(f, DiskAutomorphism):
        if isinstance(E, Disk):
            a2 = abs(f.a) ** 2
            s = (1.0 - a2) / (1.0 - a2 * E.r * E.r)
            return QuadResult(region_measure(E) * (s * s), 0.0, 1)
        if f.a == 0:
            return QuadResult(region_measure(E), 0.0, 1)
        parts = [(1.0, f.evaluate, f.analytic_derivative)]
        return integrate_boundary(parts, E, tol, pole=1.0 / f.a.conjugate())
    series = [(1.0, f.h)] if energy else [(1.0, f.h), (-1.0, f.g)]
    degree = max(part.degree for _, part in series)
    if isinstance(E, Disk):
        r = E.r
        terms = [
            sign * n * abs(c) ** 2 * r ** (2 * n - 2)
            for sign, part in series
            for n, c in enumerate(part.coefficients[1:], 1)
        ]
        return QuadResult(region_measure(E) * math.fsum(terms), 0.0, max(1, degree))
    parts = [
        (sign, part._evaluate_unchecked, part.derivative()._evaluate_unchecked)
        for sign, part in series
    ]
    return integrate_boundary(parts, E, tol, min_nodes=4 * (degree + 1))


def image_area(
    f: HarmonicMap,
    E: Region,
    tol: float = DEFAULT_TOL,
    *,
    check_sense: bool = True,
) -> QuadResult:
    """m(f(E)) via the area formula: integral of the Jacobian over E.

    Disks under any map, and stars under rotations, use a closed form that
    is exact up to rounding (error_estimate 0.0).  Other stars use the
    boundary integral of quadrature.integrate_boundary, pixel grids the
    midpoint rule; see _area_integral.  Polar quadrature is never used.
    """
    if check_sense:
        rep = validate(f)
        if not rep.sense_preserving:
            log.warning(
                "map is not sense-preserving on the sampled grid "
                "(sup |dilatation| = %.6g); area formula may not equal m(f(E))",
                rep.sup_abs_dilatation,
            )
    if isinstance(E, PixelGrid):
        return integrate_grid(f.jacobian, E)
    return _area_integral(f, E, tol, energy=False)


def analytic_energy(f: HarmonicMap, E: Region, tol: float = DEFAULT_TOL) -> QuadResult:
    """Integral of |h'|^2 over E (the analytic part's area integral).

    Closed form on disks under any map and on stars under rotations, the
    boundary integral of h alone on other stars, and the midpoint rule on
    pixel grids, as in image_area.
    """
    if isinstance(E, PixelGrid):
        return integrate_grid(f.analytic_energy_density, E)
    return _area_integral(f, E, tol, energy=True)


def sup_dilatation(f: HarmonicMap, E: Region) -> float:
    """Sampled sup of |dilatation| over E (boundary samples included)."""
    if isinstance(E, PixelGrid):
        pts = E.cell_centers()
        if pts.size == 0:
            return 0.0
    else:
        theta = 2.0 * np.pi * np.arange(DILATATION_ANGULAR) / DILATATION_ANGULAR
        if isinstance(E, Disk):
            rim = np.full(DILATATION_ANGULAR, E.r)
        else:
            rim = np.asarray(radial_profile(E, theta))
        fractions = (np.arange(DILATATION_RADIAL) + 1.0) / DILATATION_RADIAL
        pts = (rim * np.exp(1j * theta))[None, :] * fractions[:, None]
    try:
        return float(np.max(np.abs(f.dilatation(pts))))
    except CriticalPointError as exc:
        raise HypothesisError(f"dilatation undefined on the region: {exc}") from exc


def quantitative_bounds(
    f: HarmonicMap, E: Region, tol: float = DEFAULT_TOL
) -> tuple[VerificationReport, VerificationReport]:
    """Sandwich (1-k^2) * int |h'|^2 <= m(f(E)) <= int |h'|^2.

    k is the sampled sup of |dilatation| on E; k >= 1 is a hypothesis error.
    """
    k = sup_dilatation(f, E)
    if k >= 1.0:
        raise HypothesisError(f"sampled dilatation bound k = {k:.6g} is not < 1")
    area = image_area(f, E, tol, check_sense=False)
    energy = analytic_energy(f, E, tol)
    tolerance = default_tolerance(tol, area.error_estimate, energy.error_estimate)
    detail = (
        f"k={k:.17g} area_err={area.error_estimate:.3e} "
        f"energy_err={energy.error_estimate:.3e}"
    )
    evals = area.evals + energy.evals
    lower = report(
        "quantitative-lower",
        (1.0 - k * k) * energy.value,
        area.value,
        tolerance,
        detail,
        evals=evals,
    )
    upper = report(
        "quantitative-upper", area.value, energy.value, tolerance, detail, evals=evals
    )
    return lower, upper


def _hypothesis_detail(validity: ValidityReport) -> str:
    """Detail text naming the sampled self-map and sense-preserving checks."""
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
    disk = Disk(r)
    area = image_area(f, disk, tol, check_sense=False)
    energy = analytic_energy(f, disk, tol)
    reference = math.pi * r * r
    validity = validate(f)
    tolerance = default_tolerance(tol, area.error_estimate, energy.error_estimate)
    detail = _hypothesis_detail(validity)
    rows = [
        ("areasp", area.value, reference, validity.self_map, area.evals),
        ("chain-energy", area.value, energy.value, True, area.evals + energy.evals),
        ("chain-disk", energy.value, reference, validity.self_map, energy.evals),
    ]
    return tuple(
        report(f"{name} r={r:.3g}", lhs, rhs, tolerance, detail, checked, evals)
        for name, lhs, rhs, checked, evals in rows
    )


_RADIAL_Q = 128


def radial_bound_profile(
    f: HarmonicMap, r: float, M: int = 64
) -> list[VerificationReport]:
    """Per-direction check of int_0^r J_f(t e^{i theta}) t dt <= r^2/2."""
    if not 0.0 < r < 1.0:
        raise HypothesisError("radius must lie in (0, 1)")
    if M < 16:
        raise HypothesisError("need at least 16 directions")
    theta = 2.0 * np.pi * np.arange(M) / M
    x, w = _gauss(_RADIAL_Q)
    t = r * (x + 1.0) / 2.0
    z = t[None, :] * np.exp(1j * theta)[:, None]
    vals = np.asarray(f.jacobian(z), dtype=float)
    weights = (r / 2.0) * w * t
    rhs = r * r / 2.0
    out = []
    for j in range(M):
        lhs = math.fsum((vals[j] * weights).tolist())
        out.append(
            report(
                f"radial-{j:03d}",
                lhs,
                rhs,
                1e-9,
                f"theta={theta[j]:.17g}",
                evals=_RADIAL_Q,
            )
        )
    return out


def star_contraction_report(
    f: HarmonicMap, E: Region, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """m(f(E)) <= m(E) for a star-shaped (or disk) region.

    The theorem hypothesis f(0) = 0 is checked to 1e-10; a violation
    downgrades the report to checked=False with a warning in the detail.
    """
    if isinstance(E, PixelGrid):
        raise HypothesisError("star contraction needs a Disk or StarShaped region")
    origin_image = abs(complex(f.evaluate(0j)))
    hypothesis_ok = origin_image <= ORIGIN_SLACK
    area = image_area(f, E, tol, check_sense=False)
    measure = region_measure(E)
    tolerance = default_tolerance(tol, area.error_estimate)
    detail = f"area_err={area.error_estimate:.3e} f(0)={origin_image:.3e}"
    if not hypothesis_ok:
        detail += " hypothesis-unmet: f(0) != 0"
    return report(
        "star-contraction",
        area.value,
        measure,
        tolerance,
        detail,
        checked=hypothesis_ok,
        evals=area.evals,
    )


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
    if isinstance(E, PixelGrid):
        coarse_pts = E.cell_centers()
        fine_pts = quarter_cells(coarse_pts, E.n).ravel()
        fine_pts = fine_pts[np.abs(fine_pts) < 1.0]
    else:
        coarse_pts = _sample_points(E, grid)
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


def worst_case_image_area(
    f: HarmonicMap, domain: Region, s: float, grid: int = 256
) -> float:
    """Largest possible m(f(E)) over measurable E in the domain with m(E) = s.

    Layer-cake upper envelope in the grid model: fill cells in decreasing
    Jacobian order until the preimage measure reaches s.
    """
    vals, w, total = _sorted_jacobian_cells(f, domain, grid)
    if not 0.0 < s <= total * (1.0 + 1e-12):
        raise HypothesisError("s must lie in (0, m(domain)]")
    s = min(s, total)
    full = min(int(s / w), vals.size)
    acc = math.fsum((vals[:full] * w).tolist())
    if full < vals.size:
        acc += vals[full] * (s - full * w)
    return acc


def small_set_threshold(f: HarmonicMap, domain: Region, grid: int = 256) -> float:
    """Largest s with worst_case_image_area(f, domain, s') <= s' for s' <= s.

    Returns the full domain measure when the grid model contracts globally;
    otherwise bisects to 1e-6.  The predicate is evaluated exactly at the
    layer-cake breakpoints (the envelope is piecewise linear between them).
    """
    vals, w, total = _sorted_jacobian_cells(f, domain, grid)
    prefix = np.cumsum(vals * w)
    breakpoints = w * np.arange(1, vals.size + 1)

    def holds_up_to(s: float) -> bool:
        k = min(int(s / w), vals.size)
        if k and np.any(prefix[:k] > breakpoints[:k]):
            return False
        tail = worst_case_image_area(f, domain, s, grid) if s > 0 else 0.0
        return tail <= s

    if holds_up_to(total):
        return total
    lo, hi = 0.0, total
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2.0
        if holds_up_to(mid):
            lo = mid
        else:
            hi = mid
    return lo


def sp_ratio(f: HarmonicMap, z: complex) -> float:
    """J_f(z) (1-|z|^2)^2 / (1-|f(z)|^2)^2; +inf when |f(z)| reaches 1."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("sp_ratio needs |z| < 1")
    fz = complex(f.evaluate(z))
    denom = 1.0 - abs(fz) ** 2
    if denom < 1e-12:
        return math.inf
    num = (1.0 - abs(z) ** 2) ** 2
    return float(f.jacobian(z)) * num / (denom * denom)


@dataclass(frozen=True)
class ReferenceIntegral:
    """Quadrature value next to the closed form and the claimed value."""

    quadrature: float
    closed_form: float
    claimed_value: float
    error_estimate: float
    evals: int


def hyperbolic_disk_integral(r: float, tol: float = DEFAULT_TOL) -> ReferenceIntegral:
    """Integral of (1-|z|^2)^-2 over Disk{r}: quadrature vs pi r^2/(1-r^2).

    The claimed value pi r^2 is reported alongside; the two agree only to
    first order in r.
    """
    if not 0.0 < r < 1.0:
        raise HypothesisError("radius must lie in (0, 1)")

    def field(z):
        u = 1.0 - np.abs(z) ** 2
        return 1.0 / (u * u)

    q = integrate_polar(field, Disk(r), tol)
    return ReferenceIntegral(
        quadrature=q.value,
        closed_form=math.pi * r * r / (1.0 - r * r),
        claimed_value=math.pi * r * r,
        error_estimate=q.error_estimate,
        evals=q.evals,
    )


def shear_disk_integral(
    r: float, alpha: float = 0.3, power: int = 2, tol: float = DEFAULT_TOL
) -> ReferenceIntegral:
    """Image area of the shear z + alpha conj(z)^power over Disk{r}.

    Closed form pi r^2 - pi p alpha^2 r^{2p}; the claimed value replaces
    the factor p by 1.  The quadrature field always comes from
    integrate_polar, never from image_area's closed form, so the reference
    rows keep comparing quadrature against the closed form.
    """
    if not 0.0 < r < 1.0:
        raise HypothesisError("radius must lie in (0, 1)")
    f = shear(alpha, power)
    q = integrate_polar(f.jacobian, Disk(r), tol)
    a2 = alpha * alpha
    return ReferenceIntegral(
        quadrature=q.value,
        closed_form=math.pi * r * r - math.pi * power * a2 * r ** (2 * power),
        claimed_value=math.pi * r * r - math.pi * a2 * r ** (2 * power),
        error_estimate=q.error_estimate,
        evals=q.evals,
    )


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
    return [
        report(
            f"{tag}-le r={r:.1f}",
            ref.quadrature,
            ref.closed_form,
            tolerance,
            detail,
            evals=ref.evals,
        ),
        report(
            f"{tag}-ge r={r:.1f}",
            ref.closed_form,
            ref.quadrature,
            tolerance,
            detail,
            evals=ref.evals,
        ),
        report(
            f"{tag}-claimed r={r:.1f}",
            ref.quadrature,
            ref.claimed_value,
            tolerance,
            detail + " informational",
            checked=False,
            evals=ref.evals,
        ),
    ]


def verification_suite(
    f: HarmonicMap, tol: float = DEFAULT_TOL
) -> list[VerificationReport]:
    """Full inequality suite for one map, one report row per check per r.

    Rows whose theorem hypotheses the map does not satisfy (self-map of the
    disk, f(0) = 0) are emitted with checked=False, as are the rows quoting
    claimed reference values.
    """
    validity = validate(f)
    hyp = _hypothesis_detail(validity)
    rows: list[VerificationReport] = []
    for r in VERIFY_RADII:
        rows.extend(disk_contraction_report(f, r, tol))
        radial = radial_bound_profile(f, r, 64)
        worst = min(radial, key=lambda rep: rep.margin)
        rows.append(
            report(
                f"radial-worst r={r:.1f}",
                worst.lhs,
                worst.rhs,
                worst.tolerance,
                f"{hyp} worst {worst.detail}",
                checked=validity.self_map,
                evals=sum(rep.evals for rep in radial),
            )
        )
        star_row = star_contraction_report(f, star_cos3(256, scale=r), tol)
        rows.append(
            replace(
                star_row,
                name=f"star-contraction r={r:.1f}",
                checked=star_row.checked and validity.self_map,
                detail=f"{star_row.detail} {hyp}",
            )
        )
        lower, upper = quantitative_bounds(f, Disk(r), tol)
        rows.append(replace(lower, name=f"sandwich-lower r={r:.1f}"))
        rows.append(replace(upper, name=f"sandwich-upper r={r:.1f}"))
        rows.extend(
            _reference_rows("hyperbolic", r, hyperbolic_disk_integral(r, tol), tol)
        )
        rows.extend(
            _reference_rows("shear", r, shear_disk_integral(r, 0.3, 2, tol), tol)
        )
    return rows

"""Planar harmonic mappings of the closed unit disk.

A harmonic map is represented either as a pair of truncated power series
(f = h + conj(g)) or as an exact disk automorphism (Mobius form, never
truncated).  All evaluation routines accept a Python complex or a numpy
array of complex values and are pure functions of immutable data.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .errors import (
    ConstructionError,
    CriticalPointError,
    DomainError,
    PoleError,
)

DEGREE_CAP = 64

# Slack for the closed-disk domain check: |z| <= 1 + DOMAIN_EPS.
DOMAIN_EPS = 1e-12
POLE_EPS = 1e-14
CRITICAL_EPS = 1e-12
SENSE_MARGIN = 1e-9
# Points of the self-map check and of the certificate's first circle.
CIRCLE_SAMPLES = 64
# Largest circle the sense-preservation certificate samples; past it validate
# decides from the samples, uncertified.
CIRCLE_CAP = 4096
# Slack for the self-map check: sup |f| on the unit circle <= 1 + SELF_MAP_SLACK.
SELF_MAP_SLACK = 1e-9


def _require_finite(values, what: str) -> None:
    for v in values:
        c = complex(v)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ConstructionError(f"{what} must have finite components")


def _check_disk(z) -> None:
    arr = np.asarray(z)
    # One pass: a nan or an inf fails it too.  Only a failure looks at why.
    if not np.all(np.abs(arr) <= 1.0 + DOMAIN_EPS):
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise DomainError("evaluation point must be finite")
        raise DomainError("evaluation point outside the closed unit disk")


@dataclass(frozen=True)
class AnalyticSeries:
    """Truncated power series sum(c_k z^k), degree at most DEGREE_CAP."""

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise ConstructionError("series needs at least one coefficient")
        if len(self.coefficients) - 1 > DEGREE_CAP:
            raise ConstructionError(
                f"series degree {len(self.coefficients) - 1} exceeds cap {DEGREE_CAP}"
            )
        _require_finite(self.coefficients, "series coefficients")
        object.__setattr__(
            self, "coefficients", tuple(complex(c) for c in self.coefficients)
        )

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, z):
        """Horner evaluation at z (complex scalar or array) with |z| <= 1."""
        _check_disk(z)
        return self._evaluate_unchecked(z)

    def _evaluate_unchecked(self, z):
        # Horner from the leading coefficient; every step is elementwise.
        *rest, lead = self.coefficients
        result = np.full(z.shape, lead) if isinstance(z, np.ndarray) else lead
        for c in reversed(rest):
            result = result * z + c
        return result

    def derivative(self) -> "AnalyticSeries":
        """Coefficient k of the output is (k+1)*c_{k+1}; constants map to [0]."""
        if self.degree == 0:
            return AnalyticSeries((0j,))
        return AnalyticSeries(
            tuple((k + 1) * c for k, c in enumerate(self.coefficients[1:]))
        )


@dataclass(frozen=True)
class PolynomialMap:
    """Harmonic map f(z) = h(z) + conj(g(z)) with polynomial h, g."""

    h: AnalyticSeries
    g: AnalyticSeries

    def evaluate(self, z):
        _check_disk(z)
        return self.h._evaluate_unchecked(z) + np.conjugate(
            self.g._evaluate_unchecked(z)
        )

    def jacobian(self, z):
        """|h'(z)|^2 - |g'(z)|^2."""
        _check_disk(z)
        hp = self.h.derivative()._evaluate_unchecked(z)
        gp = self.g.derivative()._evaluate_unchecked(z)
        return np.abs(hp) ** 2 - np.abs(gp) ** 2

    def dilatation(self, z):
        """g'(z)/h'(z); raises CriticalPointError where |h'| < 1e-12."""
        _check_disk(z)
        hp = self.h.derivative()._evaluate_unchecked(z)
        if np.any(np.abs(hp) < CRITICAL_EPS):
            bad = z if np.isscalar(z) or isinstance(z, complex) else np.asarray(z)[
                np.abs(hp) < CRITICAL_EPS
            ].flat[0]
            raise CriticalPointError(f"h' vanishes near z = {bad}")
        gp = self.g.derivative()._evaluate_unchecked(z)
        return gp / hp

    def analytic_energy_density(self, z):
        """|h'(z)|^2, the integrand of the analytic area term."""
        _check_disk(z)
        hp = self.h.derivative()._evaluate_unchecked(z)
        return np.abs(hp) ** 2


@dataclass(frozen=True)
class DiskAutomorphism:
    """Exact Mobius self-map e^{i rotation} (z - a) / (1 - conj(a) z), |a| < 1."""

    a: complex
    rotation: float

    def __post_init__(self):
        _require_finite([self.a, self.rotation], "automorphism parameters")
        if abs(self.a) >= 1.0:
            raise ConstructionError("automorphism requires |a| < 1")
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "rotation", float(self.rotation))

    def _denominator(self, z):
        denom = 1.0 - np.conjugate(self.a) * z
        if np.any(np.abs(denom) < POLE_EPS):
            raise PoleError("evaluation point too close to the Mobius pole")
        return denom

    def evaluate(self, z):
        _check_disk(z)
        phase = cmath.exp(1j * self.rotation)
        if self.a == 0:
            return phase * z
        # A named numerator keeps numpy from eliding the temporary into an
        # in-place product on long arrays, whose last bit can differ under
        # FMA: the result must not depend on the array's length.
        num = z - self.a
        return phase * num / self._denominator(z)

    def jacobian(self, z):
        """(1 - |a|^2)^2 / |1 - conj(a) z|^4, exact."""
        _check_disk(z)
        if self.a == 0:
            return np.ones(z.shape) if isinstance(z, np.ndarray) else 1.0
        denom = self._denominator(z)
        return (1.0 - abs(self.a) ** 2) ** 2 / np.abs(denom) ** 4

    def analytic_derivative(self, z):
        """h'(z) = e^{i rotation} (1 - |a|^2) / (1 - conj(a) z)^2; here g = 0."""
        _check_disk(z)
        denom = self._denominator(z)
        return cmath.exp(1j * self.rotation) * (1.0 - abs(self.a) ** 2) / denom**2

    def dilatation(self, z):
        """Conformal maps have identically zero dilatation."""
        _check_disk(z)
        if isinstance(z, np.ndarray):
            return np.zeros_like(z, dtype=complex)
        return 0j

    def analytic_energy_density(self, z):
        return self.jacobian(z)


HarmonicMap = Union[PolynomialMap, DiskAutomorphism]


def affine(alpha: complex) -> PolynomialMap:
    """Affine map z + alpha * conj(z), stored as h = z, g = conj(alpha) z.

    Rejects |alpha| >= 1 (the sense-preserving range).
    """
    alpha = complex(alpha)
    _require_finite([alpha], "alpha")
    if abs(alpha) >= 1.0:
        raise ConstructionError("affine map requires |alpha| < 1")
    return PolynomialMap(
        h=AnalyticSeries((0j, 1 + 0j)),
        g=AnalyticSeries((0j, alpha.conjugate())),
    )


def shear(alpha: complex, power: int = 2) -> PolynomialMap:
    """Harmonic shear h = z, g = alpha z^power, power >= 2.

    Rejects power*|alpha| >= 1 so that sup |dilatation| < 1 on the closed disk.
    """
    alpha = complex(alpha)
    _require_finite([alpha], "alpha")
    power = int(power)
    if power < 2:
        raise ConstructionError("shear power must be >= 2")
    if power * abs(alpha) >= 1.0:
        raise ConstructionError("shear requires power * |alpha| < 1")
    g_coeffs = [0j] * power + [alpha]
    return PolynomialMap(
        h=AnalyticSeries((0j, 1 + 0j)),
        g=AnalyticSeries(tuple(g_coeffs)),
    )


def automorphism(a: complex, rotation: float = 0.0) -> DiskAutomorphism:
    return DiskAutomorphism(a=complex(a), rotation=float(rotation))


def rotation_map(angle: float) -> DiskAutomorphism:
    return DiskAutomorphism(a=0j, rotation=float(angle))


def identity_map() -> DiskAutomorphism:
    return DiskAutomorphism(a=0j, rotation=0.0)


def raw_polynomial(h_coeffs, g_coeffs) -> PolynomialMap:
    """Polynomial map from raw coefficient lists (degree-cap checked)."""
    return PolynomialMap(
        h=AnalyticSeries(tuple(complex(c) for c in h_coeffs)),
        g=AnalyticSeries(tuple(complex(c) for c in g_coeffs)),
    )


def rescaled_affine(alpha: float) -> PolynomialMap:
    """Affine map rescaled by 1/(1+|alpha|) so it is a self-map of the disk."""
    alpha = complex(alpha)
    if abs(alpha) >= 1.0:
        raise ConstructionError("affine map requires |alpha| < 1")
    s = 1.0 / (1.0 + abs(alpha))
    return PolynomialMap(
        h=AnalyticSeries((0j, s + 0j)),
        g=AnalyticSeries((0j, alpha.conjugate() * s)),
    )


@dataclass(frozen=True)
class ValidityReport:
    """Sense-preservation and self-map diagnostics for a map.

    certified is true when sense_preserving was decided exactly (see
    validate); it is false only on a sense_preserving map.  self_map_sup,
    and so self_map, is always sampled.
    """

    sense_preserving: bool
    sup_abs_dilatation: float
    self_map_sup: float
    certified: bool

    @property
    def self_map(self) -> bool:
        return self.self_map_sup <= 1.0 + SELF_MAP_SLACK


@functools.lru_cache(maxsize=16)
def _circle(m: int) -> np.ndarray:
    """The m points exp(2 pi i j / m), read-only."""
    theta = 2.0 * np.pi * np.arange(m) / m
    circle = np.exp(1j * theta)
    circle.flags.writeable = False
    return circle


def _zero_free_closed_disk(coefficients) -> bool:
    """True iff sum c_k z^k has no zero with |z| <= 1 (Schur-Cohn).

    With p*(z) = z^n conj(p(1/conj z)), p is zero-free on the closed disk iff
    |a_0| > |a_n| and conj(a_0) p - a_n p*, of degree < n, is zero-free too
    (Marden, Geometry of Polynomials, 1966).  The zero polynomial is not.
    A step that cancels to zero means |a_0| = |a_n| up to rounding, a zero
    on the circle.
    """
    p = list(coefficients)
    while True:
        while p and p[-1] == 0:
            p.pop()
        if len(p) <= 1:
            return bool(p)
        a0, an = p[0], p[-1]
        if abs(a0) <= abs(an):
            return False
        c0 = a0.conjugate()
        p = [c0 * a - an * b.conjugate() for a, b in zip(p[:-1], reversed(p))]
        # Each step squares the coefficients' scale; rescale so high
        # degrees neither overflow nor underflow.
        scale = max(abs(c) for c in p)
        if scale == 0:
            return False
        p = [c / scale for c in p]


def _horner_rows(rows: np.ndarray, m: int) -> np.ndarray:
    """Horner values on the m-point circle of ascending-power coefficients
    along the last axis of rows; the leading axes are kept.

    Elementwise the same operations as AnalyticSeries evaluation, which
    also starts from the leading c: padding zeros onto a shorter
    polynomial can change only the sign of a zero.
    """
    circle = _circle(m)
    values = np.empty(rows.shape[:-1] + (m,), dtype=complex)
    values[...] = rows[..., -1, None]
    # In place: a stack of rows is a few MiB, and fresh arrays cost more
    # than the arithmetic.
    for k in range(rows.shape[-1] - 2, -1, -1):
        values *= circle
        values += rows[..., k, None]
    return values


def _critical_point(h_prime: np.ndarray, abs_h: np.ndarray) -> str:
    """Where h' vanishes, for the CriticalPointError message: the first
    circle sample with |h'| < CRITICAL_EPS, else the zero of least modulus."""
    small = abs_h < CRITICAL_EPS
    if small.any():
        return f"h' vanishes near z = {_circle(abs_h.size)[small][0]}"
    roots = np.roots(h_prime[::-1])
    # Adding 0j turns a negative zero part positive.
    return f"h' vanishes near z = {complex(roots[np.argmin(np.abs(roots))]) + 0j}"


def coefficient_rows(maps) -> tuple[np.ndarray, np.ndarray]:
    """The rows validate_rows takes for a sequence of PolynomialMaps: their
    h and g coefficients in ascending powers, zero padded to one length,
    and each map's degree max(h.degree, g.degree)."""
    degree = [max(f.h.degree, f.g.degree) for f in maps]
    n = max(degree) + 1
    rows = [
        [s.coefficients + (0j,) * (n - len(s.coefficients)) for s in (f.h, f.g)] for f in maps
    ]
    return np.array(rows, dtype=complex), np.array(degree)


@dataclass(frozen=True)
class RowValidity:
    """The ValidityReport fields as per-row arrays, and the CriticalPointError
    of each row whose h' may vanish on the closed disk (neither sense-preserving
    nor certified there).  Row i is what validate gives map i: report or error."""

    sense_preserving: np.ndarray
    sup_abs_dilatation: np.ndarray
    self_map_sup: np.ndarray
    certified: np.ndarray
    critical: dict
    self_map = ValidityReport.self_map

    def __len__(self) -> int:
        return len(self.certified)

    def __getitem__(self, i: int):
        columns = [getattr(self, field.name) for field in fields(ValidityReport)]
        return self.critical.get(i) or ValidityReport(*[column.item(i) for column in columns])

    @classmethod
    def stack(cls, reports: list) -> RowValidity:
        """The columns of a nonempty list of ValidityReports."""
        names = [field.name for field in fields(ValidityReport)]
        return cls(*[np.array([getattr(r, name) for r in reports]) for name in names], {})


def validate_rows(coefficients: np.ndarray, degree: np.ndarray) -> RowValidity:
    """validate for a stack of polynomial maps, one pass for all of them.

    coefficients has shape (N, 2, n): the ascending coefficients of h and g
    of each map, zero padded; degree holds each map's max(h.degree,
    g.degree).  Row i of the result is bit for bit what validate gives map
    i, decided as columns: no report is built until a row is indexed.

    One Horner pass puts h, g, h' and g' of every row on the first circle;
    the Schur-Cohn test runs once per distinct h'; the Bernstein test runs
    on all undecided rows at once, and only those rows go on to the doubled
    circle.  Memory is N * 4 * CIRCLE_SAMPLES complex values: callers bound N.
    """
    count, _, n = coefficients.shape
    rows = np.zeros((count, 4, n), dtype=complex)
    rows[:, :2] = coefficients
    rows[:, 2:, :-1] = coefficients[:, :, 1:] * np.arange(1, n)
    on_circle = _horner_rows(rows, CIRCLE_SAMPLES)
    sup_f = np.abs(on_circle[:, 0] + np.conjugate(on_circle[:, 1])).max(axis=1)
    derivatives = rows[:, 2:, :-1]
    values = on_circle[:, 2:]
    abs_h = np.abs(values[:, 0])
    near_zero = (abs_h.min(axis=1) < CRITICAL_EPS).tolist()
    # Stacked maps often share h', so the Schur-Cohn test runs once per h'.
    zero_free: dict[tuple, bool] = {}
    critical: dict[int, CriticalPointError] = {}
    for i, h_prime in enumerate(map(tuple, derivatives[:, 0].tolist())):
        if h_prime not in zero_free:
            zero_free[h_prime] = _zero_free_closed_disk(h_prime)
        if near_zero[i] or not zero_free[h_prime]:
            where = _critical_point(derivatives[i, 0], abs_h[i])
            critical[i] = CriticalPointError(f"sense-preservation undecidable: {where}")
    # Once h' is zero-free on the closed disk, g'/h' is analytic there and
    # its modulus peaks on the circle.  T = (1 - SENSE_MARGIN)^2 |h'|^2 -
    # |g'|^2 is a real trigonometric polynomial of degree d, so by
    # Bernstein's inequality it moves by at most (pi d / m) max|T| between
    # m equally spaced samples.
    sense, certified, sup_k = np.zeros(count, bool), np.zeros(count, bool), np.zeros(count)
    live = np.arange(count)
    d = np.maximum(degree - 1, 0)
    if critical:
        live = np.delete(live, list(critical))
        values, abs_h, d = values[live], abs_h[live], d[live]
    m = CIRCLE_SAMPLES
    while live.size:
        if m > CIRCLE_SAMPLES:
            values = _horner_rows(derivatives[live], m)
            abs_h = np.abs(values[:, 0])
        ratio = np.abs(values[:, 1] / values[:, 0])
        k = ratio.max(axis=1)
        reversing = k >= 1.0 - SENSE_MARGIN
        # T > 0 at every sample of a row that is not reversing.  The samples
        # see max T only up to the same factor: the true max is at most the
        # sampled one / (1 - step).
        t = abs_h * abs_h * ((1.0 - SENSE_MARGIN) ** 2 - ratio * ratio)
        step = math.pi * d / m
        positive = (step < 1.0) & (t.min(axis=1) * (1.0 - step) > step * t.max(axis=1))
        decided = reversing | positive
        # Every live row is written; an undecided one is written again on
        # the doubled circle.  Past CIRCLE_CAP the samples decide, uncertified.
        sense[live], certified[live], sup_k[live] = ~reversing, decided, k
        undecided = ~decided & (2 * m <= CIRCLE_CAP)
        live, d = live[undecided], d[undecided]
        m *= 2
    return RowValidity(sense, sup_k, sup_f, certified, critical)


def validate(f: HarmonicMap) -> ValidityReport:
    """Decide sense-preservation exactly where possible; sample |f| on the circle.

    sense_preserving means sup |dilatation| < 1 - SENSE_MARGIN on the closed
    disk.  Automorphisms are conformal (dilatation 0, certified).  A
    polynomial map is the one-row case of validate_rows: a Schur-Cohn test
    first shows that h' has no zero on the closed disk, else
    CriticalPointError; then a Bernstein bound decides the sign of
    (1 - SENSE_MARGIN)^2 |h'|^2 - |g'|^2 on the unit circle, which is
    sampled at CIRCLE_SAMPLES points, doubled up to CIRCLE_CAP.  A sample at
    or past the margin certifies the map not sense-preserving; past the cap,
    the samples call it sense-preserving with certified false.
    sup_abs_dilatation is the largest |g'/h'| on the last circle.
    self_map_sup is the largest |f| at CIRCLE_SAMPLES circle points; self_map
    means it is <= 1 + SELF_MAP_SLACK.
    """
    if isinstance(f, DiskAutomorphism):
        values = f.evaluate(_circle(CIRCLE_SAMPLES))
        return ValidityReport(
            sense_preserving=True,
            sup_abs_dilatation=0.0,
            self_map_sup=float(np.max(np.abs(values))),
            certified=True,
        )
    report = validate_rows(*coefficient_rows([f]))[0]
    if isinstance(report, CriticalPointError):
        raise report
    return report

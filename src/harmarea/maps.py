"""Planar harmonic mappings of the closed unit disk.

A harmonic map is represented either as a pair of truncated power series
(f = h + conj(g)) or as an exact disk automorphism (Mobius form, never
truncated).  All evaluation routines accept a Python complex or a numpy
array of complex values and are pure functions of immutable data.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
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
# Slack for the self-map check: sup |f| on the unit circle <= 1 + SELF_MAP_SLACK.
SELF_MAP_SLACK = 1e-9


def _require_finite(values, what: str) -> None:
    for v in values:
        c = complex(v)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ConstructionError(f"{what} must have finite components")


def _check_disk(z) -> None:
    arr = np.asarray(z)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise DomainError("evaluation point must be finite")
    if np.any(np.abs(arr) > 1.0 + DOMAIN_EPS):
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
        result = np.zeros_like(np.asarray(z), dtype=complex) if isinstance(
            z, np.ndarray
        ) else 0j
        for c in reversed(self.coefficients):
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
        return phase * (z - self.a) / self._denominator(z)

    def jacobian(self, z):
        """(1 - |a|^2)^2 / |1 - conj(a) z|^4, exact."""
        _check_disk(z)
        if self.a == 0:
            shaped = np.abs(np.asarray(z)) if isinstance(z, np.ndarray) else None
            return np.ones_like(shaped) if shaped is not None else 1.0
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
    """Sampled sense-preservation and self-map diagnostics for a map."""

    sense_preserving: bool
    self_map: bool
    sup_abs_dilatation: float
    self_map_sup: float
    angular_samples: int
    radial_samples: int


def validate(
    f: HarmonicMap, angular_samples: int = 64, radial_samples: int = 32
) -> ValidityReport:
    """Sample |dilatation| on a polar grid and |f| on the unit circle.

    sense_preserving is true iff every sampled |dilatation| < 1 - 1e-9, and
    self_map iff every sampled |f| <= 1 + SELF_MAP_SLACK.  The radial grid
    includes r = 1 so boundary suprema are attained.
    """
    if angular_samples < 16 or radial_samples < 16:
        raise ValueError("sample counts must be >= 16")
    theta = 2.0 * np.pi * np.arange(angular_samples) / angular_samples
    circle = np.exp(1j * theta)
    radii = (np.arange(radial_samples) + 1.0) / radial_samples
    grid = np.outer(radii, circle).ravel()
    try:
        k = float(np.max(np.abs(f.dilatation(grid))))
    except CriticalPointError as exc:
        raise CriticalPointError(
            f"sense-preservation undecidable: {exc}"
        ) from exc
    self_sup = float(np.max(np.abs(f.evaluate(circle))))
    return ValidityReport(
        sense_preserving=k < 1.0 - SENSE_MARGIN,
        self_map=self_sup <= 1.0 + SELF_MAP_SLACK,
        sup_abs_dilatation=k,
        self_map_sup=self_sup,
        angular_samples=angular_samples,
        radial_samples=radial_samples,
    )

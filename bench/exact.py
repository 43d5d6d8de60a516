"""Closed forms the benchmark checks the CLI's numbers against.

Nothing here imports the package under test: the preset maps are restated
from their documented definitions, and every area is a textbook formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

# The CLI's default quadrature target; every job runs at it.  Quadrature
# values must match a closed form to 10 * TOL * max(1, |value|), the largest
# error integrate_polar accepts when it stops at its refinement caps.
TOL = 1e-9


@dataclass(frozen=True)
class Poly:
    """f = h + conj(g); coefficient tuples start at z^0."""

    h: tuple[complex, ...]
    g: tuple[complex, ...]


@dataclass(frozen=True)
class Mobius:
    """e^{i rotation} (z - a) / (1 - conj(a) z), |a| < 1."""

    a: complex
    rotation: float


Map = Union[Poly, Mobius]

PRESETS: dict[str, Map] = {
    "identity": Mobius(0j, 0.0),
    "rotation": Mobius(0j, math.pi / 3.0),
    "example1-affine-0.2": Poly((0j, 1 + 0j), (0j, 0.2 + 0j)),
    "example1-affine-0.5": Poly((0j, 1 + 0j), (0j, 0.5 + 0j)),
    "remark-shear-0.3": Poly((0j, 1 + 0j), (0j, 0j, 0.3 + 0j)),
    "example2-shear-0.1": Poly((0j, 1 + 0j), (0j, 0j, 0.1 + 0j)),
    "automorphism-0.5": Mobius(0.5 + 0j, 0.0),
}


def quad_close(value: float, exact: float) -> bool:
    return abs(value - exact) <= 10.0 * TOL * max(1.0, abs(exact))


def _coef(coeffs: tuple[complex, ...], n: int) -> complex:
    return coeffs[n] if n < len(coeffs) else 0j


def disk_area(f: Map, r: float) -> float:
    """m(f(D_r)) = pi sum n (|a_n|^2 - |b_n|^2) r^{2n}; Mobius images are disks
    of radius r (1 - |a|^2) / (1 - |a|^2 r^2)."""
    if isinstance(f, Mobius):
        s = abs(f.a) ** 2
        rho = r * (1.0 - s) / (1.0 - s * r * r)
        return math.pi * rho * rho
    return math.pi * math.fsum(
        n * (abs(_coef(f.h, n)) ** 2 - abs(_coef(f.g, n)) ** 2) * r ** (2 * n)
        for n in range(1, max(len(f.h), len(f.g)))
    )


def disk_energy(f: Map, r: float) -> float:
    """Integral of |h'|^2 over D_r; a Mobius map is conformal, so it is the area."""
    if isinstance(f, Mobius):
        return disk_area(f, r)
    return math.pi * math.fsum(
        n * abs(c) ** 2 * r ** (2 * n) for n, c in enumerate(f.h) if n >= 1
    )


def constant_jacobian(f: Map) -> float:
    """|h'|^2 - |g'|^2 for the maps whose Jacobian is constant."""
    if isinstance(f, Mobius):
        if f.a != 0:
            raise ValueError("a Mobius map with a != 0 has no constant Jacobian")
        return 1.0
    if len(f.h) > 2 or len(f.g) > 2:
        raise ValueError("only affine maps have a constant Jacobian")
    return abs(_coef(f.h, 1)) ** 2 - abs(_coef(f.g, 1)) ** 2


def star_area(profile: list[float]) -> float:
    """Measure of |z| <= R(theta) for R piecewise linear in theta:
    sum (dtheta / 6) (R_j^2 + R_j R_{j+1} + R_{j+1}^2)."""
    step = 2.0 * math.pi / len(profile)
    return math.fsum(
        step / 6.0 * (a * a + a * b + b * b)
        for a, b in zip(profile, profile[1:] + profile[:1])
    )


def hyperbolic_disk(r: float) -> float:
    """Integral of (1 - |z|^2)^-2 over D_r."""
    return math.pi * r * r / (1.0 - r * r)


def sp_value(f: Poly, z: complex) -> float:
    """Schwarz-Pick ratio J_f(z) (1 - |z|^2)^2 / (1 - |f(z)|^2)^2."""
    hp = sum(n * c * z ** (n - 1) for n, c in enumerate(f.h) if n >= 1)
    gp = sum(n * c * z ** (n - 1) for n, c in enumerate(f.g) if n >= 1)
    h = sum(c * z**n for n, c in enumerate(f.h))
    g = sum(c * z**n for n, c in enumerate(f.g))
    fz = h + g.conjugate()
    jac = abs(hp) ** 2 - abs(gp) ** 2
    return jac * (1.0 - abs(z) ** 2) ** 2 / (1.0 - abs(fz) ** 2) ** 2

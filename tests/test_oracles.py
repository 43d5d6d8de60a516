"""Cross-check the hand-derived oracle formulas with scipy quadrature.

These tests certify the oracles themselves; everything else in the suite
then trusts them as independent ground truth.
"""

import math

import numpy as np
from scipy.integrate import dblquad, quad

import oracles


def test_frozen_values_match_formulas():
    f = oracles.FROZEN
    assert oracles.shear_disk_area(0.3, 2, 0.5) == f["shear-0.3-p2-disk-0.5"]
    assert oracles.shear_claimed_area(0.3, 2, 0.5) == f["shear-claim-0.3-p2-disk-0.5"]
    assert oracles.shear_radial_integral(0.3, 2, 0.5) == f["shear-0.3-p2-radial-0.5"]
    for r in (0.25, 0.5, 0.75):
        assert oracles.hyperbolic_disk_integral(r) == f[f"hyperbolic-{r}"]
        assert math.pi * r * r == f[f"hyperbolic-claim-{r}"]
    assert oracles.mobius_disk_area(0.5, 0.1) == f["mobius-0.5-disk-0.1"]
    assert oracles.mobius_disk_area(0.5, 0.5) == f["mobius-0.5-disk-0.5"]
    assert abs(oracles.mobius_radial_integral_axis(0.5, 0.5) - 11.0 / 72.0) < 1e-15
    assert abs(f["mobius-0.5-radial-0.5"] - 11.0 / 72.0) < 1e-15
    assert oracles.mobius_jacobian(0.5, 0.5) == f["mobius-0.5-peak-disk-0.5"]
    assert oracles.rescaled_affine_jacobian(0.5) == f["rescaled-0.5-jacobian"]


def test_pl_star_measure_against_scipy_segments():
    # closed form vs per-segment numeric integration of R(theta)^2/2
    prof = [0.4, 0.6, 0.5, 0.9, 0.3, 0.7, 0.8, 0.55]
    m = len(prof)
    h = 2.0 * math.pi / m
    total = 0.0
    for i in range(m):
        a, b = prof[i], prof[(i + 1) % m]
        val, _ = quad(lambda t: (a + (b - a) * t / h) ** 2 / 2.0, 0.0, h)
        total += val
    assert abs(total - oracles.pl_star_measure(prof)) < 1e-13


def test_mobius_disk_area_against_scipy():
    for a, r in ((0.5, 0.1), (0.5, 0.5), (0.3, 0.75)):
        val, err = dblquad(
            lambda t, th: oracles.mobius_jacobian(a, t * np.exp(1j * th)) * t,
            0.0,
            2.0 * math.pi,
            0.0,
            r,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        assert err < 1e-9
        assert abs(val - oracles.mobius_disk_area(a, r)) < 1e-9


def test_mobius_radial_integral_against_scipy():
    for a, r in ((0.5, 0.5), (0.5, 0.9), (0.25, 0.7)):
        val, _ = quad(
            lambda t: oracles.mobius_jacobian(a, t) * t, 0.0, r, epsabs=1e-14
        )
        assert abs(val - oracles.mobius_radial_integral_axis(a, r)) < 1e-12


def test_shear_and_hyperbolic_radial_against_scipy():
    for alpha, p, r in ((0.3, 2, 0.5), (0.1, 3, 0.9)):
        val, _ = quad(
            lambda t: (1.0 - p * p * alpha * alpha * t ** (2 * p - 2)) * t, 0.0, r
        )
        assert abs(val - oracles.shear_radial_integral(alpha, p, r)) < 1e-14
        area, _ = quad(
            lambda t: 2.0 * math.pi * (1.0 - p * p * alpha * alpha * t ** (2 * p - 2)) * t,
            0.0,
            r,
        )
        assert abs(area - oracles.shear_disk_area(alpha, p, r)) < 1e-12
    for r in (0.25, 0.5, 0.75):
        val, _ = quad(lambda t: 2.0 * math.pi * t / (1.0 - t * t) ** 2, 0.0, r)
        assert abs(val - oracles.hyperbolic_disk_integral(r)) < 1e-12


def test_perturbed_identity_radial_against_scipy():
    for eps, r in ((0.3, 0.7), (0.3, 0.9), (0.1, 0.8)):
        val, _ = quad(lambda t: ((1.0 + 2.0 * eps * t) / (1.0 + eps)) ** 2 * t, 0.0, r)
        assert abs(val - oracles.perturbed_identity_radial_axis(eps, r)) < 1e-14


def test_shear_worst_case_formula():
    # integrate J over the centered disk of area s
    alpha, s = 0.3, 0.4
    rho = math.sqrt(s / math.pi)
    val, _ = quad(
        lambda t: 2.0 * math.pi * (1.0 - 4.0 * alpha * alpha * t * t) * t, 0.0, rho
    )
    assert abs(val - oracles.shear_worst_case(alpha, s)) < 1e-14


def test_grid_polynomial_integral_against_scipy():
    # Two runs in different rows of an 8 x 8 mask: the exact monomial sum
    # must match dblquad of the density over the two rectangles.
    h = (0.1, 1.0, 0.2j, 0.05, 0.3 - 0.1j)
    g = (0.0, 0.1, 0.05 - 0.1j, 0.0, 0.2)
    mask = np.zeros((8, 8), dtype=bool)
    mask[3, 2:6] = True
    mask[6, 1:3] = True

    def derivative(coeffs, z):
        return sum(k * c * z ** (k - 1) for k, c in enumerate(coeffs) if k)

    def density(y, x, energy):
        z = complex(x, y)
        value = abs(derivative(h, z)) ** 2
        return value if energy else value - abs(derivative(g, z)) ** 2

    for energy in (False, True):
        total = 0.0
        for (x0, x1), (y0, y1) in (((-0.5, 0.5), (-0.25, 0.0)), ((-0.75, -0.25), (0.5, 0.75))):
            val, _ = dblquad(density, x0, x1, y0, y1, args=(energy,), epsabs=1e-14, epsrel=1e-13)
            total += val
        got = oracles.grid_polynomial_integral(h, g, mask, energy=energy)
        assert abs(got - total) <= 1e-13


def test_grid_rules_match_the_exact_monomial_sum():
    # The tensor rule and the Gauss-side Green's formula on a 16 x 16 disk
    # mask, both exact for this degree-4 map, against the Fraction oracle.
    h = (0.1, 1.0, 0.2j, 0.05, 0.3 - 0.1j)
    g = (0.0, 0.1, 0.05 - 0.1j, 0.0, 0.2)
    axis = -1.0 + (np.arange(16) + 0.5) / 8.0
    mask = np.abs(axis[None, :] + 1j * axis[:, None]) < 0.9

    def evaluate(coeffs, z):
        return sum(c * z**k for k, c in enumerate(coeffs))

    def derivative(coeffs, z):
        return sum(k * c * z ** (k - 1) for k, c in enumerate(coeffs) if k)

    def density(z):
        return np.abs(derivative(h, z)) ** 2 - np.abs(derivative(g, z)) ** 2

    expected = oracles.grid_polynomial_integral(h, g, mask)
    tensor = oracles.grid_tensor_rule(density, mask, 4)
    sides = [
        oracles.grid_gauss_sides(
            lambda z, c=c: evaluate(c, z), lambda z, c=c: derivative(c, z), mask, 4
        )
        for c in (h, g)
    ]
    assert abs(tensor - expected) <= 1e-14 * expected
    assert abs(sides[0] - sides[1] - expected) <= 1e-14 * expected

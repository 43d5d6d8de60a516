"""Derivative-free extremal search over parametric map families.

Families are finite-dimensional slices of the harmonic self-map space:
affine, shear, automorphism, and a raw polynomial coefficient ball.  The
maximizers seed a coarse lattice scan, then refine the incumbent with a
fixed-coefficient simplex (reflection 1.0, contraction 0.5, shrink 0.5, no
expansion).  Infeasible parameter points score -1; ties keep the first
lattice point found (row-major order), so runs are fully deterministic for
a fixed seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .distortion import image_area, sp_ratio
from .errors import BudgetError, ConstructionError, CriticalPointError, HypothesisError
from .maps import (
    DEGREE_CAP,
    HarmonicMap,
    affine,
    automorphism,
    raw_polynomial,
    shear,
    validate,
)
from .quadrature import DEFAULT_TOL
from .regions import Region, bounding_radius, contains, region_measure

SWEEP_BUDGET = 10 ** 6
SIMPLEX_DIAMETER = 1e-6


def _check_range(name: str, rng) -> tuple[float, float]:
    lo, hi = (float(rng[0]), float(rng[1]))
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ConstructionError(f"{name} range must be a finite [lo, hi] interval")
    return lo, hi


@dataclass(frozen=True)
class AffineFamily:
    """Maps z + alpha conj(z) with real alpha in the given range."""

    alpha_range: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(
            self, "alpha_range", _check_range("alpha", self.alpha_range)
        )

    param_names = ("alpha",)

    def continuous_bounds(self):
        return (self.alpha_range,)

    def discrete_axes(self):
        return ()

    def construct(self, params) -> HarmonicMap:
        return affine(params[0])


@dataclass(frozen=True)
class ShearFamily:
    """Maps z + alpha conj(z)^p, alpha in a range, p from a finite set."""

    alpha_range: tuple[float, float]
    powers: tuple[int, ...] = (2,)

    def __post_init__(self):
        object.__setattr__(
            self, "alpha_range", _check_range("alpha", self.alpha_range)
        )
        powers = tuple(int(p) for p in self.powers)
        if not powers or any(p < 2 for p in powers):
            raise ConstructionError("shear powers must be a nonempty set of ints >= 2")
        object.__setattr__(self, "powers", powers)

    param_names = ("alpha", "power")

    def continuous_bounds(self):
        return (self.alpha_range,)

    def discrete_axes(self):
        return (tuple(float(p) for p in self.powers),)

    def construct(self, params) -> HarmonicMap:
        return shear(params[0], int(round(params[1])))


@dataclass(frozen=True)
class AutomorphismFamily:
    """Automorphisms with |a| and rotation each from a range (a real >= 0)."""

    modulus_range: tuple[float, float]
    rotation_range: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(
            self, "modulus_range", _check_range("modulus", self.modulus_range)
        )
        object.__setattr__(
            self, "rotation_range", _check_range("rotation", self.rotation_range)
        )
        if self.modulus_range[0] < 0.0:
            raise ConstructionError("modulus range must be nonnegative")

    param_names = ("modulus", "rotation")

    def continuous_bounds(self):
        return (self.modulus_range, self.rotation_range)

    def discrete_axes(self):
        return ()

    def construct(self, params) -> HarmonicMap:
        return automorphism(params[0], params[1])


@dataclass(frozen=True)
class RawBall:
    """Real-coefficient polynomial pairs h = z + sum a_k z^k (k >= 2) and
    g = sum b_k z^k (k >= 1), every coefficient bounded in magnitude."""

    degree: int
    coeff_bound: float

    def __post_init__(self):
        degree = int(self.degree)
        bound = float(self.coeff_bound)
        if not 1 <= degree <= DEGREE_CAP:
            raise ConstructionError(f"degree must lie in [1, {DEGREE_CAP}]")
        if not math.isfinite(bound) or bound < 0.0:
            raise ConstructionError("coefficient bound must be finite and >= 0")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeff_bound", bound)

    @property
    def param_names(self):
        names = [f"h{k}" for k in range(2, self.degree + 1)]
        names += [f"g{k}" for k in range(1, self.degree + 1)]
        return tuple(names)

    def continuous_bounds(self):
        b = self.coeff_bound
        return tuple((-b, b) for _ in self.param_names)

    def discrete_axes(self):
        return ()

    def construct(self, params) -> HarmonicMap:
        n_h = self.degree - 1
        h = [0j, 1 + 0j] + [complex(c) for c in params[:n_h]]
        g = [0j] + [complex(c) for c in params[n_h:]]
        return raw_polynomial(h, g)


FamilyKind = Union[AffineFamily, ShearFamily, AutomorphismFamily, RawBall]


@dataclass(frozen=True)
class FamilySpec:
    """A searchable family plus feasibility constraints."""

    kind: FamilyKind
    require_self_map: bool = False
    require_sense_preserving: bool = True

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(self.kind.param_names)

    def build(self, params) -> HarmonicMap:
        """Construct and constraint-check; raises on infeasibility."""
        f = self.kind.construct(params)
        self.check(f)
        return f

    def check(self, f: HarmonicMap) -> None:
        """Raise HypothesisError when f violates a constraint, as decided by
        maps.validate.

        A map whose h' vanishes on the closed disk is not sense-preserving.
        validate certifies every "not sense-preserving" it reports; the
        self-map decision is always sampled.
        """
        if self.require_self_map or self.require_sense_preserving:
            try:
                rep = validate(f)
            except CriticalPointError as exc:
                raise HypothesisError(str(exc)) from exc
            if self.require_sense_preserving and not rep.sense_preserving:
                raise HypothesisError("not sense-preserving (certified)")
            if self.require_self_map and not rep.self_map:
                raise HypothesisError(
                    f"not a self-map (sup |f| = {rep.self_map_sup:.6g})"
                )


@dataclass(frozen=True)
class SearchResult:
    """Best parameters and value, with the accepted-step trace."""

    best_params: tuple[float, ...]
    best_value: float
    evaluations: int
    trace: tuple[tuple[tuple[float, ...], float], ...]
    seed: int

    def __post_init__(self):
        if self.trace and self.best_value != max(v for _, v in self.trace):
            raise ValueError("best_value must equal the trace maximum")


@dataclass(frozen=True)
class SweepRow:
    """One lattice point; a note names why the point is infeasible."""

    index: int
    params: tuple[float, ...]
    ratio: float
    note: str = ""

    @property
    def feasible(self) -> bool:
        return not self.note


def _axis_values(lo: float, hi: float, count: int) -> np.ndarray:
    if lo == hi:
        return np.asarray([lo])
    return np.linspace(lo, hi, count)


def _lattice(cont_bounds, disc_axes, grid_per_axis: int):
    """Row-major parameter tuples: continuous axes first, then discrete axes.

    Raises BudgetError, before any point is produced, when the lattice has
    more than SWEEP_BUDGET points.
    """
    axes = [_axis_values(lo, hi, grid_per_axis) for lo, hi in cont_bounds]
    axes += [np.asarray(vals) for vals in disc_axes]
    total = math.prod(len(axis) for axis in axes)
    if total > SWEEP_BUDGET:
        raise BudgetError(f"lattice of {total} points exceeds budget {SWEEP_BUDGET}")
    return (tuple(float(v) for v in values) for values in itertools.product(*axes))


def sweep(family: FamilySpec, E: Region, grid_per_axis: int) -> list[SweepRow]:
    """Ratio m(f(E))/m(E) on a uniform parameter lattice, best first.

    Rows violating constraints (or failing construction) are flagged, not
    dropped.  The output order is descending ratio; ties and unratable rows
    keep lattice (row-major) order.
    """
    if grid_per_axis < 1:
        raise ConstructionError("grid_per_axis must be >= 1")
    kind = family.kind
    lattice = _lattice(kind.continuous_bounds(), kind.discrete_axes(), grid_per_axis)
    m_e = region_measure(E)
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
            # Infeasible maps still get their unconstrained ratio.
            ratio = image_area(f, E, check_sense=False).value / m_e
        except ConstructionError as exc:
            note = note or f"construction: {exc}"
        rows.append(SweepRow(index, params, ratio, note))
    return sorted(
        rows,
        key=lambda row: (
            -row.ratio if math.isfinite(row.ratio) else math.inf,
            row.index,
        ),
    )


def _simplex_refine(score, x0, bounds, steps, iterations):
    """Maximizing simplex with reflection 1.0, contraction 0.5, shrink 0.5.

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


def _maximize(objective, cont_bounds, disc_axes, grid_per_axis, iterations, seed):
    """Lattice scan then simplex refinement of the continuous coordinates."""
    trace: list[tuple[tuple[float, ...], float]] = []
    best_params, best_value, evaluations = None, -math.inf, 0

    def score(params) -> float:
        """Penalized objective; counts the call and traces each improvement."""
        nonlocal best_params, best_value, evaluations
        evaluations += 1
        # The simplex may reflect outside the parameter box; such points are
        # infeasible even when the underlying map happens to be constructible.
        inside = all(lo <= c <= hi for c, (lo, hi) in zip(params, cont_bounds))
        val = objective(params) if inside else -1.0
        if val > best_value:
            best_value = val
            best_params = tuple(float(c) for c in params)
            # Infeasible points (penalized to -1) never enter the trace.
            if val > -1.0:
                trace.append((best_params, val))
        return val

    for params in _lattice(cont_bounds, disc_axes, grid_per_axis):
        score(np.asarray(params))
    n_cont = len(cont_bounds)
    if n_cont:
        disc_best = best_params[n_cont:]

        def frozen(x_cont):
            return score(np.concatenate([x_cont, disc_best]))

        steps = [
            (hi - lo) / (2.0 * max(1, grid_per_axis - 1)) if hi > lo else 1e-3
            for lo, hi in cont_bounds
        ]
        _simplex_refine(frozen, best_params[:n_cont], cont_bounds, steps, iterations)
        # One seeded restart guards against a collapsed starting simplex.
        rng = np.random.default_rng(seed)
        jitter = rng.uniform(-0.125, 0.125, size=n_cont)
        x1 = np.asarray(best_params[:n_cont]) + jitter * np.asarray(steps)
        _simplex_refine(frozen, x1, cont_bounds, [s / 4.0 for s in steps], iterations)
    return SearchResult(best_params, best_value, evaluations, tuple(trace), seed)


def maximize_area_ratio(
    family: FamilySpec,
    E: Region,
    iterations: int = 200,
    seed: int = 42,
    *,
    grid_per_axis: int = 17,
    tol: float = DEFAULT_TOL,
) -> SearchResult:
    """Maximize m(f(E))/m(E) over the family; infeasible points score -1."""
    if iterations < 1:
        raise ConstructionError("iterations must be >= 1")
    m_e = region_measure(E)

    def objective(params) -> float:
        try:
            f = family.build(params)
        except (ConstructionError, HypothesisError):
            return -1.0
        return image_area(f, E, tol, check_sense=False).value / m_e

    return _maximize(
        objective,
        list(family.kind.continuous_bounds()),
        list(family.kind.discrete_axes()),
        grid_per_axis,
        iterations,
        seed,
    )


def maximize_sp_ratio(
    f: HarmonicMap,
    domain: Region,
    iterations: int = 200,
    seed: int = 42,
    *,
    grid_per_axis: int = 17,
) -> SearchResult:
    """Maximize the Schwarz-Pick area ratio of f over z = x + iy in domain;
    points outside the domain score -1.

    The domain must stay away from the unit circle (bounding radius at most
    1 - 1e-3) because the ratio degenerates at the boundary.
    """
    if iterations < 1:
        raise ConstructionError("iterations must be >= 1")
    b = bounding_radius(domain)
    if b > 1.0 - 1e-3:
        raise HypothesisError("domain must have bounding radius <= 1 - 1e-3")

    def objective(params) -> float:
        z = complex(params[0], params[1])
        return sp_ratio(f, z) if contains(domain, z) else -1.0

    return _maximize(objective, [(-b, b), (-b, b)], [], grid_per_axis, iterations, seed)

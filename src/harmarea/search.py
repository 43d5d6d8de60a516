"""Derivative-free extremal search over parametric map families.

Families are finite-dimensional slices of the harmonic self-map space:
affine, shear, automorphism, and a raw polynomial coefficient ball.  The
maximizers seed a coarse lattice scan, then refine the incumbent with a
fixed-coefficient simplex (reflection 1.0, contraction 0.5, shrink 0.5, no
expansion).  Infeasible parameter points score -1; ties keep the first
lattice point found (row-major order), so runs are fully deterministic for
a fixed seed.

The lattice, of sweep and of maximize_area_ratio alike, is scored in
blocks of rows, not one map at a time.  A block's polynomial maps are
validated in one maps.validate_rows pass, as columns.  A RawBall row, whose
parameters are its coefficients, needs no map object at all: on a disk its
area is the closed form of distortion.disk_series_rows, one fsum per row.
Only an area on a star or a pixel grid builds the map.  The result is bit
for bit the one-map-at-a-time result: the same notes, ratios, incumbent,
trace and evaluation count.  Each simplex vertex is scored as a one-row
block of the same pass, so lattice and simplex share one feasibility
decision and one area rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .distortion import disk_series_rows, image_area, sp_ratio
from .errors import BudgetError, ConstructionError, CriticalPointError, HypothesisError
from .maps import (
    DEGREE_CAP,
    DiskAutomorphism,
    HarmonicMap,
    PolynomialMap,
    RowValidity,
    affine,
    automorphism,
    coefficient_rows,
    raw_polynomial,
    shear,
    validate,
    validate_rows,
)
from .quadrature import DEFAULT_TOL, check_tol
from .regions import Disk, Region, bounding_radius, contains, region_measure

SWEEP_BUDGET = 10 ** 6
SIMPLEX_DIAMETER = 1e-6
# Lattice rows scored in one pass: validate_rows holds 4 series of each row
# on a circle of 64 points, 2^18 complex values (4 MiB) per array.
LATTICE_BLOCK = 1024


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

    def coefficients(self, params: np.ndarray) -> np.ndarray:
        """Ascending coefficients of h and g, shape (N, 2, degree + 1), for
        N rows of parameters: the rows maps.validate_rows takes."""
        rows = np.zeros((len(params), 2, self.degree + 1), dtype=complex)
        rows[:, 0, 1] = 1.0
        rows[:, 0, 2:] = params[:, : self.degree - 1]
        rows[:, 1, 1:] = params[:, self.degree - 1 :]
        return rows

    def construct(self, params) -> HarmonicMap:
        h, g = self.coefficients(np.asarray([params], dtype=float))[0]
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
                why = self._violations(RowValidity.stack([validate(f)])).get(0)
            except CriticalPointError as exc:
                raise HypothesisError(str(exc)) from exc
            if why:
                raise HypothesisError(why)

    def _violations(self, validity: RowValidity) -> dict[int, str]:
        """Each violating row's note: its CriticalPointError, else a reversal, else sup |f|."""
        why = {}
        if self.require_self_map:
            for j in (~validity.self_map).nonzero()[0].tolist():
                why[j] = f"not a self-map (sup |f| = {validity.self_map_sup.item(j):.6g})"
        if self.require_sense_preserving:
            for j, sense in enumerate(validity.sense_preserving.tolist()):
                if not sense:
                    why[j] = "not sense-preserving (certified)"
        for j, exc in validity.critical.items():
            why[j] = str(exc)
        return why


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


def _lattice(cont_bounds, disc_axes, grid_per_axis: int) -> np.ndarray:
    """Parameter rows of the lattice in row-major order, continuous axes
    first, then discrete axes.

    Raises BudgetError, before any row is built, when the lattice has more
    than SWEEP_BUDGET points.
    """
    if grid_per_axis < 1:
        raise ConstructionError("grid_per_axis must be >= 1")
    axes = [_axis_values(lo, hi, grid_per_axis) for lo, hi in cont_bounds]
    axes += [np.asarray(vals, dtype=float) for vals in disc_axes]
    total = math.prod(len(axis) for axis in axes)
    if total > SWEEP_BUDGET:
        raise BudgetError(f"lattice of {total} points exceeds budget {SWEEP_BUDGET}")
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack(grids, axis=-1).reshape(total, len(axes))


def _score_block(family: FamilySpec, E: Region, params: np.ndarray, tol: float):
    """Feasibility notes and areas of a block of parameter rows: lattice
    rows, or one simplex point.

    Returns (notes, area).  notes[i] is "" when row i's map is feasible,
    else "construction: ..." or "constraint: ...", the texts of the
    ConstructionError or HypothesisError that family.build raises there.
    area(i) is image_area(f, E, tol, check_sense=False).value for row i's
    map f, or nan when f cannot be constructed.

    The block's polynomial maps are validated together by
    maps.validate_rows; FamilySpec._violations reads the notes off the
    columns.  A RawBall row is its coefficient row, with no map object but
    for an area on a region other than a disk.
    """
    kind = family.kind
    notes = [""] * len(params)
    if isinstance(kind, RawBall):
        maps = None
        polynomial = list(range(len(params)))
        rows, degree = kind.coefficients(params), np.full(len(params), kind.degree)
    else:
        maps = []
        for i, p in enumerate(params.tolist()):
            try:
                maps.append(kind.construct(p))
            except ConstructionError as exc:
                maps.append(exc)
                notes[i] = f"construction: {exc}"
        polynomial = [i for i, f in enumerate(maps) if isinstance(f, PolynomialMap)]
        if polynomial:
            rows, degree = coefficient_rows([maps[i] for i in polynomial])
    if family.require_self_map or family.require_sense_preserving:
        if polynomial:
            for j, why in family._violations(validate_rows(rows, degree)).items():
                notes[polynomial[j]] = f"constraint: {why}"
        # Automorphisms have no coefficient rows.
        if auto := [i for i, f in enumerate(maps or ()) if isinstance(f, DiskAutomorphism)]:
            validity = RowValidity.stack([validate(maps[i]) for i in auto])
            for j, why in family._violations(validity).items():
                notes[auto[j]] = f"constraint: {why}"

    if maps is None and isinstance(E, Disk):
        check_tol(tol)
        return notes, disk_series_rows(E, rows.tolist(), kind.degree)

    def area(i: int) -> float:
        f = kind.construct(params[i]) if maps is None else maps[i]
        if isinstance(f, ConstructionError):
            return math.nan
        return image_area(f, E, tol, check_sense=False).value

    return notes, area


def sweep(
    family: FamilySpec, E: Region, grid_per_axis: int, tol: float = DEFAULT_TOL
) -> list[SweepRow]:
    """Ratio m(f(E))/m(E) on a uniform parameter lattice, best first.

    Rows violating constraints (or failing construction) are flagged, not
    dropped.  The output order is descending ratio; ties and unratable rows
    keep lattice (row-major) order.  The lattice is scored a block of
    LATTICE_BLOCK rows at a time, each area to tolerance tol; see
    _score_block.  A tol that check_tol rejects raises ConstructionError.
    """
    check_tol(tol)
    kind = family.kind
    lattice = _lattice(kind.continuous_bounds(), kind.discrete_axes(), grid_per_axis)
    m_e = region_measure(E)
    rows = []
    for start in range(0, len(lattice), LATTICE_BLOCK):
        block = lattice[start : start + LATTICE_BLOCK]
        notes, area = _score_block(family, E, block, tol)
        for i, (params, note) in enumerate(zip(block.tolist(), notes)):
            # Infeasible maps still get their unconstrained ratio.
            rows.append(SweepRow(start + i, tuple(params), area(i) / m_e, note))
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


def _maximize(score_rows, cont_bounds, disc_axes, grid_per_axis, iterations, seed):
    """Lattice scan then simplex refinement of the continuous coordinates.

    score_rows maps an (N, dim) array of parameter rows to their objective
    values: the whole lattice in one call, each simplex point as one row.
    Every row counts as an evaluation, and the incumbent and trace follow
    one strict running maximum over the lattice (row-major) and then the
    simplex.
    """
    if iterations < 1:
        raise ConstructionError("iterations must be >= 1")
    lattice = _lattice(cont_bounds, disc_axes, grid_per_axis)
    values = np.asarray(score_rows(lattice), dtype=float)
    trace: list[tuple[tuple[float, ...], float]] = []
    best_params, best_value, evaluations = None, -math.inf, len(values)
    # Row i moves the incumbent when it beats every row before it, so the
    # first of equal maxima wins; a nan never does.
    before = np.fmax.accumulate(np.concatenate(([-math.inf], values[:-1])))
    for i in np.flatnonzero(values > before).tolist():
        best_params, best_value = tuple(lattice[i].tolist()), float(values[i])
        # Infeasible points (penalized to -1) never enter the trace.
        if best_value > -1.0:
            trace.append((best_params, best_value))

    def score(params) -> float:
        """Penalized objective; counts the call and traces each improvement."""
        nonlocal best_params, best_value, evaluations
        evaluations += 1
        # The simplex may reflect outside the parameter box; such points are
        # infeasible even when the underlying map happens to be constructible.
        inside = all(lo <= c <= hi for c, (lo, hi) in zip(params, cont_bounds))
        val = score_rows(params[np.newaxis])[0] if inside else -1.0
        if val > best_value:
            best_value = val
            best_params = tuple(float(c) for c in params)
            if val > -1.0:
                trace.append((best_params, val))
        return val

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
    m_e = region_measure(E)

    def score_rows(rows) -> list[float]:
        scores = []
        for start in range(0, len(rows), LATTICE_BLOCK):
            notes, area = _score_block(family, E, rows[start : start + LATTICE_BLOCK], tol)
            scores += [-1.0 if note else area(i) / m_e for i, note in enumerate(notes)]
        return scores

    return _maximize(
        score_rows,
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
    b = bounding_radius(domain)
    if b > 1.0 - 1e-3:
        raise HypothesisError("domain must have bounding radius <= 1 - 1e-3")

    def score_rows(rows) -> list[float]:
        points = [complex(x, y) for x, y in rows.tolist()]
        return [sp_ratio(f, z) if contains(domain, z) else -1.0 for z in points]

    return _maximize(score_rows, [(-b, b), (-b, b)], [], grid_per_axis, iterations, seed)

"""Derivative-free extremal search over parametric map families.

Families are finite-dimensional slices of the harmonic self-map space:
affine, shear, automorphism, and a raw polynomial coefficient ball.  The
maximizers seed a coarse lattice scan, then refine the incumbent with a
fixed-coefficient simplex (reflection 1.0, contraction 0.5, shrink 0.5, no
expansion).  Infeasible parameter points score -1; ties keep the first
lattice point found (row-major order), so runs are fully deterministic for
a fixed seed.

The lattice, of sweep and of maximize_area_ratio alike, is scored in
blocks of rows, not one map at a time.  A row whose coefficients certify
it (maps._coefficient_certificate) is feasible with no circle samples; the
rest of a block is validated in one pass by validate_rows, which gives
each row what maps.validate gives its map; automorphisms, conformal
self-maps of the disk, need no pass.  A RawBall row needs no map object:
on a disk its area is the closed form of distortion.disk_series_rows, one
fsum per row; only a star or a pixel grid builds the map.  The result is
bit for bit the one-map-at-a-time result: the same notes, ratios,
incumbent, trace and evaluation count.
Each simplex vertex is scored as a one-row block of the same pass, so
lattice and simplex share one feasibility decision, one area rule and one
incumbent rule.  The Schwarz-Pick search tests a block's points for
membership in one call too.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .distortion import disk_series_rows, image_area, sp_ratio
from .errors import BudgetError, ConstructionError, CriticalPointError, HypothesisError
from .maps import (
    DEGREE_CAP,
    DiskAutomorphism,
    HarmonicMap,
    _coefficient_certificate,
    _number,
    _whole,
    affine,
    automorphism,
    coefficient_rows,
    raw_polynomial,
    shear,
    validate_rows,
)
from .quadrature import DEFAULT_TOL, check_tol
from .regions import Disk, Region, bounding_radius, contains_points, region_measure

SWEEP_BUDGET = 10 ** 6
SIMPLEX_DIAMETER = 1e-6
# Lattice rows scored in one pass: validate_rows holds 4 series of each row
# on a circle of 64 points, 2^18 complex values (4 MiB) per array.
LATTICE_BLOCK = 1024


def _check_range(name: str, rng) -> tuple[float, float]:
    try:
        lo, hi = (float(_number(v, name)) for v in rng)
    except (TypeError, ValueError, OverflowError):
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ConstructionError(f"{name} range must be a finite [lo, hi] interval")
    return lo, hi


class _Family:
    """A family's parameter box and document kind, each stated once: RANGES
    names its [lo, hi] fields, checked in order and read as its continuous
    bounds, and KIND is its family document's "kind"."""

    RANGES: tuple[str, ...] = ()

    def __post_init__(self):
        for name in self.RANGES:
            rng = _check_range(name.removesuffix("_range"), getattr(self, name))
            object.__setattr__(self, name, rng)

    def continuous_bounds(self):
        return tuple(getattr(self, name) for name in self.RANGES)

    def discrete_axes(self):
        return ()


@dataclass(frozen=True)
class AffineFamily(_Family):
    """Maps z + alpha conj(z) with real alpha in the given range."""

    alpha_range: tuple[float, float]
    RANGES, KIND = ("alpha_range",), "affine"
    param_names = ("alpha",)

    def construct(self, params) -> HarmonicMap:
        return affine(params[0])


@dataclass(frozen=True)
class ShearFamily(_Family):
    """Maps z + alpha conj(z)^p, alpha in a range, p from a finite set."""

    alpha_range: tuple[float, float]
    powers: tuple[int, ...] = (2,)
    RANGES, KIND = ("alpha_range",), "shear"
    param_names = ("alpha", "power")

    def __post_init__(self):
        super().__post_init__()
        powers = tuple(_whole(p, "shear power") for p in self.powers)
        if not powers or any(not 2 <= p <= DEGREE_CAP for p in powers):
            raise ConstructionError(f"shear powers must be nonempty ints in [2, {DEGREE_CAP}]")
        object.__setattr__(self, "powers", powers)

    def discrete_axes(self):
        return (tuple(float(p) for p in self.powers),)

    def construct(self, params) -> HarmonicMap:
        return shear(params[0], params[1])


@dataclass(frozen=True)
class AutomorphismFamily(_Family):
    """Automorphisms with |a| and rotation each from a range (a real >= 0)."""

    modulus_range: tuple[float, float]
    rotation_range: tuple[float, float]
    RANGES, KIND = ("modulus_range", "rotation_range"), "automorphism"
    param_names = ("modulus", "rotation")

    def __post_init__(self):
        super().__post_init__()
        if self.modulus_range[0] < 0.0:
            raise ConstructionError("modulus range must be nonnegative")

    def construct(self, params) -> HarmonicMap:
        return automorphism(params[0], params[1])


@dataclass(frozen=True)
class RawBall(_Family):
    """Real-coefficient polynomial pairs h = z + sum a_k z^k (k >= 2) and
    g = sum b_k z^k (k >= 1), every coefficient bounded in magnitude."""

    degree: int
    coeff_bound: float
    KIND = "rawball"

    def __post_init__(self):
        degree = _whole(self.degree, "degree")
        bound = float(_number(self.coeff_bound, "coefficient bound"))
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
        return tuple((0.0 - b, b) for _ in self.param_names)  # -0.0 would print "-0"

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


@dataclass(frozen=True)
class FamilySpec:
    """A searchable family plus feasibility constraints."""

    kind: _Family
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
        """Raise HypothesisError when a polynomial map f violates a
        constraint, as decided by maps.validate_rows on the one map; an
        automorphism, a conformal self-map, violates none.

        A map whose h' may vanish on the closed disk is not sense-preserving,
        noted by its CriticalPointError's text.  Every other "not
        sense-preserving" is certified; the self-map decision is sampled.
        """
        if isinstance(f, DiskAutomorphism):
            return
        if self.require_self_map or self.require_sense_preserving:
            why = self._violations(validate_rows(*coefficient_rows([f]))).get(0)
            if why:
                raise HypothesisError(why)

    def _violations(self, validity: list) -> dict[int, str]:
        """Each violating entry's note: its CriticalPointError, else a reversal, else sup |f|."""
        why = {}
        for j, report in enumerate(validity):
            if isinstance(report, CriticalPointError):
                why[j] = str(report)
            elif self.require_sense_preserving and not report.sense_preserving:
                why[j] = "not sense-preserving (certified)"
            elif self.require_self_map and not report.self_map:
                why[j] = f"not a self-map (sup |f| = {report.self_map_sup:.6g})"
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

    Automorphisms are feasible, and so are the rows that
    maps._coefficient_certificate decides.  The others are validated in one
    pass by validate_rows on their coefficient rows; FamilySpec._violations
    reads the notes off its entries.  No row's decision depends on another
    row.  A RawBall row is its coefficient row, with no map object but for
    an area on a region other than a disk.
    """
    kind = family.kind
    notes = [""] * len(params)
    raw, maps = isinstance(kind, RawBall), {}
    if raw:
        built = range(len(params))
        rows, degree = kind.coefficients(params), np.full(len(params), kind.degree)
    else:
        for i, p in enumerate(params.tolist()):
            try:
                maps[i] = kind.construct(p)
            except ConstructionError as exc:
                notes[i] = f"construction: {exc}"
        built = list(maps)
    conformal = isinstance(kind, AutomorphismFamily)
    if built and not conformal and (family.require_self_map or family.require_sense_preserving):
        if not raw:
            rows, degree = coefficient_rows(list(maps.values()))
        # Certified rows get no note from validate_rows either: skip them.
        sure = _coefficient_certificate(rows, family.require_self_map)
        open_rows = np.flatnonzero(~sure).tolist()
        if open_rows:
            validity = validate_rows(rows[open_rows], degree[open_rows])
            for j, why in family._violations(validity).items():
                notes[built[open_rows[j]]] = f"constraint: {why}"

    if raw and isinstance(E, Disk):
        check_tol(tol)
        return notes, disk_series_rows(E, rows.tolist(), kind.degree)

    def area(i: int) -> float:
        f = kind.construct(params[i]) if raw else maps.get(i)
        return math.nan if f is None else image_area(f, E, tol, check_sense=False).value

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
    projection happens here.  Points are tuples of floats.  The centroid adds
    the kept vertices left to right from +0.0, as np.mean does, so a column
    of -0.0 gives +0.0; sum() compensates from Python 3.12.
    """
    vertices = [x0]
    for i, ((lo, hi), step) in enumerate(zip(bounds, steps)):
        if x0[i] + step > hi and x0[i] - step >= lo:
            step = -step
        vertices.append(x0[:i] + (x0[i] + step,) + x0[i + 1 :])
    values = [score(v) for v in vertices]
    for _ in range(iterations):
        order = sorted(range(len(vertices)), key=lambda i: -values[i])
        vertices = [vertices[i] for i in order]
        values = [values[i] for i in order]
        best, worst = vertices[0], vertices[-1]
        if all(abs(c - b) < SIMPLEX_DIAMETER for v in vertices[1:] for c, b in zip(v, best)):
            break
        kept = vertices[:-1]
        centroid = [functools.reduce(operator.add, col, 0.0) / len(kept) for col in zip(*kept)]
        reflected = tuple(c + (c - w) for c, w in zip(centroid, worst))
        f_reflected = score(reflected)
        if f_reflected > values[-2]:
            vertices[-1] = reflected
            values[-1] = f_reflected
            continue
        contracted = tuple((c + w) / 2.0 for c, w in zip(centroid, worst))
        f_contracted = score(contracted)
        if f_contracted > values[-1]:
            vertices[-1] = contracted
            values[-1] = f_contracted
            continue
        for i in range(1, len(vertices)):
            vertices[i] = tuple(b + 0.5 * (c - b) for c, b in zip(vertices[i], best))
            values[i] = score(vertices[i])


def _maximize(score_rows, cont_bounds, disc_axes, grid_per_axis, iterations, seed):
    """Lattice scan then simplex refinement of the continuous coordinates.

    score_rows maps parameter rows to their objective values: the lattice
    array in one call, each simplex point as a list of one tuple.
    Every lattice row (row-major) and then every simplex point passes
    through one record: it counts as an evaluation, moves the incumbent
    only when it beats every value before it, so the first of equal maxima
    wins and a nan never does, and enters the trace when that improvement
    is feasible (> -1).
    """
    if iterations < 1:
        raise ConstructionError("iterations must be >= 1")
    lattice = _lattice(cont_bounds, disc_axes, grid_per_axis)
    trace: list[tuple[tuple[float, ...], float]] = []
    best_params, best_value, evaluations = None, -math.inf, 0

    def record(params: tuple[float, ...], val: float) -> float:
        nonlocal best_params, best_value, evaluations
        evaluations += 1
        if val > best_value:
            best_params, best_value = params, val
            if val > -1.0:
                trace.append((params, val))
        return val

    for params, val in zip(lattice.tolist(), score_rows(lattice)):
        record(tuple(params), val)
    n_cont = len(cont_bounds)
    disc_best = best_params[n_cont:]

    def frozen(x_cont: tuple[float, ...]) -> float:
        params = x_cont + disc_best
        # The simplex may reflect outside the parameter box; such points are
        # infeasible even when the underlying map happens to be constructible.
        inside = all(lo <= c <= hi for c, (lo, hi) in zip(params, cont_bounds))
        return record(params, score_rows([params])[0] if inside else -1.0)

    steps = [
        (hi - lo) / (2.0 * max(1, grid_per_axis - 1)) if hi > lo else 1e-3
        for lo, hi in cont_bounds
    ]
    _simplex_refine(frozen, best_params[:n_cont], cont_bounds, steps, iterations)
    # One seeded restart guards against a collapsed starting simplex.
    jitter = np.random.default_rng(seed).uniform(-0.125, 0.125, size=n_cont).tolist()
    x1 = tuple(x + j * s for x, j, s in zip(best_params[:n_cont], jitter, steps))
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
        rows, scores = np.asarray(rows, dtype=float), []
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
        points = [complex(x, y) for x, y in np.asarray(rows).tolist()]
        inside = contains_points(domain, np.array(points)).tolist()
        return [sp_ratio(f, z) if ok else -1.0 for z, ok in zip(points, inside)]

    return _maximize(score_rows, [(-b, b), (-b, b)], [], grid_per_axis, iterations, seed)

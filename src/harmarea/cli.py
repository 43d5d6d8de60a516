"""Command-line verification harness.

Subcommands: area, verify, sweep, search, oracle.  Exit codes:
  0  success (all checked inequalities pass)
  1  a checked inequality or oracle-agreement test failed
  2  input could not be parsed or violates a precondition
  3  quadrature refinement hit its caps without converging
  4  an evaluation budget would be exceeded
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .distortion import (
    VerificationReport,
    default_tolerance,
    image_area,
    verification_suite,
)
from .errors import (
    BudgetError,
    ConstructionError,
    CriticalPointError,
    NonConvergenceError,
    PoleError,
)
from .presets import preset_map, preset_names
from .quadrature import DEFAULT_TOL, mc_image_area
from .regions import Disk, PixelGrid, region_measure
from .search import FamilySpec, maximize_area_ratio, maximize_sp_ratio, sweep
from .serialize import (
    ParseError,
    family_from_json,
    fmt,
    map_from_json,
    region_from_json,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
    search_result_to_csv,
    sweep_to_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmarea",
        description=(
            "Measure area distortion of planar harmonic maps: image areas, "
            "inequality margins, and extremal parameter searches."
        ),
        epilog="Exit codes:" + __doc__.split("Exit codes:")[1],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "area": "image area of a region under a map, plus the area ratio",
        "verify": "run the full inequality suite for one map",
        "sweep": "tabulate area ratios over a parameter lattice",
        "search": "maximize area ratio (--family) or Schwarz-Pick ratio (--map)",
        "oracle": "cross-check the Jacobian integral against rasterization",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--map", type=Path, help="map definition JSON file")
        cmd.add_argument("--region", type=Path, help="region definition JSON file")
        cmd.add_argument("--family", type=Path, help="family definition JSON file")
        cmd.add_argument(
            "--r", type=float, help="radius shorthand for a disk region (default 0.5)"
        )
        cmd.add_argument("--tol", type=float, default=DEFAULT_TOL)
        cmd.add_argument(
            "--n",
            type=int,
            help=(
                "resolution knob: raster size (oracle), lattice points per "
                "axis (sweep), refinement iterations (search); area and verify "
                "ignore it"
            ),
        )
        cmd.add_argument("--seed", type=int, default=42)
        cmd.add_argument("--out", type=Path, default=Path("."))
        cmd.add_argument("--format", choices=("json", "csv", "both"), default="csv")
        cmd.add_argument(
            "--preset",
            choices=preset_names(),
            help="built-in map name (alternative to --map)",
        )
        cmd.add_argument("--workers", type=int, default=1)
    return parser


def _check_args(args: argparse.Namespace) -> None:
    if not math.isfinite(args.tol):
        raise ParseError("--tol must be finite")
    if args.tol < 1e-12:
        raise ParseError("--tol must be at least 1e-12")
    if args.command in ("sweep", "search") and args.format == "json":
        raise ParseError(f"{args.command} writes CSV only: use --format csv or both")
    # --workers is accepted for compatibility; every command runs serially.
    if args.workers < 1:
        raise ParseError("--workers must be >= 1")
    if args.seed < 0:
        raise ParseError("--seed must be >= 0")


def _read_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise ParseError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def _load_map(args: argparse.Namespace):
    if args.preset and args.map:
        raise ParseError("give either --map or --preset, not both")
    if args.preset:
        return preset_map(args.preset)
    if args.map:
        return map_from_json(_read_json(args.map))
    raise ParseError("a map is required: pass --map FILE or --preset NAME")


def _load_region(args: argparse.Namespace):
    if args.region:
        region = region_from_json(_read_json(args.region))
        # Every ratio divides by m(E), so an empty grid is not a usable region.
        if isinstance(region, PixelGrid) and not region.mask.any():
            raise ParseError("region has zero measure: the grid has no true cells")
        return region
    r = args.r if args.r is not None else 0.5
    try:
        return Disk(r)
    except ConstructionError as exc:
        raise ParseError(str(exc)) from exc


def _load_family(args: argparse.Namespace) -> FamilySpec:
    if not args.family:
        raise ParseError("a family is required: pass --family FILE")
    return family_from_json(_read_json(args.family))


def _emit(args: argparse.Namespace, stem: str, csv_text: str | None, json_text: str | None):
    args.out.mkdir(parents=True, exist_ok=True)
    if csv_text is not None and args.format in ("csv", "both"):
        (args.out / f"{stem}.csv").write_text(csv_text, encoding="utf-8")
    if json_text is not None and args.format in ("json", "both"):
        (args.out / f"{stem}.json").write_text(json_text, encoding="utf-8")


def cmd_area(args: argparse.Namespace) -> int:
    f = _load_map(args)
    region = _load_region(args)
    measure = region_measure(region)
    result = image_area(f, region, args.tol)
    ratio = result.value / measure
    print(f"m(E) = {fmt(measure)}")
    print(f"m(f(E)) = {fmt(result.value)}")
    print(f"ratio = {fmt(ratio)}")
    print(f"quadrature_error = {fmt(result.error_estimate)}")
    print(f"evals = {result.evals}")
    row = VerificationReport(
        "area-ratio",
        result.value,
        measure,
        default_tolerance(args.tol, result.error_estimate),
        f"ratio={fmt(ratio)}",
        evals=result.evals,
    )
    payload = {
        "command": "area",
        "m_E": measure,
        "m_f_E": result.value,
        "ratio": ratio,
        "error_estimate": result.error_estimate,
        "evals": result.evals,
        "report": report_to_dict(row),
    }
    _emit(
        args,
        "area",
        reports_to_csv([row]),
        json.dumps(payload, indent=2, sort_keys=True),
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    f = _load_map(args)
    rows = verification_suite(f, args.tol)
    failed = 0
    for row in rows:
        if not row.checked:
            status = "info"
        elif row.passed:
            status = "pass"
        else:
            status = "FAIL"
            failed += 1
        print(
            f"{row.name}: lhs={fmt(row.lhs)} rhs={fmt(row.rhs)} "
            f"margin={fmt(row.margin)} [{status}]"
        )
    _emit(args, "verify", reports_to_csv(rows), reports_to_json(rows))
    print(f"checked rows failing: {failed}")
    return 1 if failed else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    family = _load_family(args)
    region = _load_region(args)
    grid = args.n if args.n is not None else 33
    rows = sweep(family, region, grid, args.tol)
    best = rows[0]
    names = family.param_names
    best_params = " ".join(
        f"{name}={fmt(value)}" for name, value in zip(names, best.params)
    )
    feasible = "true" if best.feasible else "false"
    print(f"best: {best_params} ratio={fmt(best.ratio)} feasible={feasible}")
    _emit(args, "sweep", sweep_to_csv(rows, names), None)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    region = _load_region(args)
    iterations = args.n if args.n is not None else 200
    if args.family and (args.map or args.preset):
        raise ParseError("search takes --family or a map (--map/--preset), not both")
    if args.family:
        family = _load_family(args)
        result = maximize_area_ratio(
            family, region, iterations, args.seed, tol=args.tol
        )
        names = family.param_names
        objective = "area-ratio"
    else:
        f = _load_map(args)
        result = maximize_sp_ratio(f, region, iterations, args.seed)
        names = ("x", "y")
        objective = "sp-ratio"
    best_params = " ".join(
        f"{name}={fmt(value)}" for name, value in zip(names, result.best_params)
    )
    print(f"objective = {objective}")
    print(f"best: {best_params} value={fmt(result.best_value)}")
    print(f"evaluations = {result.evaluations}")
    if objective == "sp-ratio":
        exceeds = result.best_value > 1.0 + 10.0 * args.tol
        print(f"exceeds_one = {'true' if exceeds else 'false'}")
    _emit(args, "search", search_result_to_csv(result, names), None)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    f = _load_map(args)
    region = _load_region(args)
    n = args.n if args.n is not None else 1024
    raster = mc_image_area(f, region, n, args.seed)
    integral = image_area(f, region, args.tol)
    gap = abs(raster.value - integral.value)
    rel_gap = gap / abs(integral.value) if integral.value else math.inf
    threshold = max(
        0.02 * abs(integral.value),
        5.0 * (raster.error_estimate + integral.error_estimate),
    )
    # Such a threshold would accept a raster area of 0: the run tests nothing.
    if threshold >= abs(integral.value):
        raise ConstructionError(
            f"raster of n = {n} is too coarse: threshold {fmt(threshold)} >= "
            f"|jacobian_integral| {fmt(abs(integral.value))}; raise --n"
        )
    print(f"raster_area = {fmt(raster.value)}")
    print(f"jacobian_integral = {fmt(integral.value)}")
    print(f"relative_gap = {fmt(rel_gap)}")
    print(f"threshold = {fmt(threshold)}")
    rows = [
        VerificationReport(
            "oracle-le",
            raster.value,
            integral.value,
            threshold,
            f"rel_gap={fmt(rel_gap)}",
            evals=raster.evals + integral.evals,
        ),
        VerificationReport(
            "oracle-ge",
            integral.value,
            raster.value,
            threshold,
            f"rel_gap={fmt(rel_gap)}",
            evals=raster.evals + integral.evals,
        ),
    ]
    _emit(args, "oracle", reports_to_csv(rows), reports_to_json(rows))
    return 0 if all(row.passed for row in rows) else 1


_COMMANDS = {
    "area": cmd_area,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "search": cmd_search,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return _COMMANDS[args.command](args)
    except NonConvergenceError as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    # BudgetError subclasses ValueError, so this catch-all must come last.
    # ParseError and the package's input and hypothesis errors subclass
    # ValueError.  CriticalPointError and PoleError mean the map cannot be
    # evaluated where the command needs it: a precondition, not a failed
    # inequality.
    except (ValueError, CriticalPointError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The command stage of the CLI: one cmd_* function per subcommand.

entry.py parses and checks the arguments, then calls run; main is entry's,
re-exported so that harmarea.cli.main stays the whole CLI.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

from .distortion import (
    VerificationReport,
    default_tolerance,
    image_area,
    verification_suite,
)
from .entry import main
from .errors import ConstructionError, ParseError
from .presets import preset_map
from .quadrature import mc_image_area
from .regions import Disk, region_measure
from .search import maximize_area_ratio, maximize_sp_ratio, sweep
from .serialize import (
    _bool,
    family_from_json,
    fmt,
    map_from_json,
    region_from_json,
    report_fields,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
    reports_to_text,
    search_result_to_csv,
    sweep_to_csv,
)


def _read_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise ParseError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def _load_map(args: argparse.Namespace):
    if args.preset:
        return preset_map(args.preset)
    return map_from_json(_read_json(args.map))


def _load_region(args: argparse.Namespace):
    if args.region:
        region = region_from_json(_read_json(args.region))
    else:
        region = Disk(args.r if args.r is not None else 0.5)
    # Every ratio divides by m(E): an empty grid, or a disk or star whose
    # measure underflows, is not a usable region.
    if region_measure(region) == 0.0:
        raise ParseError("region has zero measure")
    return region


def _emit(args: argparse.Namespace, stem: str, csv_text, json_text=None):
    """Write stem.csv and stem.json as --format asks, building a text only if it is written."""
    args.out.mkdir(parents=True, exist_ok=True)
    for suffix, text in (("csv", csv_text), ("json", json_text)):
        if text is not None and args.format in (suffix, "both"):
            (args.out / f"{stem}.{suffix}").write_text(text(), encoding="utf-8")


def _best(names, values) -> str:
    """The "best: name=value ..." head of sweep's and search's summary line."""
    return "best: " + " ".join(f"{name}={fmt(value)}" for name, value in zip(names, values))


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
    _emit(args, "area", lambda: reports_to_csv([row]),
          lambda: json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    f = _load_map(args)
    rows = verification_suite(f, args.tol)
    fields = [report_fields(row) for row in rows]
    print(reports_to_text(rows, fields), end="")
    _emit(args, "verify", lambda: reports_to_csv(rows, fields), lambda: reports_to_json(rows))
    failed = sum(row.checked and not row.passed for row in rows)
    print(f"checked rows failing: {failed}")
    return 1 if failed else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    family = family_from_json(_read_json(args.family))
    region = _load_region(args)
    grid = args.n if args.n is not None else 33
    rows = sweep(family, region, grid, args.tol)
    best = rows[0]
    names = family.param_names
    print(f"{_best(names, best.params)} ratio={fmt(best.ratio)} feasible={_bool(best.feasible)}")
    _emit(args, "sweep", lambda: sweep_to_csv(rows, names))
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    region = _load_region(args)
    iterations = args.n if args.n is not None else 200
    if args.family:
        family = family_from_json(_read_json(args.family))
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
    print(f"objective = {objective}")
    print(f"{_best(names, result.best_params)} value={fmt(result.best_value)}")
    print(f"evaluations = {result.evaluations}")
    if objective == "sp-ratio":
        exceeds = result.best_value > 1.0 + 10.0 * args.tol
        print(f"exceeds_one = {_bool(exceeds)}")
    _emit(args, "search", lambda: search_result_to_csv(result, names))
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
    detail, evals = f"rel_gap={fmt(rel_gap)}", raster.evals + integral.evals
    rows = [
        VerificationReport(name, lhs, rhs, threshold, detail, evals=evals)
        for name, lhs, rhs in (
            ("oracle-le", raster.value, integral.value),
            ("oracle-ge", integral.value, raster.value),
        )
    ]
    _emit(args, "oracle", lambda: reports_to_csv(rows), lambda: reports_to_json(rows))
    return 0 if all(row.passed for row in rows) else 1


_COMMANDS = {
    "area": cmd_area,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "search": cmd_search,
    "oracle": cmd_oracle,
}


def run(args: argparse.Namespace) -> int:
    """Run the command of arguments that entry.main has parsed and checked."""
    return _COMMANDS[args.command](args)

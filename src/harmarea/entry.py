"""Command-line verification harness.

Subcommands: area, verify, sweep, search, oracle.  Exit codes:
  0  success (all checked inequalities pass)
  1  a checked inequality or oracle-agreement test failed
  2  input could not be parsed or violates a precondition
  3  quadrature refinement hit its caps without converging
  4  an evaluation budget would be exceeded
"""

# The parse stage: no numpy, so --help, usage errors and the argument
# refusals answer before the numerical modules load.  The commands live in
# cli.py, imported only once the arguments pass.

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import (
    DEFAULT_TOL,
    MIN_TOL,
    BudgetError,
    CriticalPointError,
    NonConvergenceError,
    ParseError,
    PoleError,
)
from .presets import preset_names


# Per subcommand: its help text, the inputs it reads and whether it writes
# JSON.  Each input has the flags below.  A region given by neither flag is
# the disk of radius 0.5, a map or a family must be given, and a command
# that reads both takes one of them.
_INPUTS = {"map": ("map", "preset"), "region": ("region", "r"), "family": ("family",)}
_COMMANDS = {
    "area": ("image area of a region under a map, plus the area ratio", ("map", "region"), True),
    "verify": ("run the full inequality suite for one map", ("map",), True),
    "sweep": ("tabulate area ratios over a parameter lattice", ("family", "region"), False),
    "search": ("maximize area ratio (--family) or Schwarz-Pick ratio (--map)",
               ("family", "map", "region"), False),
    "oracle": ("cross-check the Jacobian integral against rasterization", ("map", "region"), True),
}


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--map", type=Path, help="map definition JSON file")
    common.add_argument("--region", type=Path, help="region definition JSON file")
    common.add_argument("--family", type=Path, help="family definition JSON file")
    common.add_argument(
        "--r", type=float, help="radius shorthand for a disk region (default 0.5)"
    )
    common.add_argument("--tol", type=float, default=DEFAULT_TOL)
    common.add_argument(
        "--n", type=int, help="resolution knob: raster size (oracle), lattice points per axis "
        "(sweep), refinement iterations (search); area and verify ignore it"
    )
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--out", type=Path, default=Path("."))
    common.add_argument("--format", choices=("json", "csv", "both"), default="csv")
    common.add_argument(
        "--preset", choices=preset_names(), help="built-in map name (alternative to --map)"
    )
    common.add_argument("--workers", type=int, default=1)
    for name, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def _check_args(args: argparse.Namespace) -> None:
    _, reads, writes_json = _COMMANDS[args.command]
    given = {name: [flag for flag in flags if getattr(args, flag) is not None]
             for name, flags in _INPUTS.items()}
    if not math.isfinite(args.tol):
        raise ParseError("--tol must be finite")
    if args.tol < MIN_TOL:
        raise ParseError(f"--tol must be at least {MIN_TOL:g}")
    if not writes_json and args.format == "json":
        raise ParseError(f"{args.command} writes CSV only: use --format csv or both")
    # --workers is accepted for compatibility; every command runs serially.
    if args.workers < 1:
        raise ParseError("--workers must be >= 1")
    if args.seed < 0:
        raise ParseError("--seed must be >= 0")
    for name, flags in given.items():
        if flags and name not in reads:
            raise ParseError(f"{args.command} does not read --{flags[0]}")
    # The reports are written last: a file in the way would fail the run
    # only after its work and its stdout.
    blocker = next((p for p in (args.out, *args.out.parents) if p.exists()), None)
    if blocker is not None and not blocker.is_dir():
        raise ParseError(f"--out path {blocker} exists and is not a directory")
    for flags in given.values():
        if len(flags) > 1:
            raise ParseError(f"give either --{flags[0]} or --{flags[1]}, not both")
    if given["family"] and given["map"]:
        raise ParseError(f"{args.command} takes --family or a map (--map/--preset), not both")
    if not (given["family"] or given["map"]):
        if "map" in reads:
            raise ParseError("a map is required: pass --map FILE or --preset NAME")
        raise ParseError("a family is required: pass --family FILE")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_args(args)
        from .cli import run

        return run(args)
    except NonConvergenceError as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    # BudgetError subclasses ValueError, so this catch-all must come last.
    # ParseError and the package's input and hypothesis errors subclass
    # ValueError.  CriticalPointError and PoleError mean the map cannot be
    # evaluated where the command needs it, and an OSError that the system
    # refused a path: preconditions, not failed inequalities.
    except (ValueError, OSError, CriticalPointError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

"""JSON ingestion and deterministic report emission.

File formats:
  map     {"form":"polynomial","h":[[re,im],...],"g":[[re,im],...]}
          {"form":"affine","alpha":[re,im]}
          {"form":"shear","alpha":[re,im],"power":p}
          {"form":"automorphism","a":[re,im],"rotation":t}
  region  {"kind":"disk","r":0.5}
          {"kind":"star","profile":[...]}
          {"kind":"grid","n":1024,"mask":"<base64 row-major bits>"}
  family  {"kind":"affine","alpha_range":[lo,hi], ...constraints}
          {"kind":"shear","alpha_range":[lo,hi],"powers":[2,...], ...}
          {"kind":"automorphism","modulus_range":[lo,hi],
           "rotation_range":[lo,hi], ...}
          {"kind":"rawball","degree":d,"coeff_bound":b, ...}
          constraints: "require_self_map", "require_sense_preserving" (bool)
The tag ("form" or "kind") picks a builder whose parameters are the other
keys; any other key is refused.  Degree, powers, power and n are whole.

Grid masks pack row-major (row 0 = lowest y), one bit per cell.  All CSV
floats print with 17 significant digits and \n line endings so identical
inputs yield byte-identical files.
"""

from __future__ import annotations

import base64
import csv
import functools
import io
import json
import math
from dataclasses import asdict, fields
from inspect import signature

import numpy as np

from .distortion import VerificationReport
from .errors import ConstructionError, ParseError
from .maps import (
    DiskAutomorphism,
    HarmonicMap,
    PolynomialMap,
    _number,
    _whole,
    affine,
    automorphism,
    raw_polynomial,
    shear,
)
from .regions import Disk, PixelGrid, Region, StarShaped
from .search import (
    AffineFamily,
    AutomorphismFamily,
    FamilySpec,
    RawBall,
    SearchResult,
    ShearFamily,
    SweepRow,
)


def fmt(x: float) -> str:
    """Canonical float formatting: 17 significant digits."""
    return f"{x:.17g}"


def _pair(value, what: str) -> complex:
    try:
        re, im = value
        return complex(_number(re, what), _number(im, what))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what} must be a [re, im] pair") from exc


def _grid(n, mask) -> PixelGrid:
    n = _whole(n, "grid n")
    raw = base64.b64decode(mask, validate=True)
    # Before n * n: reshape takes a negative n for "any size", and the message
    # below would print a huge n in full.
    if n < 2:
        raise ConstructionError("grid resolution must be >= 2")
    if n > 8 * len(raw):
        raise ParseError(f"grid n is too large for its {len(raw)}-byte mask")
    size = (n * n + 7) // 8
    if len(raw) != size:
        raise ParseError(f"grid mask must be {size} bytes for n = {n}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n * n)
    return PixelGrid(n=n, mask=bits.astype(bool).reshape(n, n))


def _flag(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"{key} must be a JSON boolean (true or false)")
    return value


# FamilySpec's fields are "kind" and the two flags; no flag is required.
_FLAGS = dict.fromkeys((f.name for f in fields(FamilySpec)[1:]), False)


def _family(cls, **given) -> FamilySpec:
    flags = {key: _flag(given.pop(key), key) for key in _FLAGS if key in given}
    return FamilySpec(cls(**given), **flags)


def _table(**builders) -> dict:
    """tag value -> (builder, {key: required}), read once from its signature."""
    return {
        name: (build, {p.name: p.default is p.empty for p in signature(build).parameters.values()})
        for name, build in builders.items()
    }


_MAPS = _table(
    polynomial=lambda h, g: raw_polynomial([_pair(c, "h") for c in h], [_pair(c, "g") for c in g]),
    affine=lambda alpha: affine(_pair(alpha, "alpha")),
    shear=lambda alpha, power=2: shear(_pair(alpha, "alpha"), power),
    automorphism=lambda a, rotation=0.0: automorphism(_pair(a, "a"), _number(rotation, "rotation")),
)
_REGIONS = _table(
    disk=lambda r: Disk(_number(r, "disk radius")),
    star=lambda profile: StarShaped([_number(v, "profile value") for v in profile]),
    grid=_grid,
)
_FAMILIES = {
    "affine": AffineFamily,
    "shear": ShearFamily,
    "automorphism": AutomorphismFamily,
    "rawball": RawBall,
}
_SPECS = {kind: (functools.partial(_family, cls), {**keys, **_FLAGS})
          for kind, (cls, keys) in _table(**_FAMILIES).items()}


def _read(doc, what: str, tag: str, table: dict):
    """What the builder named by doc[tag] makes from the other keys.  A key it
    does not take is refused, a missing required one raises KeyError, and its
    error is a bad document (its own ParseError stays as it is)."""
    if not isinstance(doc, dict):
        raise ParseError(f"{what} document must be a JSON object")
    name = doc.get(tag)
    if not isinstance(name, str) or name not in table:
        raise ParseError(f"unknown {what} {tag}: {name!r}")
    build, keys = table[name]
    unknown = sorted(doc.keys() - keys.keys() - {tag}, key=str)
    if unknown:
        raise ParseError(f"unknown {what} key: {unknown[0]!r}")
    try:
        return build(**{key: doc[key] for key, needed in keys.items() if needed or key in doc})
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad {what} document: {exc}") from exc


def map_from_json(doc: dict) -> HarmonicMap:
    return _read(doc, "map", "form", _MAPS)


def map_to_json(f: HarmonicMap) -> dict:
    if isinstance(f, DiskAutomorphism):
        return {
            "form": "automorphism",
            "a": [f.a.real, f.a.imag],
            "rotation": f.rotation,
        }
    if isinstance(f, PolynomialMap):
        return {
            "form": "polynomial",
            "h": [[c.real, c.imag] for c in f.h.coefficients],
            "g": [[c.real, c.imag] for c in f.g.coefficients],
        }
    raise ParseError(f"cannot serialize map of type {type(f).__name__}")


def region_from_json(doc: dict) -> Region:
    return _read(doc, "region", "kind", _REGIONS)


def region_to_json(E: Region) -> dict:
    if isinstance(E, Disk):
        return {"kind": "disk", "r": E.r}
    if isinstance(E, StarShaped):
        return {"kind": "star", "profile": list(E.profile)}
    packed = np.packbits(E.mask.ravel().astype(np.uint8))
    return {
        "kind": "grid",
        "n": E.n,
        "mask": base64.b64encode(packed.tobytes()).decode("ascii"),
    }


def family_from_json(doc: dict) -> FamilySpec:
    return _read(doc, "family", "kind", _SPECS)


def family_to_json(spec: FamilySpec) -> dict:
    kind = spec.kind
    names = [name for name, cls in _FAMILIES.items() if isinstance(kind, cls)]
    if not names:
        raise ParseError(f"cannot serialize family of type {type(kind).__name__}")
    doc = {"kind": names[0]}
    for key, value in asdict(kind).items():
        doc[key] = list(value) if isinstance(value, tuple) else value
    for flag in fields(FamilySpec)[1:]:
        doc[flag.name] = getattr(spec, flag.name)
    return doc


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _csv(header: list[str], rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def report_fields(rep: VerificationReport) -> list:
    """One report row as printed: name, lhs, rhs, margin, pass, tol, evals."""
    return [rep.name, fmt(rep.lhs), fmt(rep.rhs), fmt(rep.margin), _bool(rep.passed),
            fmt(rep.tolerance), rep.evals]


def reports_to_csv(reports: list[VerificationReport], fields: list | None = None) -> str:
    """CSV rows (name, lhs, rhs, margin, pass, tol, evals): fields, else report_fields(reports)."""
    header = ["name", "lhs", "rhs", "margin", "pass", "tol", "evals"]
    return _csv(header, fields or map(report_fields, reports))


def reports_to_text(reports: list[VerificationReport], fields: list | None = None) -> str:
    """Lines "name: lhs=... rhs=... margin=... [status]", status info for a
    row that is not checked, else pass or FAIL; fields as in reports_to_csv."""
    lines = []
    for rep, (name, lhs, rhs, margin, *_) in zip(reports, fields or map(report_fields, reports)):
        status = ("pass" if rep.passed else "FAIL") if rep.checked else "info"
        lines.append(f"{name}: lhs={lhs} rhs={rhs} margin={margin} [{status}]\n")
    return "".join(lines)


def report_to_dict(rep: VerificationReport) -> dict:
    """The report's fields, with its margin and pass."""
    return {**vars(rep), "margin": rep.margin, "pass": rep.passed}


def reports_to_json(reports: list[VerificationReport]) -> str:
    """json.dumps(dicts, indent=2, sort_keys=True), byte for byte, from the C
    encoder: JSON escapes a newline in a string, so only separators hold one."""
    dicts = [report_to_dict(r) for r in reports]
    text = json.dumps(dicts, sort_keys=True, separators=(",\n    ", ": "))
    body = text[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
    return "[\n  {\n    " + body + "\n  }\n]" if reports else "[]"


def search_result_to_csv(result: SearchResult, param_names: tuple[str, ...]) -> str:
    """Trace CSV (iteration, params..., value, feasible).

    Feasible is inferred from the -1 infeasibility penalty, which no
    feasible nonnegative objective in this package can reach.
    """
    rows = (
        [i, *map(fmt, params), fmt(value), _bool(value > -1.0)]
        for i, (params, value) in enumerate(result.trace)
    )
    return _csv(["iteration", *param_names, "value", "feasible"], rows)


def sweep_to_csv(rows: list[SweepRow], param_names: tuple[str, ...]) -> str:
    """Sweep table CSV sorted as produced (descending ratio)."""
    table = (
        [row.index, *map(fmt, row.params), fmt(row.ratio) if math.isfinite(row.ratio) else "nan",
         _bool(row.feasible), row.note]
        for row in rows
    )
    return _csv(["index", *param_names, "ratio", "feasible", "note"], table)

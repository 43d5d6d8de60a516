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
          keys are the family class's fields; degree and powers are whole
          constraints: "require_self_map", "require_sense_preserving" (bool)
          any other key is refused

Grid masks pack row-major (row 0 = lowest y), one bit per cell.  All CSV
floats print with 17 significant digits and \n line endings so identical
inputs yield byte-identical files.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import math
from dataclasses import MISSING, asdict, fields

import numpy as np

from .distortion import VerificationReport
from .maps import (
    DiskAutomorphism,
    HarmonicMap,
    PolynomialMap,
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


class ParseError(ValueError):
    """Input file or document does not match the expected schema."""


def fmt(x: float) -> str:
    """Canonical float formatting: 17 significant digits."""
    return f"{x:.17g}"


def _pair(value, what: str) -> complex:
    try:
        re, im = float(value[0]), float(value[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{what} must be a [re, im] pair") from exc
    return complex(re, im)


def _coeffs(value, what: str) -> tuple[complex, ...]:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{what} must be a nonempty list of [re, im] pairs")
    return tuple(_pair(item, what) for item in value)


def map_from_json(doc: dict) -> HarmonicMap:
    if not isinstance(doc, dict):
        raise ParseError("map document must be a JSON object")
    form = doc.get("form")
    try:
        if form == "polynomial":
            return raw_polynomial(_coeffs(doc["h"], "h"), _coeffs(doc["g"], "g"))
        if form == "affine":
            return affine(_pair(doc["alpha"], "alpha"))
        if form == "shear":
            return shear(_pair(doc["alpha"], "alpha"), doc.get("power", 2))
        if form == "automorphism":
            return automorphism(_pair(doc["a"], "a"), float(doc.get("rotation", 0.0)))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad map document: {exc}") from exc
    raise ParseError(f"unknown map form: {form!r}")


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
    if not isinstance(doc, dict):
        raise ParseError("region document must be a JSON object")
    kind = doc.get("kind")
    try:
        if kind == "disk":
            return Disk(float(doc["r"]))
        if kind == "star":
            return StarShaped(tuple(float(v) for v in doc["profile"]))
        if kind == "grid":
            n = _whole(doc["n"], "grid n")
            raw = base64.b64decode(doc["mask"], validate=True)
            size = (n * n + 7) // 8
            if len(raw) != size:
                raise ParseError(f"grid mask must be {size} bytes for n = {n}")
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n * n)
            return PixelGrid(n=n, mask=bits.astype(bool).reshape(n, n))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad region document: {exc}") from exc
    raise ParseError(f"unknown region kind: {kind!r}")


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


def _flag(doc, key, default: bool) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ParseError(f"{key} must be a JSON boolean (true or false)")
    return value


_FAMILIES = {
    "affine": AffineFamily,
    "shear": ShearFamily,
    "automorphism": AutomorphismFamily,
    "rawball": RawBall,
}


def family_from_json(doc: dict) -> FamilySpec:
    """The family class named by "kind", built from the document's keys of
    the same names as its fields; the class checks them.  Any other key but
    "kind" and the two flags is refused."""
    if not isinstance(doc, dict):
        raise ParseError("family document must be a JSON object")
    kind = doc.get("kind")
    cls = _FAMILIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"unknown family kind: {kind!r}")
    # FamilySpec's fields are "kind" and the two flags.
    unknown = sorted(doc.keys() - {f.name for f in fields(FamilySpec) + fields(cls)}, key=str)
    if unknown:
        raise ParseError(f"unknown family key: {unknown[0]!r}")
    # A missing required field raises KeyError; a missing default one stays.
    given = [f.name for f in fields(cls) if f.name in doc or f.default is MISSING]
    try:
        inner = cls(**{name: doc[name] for name in given})
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad family document: {exc}") from exc
    flags = {f.name: _flag(doc, f.name, f.default) for f in fields(FamilySpec)[1:]}
    return FamilySpec(kind=inner, **flags)


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


def reports_to_csv(reports: list[VerificationReport]) -> str:
    """CSV rows (name, lhs, rhs, margin, pass, tol, evals)."""
    header = ["name", "lhs", "rhs", "margin", "pass", "tol", "evals"]
    return _csv(header, map(report_fields, reports))


def reports_to_text(reports: list[VerificationReport]) -> str:
    """Lines "name: lhs=... rhs=... margin=... [status]", status info for a
    row that is not checked, else pass or FAIL."""
    lines = []
    for rep in reports:
        name, lhs, rhs, margin = report_fields(rep)[:4]
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

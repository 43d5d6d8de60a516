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

import numpy as np

from .distortion import VerificationReport
from .maps import (
    DiskAutomorphism,
    HarmonicMap,
    PolynomialMap,
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
            return shear(_pair(doc["alpha"], "alpha"), int(doc.get("power", 2)))
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
            n = int(doc["n"])
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


def _range(doc, key) -> tuple[float, float]:
    value = doc[key]
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{key} must be [lo, hi]")
    return float(value[0]), float(value[1])


def _flag(doc, key, default: bool) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ParseError(f"{key} must be a JSON boolean (true or false)")
    return value


def family_from_json(doc: dict) -> FamilySpec:
    if not isinstance(doc, dict):
        raise ParseError("family document must be a JSON object")
    kind = doc.get("kind")
    try:
        if kind == "affine":
            inner = AffineFamily(_range(doc, "alpha_range"))
        elif kind == "shear":
            inner = ShearFamily(
                _range(doc, "alpha_range"),
                tuple(int(p) for p in doc.get("powers", [2])),
            )
        elif kind == "automorphism":
            inner = AutomorphismFamily(
                _range(doc, "modulus_range"), _range(doc, "rotation_range")
            )
        elif kind == "rawball":
            inner = RawBall(int(doc["degree"]), float(doc["coeff_bound"]))
        else:
            raise ParseError(f"unknown family kind: {kind!r}")
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad family document: {exc}") from exc
    return FamilySpec(
        kind=inner,
        require_self_map=_flag(doc, "require_self_map", False),
        require_sense_preserving=_flag(doc, "require_sense_preserving", True),
    )


def family_to_json(spec: FamilySpec) -> dict:
    kind = spec.kind
    if isinstance(kind, AffineFamily):
        doc = {"kind": "affine", "alpha_range": list(kind.alpha_range)}
    elif isinstance(kind, ShearFamily):
        doc = {
            "kind": "shear",
            "alpha_range": list(kind.alpha_range),
            "powers": list(kind.powers),
        }
    elif isinstance(kind, AutomorphismFamily):
        doc = {
            "kind": "automorphism",
            "modulus_range": list(kind.modulus_range),
            "rotation_range": list(kind.rotation_range),
        }
    elif isinstance(kind, RawBall):
        doc = {"kind": "rawball", "degree": kind.degree, "coeff_bound": kind.coeff_bound}
    else:
        raise ParseError(f"cannot serialize family of type {type(kind).__name__}")
    doc["require_self_map"] = spec.require_self_map
    doc["require_sense_preserving"] = spec.require_sense_preserving
    return doc


def _bool(value: bool) -> str:
    return "true" if value else "false"


def reports_to_csv(reports: list[VerificationReport]) -> str:
    """CSV rows (name, lhs, rhs, margin, pass, tol, evals)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["name", "lhs", "rhs", "margin", "pass", "tol", "evals"])
    for rep in reports:
        writer.writerow(
            [
                rep.name,
                fmt(rep.lhs),
                fmt(rep.rhs),
                fmt(rep.margin),
                _bool(rep.passed),
                fmt(rep.tolerance),
                rep.evals,
            ]
        )
    return out.getvalue()


def report_to_dict(rep: VerificationReport) -> dict:
    return {
        "name": rep.name,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "margin": rep.margin,
        "pass": rep.passed,
        "tolerance": rep.tolerance,
        "detail": rep.detail,
        "checked": rep.checked,
        "evals": rep.evals,
    }


def reports_to_json(reports: list[VerificationReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2, sort_keys=True)


def search_result_to_csv(result: SearchResult, param_names: tuple[str, ...]) -> str:
    """Trace CSV (iteration, params..., value, feasible).

    Feasible is inferred from the -1 infeasibility penalty, which no
    feasible nonnegative objective in this package can reach.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["iteration", *param_names, "value", "feasible"])
    for i, (params, value) in enumerate(result.trace):
        writer.writerow(
            [i, *[fmt(p) for p in params], fmt(value), _bool(value > -1.0)]
        )
    return out.getvalue()


def sweep_to_csv(rows: list[SweepRow], param_names: tuple[str, ...]) -> str:
    """Sweep table CSV sorted as produced (descending ratio)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["index", *param_names, "ratio", "feasible", "note"])
    for row in rows:
        ratio = fmt(row.ratio) if math.isfinite(row.ratio) else "nan"
        writer.writerow(
            [row.index, *[fmt(p) for p in row.params], ratio, _bool(row.feasible), row.note]
        )
    return out.getvalue()

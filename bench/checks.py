"""Output checks that do not rely on the code under test.

Each factory returns `check(stdout, files) -> list[str]`, where `files` maps
report file names to their bytes; an empty list means the output is correct.

Tolerances, fixed before any run and never widened to pass one:
- a quadrature value against its closed form: 10 * TOL * max(1, |exact|)
  with TOL = 1e-9, the CLI's default target (see exact.quad_close);
- an area ratio: that bound divided by the region's measure;
- a raster image area against the closed form: 2 % relative, the agreement
  floor the oracle itself documents;
- a Schwarz-Pick ratio against its direct evaluation: 1e-10 relative, since
  both are one closed-form evaluation in double precision;
- a measure of a pixel grid: 1e-12 relative, since it is a count times a
  cell area.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from exact import (
    TOL,
    Mobius,
    Poly,
    disk_area,
    disk_energy,
    hyperbolic_disk,
    quad_close,
    sp_value,
)

VERIFY_RADII = tuple(k / 10 for k in range(1, 10))
ORACLE_RTOL = 0.02
SP_RTOL = 1e-10


def _rows(files: dict[str, bytes], name: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(files[name].decode("utf-8"))))


def _stdout_value(stdout: str, key: str) -> float:
    match = re.search(rf"^{re.escape(key)} = (\S+)$", stdout, re.MULTILINE)
    if match is None:
        raise ValueError(f"stdout has no '{key} = ...' line")
    return float(match.group(1))


def _guarded(check):
    """Turn a parse failure in a check into a reported error."""

    def run(stdout: str, files: dict[str, bytes]) -> list[str]:
        try:
            return check(stdout, files)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    return run


def verify_check(f: Poly | Mobius):
    """Disk areas and energies at the nine suite radii match the closed forms,
    the map-independent reference rows carry their exact values, and the
    JSON report lists the same rows as the CSV."""

    def check(stdout, files):
        rows = {row["name"]: row for row in _rows(files, "verify.csv")}
        errors = []
        for r in VERIFY_RADII:
            tag = f"r={r:.1f}"
            expected = [
                (f"areasp {tag}", "lhs", disk_area(f, r)),
                (f"chain-energy {tag}", "rhs", disk_energy(f, r)),
                (f"hyperbolic-le {tag}", "lhs", hyperbolic_disk(r)),
                (f"shear-le {tag}", "lhs", disk_area(Poly((0j, 1 + 0j), (0j, 0j, 0.3 + 0j)), r)),
            ]
            for name, side, exact in expected:
                value = float(rows[name][side])
                if not quad_close(value, exact):
                    errors.append(f"{name} {side}={value!r}, closed form {exact!r}")
        names = [row["name"] for row in json.loads(files["verify.json"])]
        if names != list(rows):
            errors.append("verify.json rows differ from verify.csv rows")
        return errors

    return _guarded(check)


def _ratio_close(value: float, exact: float, measure: float) -> bool:
    return abs(value - exact) <= 10.0 * TOL * max(1.0, abs(exact) * measure) / measure


def sweep_check(rows_expected: int, ratio, measure: float):
    """Every lattice row is feasible, its ratio matches `ratio(params)`, and
    rows come best first."""

    def check(stdout, files):
        rows = _rows(files, "sweep.csv")
        errors = []
        if len(rows) != rows_expected:
            errors.append(f"{len(rows)} sweep rows, expected {rows_expected}")
        names = [k for k in rows[0] if k not in ("index", "ratio", "feasible", "note")]
        previous = math.inf
        for row in rows:
            params = [float(row[k]) for k in names]
            value = float(row["ratio"])
            if row["feasible"] != "true":
                errors.append(f"row {row['index']} infeasible: {row['note']}")
            exact = ratio(params)
            if not _ratio_close(value, exact, measure):
                errors.append(f"row {row['index']} ratio {value!r}, closed form {exact!r}")
            if value > previous:
                errors.append(f"row {row['index']} out of order")
            previous = value
        return errors

    return _guarded(check)


def rawball_check(bound: float, r: float):
    """Degree-2 rawball on D_r: ratio = 1 - g1^2 + 2 r^2 (h2^2 - g2^2) at every
    trace point, and the maximum 1 + 2 bound^2 r^2 (g = 0, h2 = +-bound) is found."""
    measure = math.pi * r * r

    def ratio(h2, g1, g2):
        return 1.0 - g1 * g1 + 2.0 * r * r * (h2 * h2 - g2 * g2)

    def check(stdout, files):
        rows = _rows(files, "search.csv")
        errors = []
        for row in rows:
            exact = ratio(float(row["h2"]), float(row["g1"]), float(row["g2"]))
            if row["feasible"] != "true" or not _ratio_close(float(row["value"]), exact, measure):
                errors.append(f"trace row {row['iteration']} value {row['value']}, closed form {exact!r}")
        best = float(re.search(r"^best: .* value=(\S+)$", stdout, re.MULTILINE).group(1))
        top = 1.0 + 2.0 * bound * bound * r * r
        if not _ratio_close(best, top, measure):
            errors.append(f"best ratio {best!r}, closed-form maximum {top!r}")
        return errors

    return _guarded(check)


def sp_search_check(f: Poly):
    """Every trace value equals the Schwarz-Pick ratio evaluated directly."""

    def check(stdout, files):
        errors = []
        rows = _rows(files, "search.csv")
        if not rows:
            errors.append("empty search trace")
        for row in rows:
            exact = sp_value(f, complex(float(row["x"]), float(row["y"])))
            value = float(row["value"])
            if abs(value - exact) > SP_RTOL * abs(exact):
                errors.append(f"trace row {row['iteration']} value {value!r}, direct {exact!r}")
        return errors

    return _guarded(check)


def oracle_check(exact: float):
    """The Jacobian integral matches the closed form, and the raster estimate
    lies within the oracle's 2 % agreement floor of it."""

    def check(stdout, files):
        errors = []
        integral = _stdout_value(stdout, "jacobian_integral")
        raster = _stdout_value(stdout, "raster_area")
        if not quad_close(integral, exact):
            errors.append(f"jacobian_integral {integral!r}, closed form {exact!r}")
        if abs(raster - exact) > ORACLE_RTOL * exact:
            errors.append(f"raster_area {raster!r}, closed form {exact!r}")
        if any(row["pass"] != "true" for row in _rows(files, "oracle.csv")):
            errors.append("oracle.csv has a failing row")
        return errors

    return _guarded(check)


def area_check(measure: float, exact: float):
    """m(E) is the counted grid measure and m(f(E)) the closed-form area."""

    def check(stdout, files):
        errors = []
        m_e = _stdout_value(stdout, "m(E)")
        m_f_e = _stdout_value(stdout, "m(f(E))")
        if abs(m_e - measure) > 1e-12 * measure:
            errors.append(f"m(E) {m_e!r}, counted {measure!r}")
        if not quad_close(m_f_e, exact):
            errors.append(f"m(f(E)) {m_f_e!r}, closed form {exact!r}")
        payload = json.loads(files["area.json"])
        if payload["m_E"] != m_e or payload["m_f_E"] != m_f_e:
            errors.append("area.json disagrees with stdout")
        return errors

    return _guarded(check)

"""Spans around calls into harmarea's public functions, installed from outside.

`Tracer.installed()` replaces each traced function with a wrapper wherever a
harmarea module holds it, because callers bind names at import
(`from .quadrature import integrate_polar` in distortion, for example), and
patches methods on their classes.  Nothing under src/harmarea is edited, and
the originals are restored on exit.

A span records its name, job, start, end and parent.  Spans opened on a
worker thread of integrate_polar's pool take the innermost open span of the
job's thread as parent.  A span's self time is its duration minus the union
of its children's intervals, so overlapping worker spans are not subtracted
twice.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Counted per-layer quantities: *.calls, *.evals, *.points, *.cells, *.bytes.
COUNTS = (
    "regions.measure.calls",
    "quadrature.polar.calls",
    "quadrature.polar.evals",
    "quadrature.polar.field_calls",
    "quadrature.polar.nonconverged",
    "maps.eval.calls",
    "maps.eval.points",
    "maps.derivative.calls",
    "maps.validate.calls",
    "distortion.image_area.calls",
    "distortion.energy.calls",
    "distortion.reference.calls",
    "distortion.radial.calls",
    "search.objective.calls",
    "search.build.calls",
    "search.build.rejected",
    "regions.rasterize.cells",
    "regions.contains.points",
    "quadrature.raster.evals",
    "quadrature.grid.evals",
    "serialize.parse.bytes",
    "serialize.emit.bytes",
)

# Self time summed over every span whose name starts with the prefix.
SELF_TIMES = {
    "regions.measure.self_s": "regions.measure",
    "quadrature.polar.self_s": "quadrature.polar",
    "maps.eval.self_s": "maps.eval",
    "maps.derivative.self_s": "maps.derivative",
    "maps.validate.self_s": "maps.validate",
    "distortion.self_s": "distortion.",
    "search.self_s": "search.",
    "regions.rasterize.self_s": "regions.rasterize",
    "regions.contains.self_s": "regions.contains",
    "quadrature.raster.self_s": "quadrature.raster",
    "quadrature.grid.self_s": "quadrature.grid",
    "serialize.parse.self_s": "serialize.parse",
    "serialize.emit.self_s": "serialize.emit",
    "cli.self_s": "cli",
}


def _points(args, kwargs, result):
    return {"points": int(np.size(args[1]))}


def _evals(args, kwargs, result):
    return {"evals": result.evals}


def _emitted(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _parsed(args, kwargs, result):
    return {"bytes": len(json.dumps(args[0]).encode("utf-8"))}


def _rasterized(args, kwargs, result):
    return {"cells": result.n * result.n}


def _sweep_rows(args, kwargs, result):
    return {"objectives": len(result)}


def _search_evaluations(args, kwargs, result):
    return {"objectives": result.evaluations}


def _targets():
    """(owner, attribute, span name, counter) for every traced function."""
    import harmarea.cli as cli
    import harmarea.distortion as distortion
    import harmarea.maps as maps
    import harmarea.quadrature as quadrature
    import harmarea.regions as regions
    import harmarea.search as search
    import harmarea.serialize as serialize

    out = []
    for cls in (maps.PolynomialMap, maps.DiskAutomorphism):
        for name in ("evaluate", "jacobian", "dilatation"):
            out.append((cls, name, "maps.eval", _points))
    # DiskAutomorphism's energy density only delegates to jacobian.
    out.append((maps.PolynomialMap, "analytic_energy_density", "maps.eval", _points))
    out.append((maps.AnalyticSeries, "evaluate", "maps.eval", _points))
    out.append((maps.AnalyticSeries, "derivative", "maps.derivative", None))
    out.append((maps, "validate", "maps.validate", None))
    out.append((regions, "region_measure", "regions.measure", None))
    out.append((regions, "rasterize", "regions.rasterize", _rasterized))
    out.append((regions, "contains_points", "regions.contains", _points))
    out.append((regions, "contains", "regions.contains", lambda a, k, r: {"points": 1}))
    out.append((quadrature, "integrate_polar", "quadrature.polar", _evals))
    out.append((quadrature, "mc_image_area", "quadrature.raster", _evals))
    out.append((quadrature, "integrate_grid", "quadrature.grid", _evals))
    out.append((distortion, "image_area", "distortion.image_area", None))
    out.append((distortion, "analytic_energy", "distortion.energy", None))
    out.append((distortion, "hyperbolic_disk_integral", "distortion.reference", None))
    out.append((distortion, "shear_disk_integral", "distortion.reference", None))
    out.append((distortion, "radial_bound_profile", "distortion.radial", None))
    for name in (
        "verification_suite",
        "quantitative_bounds",
        "sup_dilatation",
        "star_contraction_report",
        "sp_ratio",
    ):
        out.append((distortion, name, "distortion.other", None))
    out.append((search, "sweep", "search.sweep", _sweep_rows))
    out.append((search, "maximize_area_ratio", "search.maximize", _search_evaluations))
    out.append((search, "maximize_sp_ratio", "search.maximize", _search_evaluations))
    out.append((search.FamilySpec, "build", "search.build", None))
    for name in ("map_from_json", "region_from_json", "family_from_json"):
        out.append((serialize, name, "serialize.parse", _parsed))
    for name in ("reports_to_csv", "reports_to_json", "search_result_to_csv", "sweep_to_csv"):
        out.append((serialize, name, "serialize.emit", _emitted))
    out.append((cli, "main", "cli", None))
    return out


class Tracer:
    """Collects the spans of one job at a time; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._job_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent_stack = stack or tracer._job_stack
            parent = parent_stack[-1] if parent_stack else -1
            if name == "quadrature.polar":
                args, kwargs, hits = _count_field_calls(args, kwargs)
            span = [name, tracer.job, time.perf_counter(), None, parent, None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = time.perf_counter()
                span[5] = {"raised": type(exc).__name__}
                raise
            else:
                span[3] = time.perf_counter()
                span[5] = counter(args, kwargs, result) if counter else None
                if name == "quadrature.polar":
                    span[5]["field_calls"] = len(hits)
            finally:
                stack.pop()
            return result

        return traced

    @contextmanager
    def installed(self):
        patches = []
        modules = [m for n, m in sys.modules.items() if n == "harmarea" or n.startswith("harmarea.")]
        for owner, attr, name, counter in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            if isinstance(owner, type):
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        try:
            yield
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    @contextmanager
    def job_scope(self, job: str):
        """Spans opened inside belong to `job`; the calling thread is its root."""
        self.job = job
        self._job_stack = self._stack()
        try:
            yield
        finally:
            self.job = None

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def _count_field_calls(args, kwargs):
    hits: list[None] = []
    field = args[0]

    def counted(z):
        hits.append(None)
        return field(z)

    return (counted, *args[1:]), kwargs, hits


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times of one job's spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, _job, start, end, parent, _attrs in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = dict.fromkeys(COUNTS, 0)
    self_by_name: dict[str, float] = defaultdict(float)
    for index, (name, _job, start, end, _parent, attrs) in enumerate(spans):
        self_by_name[name] += (end - start) - _union_length(children.get(index, []))
        attrs = attrs or {}
        if name + ".calls" in out:
            out[name + ".calls"] += 1
        if "raised" in attrs:
            if name == "search.build":
                out["search.build.rejected"] += 1
            elif name == "quadrature.polar" and attrs["raised"] == "NonConvergenceError":
                out["quadrature.polar.nonconverged"] += 1
        out["search.objective.calls"] += attrs.get("objectives", 0)
        for field, value in attrs.items():
            if f"{name}.{field}" in out:
                out[f"{name}.{field}"] += value
    for metric, prefix in SELF_TIMES.items():
        out[metric] = sum(
            v for n, v in self_by_name.items() if n == prefix or (prefix.endswith(".") and n.startswith(prefix))
        )
    return out


def feasible_ratio(counts: dict[str, float]) -> float:
    """Share of family builds that passed their constraints (0 when none ran)."""
    calls = counts["search.build.calls"]
    return (calls - counts["search.build.rejected"]) / calls if calls else 0.0

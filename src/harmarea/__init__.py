"""Area distortion of planar harmonic mappings.

Compute image areas m(f(E)) of plane regions under sense-preserving
harmonic maps of the unit disk via the area formula, verify the associated
contraction inequalities with explicit margins, and search parametric map
families for extremal area distortion.

The names below load on first use (PEP 562), so `import harmarea` costs no
numpy; each is looked up in its home module every time.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "distortion": "ReferenceIntegral VerificationReport analytic_energy disk_contraction_report "
    "hyperbolic_disk_integral image_area local_contraction_constant quantitative_bounds "
    "radial_bound_profile rigidity_margin shear_disk_integral small_set_threshold sp_ratio "
    "star_contraction_report sup_dilatation verification_suite worst_case_image_area",
    "errors": "BudgetError ConstructionError CriticalPointError DomainError HypothesisError "
    "NonConvergenceError PoleError",
    "maps": "AnalyticSeries DiskAutomorphism HarmonicMap PolynomialMap ValidityReport affine "
    "automorphism identity_map raw_polynomial rescaled_affine rotation_map shear validate",
    "presets": "preset_map preset_names",
    "quadrature": "QuadResult integrate_grid integrate_polar mc_image_area",
    "regions": "Disk PixelGrid Region StarShaped bounding_radius contains contains_points "
    "radial_profile rasterize region_measure star_cos3",
    "search": "AffineFamily AutomorphismFamily FamilySpec RawBall SearchResult ShearFamily "
    "SweepRow maximize_area_ratio maximize_sp_ratio sweep",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})

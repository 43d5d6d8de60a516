"""Seeded inputs and job lists for the benchmark workloads.

The CLI receives only the JSON files written here (and preset names); every
expected value comes from exact.py.  Randomness comes from `random.Random`
seeded with a string, so one workload seed gives the same inputs on every
Python and numpy version.
"""

from __future__ import annotations

import base64
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (
    area_check,
    oracle_check,
    rawball_check,
    sp_search_check,
    sweep_check,
    verify_check,
)
from exact import PRESETS, Map, Mobius, Poly, constant_jacobian, disk_area, star_area

# verify exits 1 on this preset by design: the per-direction radial bound
# r^2/2 fails for automorphisms that move the origin.
VERIFY_EXIT = {"automorphism-0.5": 1}


@dataclass(frozen=True)
class Job:
    """One CLI invocation with everything needed to judge its output."""

    name: str
    argv: list[str]
    outputs: tuple[str, ...]
    check: Callable[[str, dict[str, bytes]], list[str]]
    expect_rc: int = 0
    # An earlier job whose report files this job must reproduce byte for byte.
    same_as: str | None = None


# ------------------------------------------------------------------ generators


def _phase(rng: random.Random) -> complex:
    t = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(t), math.sin(t))


def _weighted(rng: random.Random, ks: range, budget: float) -> list[complex]:
    """Coefficients c_k, k in ks, with sum k |c_k| = budget."""
    raw = [rng.uniform(0.2, 1.0) * _phase(rng) for _ in ks]
    scale = budget / math.fsum(k * abs(c) for k, c in zip(ks, raw))
    return [c * scale for c in raw]


def sense_preserving_poly(
    rng: random.Random, degree: int, lead: float, h_budget: float, g_budget: float
) -> Poly:
    """h = lead u z + sum_{k>=2} a_k z^k and g = sum_{k>=1} b_k z^k, |u| = 1,
    with sum k|a_k| = h_budget and sum k|b_k| = g_budget.

    On the closed disk |h'| >= lead - h_budget > g_budget >= |g'|, so the map
    is sense-preserving by construction; on the unit circle
    lead - h_budget - g_budget <= |f| <= lead + h_budget + g_budget.
    """
    if not g_budget < lead - h_budget:
        raise ValueError("budgets do not give a sense-preserving map")
    h = [0j, lead * _phase(rng)] + _weighted(rng, range(2, degree + 1), h_budget)
    g = [0j] + _weighted(rng, range(1, degree + 1), g_budget)
    return Poly(tuple(h), tuple(g))


def star_profile(rng: random.Random, samples: int, base: float) -> list[float]:
    """Base radius plus three random Fourier modes and per-sample jitter."""
    modes = [(rng.uniform(0.02, 0.06), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(3)]
    profile = []
    for j in range(samples):
        t = 2.0 * math.pi * j / samples
        wave = sum(amp * math.cos((m + 2) * t + ph) for m, (amp, ph) in enumerate(modes))
        profile.append(round(base + wave + rng.uniform(-0.01, 0.01), 6))
    return profile


def blob_mask(rng: random.Random, n: int) -> np.ndarray:
    """n x n mask (row index = imaginary axis) of the smooth star
    |z| < 0.65 + sum of three random Fourier modes of amplitude <= 0.05.

    The modes change the area by under 1 %, so the cost of a grid job barely
    depends on the seed; every true cell's center has |z| < 0.95.
    """
    axis = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    z = axis[None, :] + 1j * axis[:, None]
    theta = np.angle(z)
    radius = np.full(theta.shape, 0.65)
    for k in (2, 3, 5):
        radius += rng.uniform(0.02, 0.05) * np.cos(k * theta + rng.uniform(0.0, 2.0 * math.pi))
    return np.abs(z) < radius


def poly_json(f: Poly) -> dict:
    return {
        "form": "polynomial",
        "h": [[c.real, c.imag] for c in f.h],
        "g": [[c.real, c.imag] for c in f.g],
    }


def grid_json(mask: np.ndarray) -> dict:
    packed = np.packbits(mask.ravel().astype(np.uint8))
    return {
        "kind": "grid",
        "n": int(mask.shape[0]),
        "mask": base64.b64encode(packed.tobytes()).decode("ascii"),
    }


def _radius(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


class _Files:
    def __init__(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory

    def write(self, name: str, doc: dict) -> str:
        path = self.directory / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)


# ------------------------------------------------------------------- workloads


def verify_presets(rng: random.Random, files: _Files) -> list[Job]:
    """verify --format both on every preset and a seeded polynomial map,
    each at --workers 1 and --workers 2."""
    maps: list[tuple[str, list[str], Map]] = [
        (name, ["--preset", name], f) for name, f in sorted(PRESETS.items())
    ]
    # |f| >= 1.2 on the unit circle: not a self-map, so only rows without
    # that hypothesis are checked, and each holds by an elementary
    # inequality; the expected exit code is 0.
    f = sense_preserving_poly(rng, 4, 2.0, 0.4, 0.4)
    maps.append(("poly", ["--map", files.write("poly.json", poly_json(f))], f))
    jobs = []
    for name, source, f in maps:
        for workers in (1, 2):
            jobs.append(
                Job(
                    name=f"verify-{name}-w{workers}",
                    argv=["verify", *source, "--format", "both", "--workers", str(workers)],
                    outputs=("verify.csv", "verify.json"),
                    check=verify_check(f),
                    expect_rc=VERIFY_EXIT.get(name, 0),
                    same_as=f"verify-{name}-w1" if workers == 2 else None,
                )
            )
    return jobs


def family_search(rng: random.Random, files: _Files) -> list[Job]:
    """A degree-2 rawball search, lattice sweeps of the affine, shear and
    automorphism families, Schwarz-Pick searches over a seeded self-map, and
    the two raster jobs of _raster_jobs."""
    jobs = []
    # Degree 2: at degree >= 3 the CLI's fixed 17-point lattice has
    # 17^5 > SWEEP_BUDGET points and search exits 4.  A fixed coefficient
    # bound keeps the set of feasible lattice points, and so the work, the
    # same for every seed.
    bound = 0.25
    r = _radius(rng, 0.5, 0.7)
    rawball = files.write("rawball.json", {"kind": "rawball", "degree": 2, "coeff_bound": bound})
    jobs.append(
        Job(
            name="search-rawball-disk",
            argv=["search", "--family", rawball, "--r", str(r), "--seed", str(rng.randrange(1000))],
            outputs=("search.csv",),
            check=rawball_check(bound, r),
        )
    )

    affine = files.write(
        "affine.json", {"kind": "affine", "alpha_range": [0.0, round(rng.uniform(0.6, 0.9), 4)]}
    )
    for i in range(2):
        profile = star_profile(rng, 64, rng.uniform(0.5, 0.6))
        star = files.write(f"star{i}.json", {"kind": "star", "profile": profile})
        jobs.append(
            Job(
                name=f"sweep-affine-star{i}",
                argv=["sweep", "--family", affine, "--region", star, "--n", "33"],
                outputs=("sweep.csv",),
                check=sweep_check(33, lambda p: 1.0 - p[0] ** 2, star_area(profile)),
            )
        )

    # shear: p |alpha| <= 0.9 < 1 keeps every lattice point sense-preserving.
    shear = files.write("shear.json", {"kind": "shear", "alpha_range": [0.0, 0.3], "powers": [2, 3]})
    auto = files.write(
        "automorphism.json",
        {"kind": "automorphism", "modulus_range": [0.0, 0.8], "rotation_range": [0.0, 6.0]},
    )
    r = _radius(rng, 0.5, 0.8)
    jobs.append(
        Job(
            name="sweep-shear-disk",
            argv=["sweep", "--family", shear, "--r", str(r), "--n", "65"],
            outputs=("sweep.csv",),
            check=sweep_check(
                130, lambda p: 1.0 - p[1] * p[0] ** 2 * r ** (2 * p[1] - 2), math.pi * r * r
            ),
        )
    )
    r_auto = _radius(rng, 0.5, 0.8)
    jobs.append(
        Job(
            name="sweep-automorphism-disk",
            argv=["sweep", "--family", auto, "--r", str(r_auto), "--n", "17"],
            outputs=("sweep.csv",),
            check=sweep_check(
                289,
                lambda p: disk_area(Mobius(complex(p[0]), p[1]), r_auto) / (math.pi * r_auto**2),
                math.pi * r_auto**2,
            ),
        )
    )

    # sup |f| <= 0.5 + 0.1 + 0.1 on the closed disk keeps the ratio finite.
    selfmap = sense_preserving_poly(rng, 3, 0.5, 0.1, 0.1)
    path = files.write("selfmap.json", poly_json(selfmap))
    star = files.write("star-sp.json", {"kind": "star", "profile": star_profile(rng, 32, 0.6)})
    regions = (("disk", ["--r", str(_radius(rng, 0.6, 0.9))]), ("star", ["--region", star]))
    for region_name, region in regions:
        jobs.append(
            Job(
                name=f"search-sp-{region_name}",
                argv=["search", "--map", path, *region, "--seed", str(rng.randrange(1000))],
                outputs=("search.csv",),
                check=sp_search_check(selfmap),
            )
        )
    return jobs + _raster_jobs(rng, files)


def _raster_jobs(rng: random.Random, files: _Files) -> list[Job]:
    """An oracle on a seeded star and an area on a seeded 2048^2 pixel grid
    (about 0.7 MB of JSON): the rasterize, contains, raster-pass, grid and
    parse layers.  The maps are affine, so univalent, as the oracle assumes."""
    name = "example1-affine-0.2"
    profile = star_profile(rng, 64, rng.uniform(0.55, 0.65))
    star = files.write("star-oracle.json", {"kind": "star", "profile": profile})
    mask = blob_mask(rng, 2048)
    measure = int(np.count_nonzero(mask)) * (2.0 / 2048) ** 2
    grid = files.write("grid.json", grid_json(mask))
    return [
        Job(
            name=f"oracle-{name}-star",
            argv=["oracle", "--preset", name, "--region", star, "--n", "2048", "--format", "both"],
            outputs=("oracle.csv", "oracle.json"),
            check=oracle_check(constant_jacobian(PRESETS[name]) * star_area(profile)),
        ),
        Job(
            name="area-example1-affine-0.5-grid",
            argv=["area", "--preset", "example1-affine-0.5", "--region", grid, "--format", "both"],
            outputs=("area.csv", "area.json"),
            check=area_check(
                measure, constant_jacobian(PRESETS["example1-affine-0.5"]) * measure
            ),
        ),
    ]


WORKLOADS = {
    "verify-presets": verify_presets,
    "family-search": family_search,
}


def build(workload: str, seed: int, directory: Path) -> list[Job]:
    rng = random.Random(f"harmarea-bench/{workload}/{seed}")
    return WORKLOADS[workload](rng, _Files(directory))

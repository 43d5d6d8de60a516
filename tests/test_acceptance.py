"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each criterion pins an oracle value or inequality margin at a stated
tolerance; the expected sides are computed in tests/oracles.py, never by
the code under test.
"""

import math

import numpy as np

import oracles
from harmarea import (
    AutomorphismFamily,
    Disk,
    FamilySpec,
    affine,
    automorphism,
    disk_contraction_report,
    hyperbolic_disk_integral,
    image_area,
    maximize_area_ratio,
    maximize_sp_ratio,
    mc_image_area,
    preset_map,
    preset_names,
    radial_bound_profile,
    rasterize,
    region_measure,
    rescaled_affine,
    rotation_map,
    shear_disk_integral,
    small_set_threshold,
    sp_ratio,
    star_contraction_report,
    star_cos3,
    worst_case_image_area,
)
from harmarea.cli import main
from harmarea.serialize import search_result_to_csv

RADII = tuple(k / 10.0 for k in range(1, 10))


def emit(label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def test_criterion_01_affine_exactness():
    regions = {
        "disk": (Disk(0.5), 1e-9),
        "star": (star_cos3(256), 1e-9),
        "raster": (rasterize(Disk(0.5), 1024), 2e-2),
    }
    worst = 0.0
    for alpha in (0.2, 0.5, 0.8):
        f = affine(alpha)
        for name, (E, tol) in regions.items():
            expected = oracles.affine_image_area(alpha, region_measure(E))
            got = image_area(f, E).value
            rel = abs(got - expected) / expected
            assert rel <= tol, f"alpha={alpha} {name}: rel={rel:.3e} > {tol}"
            if name != "raster":
                worst = max(worst, rel)
    emit(
        "criterion 1: affine image areas match (1-a^2)m(E)",
        True,
        f"worst polar rel err {worst:.2e}, tol 1e-9",
    )


def test_criterion_02_shear_reference_integral():
    ref = shear_disk_integral(0.5, 0.3, 2)
    frozen = oracles.FROZEN["shear-0.3-p2-disk-0.5"]
    claim = oracles.FROZEN["shear-claim-0.3-p2-disk-0.5"]
    ok = (
        abs(ref.quadrature - frozen) <= 1e-8
        and ref.closed_form == frozen
        and ref.claimed_value == claim
        and abs(ref.claimed_value - ref.closed_form) > 1e-3
    )
    emit(
        "criterion 2: shear integral hits closed form, claimed value flagged",
        ok,
        f"quadrature={ref.quadrature:.16g} closed={frozen:.16g} claimed={claim:.16g}",
    )


def test_criterion_03_hyperbolic_reference_integral():
    worst = 0.0
    for r in (0.25, 0.5, 0.75):
        ref = hyperbolic_disk_integral(r)
        err = abs(ref.quadrature - oracles.FROZEN[f"hyperbolic-{r}"])
        assert err <= 1e-8, f"r={r}: err={err:.3e}"
        assert ref.claimed_value == oracles.FROZEN[f"hyperbolic-claim-{r}"]
        worst = max(worst, err)
    emit(
        "criterion 3: hyperbolic integral matches pi r^2/(1-r^2), claim reported",
        True,
        f"worst abs err {worst:.2e}, tol 1e-8",
    )


def test_criterion_04_raster_cross_validation():
    E = Disk(0.5)
    worst = ("", 0.0)
    for name in preset_names():
        f = preset_map(name)
        integral = image_area(f, E, check_sense=False).value
        raster = mc_image_area(f, E, n=2048).value
        rel = abs(raster - integral) / integral
        assert rel <= 0.02, f"{name}: rel gap {rel:.4f} > 2%"
        if rel > worst[1]:
            worst = (name, rel)
    emit(
        "criterion 4: every preset's raster area within 2% of the integral",
        True,
        f"worst {worst[0]} at {100 * worst[1]:.2f}%",
    )


def test_criterion_05_disk_contraction_chain():
    for rho in (0.0, math.pi / 3.0, 2.0):
        for r in RADII:
            _, energy, disk = disk_contraction_report(rotation_map(rho), r)
            assert abs(energy.margin) <= 1e-9, f"rotation r={r}"
            assert abs(disk.margin) <= 1e-9, f"rotation r={r}"
    for alpha in (0.2, 0.5):
        for r in RADII:
            _, energy, disk = disk_contraction_report(rescaled_affine(alpha), r)
            assert energy.margin >= -1e-9, f"rescaled {alpha} r={r}"
            assert disk.margin >= -1e-9, f"rescaled {alpha} r={r}"
    emit(
        "criterion 5: chain margins >= -1e-9; rotations sit at equality",
        True,
        "rotations rho in {0, pi/3, 2}, rescaled affine alpha in {0.2, 0.5}, r in 0.1..0.9",
    )


def test_criterion_06_radial_bound():
    worst = 0.0
    for r in RADII:
        for row in radial_bound_profile(rotation_map(1.0), r):
            dev = abs(row.lhs - r * r / 2.0)
            assert dev <= 1e-10, f"rotation r={r} {row.detail}: dev={dev:.3e}"
            worst = max(worst, dev)
    for r in RADII:
        for row in radial_bound_profile(rescaled_affine(0.5), r):
            assert row.margin > 0.0, f"rescaled r={r} {row.detail}"
    emit(
        "criterion 6: rotations give exactly r^2/2 per direction; rescaled affine stays strictly under",
        True,
        f"worst rotation deviation {worst:.2e}, tol 1e-10",
    )


def test_criterion_07_star_contraction():
    E = star_cos3(256)
    rot = star_contraction_report(rotation_map(1.0), E)
    assert rot.checked
    assert abs(rot.margin) <= 1e-8, f"rotation margin {rot.margin:.3e}"
    resc = star_contraction_report(rescaled_affine(0.5), E)
    expected = (1.0 - oracles.rescaled_affine_jacobian(0.5)) * region_measure(E)
    dev = abs(resc.margin - expected)
    assert resc.checked
    assert dev <= 1e-8, f"rescaled margin dev {dev:.3e}"
    emit(
        "criterion 7: star-region contraction margins (rotation 0, rescaled (1-J)m(E))",
        True,
        f"rotation |margin|={abs(rot.margin):.2e}, rescaled dev={dev:.2e}, tol 1e-8",
    )


def test_criterion_08_layer_cake():
    f = affine(0.5)
    domain = Disk(0.9)
    total = region_measure(domain)
    worst = 0.0
    for k in range(1, 21):
        s = k * total / 21.0
        got = worst_case_image_area(f, domain, s)
        rel = abs(got - 0.75 * s) / (0.75 * s)
        assert rel <= 1e-9, f"s={s:.4f}: rel={rel:.3e}"
        worst = max(worst, rel)
    threshold = small_set_threshold(f, domain)
    assert threshold == total
    emit(
        "criterion 8: layer-cake envelope is 0.75s and the threshold is the full measure",
        True,
        f"20 budgets, worst rel err {worst:.2e}, tol 1e-9",
    )


def test_criterion_09_sp_ratio():
    rng = np.random.default_rng(42)
    f = rotation_map(math.pi / 3.0)
    worst = 0.0
    for _ in range(100):
        r = math.sqrt(rng.uniform(0.0, 0.98))
        t = rng.uniform(0.0, 2.0 * math.pi)
        z = r * complex(math.cos(t), math.sin(t))
        dev = abs(sp_ratio(f, z) - 1.0)
        assert dev <= 1e-12
        worst = max(worst, dev)
    fixing = []
    for name in preset_names():
        g = preset_map(name)
        if abs(complex(g.evaluate(0j))) > 1e-10:
            continue
        fixing.append(name)
        dev = abs(sp_ratio(g, 0j) - g.jacobian(0j))
        assert dev <= 1e-12, f"{name}: dev={dev:.3e}"
    assert len(fixing) >= 6
    emit(
        "criterion 9: rotation ratio is 1 at 100 points; origin ratio equals J(0)",
        True,
        f"worst rotation dev {worst:.2e}; origin-fixing presets: {len(fixing)}",
    )


def test_criterion_10_search_oracle_agreement():
    sp = maximize_sp_ratio(affine(0.5), Disk(0.6), iterations=200, seed=42)
    brute_sp = oracles.affine_sp_ratio_grid(0.5, 0.6, 512)
    gap_sp = abs(sp.best_value - brute_sp)
    assert gap_sp <= 1e-4 * max(1.0, brute_sp), f"sp gap {gap_sp:.3e}"

    fam = FamilySpec(AutomorphismFamily((0.0, 0.8), (0.0, 2.0 * math.pi)))
    area = maximize_area_ratio(fam, Disk(0.5), iterations=200, seed=42)
    brute_area = oracles.mobius_area_ratio_max((0.0, 0.8), 0.5, 512)
    gap_area = abs(area.best_value - brute_area)
    assert gap_area <= 1e-4, f"area gap {gap_area:.3e}"

    sp2 = maximize_sp_ratio(affine(0.5), Disk(0.6), iterations=200, seed=42)
    area2 = maximize_area_ratio(fam, Disk(0.5), iterations=200, seed=42)
    assert search_result_to_csv(sp, ("x", "y")) == search_result_to_csv(sp2, ("x", "y"))
    assert search_result_to_csv(area, fam.param_names) == search_result_to_csv(
        area2, fam.param_names
    )
    emit(
        "criterion 10: searches agree with brute-force maxima; traces repeat bit-for-bit",
        True,
        f"sp gap {gap_sp:.2e}, area gap {gap_area:.2e}, tol 1e-4",
    )


def test_criterion_11_cli_determinism(tmp_path, capsys):
    dirs = {key: tmp_path / key for key in ("v1", "v2", "w1", "w8", "s1", "s2")}
    for argv in (
        ["verify", "--preset", "remark-shear-0.3", "--out", str(dirs["v1"])],
        ["verify", "--preset", "remark-shear-0.3", "--out", str(dirs["v2"])],
        ["verify", "--preset", "automorphism-0.5", "--workers", "1", "--out", str(dirs["w1"])],
        ["verify", "--preset", "automorphism-0.5", "--workers", "8", "--out", str(dirs["w8"])],
    ):
        main(argv)
    fam = tmp_path / "fam.json"
    fam.write_text(
        '{"kind": "affine", "alpha_range": [0.0, 0.8]}', encoding="utf-8"
    )
    for key in ("s1", "s2"):
        main(["sweep", "--family", str(fam), "--n", "9", "--out", str(dirs[key])])
    capsys.readouterr()  # the per-row output is not under test here

    verify_repeat = (dirs["v1"] / "verify.csv").read_bytes() == (
        dirs["v2"] / "verify.csv"
    ).read_bytes()
    verify_workers = (dirs["w1"] / "verify.csv").read_bytes() == (
        dirs["w8"] / "verify.csv"
    ).read_bytes()
    sweep_repeat = (dirs["s1"] / "sweep.csv").read_bytes() == (
        dirs["s2"] / "sweep.csv"
    ).read_bytes()
    emit(
        "criterion 11: verify and sweep CSVs byte-identical across runs and worker counts",
        verify_repeat and verify_workers and sweep_repeat,
        f"repeat={verify_repeat} workers1v8={verify_workers} sweep={sweep_repeat}",
    )

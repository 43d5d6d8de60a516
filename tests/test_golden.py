"""Golden output bytes of the CLI.

Each case runs `cli.main` in process and hashes its stdout together with
every report file it writes.  A digest changes only when some output byte
changes, so a refactor that keeps the CLI contract leaves them all intact.
An intended output change regenerates the digests with

    PYTHONPATH=src python tests/test_golden.py

which prints a new DIGESTS block and marks each digest that differs from
the current one with a trailing "# moved" ("# new" for a new case); the
changed bytes of the moved cases go in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from harmarea.cli import main
from harmarea.presets import preset_names
from harmarea.regions import StarShaped, rasterize
from harmarea.serialize import region_to_json

# A fixed 64-sample star: r(t) = 0.55 + 0.25 cos 3t, rounded to 4 decimals so
# the JSON text does not depend on the last bit of the platform's cos.
STAR = {
    "kind": "star",
    "profile": [
        round(0.55 + 0.25 * math.cos(3.0 * 2.0 * math.pi * k / 64), 4)
        for k in range(64)
    ],
}
# The star rasterized at 64 x 64 and packed as region_to_json packs it.
GRID = region_to_json(rasterize(StarShaped(tuple(STAR["profile"])), 64))
AFFINE_FAMILY = {"kind": "affine", "alpha_range": [0.0, 0.5]}
# Its rows carry constraint, sense-preservation and construction notes.
SHEAR_FAMILY = {"kind": "shear", "alpha_range": [0.0, 0.6], "powers": [2, 3],
                "require_self_map": True}
# |g'| > |h'| everywhere: the oracle's two areas disagree, so it exits 1.
REVERSING_MAP = {"form": "polynomial", "h": [[0, 0], [1, 0]], "g": [[0, 0], [2, 0]]}
# Automorphisms have no coefficient rows: each is validated on its own.
AUTO_FAMILY = {"kind": "automorphism", "modulus_range": [0, 0.8], "rotation_range": [0, 6]}
RAWBALL = {"kind": "rawball", "degree": 2, "coeff_bound": 0.25}
# Bound 0.5 reaches h2 = -0.5, where h' = 1 - z vanishes at z = 1, and
# points that are certified not sense-preserving: both kinds of note.
RAWBALL_WIDE = {"kind": "rawball", "degree": 2, "coeff_bound": 0.5}
# A 64-sample star r(t) = min(1, 0.75 + 0.35 cos 2t): 14 samples lie on the
# unit circle, so the oracle's half pass drops jittered centres with |z| >= 1.
RIM_STAR = {
    "kind": "star",
    "profile": [
        round(min(1.0, 0.75 + 0.35 * math.cos(2.0 * 2.0 * math.pi * k / 64)), 4)
        for k in range(64)
    ],
}
# A disk automorphism on the star takes the boundary kernel with a pole.
MOBIUS_MAP = {"form": "automorphism", "a": [0.5, 0]}
# |Re f| reaches 2.69 on the disk of radius 0.9, so the oracle's raster window
# doubles from [-2, 2]^2 to [-4, 4]^2.
WIDE_MAP = {"form": "polynomial", "h": [[0, 0], [2.5, 0]], "g": [[0, 0], [0.5, 0]]}
# f = (z + 0.3 z^2)/1.3, g = 0: every hypothesis holds, yet radial-worst fails
# at r = 0.8 and 0.9, so verify exits 1.  It expands THIN_STAR, 256 samples
# with R = 0.95 at the five where |theta| < 0.05 and 0.05 elsewhere.
PERTURBED_MAP = {"form": "polynomial", "h": [[0, 0], [1 / 1.3, 0], [0.3 / 1.3, 0]],
                 "g": [[0, 0]]}
THIN_STAR = {"kind": "star",
             "profile": [0.95 if j in (254, 255, 0, 1, 2) else 0.05 for j in range(256)]}
FILES = {"STAR": STAR, "RIM_STAR": RIM_STAR, "GRID": GRID, "FAMILY": AFFINE_FAMILY,
         "SHEAR_FAMILY": SHEAR_FAMILY, "AUTO_FAMILY": AUTO_FAMILY,
         "REVERSING_MAP": REVERSING_MAP, "MOBIUS_MAP": MOBIUS_MAP, "WIDE_MAP": WIDE_MAP,
         "RAWBALL": RAWBALL, "RAWBALL_WIDE": RAWBALL_WIDE,
         "PERTURBED_MAP": PERTURBED_MAP, "THIN_STAR": THIN_STAR}

CASES = {
    **{
        f"verify-{name}": ["verify", "--preset", name, "--format", "both"]
        for name in preset_names()
    },
    "area-star": ["area", "--preset", "example1-affine-0.5", "--region", "STAR",
                  "--format", "both"],
    "verify-perturbed-identity": ["verify", "--map", "PERTURBED_MAP", "--format", "both"],
    "area-thin-star": ["area", "--map", "PERTURBED_MAP", "--region", "THIN_STAR",
                       "--format", "both"],
    "area-star-mobius": ["area", "--map", "MOBIUS_MAP", "--region", "STAR",
                         "--format", "both"],
    "area-grid-affine": ["area", "--preset", "example1-affine-0.5", "--region", "GRID",
                         "--format", "both"],
    "area-grid-shear": ["area", "--preset", "remark-shear-0.3", "--region", "GRID",
                        "--format", "both"],
    "area-grid-mobius": ["area", "--map", "MOBIUS_MAP", "--region", "GRID",
                         "--format", "both"],
    "oracle-star": ["oracle", "--preset", "example1-affine-0.5", "--region", "STAR",
                    "--n", "256", "--format", "both"],
    "oracle-rim-star": ["oracle", "--preset", "example1-affine-0.5", "--region", "RIM_STAR",
                        "--n", "256", "--format", "both"],
    "oracle-disk": ["oracle", "--preset", "example1-affine-0.5", "--r", "0.7",
                    "--n", "256", "--format", "both"],
    "oracle-grid": ["oracle", "--preset", "example1-affine-0.5", "--region", "GRID",
                    "--n", "512", "--format", "both"],
    "sweep-affine": ["sweep", "--family", "FAMILY", "--region", "STAR", "--n", "5"],
    "search-family-affine": ["search", "--family", "FAMILY", "--n", "20"],
    "search-preset-sp": ["search", "--preset", "example1-affine-0.2", "--r", "0.6"],
    "search-preset-sp-star": ["search", "--preset", "example1-affine-0.2", "--region", "STAR"],
    "search-family-affine-star": ["search", "--family", "FAMILY", "--region", "STAR",
                                  "--n", "20"],
    "search-shear-notes": ["search", "--family", "SHEAR_FAMILY", "--r", "0.5", "--n", "30"],
    "search-automorphism": ["search", "--family", "AUTO_FAMILY", "--r", "0.6", "--n", "30"],
    "sweep-shear-notes": ["sweep", "--family", "SHEAR_FAMILY", "--r", "0.5", "--n", "7"],
    "search-rawball-disk": ["search", "--family", "RAWBALL", "--r", "0.6", "--seed", "1"],
    "sweep-rawball-notes": ["sweep", "--family", "RAWBALL_WIDE", "--r", "0.5", "--n", "5"],
    "sweep-rawball-star": ["sweep", "--family", "RAWBALL", "--region", "STAR", "--n", "5"],
    "oracle-reversing": ["oracle", "--map", "REVERSING_MAP", "--n", "256",
                         "--format", "both"],
    "oracle-wide": ["oracle", "--map", "WIDE_MAP", "--r", "0.9", "--n", "512",
                    "--format", "both"],
}
EXIT_CODES = {"verify-automorphism-0.5": 1, "oracle-reversing": 1,
              "verify-perturbed-identity": 1}

DIGESTS = {
    "area-grid-affine": "6f009fe4724630f6cbee73da482fa78c8cfcfabd584cc414009b068eabb1c168",
    "area-grid-mobius": "c78630bc9ab39e9696cc561f6822a948f29433ef0e6f2a02cb28edb0da4fa2f0",
    "area-grid-shear": "94ab8c9bc7b71ec7d2a20a235366170b691f27af9505ca3107ce138557d6ee4f",
    "area-star": "7af676728b7c5bbf7814b0ebee729425bdc6fb3edb4579520a23504ca02563ec",
    "area-star-mobius": "da0724c76bf894971dd3e0c71d7ef16bd1c97c6bbc19c1230f5661ec4bd94488",
    "area-thin-star": "f1c5ca6072c7e256180231dc2396ec444582be250ca40c462b472908dec915a3",
    "oracle-disk": "26ab2656d1d24172af0c90174d9a8f4d64f9cb248e96ee08cd91c1e2a28f98a9",
    "oracle-grid": "69826d5cdbd9624e779e1512e48a86b2b5071913a5f7bbb5e97ec02d55363127",
    "oracle-reversing": "d6f34af9a0518aca235555712a87e0fe57e0f5aba9bd2c203624df0a0ad42fbb",
    "oracle-rim-star": "5ab5f7707e1790f6936625a51cf0ada38c8ffe06a79f6f537b418b0e716a2243",
    "oracle-star": "e5ac6b4a236e7687e12c22328875441282464444607fad2dd3ab1015342d7307",
    "oracle-wide": "13d35558f927ffaa8de26e3685142ca825d4eb90199070b8ff5a70c3ae6f7798",
    "search-automorphism": "d1d1e4ac96b5085d89a699347ef750ad679ff910e815cb787e0b185db6640db6",
    "search-family-affine": "bb8d8fb98e963b203d85d652bc42828ea470afa3d8955c16fb758da47b6291f6",
    "search-family-affine-star": "bb8d8fb98e963b203d85d652bc42828ea470afa3d8955c16fb758da47b6291f6",
    "search-preset-sp": "d2a949ac1c1609b37e2a59b7925e2a613e95552a008e9a982f8111ac828838d3",
    "search-preset-sp-star": "31530442b2110c7e02ed18d20ec11ad15cce79b3e63f5bc783acf851dbff6d93",
    "search-rawball-disk": "bb406a60b0a49d72ff051a8c3e4e1a86f51c7e9469d50f37c850dcf6fc5fa17f",
    "search-shear-notes": "c90601cf6bfc24d29a9f37e82d460694c47741d690732b6df76c213c9143b2eb",
    "sweep-affine": "954f42371d05518adc82034639c23f818ca09ab76d7fc8306c14138054fe0e87",
    "sweep-rawball-notes": "dae07c5a7c3228e1d31ad9431cd09194994d8e5ec716a0b0062f109809a6e28e",
    "sweep-rawball-star": "aff3f543cf3166a7b586d5e2ba86c15264ac8e52eaa1d9bb57ea8314b5366740",
    "sweep-shear-notes": "3caad064f1db568c7844646770a60a5ec28aa333fdc7216c578c8ed0de070a9f",
    "verify-automorphism-0.5": "5cb38fbcedbb7ca7da3dee95621054ceaffbd6c6c02ab73bda6336ac0e1f3802",
    "verify-example1-affine-0.2": "ee38fe69e69eba30a9b5cd08ba2914b5edea0d832a768b03d67933730e5b676c",
    "verify-example1-affine-0.5": "c2df03a07302274eaf3dee186db332dfd65418c9a95078bf64101c8bad3ae426",
    "verify-example2-shear-0.1": "ff508b6680dcff5cfc4c657a334746ded3751fcd9824ff1f10937a61167861a0",
    "verify-identity": "05a94c4bd7c277861e480997610b1fffedcd7baac7f7fee7dffbc4dba813859e",
    "verify-perturbed-identity": "6d80f6abe7743ed712bb1f30c640f3efe6783e9049459781a399a9435d418398",
    "verify-remark-shear-0.3": "1bcace4fd5956f1d0ca9dc37bde910f5e6b4823386e6902071ebb3adb184aa2b",
    "verify-rotation": "05a94c4bd7c277861e480997610b1fffedcd7baac7f7fee7dffbc4dba813859e",
}


def run_case(argv: list[str], workdir: Path) -> tuple[int, str]:
    """Exit code and SHA-256 of stdout plus each report file, by name."""
    files = {}
    for key, doc in FILES.items():
        path = workdir / f"{key.lower()}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        files[key] = str(path)
    out = workdir / "out"
    argv = [files.get(a, a) for a in argv] + ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    digest = hashlib.sha256(stdout.getvalue().encode("utf-8"))
    for path in sorted(out.iterdir()):
        digest.update(b"\0" + path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return code, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes(name, tmp_path):
    code, digest = run_case(CASES[name], tmp_path)
    assert code == EXIT_CODES.get(name, 0)
    assert digest == DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            _, digest = run_case(CASES[name], Path(tmp))
        old = DIGESTS.get(name)
        mark = "" if digest == old else "  # new" if old is None else "  # moved"
        print(f'    "{name}": "{digest}",{mark}')
    print("}")

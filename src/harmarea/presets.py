"""Named built-in maps reproducing the checkable textbook examples.

Listing the names needs no numpy (the CLI parser offers them as choices);
`maps` loads only to build one.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .maps import HarmonicMap

# name -> (factory in maps, its arguments)
_BUILDERS = {
    "identity": ("identity_map",),
    "rotation": ("rotation_map", math.pi / 3.0),
    "example1-affine-0.2": ("affine", 0.2),
    "example1-affine-0.5": ("affine", 0.5),
    "remark-shear-0.3": ("shear", 0.3, 2),
    "example2-shear-0.1": ("shear", 0.1, 2),
    "automorphism-0.5": ("automorphism", 0.5, 0.0),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def preset_map(name: str) -> HarmonicMap:
    from . import maps

    try:
        factory, *params = _BUILDERS[name]
    except KeyError:
        known = ", ".join(preset_names())
        raise ValueError(f"unknown preset {name!r}; known presets: {known}") from None
    return getattr(maps, factory)(*params)

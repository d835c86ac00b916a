"""Small inverses and sizes that only the tests need, kept out of src/."""

from __future__ import annotations

import numpy as np


def stereographic_from_xyz(chart, x, y, z):
    """Inverse of a StereographicChart; undefined at the projection pole."""
    z = np.asarray(z, dtype=float)
    if chart.pole == "north":
        return x / (1.0 - z), y / (1.0 - z)
    return x / (1.0 + z), y / (1.0 + z)


def ambient_dim(space) -> int:
    """Number of complex components of the space's points (lifts included)."""
    return len(space.signature)

"""A chart, a frame rotation, and small inverses and sizes that only the
tests need, kept out of src/."""

from __future__ import annotations

import numpy as np

from lagsurf import geom
from lagsurf.geom import PointGeometry
from lagsurf.numerics import Jet2


class StereographicChart:
    """Stereographic plane chart (u, v) -> (x, y, z).

    pole='north' projects from (0,0,1) and covers the sphere minus the north
    pole; pole='south' covers the sphere minus the south pole.
    """

    periodic = (False, False)
    bounds = ((-4.0, 4.0), (-4.0, 4.0))

    def __init__(self, pole: str = "north"):
        if pole not in ("north", "south"):
            raise ValueError("pole must be 'north' or 'south'")
        self.pole = pole
        self.kind = f"stereographic-{pole}"

    def contains(self, u, v):
        return np.ones(np.broadcast(np.asarray(u), np.asarray(v)).shape,
                       dtype=bool)

    def coords(self, u, v):
        ju, jv = Jet2.variables(u, v)
        den = ju * ju + jv * jv + 1.0
        x = 2.0 * ju / den
        y = 2.0 * jv / den
        z = (ju * ju + jv * jv - 1.0) / den
        if self.pole == "south":
            z = -z
        return x, y, z


def stereographic_from_xyz(chart, x, y, z):
    """Inverse of a StereographicChart; undefined at the projection pole."""
    z = np.asarray(z, dtype=float)
    if chart.pole == "north":
        return x / (1.0 - z), y / (1.0 - z)
    return x / (1.0 + z), y / (1.0 + z)


def rotate_frame(pg: PointGeometry, alpha: float) -> PointGeometry:
    """The same point re-expressed in the tangent frame rotated by alpha.

    Scalar invariants must not move; the complex quantities D and
    F*conj(Hc) pick up the phase exp(-4i*alpha).  Used by covariance tests
    and by anything that needs a frame-generic evaluation.
    """
    c, s = np.cos(alpha), np.sin(alpha)
    e1 = c * pg.e1 + s * pg.e2
    e2 = -s * pg.e1 + c * pg.e2
    s11 = c * c * pg.sigma11 + 2.0 * c * s * pg.sigma12 + s * s * pg.sigma22
    s12 = (-c * s * pg.sigma11 + (c * c - s * s) * pg.sigma12
           + c * s * pg.sigma22)
    s22 = s * s * pg.sigma11 - 2.0 * c * s * pg.sigma12 + c * c * pg.sigma22
    diag = {name: getattr(pg, name)
            for name in ("membership", "horizontality", "lagrangian",
                         "split_residual", "position_defect", "fiber_defect")}
    return geom._assemble(pg.space, pg.g, e1, e2, s11, s12, s22, diag)


def ambient_dim(space) -> int:
    """Number of complex components of the space's points (lifts included)."""
    return len(space.signature)

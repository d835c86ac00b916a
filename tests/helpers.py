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
    rot = np.array([[c, s], [-s, c]])  # e'_i = rot[i, a] e_a
    e1 = c * pg.e1 + s * pg.e2
    e2 = -s * pg.e1 + c * pg.e2
    # every slot of C, the normal one too, is on the frame: J e'_k is
    # rot[k, c] J e_c
    C = np.einsum("ia,jb,kc,...abc->...ijk", rot, rot, rot, pg.C)
    # _assemble measures c_symmetry again, on the rotated C
    return geom._assemble(pg.space, pg.g, e1, e2, C, pg.defects)


def flat_grid(axis1, axis2):
    """The tensor-product grid of two axes as flat chart points, row-major:
    point i * len(axis2) + j is (axis1[i], axis2[j])."""
    a1, a2 = np.meshgrid(axis1, axis2, indexing="ij")
    return a1.ravel(), a2.ravel()


def ambient_dim(space) -> int:
    """Number of complex components of the space's points (lifts included)."""
    return len(space.signature)

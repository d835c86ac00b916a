"""The golden surfaces, a chart, a frame rotation, and small inverses and
sizes that only the tests need, kept out of src/."""

from __future__ import annotations

import dataclasses

import numpy as np

from lagsurf import geom
from lagsurf.ambient import split_defects
from lagsurf.catalog import lift_at
from lagsurf.geom import (PointGeometry, c_symmetry_gap, split_geometry,
                          tangent_frame)
from lagsurf.numerics import Jet2

# each golden report's file stem and the surface it was run on, and the
# pinned grid, quadrature and seed of the verify goldens (tests/golden/*.json)
GOLDEN_CONFIGS = [
    ("whitney-c2", "whitney-c2"),
    ("whitney-cp2-t05", "whitney-cp2(0.5)"),
    ("whitney-ch2-t05", "whitney-ch2(0.5)"),
    ("totally-geodesic-cp2", "totally-geodesic-cp2"),
    ("psi-ch2-s03", "psi-ch2(0.3)"),
    ("eta-ch2", "eta-ch2"),
    ("clifford-torus", "clifford-torus"),
    ("product-torus-1-2", "product-torus(1,2)"),
]
STANDARD = ["--grid", "64x64", "--quad", "128x256", "--seed", "0"]


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
    # every slot of C, the normal one too, is on the frame: J e'_k is
    # rot[k, c] J e_c
    C = np.einsum("ia,jb,kc,...abc->...ijk", rot, rot, rot, pg.C)
    return geom._assemble(pg.space, pg.g, C, pg.defects)


def certifiable(spec, a1, a2):
    """(lift, split, pg) at the chart points (a1, a2): the lift jet, its
    frame split and its geometry, as verify and probe keep them to certify
    the split."""
    lift = lift_at(spec, a1, a2)
    return (lift, *split_geometry(lift, spec.ambient))


def every_array(spec, a1, a2) -> dict[str, np.ndarray]:
    """Every array a report can read at the chart points (a1, a2), by name:
    the fields of the lift jet, of its geometry and of the frame split,
    each defect (the split's certification and C's symmetry too), and the
    tangent frame."""
    lift, split, pg = certifiable(spec, a1, a2)
    arrays = {}
    for prefix, record in (("", pg), ("lift.", lift), ("split.", split)):
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            if isinstance(value, (np.ndarray, np.generic)):
                arrays[prefix + field.name] = value
    defects = pg.defects | split_defects(lift, pg.space, split) | {
        "c_symmetry": c_symmetry_gap(pg)}
    arrays |= {f"defects.{name}": np.broadcast_to(values, np.shape(pg.K))
               for name, values in defects.items()}
    arrays["e1"], arrays["e2"] = tangent_frame(lift, pg.g)
    return arrays


def flat_grid(axis1, axis2):
    """The tensor-product grid of two axes as flat chart points, row-major:
    point i * len(axis2) + j is (axis1[i], axis2[j])."""
    a1, a2 = np.meshgrid(axis1, axis2, indexing="ij")
    return a1.ravel(), a2.ravel()


def ambient_dim(space) -> int:
    """Number of complex components of the space's points (lifts included)."""
    return len(space.signature)

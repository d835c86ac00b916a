"""Ambient isometries move a lift but none of its invariants or defects.

A holomorphic isometry of the target acts linearly on the lift (plus a
translation on C^2): U(2) on C^2, U(3) on CP^2, and on CH^2 the group
preserving the pairing of signature (1, 1, -1), here a U(2) x U(1) block
times a boost.  Every invariant is read off pairings and the (J e1, J e2)
coordinates of sigma, which such a map keeps, so it must stay put to
round-off, and every defect must stay under its tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from lagsurf.atlas import random_points
from lagsurf.catalog import SurfaceSpec, lift_at
from lagsurf.geom import geometry_from_jet
from lagsurf.numerics import TOLERANCES, Jet2

SPECS = [
    SurfaceSpec("whitney-c2"),
    SurfaceSpec("whitney-cp2", t=0.5),
    SurfaceSpec("whitney-ch2", t=0.5),
    SurfaceSpec("totally-geodesic-cp2"),
    SurfaceSpec("psi-ch2", s=0.3),
    SurfaceSpec("eta-ch2"),
    SurfaceSpec("clifford-torus"),
    SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0),
]
INVARIANTS = ("K", "H2", "sigma_sq", "R", "D", "F", "Hc")
# largest drift |moved - fixed| / (1 + |fixed|) of an invariant; measured
# at most 3.7e-13 (eta-ch2, boost rapidity up to 1.5) on these seeds
DRIFT = 1e-11


def _unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _isometry(rng, space):
    """(A, b): a seeded isometry z -> A z + b of the space's lift model."""
    if not space.is_lifted:
        return _unitary(rng, 2), rng.normal(size=2) + 1j * rng.normal(size=2)
    if space.c > 0.0:
        return _unitary(rng, 3), 0.0
    block = np.zeros((3, 3), dtype=complex)
    block[:2, :2] = _unitary(rng, 2)
    block[2, 2] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    rapidity = rng.uniform(-1.5, 1.5)
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    boost = np.array([[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]])
    return block @ boost, 0.0


@pytest.mark.parametrize("seed, spec", enumerate(SPECS),
                         ids=[s.label() for s in SPECS])
def test_isometries_keep_invariants_and_defects(seed, spec):
    rng = np.random.default_rng(seed)
    a1, a2 = random_points(spec.chart, 500, rng)
    lift = lift_at(spec, a1, a2)
    space = spec.ambient
    A, b = _isometry(rng, space)
    J = np.diag(space.sig)
    assert np.max(np.abs(A.conj().T @ J @ A - J)) < 1e-13

    fields = [f @ A.T for f in lift._fields()]
    fields[0] = fields[0] + b
    moved = Jet2(*fields)
    assert np.max(np.abs(moved.v - lift.v)) > 0.1  # the map is not trivial
    fixed = geometry_from_jet(lift, space)
    pg = geometry_from_jet(moved, space)
    for name in INVARIANTS:
        want = getattr(fixed, name)
        drift = np.abs(getattr(pg, name) - want) / (1.0 + np.abs(want))
        assert np.max(drift) <= DRIFT, name
    assert set(pg.defects) == set(fixed.defects)
    for name, values in pg.defects.items():
        assert np.max(values) <= TOLERANCES[name], name

"""Chart parametrizations of the surface domains, grids, and quadrature.

Charts map two real parameters to the domain coordinates the immersion
formulas consume (sphere points, complex-plane coordinates, torus angles),
with exact jets of the class a call seeds.  Grids are deterministic lattices
that keep a margin from excluded sets (sphere poles, the plane puncture).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Jet2, jet_sin_cos


class ChartDomainError(ValueError):
    """Evaluation at a point outside the chart's open domain."""


class SphereChart:
    """Colatitude/azimuth chart (phi, theta) -> (x, y, z) on the unit sphere.

    phi in (0, pi), theta in [0, 2pi).  The poles z = +-1 are excluded, and
    no chart in the package covers them.
    """

    kind = "spherical"
    n_coords = 3
    periodic = (False, True)
    # grids keep 2% of the colatitude span away from each pole
    bounds = ((0.02 * np.pi, np.pi - 0.02 * np.pi), (0.0, 2.0 * np.pi))

    def coords(self, phi, theta, jet=Jet2):
        if not np.all((phi > 0.0) & (phi < np.pi)):
            raise ChartDomainError("spherical chart excludes the poles phi in {0, pi}")
        jp, jt = jet.variables(phi, theta)
        sp, cp = jet_sin_cos(jp)
        st, ct = jet_sin_cos(jt)
        return sp * ct, sp * st, cp

    def height(self, phi, theta):
        """The sphere height z = cos(phi) of chart points."""
        return np.cos(phi)


class PlanarChart:
    """Identity chart (x, y) on the plane."""

    kind = "planar"
    n_coords = 2
    periodic = (False, False)
    bounds = ((-3.0, 3.0), (-3.0, 3.0))

    def coords(self, x, y, jet=Jet2):
        return jet.variables(x, y)


class PolarAnnulusChart:
    """Polar chart (r, theta) -> (Re z, Im z) on the punctured plane.

    The puncture z = 0 is a chart boundary: r > 0 always, and grids keep
    0.2 <= r <= 5 so conditioning stays healthy.
    """

    kind = "polar-annulus"
    n_coords = 2
    periodic = (False, True)
    bounds = ((0.2, 5.0), (0.0, 2.0 * np.pi))

    def coords(self, r, theta, jet=Jet2):
        if not np.all(r > 0.0):
            raise ChartDomainError("polar chart requires r > 0")
        jr, jt = jet.variables(r, theta)
        st, ct = jet_sin_cos(jt)
        return jr * ct, jr * st

    def grid_axis1(self, n1, lo, hi):
        # geometric spacing covers the annulus scales evenly
        return np.geomspace(lo, hi, n1)


class TorusChart:
    """Angle chart (theta1, theta2) on the flat square torus [0, 2pi)^2."""

    kind = "torus"
    n_coords = 2
    periodic = (True, True)
    bounds = ((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi))

    def coords(self, t1, t2, jet=Jet2):
        return jet.variables(t1, t2)


def _axis(chart, i, n):
    lo, hi = chart.bounds[i]
    if chart.periodic[i]:
        return np.linspace(lo, hi, n, endpoint=False)
    if hasattr(chart, "grid_axis1") and i == 0:
        return chart.grid_axis1(n, lo, hi)
    return np.linspace(lo, hi, n)


def build_grid(chart, n1, n2):
    """Deterministic n1 x n2 lattice over the chart's sampling box.

    Returns its two axes: point (i, j), flat index i * n2 + j, is
    (axis1[i], axis2[j]).  The box (``chart.bounds``) keeps away from
    excluded sets; periodic axes omit the endpoint.
    """
    if n1 < 2 or n2 < 2:
        raise ValueError("grid needs n1, n2 >= 2")
    return _axis(chart, 0, n1), _axis(chart, 1, n2)


def random_points(chart, n, rng):
    """Seeded uniform sample of n points in the chart's sampling box."""
    (lo1, hi1), (lo2, hi2) = chart.bounds
    return rng.uniform(lo1, hi1, size=n), rng.uniform(lo2, hi2, size=n)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating over the chart parameter measure.

    The nodes are the tensor product of the axes ``nodes1`` and ``nodes2``;
    ``weights`` is flat, in build_grid's row-major order.  The weights
    integrate d(a1) d(a2); surface integrands must include the induced
    area element sqrt(det g).  Summation happens in node index order
    (numpy pairwise reduction), which is fixed for a given rule, so
    repeated runs are bitwise reproducible.
    """

    nodes1: np.ndarray
    nodes2: np.ndarray
    weights: np.ndarray


def sphere_quadrature(n1: int, n2: int) -> QuadratureRule:
    """Gauss-Legendre in cos(phi) times trapezoid in theta.

    Spectrally accurate for smooth integrands on the sphere; all nodes are
    interior, so the pole chart boundary needs no special handling.
    """
    u, w = np.polynomial.legendre.leggauss(n1)
    phi = np.arccos(u)
    # d(phi) weight: Gauss-Legendre in u = cos(phi) carries du = -sin(phi) dphi
    w_phi = w / np.sin(phi)
    theta = np.linspace(0.0, 2.0 * np.pi, n2, endpoint=False)
    w_theta = np.full(n2, 2.0 * np.pi / n2)
    return QuadratureRule(phi, theta, np.outer(w_phi, w_theta).ravel())


def torus_quadrature(n1: int, n2: int) -> QuadratureRule:
    """Periodic trapezoid rule on [0, 2pi)^2 (spectral for smooth periodic f)."""
    t1 = np.linspace(0.0, 2.0 * np.pi, n1, endpoint=False)
    t2 = np.linspace(0.0, 2.0 * np.pi, n2, endpoint=False)
    w = np.full(n1 * n2, (2.0 * np.pi / n1) * (2.0 * np.pi / n2))
    return QuadratureRule(t1, t2, w)

"""Pointwise invariants of a Lagrangian surface from one lift jet.

The pipeline: induced metric -> orthonormal tangent frame -> second
fundamental form on that frame -> mean/Gauss curvature, the cubic
coefficient tensor, and the ellipse-of-curvature data (circularity defect,
frame densities, radius).  Every quantity is batched over any broadcast
shape.  Cross-route consistency checks are never folded into each other;
each has its own defect number.  Gates read their limits from TOLERANCES.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ambient as amb
from .ambient import AmbientSpace
from .catalog import SurfaceSpec, lift_at
from .numerics import TOLERANCES, Jet2, component_major, real_pair

# angles x points per broadcast of the ellipse fit residual: a group's
# temporaries stay a few MB, and one point takes all angles at once
_ELLIPSE_BLOCK = 1 << 16
# fewest angles that sample the ellipse, which is traced twice per turn
MIN_ANGLES = 8


@dataclass(frozen=True)
class PointGeometry:
    """All pointwise invariants plus the consistency defects that built them.

    Array fields share the evaluation batch shape; ambient vectors append
    the component axis.  ``C[..., i, j, k]`` is the cubic coefficient
    real_pair(sigma(e_i, e_j), J e_k): sigma_ij in (J e1, J e2)
    coordinates, from which every invariant comes.  ``K`` is the
    ambient-identity route (curvature constant, |H|^2, |sigma|^2);
    gauss_curvature_intrinsic is the other.  ``defects`` maps each check
    name in TOLERANCES to its pointwise defect of the lift, the frame split
    or C (c_symmetry: C of a Lagrangian immersion is fully symmetric).
    """

    space: AmbientSpace
    g: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    C: np.ndarray
    H2: np.ndarray
    sigma_sq: np.ndarray
    K: np.ndarray
    D: np.ndarray
    F: np.ndarray
    Hc: np.ndarray
    R: np.ndarray
    defects: dict[str, np.ndarray]


def _dot(a, b):
    # inner product of (J e1, J e2) coordinates, one coordinate at a time
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _assemble(space, g, e1, e2, C, defects):
    # index symmetry in the first two slots is structural; the swap of the
    # second/third slot is the Lagrangian property and gets measured
    c_symmetry = np.maximum(np.abs(C[..., 0, 0, 1] - C[..., 0, 1, 0]),
                            np.abs(C[..., 1, 1, 0] - C[..., 1, 0, 1]))

    s11, s12, s22 = C[..., 0, 0, :], C[..., 0, 1, :], C[..., 1, 1, :]
    H = 0.5 * (s11 + s22)
    H2 = _dot(H, H)
    s12_sq = _dot(s12, s12)
    sigma_sq = _dot(s11, s11) + 2.0 * s12_sq + _dot(s22, s22)
    K = space.c / 4.0 + 2.0 * H2 - 0.5 * sigma_sq

    diff = s11 - s22
    D = 0.25 * _dot(diff, diff) - s12_sq + 1j * _dot(diff, s12)

    C111 = C[..., 0, 0, 0]
    C112 = C[..., 0, 0, 1]
    C122 = C[..., 0, 1, 1]
    C222 = C[..., 1, 1, 1]
    F = 0.5 * ((C111 - 3.0 * C122) + 1j * (C222 - 3.0 * C112))
    Hc = 0.5 * ((C111 + C122) + 1j * (C112 + C222))

    R = np.sqrt(np.clip(0.5 * (space.c / 4.0 + H2 - K), 0.0, None))

    for name, arr in (("g", g), ("K", K), ("D", D), ("F", F), ("Hc", Hc)):
        if not np.all(np.isfinite(np.asarray(arr))):
            raise ValueError(f"non-finite geometry field {name!r}")

    return PointGeometry(space=space, g=g, e1=e1, e2=e2, C=C,
                         H2=H2, sigma_sq=sigma_sq, K=K, D=D, F=F, Hc=Hc, R=R,
                         defects=defects | {"c_symmetry": c_symmetry})


def geometry_from_jet(lift: Jet2, space: AmbientSpace) -> PointGeometry:
    """Invariants from a second-order jet of the (lifted) immersion.

    The jet can come from the catalog, from a rescaled catalog jet, or from
    any hand-built map; nothing here assumes more than an immersed surface
    with the stated lift constraints (and it measures those rather than
    assuming them).  Degenerate points are rejected by the split's gates.
    """
    split = amb.second_form_split(lift, space)
    g = split.metric
    g11, g12, g22 = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    det = g11 * g22 - g12 * g12

    # Gram-Schmidt in chart order fixes the frame orientation
    p = 1.0 / np.sqrt(g11)
    r = np.sqrt(g11 / det)
    q = -g12 / np.sqrt(g11 * det)
    e1 = p[..., None] * lift.d1
    e2 = q[..., None] * lift.d1 + r[..., None] * lift.d2

    # sigma(d_u, d_v) on (J d1, J d2) to (J e1, J e2) coordinates, by
    # J d1 = J e1 / p and J d2 = (J e2 - (q / p) J e1) / r
    n = split.normal
    q_r = q / r
    u11, u12, u22 = (((n[..., i, 0] - q_r * n[..., i, 1]) / p,
                      n[..., i, 1] / r) for i in range(3))
    # then to sigma(e_i, e_j): C[i, j, k], with C[1, 0] = C[0, 1]
    C = np.empty((2, 2, 2) + np.shape(p))
    for k in range(2):
        C[0, 0, k] = p * p * u11[k]
        C[0, 1, k] = p * (q * u11[k] + r * u12[k])
        C[1, 1, k] = q * q * u11[k] + 2.0 * q * r * u12[k] + r * r * u22[k]
    C[1, 0] = C[0, 1]

    defects = {
        "membership": amb.membership_defect(lift, space),
        "horizontality": amb.horizontality_defect(lift, space),
        "lagrangian": amb.lagrangian_defect(lift, space),
        **split.defects,
    }
    return _assemble(space, g, e1, e2, component_major(C, 3), defects)


def point_geometry(spec: SurfaceSpec, a1, a2) -> PointGeometry:
    """Catalog convenience: lift jet at chart parameters, then invariants."""
    return geometry_from_jet(lift_at(spec, a1, a2), spec.ambient)


def _sigma_scale(pg):
    # circularity is compared at the scale of |sigma|^2 squared, so the
    # tolerance follows the surface instead of its parametrization
    scale = 1.0 + pg.sigma_sq
    return scale * scale


def scaled_circularity(pg: PointGeometry) -> np.ndarray:
    """Pointwise |D| relative to the sigma scale; the circularity measure.

    D = (|s11 - s22|^2 / 4 - |s12|^2) + i <s11 - s22, s12> vanishes exactly
    when the ellipse of curvature is a circle (a point counts).
    """
    return np.abs(pg.D) / _sigma_scale(pg)


def circularity_route_gap(pg: PointGeometry) -> np.ndarray:
    """Pointwise (scale-aware) gap between the two circularity routes.

    Route one reads D off the sigma-vectors directly; route two expands it
    in the cubic coefficients:

        4*Re D = C111^2 - 2*C111*C122 - 3*C122^2
                 - 3*C112^2 - 2*C112*C222 + C222^2
        Im D   = C111*C112 - C122*C222

    Disagreement means a frame or symmetry bug, so callers treat this as a
    hard error, not a tolerance to tune.
    """
    C111 = pg.C[..., 0, 0, 0]
    C112 = pg.C[..., 0, 0, 1]
    C122 = pg.C[..., 0, 1, 1]
    C222 = pg.C[..., 1, 1, 1]
    re4 = (C111 ** 2 - 2.0 * C111 * C122 - 3.0 * C122 ** 2
           - 3.0 * C112 ** 2 - 2.0 * C112 * C222 + C222 ** 2)
    expanded = 0.25 * re4 + 1j * (C111 * C112 - C122 * C222)
    return np.abs(expanded - pg.D) / _sigma_scale(pg)


def density_moduli_gap(pg: PointGeometry) -> np.ndarray:
    """Pointwise worse relative defect of |Hc|^2 = |H|^2, |F|^2 = c/2 +
    |H|^2 - 2K.

    F == 0 characterizes the Whitney-type examples, Hc == 0 the minimal ones.
    """
    hc_gap = np.abs(np.abs(pg.Hc) ** 2 - pg.H2) / (1.0 + pg.H2)
    f_rhs = pg.space.c / 2.0 + pg.H2 - 2.0 * pg.K
    f_gap = np.abs(np.abs(pg.F) ** 2 - f_rhs) / (1.0 + np.abs(f_rhs))
    return np.maximum(hc_gap, f_gap)


def product_identity_check(pg: PointGeometry) -> np.ndarray:
    """Pointwise defect of the product identity F * conj(Hc) against D.

    The real parts must match and the imaginary parts must match up to the
    orientation convention, so the defect is
    max(|Re(F conj Hc) - Re D|, ||Im(F conj Hc)| - |Im D||, ||F conj Hc| - |D||),
    normalized by 1 + |D|.
    """
    # not `*`: numpy would reuse a big conj temporary, operands swapped
    prod = np.multiply(pg.F, np.conj(pg.Hc))
    scale = 1.0 + np.abs(pg.D)
    re_gap = np.abs(prod.real - pg.D.real) / scale
    im_gap = np.abs(np.abs(prod.imag) - np.abs(pg.D.imag)) / scale
    mod_gap = np.abs(np.abs(prod) - np.abs(pg.D)) / scale
    return np.maximum(np.maximum(re_gap, im_gap), mod_gap)


def radius_route_gap(pg: PointGeometry) -> np.ndarray:
    """Pointwise spread of the three radius routes, relative to 1 + R.

    Routes: the curvature identity sqrt((c/4 + |H|^2 - K) / 2) stored in
    pg.R, the direct |sigma(e1, e2)|, and |sigma11 - sigma22| / 2, both
    read off C.  They coincide exactly where the ellipse is circular.
    """
    s12 = pg.C[..., 0, 1, :]
    r_b = np.sqrt(_dot(s12, s12))
    diff = pg.C[..., 0, 0, :] - pg.C[..., 1, 1, :]
    r_c = 0.5 * np.sqrt(_dot(diff, diff))
    worst = np.maximum(np.maximum(np.abs(pg.R - r_b), np.abs(pg.R - r_c)),
                       np.abs(r_b - r_c))
    return worst / (1.0 + pg.R)


def radius(pg: PointGeometry) -> np.ndarray:
    """Radius of the (circular) ellipse of curvature, three routes checked.

    Defined only where the ellipse is a circle; a non-circular point raises,
    carrying the scaled |D| that failed the gate.  The returned value is the
    curvature-identity route; the direct routes must agree with it.
    """
    circ_tol = TOLERANCES["circularity"]
    route_tol = TOLERANCES["radius_routes"]
    circ = float(np.max(scaled_circularity(pg)))
    if circ > circ_tol:
        raise ValueError(
            f"ellipse is not circular: scaled |D| = {circ:.3e} "
            f"(tol {circ_tol:.0e}); radius is undefined")
    worst = float(np.max(radius_route_gap(pg)))
    if worst > route_tol:
        raise RuntimeError(
            f"radius routes disagree by {worst:.3e} (tol {route_tol:.0e})")
    return pg.R


@dataclass(frozen=True)
class CurvatureEllipse:
    """The ellipse of curvature on a uniform angle grid, in (J e1, J e2)
    coordinates.

    sigma(v, v) for the unit tangent v at angle theta is
    ``center + cos(2 theta) half_diff + sin(2 theta) cross``: ``center`` is
    the mean curvature vector H, ``half_diff`` is (sigma11 - sigma22) / 2
    and ``cross`` is sigma12, each with the batch shape plus a trailing
    axis of 2.  Angles theta and theta + pi give one normal: the ellipse is
    traced twice per turn of v.  ``fit_residual`` is, pointwise,
    max_theta | |sigma(v,v) - H| - R |, tiny exactly when the ellipse is
    the circle of radius R.
    """

    theta: np.ndarray
    center: np.ndarray
    half_diff: np.ndarray
    cross: np.ndarray
    fit_residual: np.ndarray

    def normals(self, rows: slice) -> np.ndarray:
        """sigma(v, v) at the angles ``theta[rows]``, angle axis first."""
        theta = self.theta[rows]
        # scalar cos and sin per angle, as in a loop over them
        shape = (theta.size,) + (1,) * self.center.ndim
        cos2, sin2 = (np.array([f(2.0 * t) for t in theta]).reshape(shape)
                      for f in (np.cos, np.sin))
        return self.center + cos2 * self.half_diff + sin2 * self.cross


def ellipse_samples(pg: PointGeometry, n_angles: int) -> CurvatureEllipse:
    """The ellipse of curvature at n_angles uniform angles, with its circle
    fit residual.  The residual runs over groups of angles, so its memory
    does not grow with n_angles x N; the normals are formed only when
    ``normals`` is called.
    """
    if n_angles < MIN_ANGLES:
        raise ValueError(f"need n_angles >= {MIN_ANGLES} to see the ellipse")
    # the (J e1, J e2) coordinates of sigma_ij are the cubic tensor C_ij
    c11, c12, c22 = pg.C[..., 0, 0, :], pg.C[..., 0, 1, :], pg.C[..., 1, 1, :]
    ellipse = CurvatureEllipse(
        theta=np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False),
        center=0.5 * (c11 + c22), half_diff=0.5 * (c11 - c22), cross=c12,
        fit_residual=np.nan)
    center = ellipse.center

    def group_residual(rows):
        group = ellipse.normals(rows)
        # by coordinate: a full-shape temporary is the group times the batch
        dist = (group[..., 0] - center[..., 0]) ** 2
        dist += (group[..., 1] - center[..., 1]) ** 2
        return np.max(np.abs(np.sqrt(dist) - pg.R), axis=0)

    step = max(1, _ELLIPSE_BLOCK // max(1, np.size(pg.R)))
    worst = group_residual(slice(0, step))
    for start in range(step, n_angles, step):
        worst = np.maximum(worst, group_residual(slice(start, start + step)))
    return replace(ellipse, fit_residual=worst)


def gauss_curvature_intrinsic(spec: SurfaceSpec, a1, a2) -> np.ndarray:
    """Intrinsic Gauss curvature by finite differences of the metric alone.

    One lift on a 5x5 stencil (offsets 0, +-5e-4, +-1e-3 on each chart
    parameter) gives E, F, G; Brioschi's formula runs on its central 3x3
    sub-stencils of step 1e-3 and 5e-4.  Independent of the second
    fundamental form, so it cross-checks the ambient-identity route.  One
    step-halving extrapolation cancels the leading O(step^2) error.
    """
    offsets = np.array([-1e-3, -5e-4, 0.0, 5e-4, 1e-3])
    lead = (1,) * max(np.ndim(a1), np.ndim(a2))
    p1 = a1 + offsets.reshape((5, 1) + lead)
    p2 = a2 + offsets.reshape((1, 5) + lead)
    if not np.all(spec.chart.contains(p1, p2)):
        raise ValueError("finite-difference stencil leaves the chart domain")

    lift = lift_at(spec, p1, p2)
    sig = spec.ambient.sig
    efg = [real_pair(u, v, sig) for u, v in
           ((lift.d1, lift.d1), (lift.d1, lift.d2), (lift.d2, lift.d2))]
    k1 = _brioschi(*(m[0::2, 0::2] for m in efg), 1e-3)
    k2 = _brioschi(*(m[1:4, 1:4] for m in efg), 5e-4)
    return (4.0 * k2 - k1) / 3.0


def _brioschi(E, F, G, h) -> np.ndarray:
    """K = (det M1 - det M2) / (EG - F^2)^2 on one 3x3 stencil of step h.

    M1 has the rows (-E_vv/2 + F_uv - G_uu/2, E_u/2, F_u - E_v/2),
    (F_v - G_u/2, E, F), (G_v/2, F, G); M2 has (0, E_v/2, G_u/2),
    (E_v/2, E, F), (G_u/2, F, G).  Both expand along their first row, and
    squares are products, so one point's scalars round as a batch does.
    """
    E0, F0, G0 = E[1, 1], F[1, 1], G[1, 1]
    E_u, F_u, G_u = ((m[2, 1] - m[0, 1]) / (2 * h) for m in (E, F, G))
    E_v, F_v, G_v = ((m[1, 2] - m[1, 0]) / (2 * h) for m in (E, F, G))
    E_vv = (E[1, 2] - 2 * E[1, 1] + E[1, 0]) / h ** 2
    G_uu = (G[2, 1] - 2 * G[1, 1] + G[0, 1]) / h ** 2
    F_uv = (F[2, 2] - F[2, 0] - F[0, 2] + F[0, 0]) / (4 * h ** 2)

    det = E0 * G0 - F0 * F0
    a, b, c = -0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v
    d, e = F_v - 0.5 * G_u, 0.5 * G_v
    m1 = a * det - b * (d * G0 - F0 * e) + c * (d * F0 - E0 * e)
    f, k = 0.5 * E_v, 0.5 * G_u
    m2 = -f * (f * G0 - F0 * k) + k * (f * F0 - E0 * k)
    return (m1 - m2) / (det * det)

"""Pointwise invariants of a Lagrangian surface from one lift jet.

The pipeline: induced metric -> orthonormal tangent frame -> second
fundamental form on that frame -> mean/Gauss curvature, the cubic
coefficient tensor, and the ellipse-of-curvature data (circularity defect,
frame densities, radius).  Every quantity is batched over any broadcast
shape.  Cross-route consistency checks are never folded into each other;
each has its own defect number.  Gates read their limits from TOLERANCES.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import ambient as amb
from .ambient import AmbientSpace
from .catalog import SurfaceSpec, lift_at
from .numerics import TOLERANCES, Jet2, Jet3, component_major, real_pair

# fewest angles that sample the ellipse, which is traced twice per turn
MIN_ANGLES = 8


@dataclass(frozen=True)
class PointGeometry:
    """All pointwise invariants plus the consistency defects that built them.

    Array fields share the evaluation batch shape.  ``C[..., i, j, k]`` is
    the cubic coefficient real_pair(sigma(e_i, e_j), J e_k): sigma_ij in
    (J e1, J e2) coordinates, from which every invariant comes.  ``K`` is the
    ambient-identity route (curvature constant, |H|^2, |sigma|^2);
    gauss_curvature_intrinsic is the other.  ``defects`` maps each lift
    defect's check name in TOLERANCES to its pointwise values.
    """

    space: AmbientSpace
    g: np.ndarray
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


def _assemble(space, g, C, defects):
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

    return PointGeometry(space=space, g=g, C=C,
                         H2=H2, sigma_sq=sigma_sq, K=K, D=D, F=F, Hc=Hc, R=R,
                         defects=defects)


def geometry_from_jet(lift: Jet2, space: AmbientSpace) -> PointGeometry:
    """Invariants from a second-order jet of the (lifted) immersion.

    The jet can come from the catalog, from a rescaled catalog jet, or from
    any hand-built map; nothing here assumes more than an immersed surface
    with the stated lift constraints (and it measures those rather than
    assuming them).  Degenerate points are rejected by the split's gates.
    """
    return split_geometry(lift, space)[1]


def split_geometry(lift: Jet2, space: AmbientSpace):
    """(frame split, geometry_from_jet's invariants) of a jet, for a caller
    that keeps the split to certify it with split_defects."""
    split = amb.second_form_split(lift, space)
    p, q, r = _gram_schmidt(split.metric)

    # sigma(d_u, d_v) on (J d1, J d2) to (J e1, J e2) coordinates, by
    # J d1 = J e1 / p and J d2 = (J e2 - (q / p) J e1) / r
    n = split.coeff.imag  # on (J d1, J d2): the second fundamental form
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

    return split, _assemble(space, split.metric, component_major(C, 3), {
        "membership": amb.membership_defect(lift, space),
        "horizontality": amb.horizontality_defect(lift, space),
        "lagrangian": amb.lagrangian_defect(lift, space)})


def _gram_schmidt(g):
    # e1 = p d1, e2 = q d1 + r d2: Gram-Schmidt in chart order, oriented
    g11, g12, g22 = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    det = g11 * g22 - g12 * g12
    return 1.0 / np.sqrt(g11), -g12 / np.sqrt(g11 * det), np.sqrt(g11 / det)


def tangent_frame(lift: Jet2, g) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal frame (e1, e2) on which C is written, as ambient
    vectors, from the lift jet and its metric g."""
    p, q, r = _gram_schmidt(g)
    return (p[..., None] * lift.d1,
            q[..., None] * lift.d1 + r[..., None] * lift.d2)


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


def c_symmetry_gap(pg: PointGeometry) -> np.ndarray:
    """Pointwise defect of C's symmetry in its last two slots: C of a
    Lagrangian immersion is fully symmetric, and the first two slots'
    symmetry is structural."""
    C = pg.C
    return np.maximum(np.abs(C[..., 0, 0, 1] - C[..., 0, 1, 0]),
                      np.abs(C[..., 1, 1, 0] - C[..., 1, 0, 1]))


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
    """The ellipse of curvature in (J e1, J e2) coordinates.

    sigma(v, v) for the unit tangent v at angle theta is
    ``center + cos(2 theta) half_diff + sin(2 theta) cross``: the mean
    curvature vector H, (sigma11 - sigma22) / 2 and sigma12, each with the
    batch shape plus a trailing axis of 2.  ``fit_residual`` is, pointwise,
    max_theta | |sigma(v,v) - H| - R |: 0 exactly on the circle of radius R.
    """

    center: np.ndarray
    half_diff: np.ndarray
    cross: np.ndarray
    fit_residual: np.ndarray

    def samples(self, n_angles: int) -> tuple[np.ndarray, np.ndarray]:
        """n_angles uniform angles theta in [0, 2 pi) and sigma(v, v) at
        each, angle axis first; theta + pi gives theta's normal again."""
        if n_angles < MIN_ANGLES:
            raise ValueError(
                f"need n_angles >= {MIN_ANGLES} to see the ellipse")
        theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
        # one call each over the angles: bitwise the per-angle calls
        two_theta = (2.0 * theta).reshape((-1,) + (1,) * self.center.ndim)
        cos2, sin2 = np.cos(two_theta), np.sin(two_theta)
        return theta, self.center + cos2 * self.half_diff + sin2 * self.cross


def ellipse_samples(pg: PointGeometry) -> CurvatureEllipse:
    """The ellipse of curvature of pg and its exact circle-fit residual: for
    U, W the complex numbers of u = half_diff, w = cross, alpha = (U - iW)/2
    and beta = (U + iW)/2, sigma(v,v) - H = alpha e^{2i theta} + beta
    e^{-2i theta}, so |sigma(v,v) - H| runs over [b, a] for a = |alpha| +
    |beta|, b = ||alpha| - |beta||, and the residual is max(a - R, R - b)."""
    # the (J e1, J e2) coordinates of sigma_ij are the cubic tensor C_ij
    c11, c12, c22 = pg.C[..., 0, 0, :], pg.C[..., 0, 1, :], pg.C[..., 1, 1, :]
    u, w = 0.5 * (c11 - c22), c12
    alpha = 0.5 * np.hypot(u[..., 0] + w[..., 1], u[..., 1] - w[..., 0])
    beta = 0.5 * np.hypot(u[..., 0] - w[..., 1], u[..., 1] + w[..., 0])
    fit = np.maximum(alpha + beta - pg.R, pg.R - np.abs(alpha - beta))
    return CurvatureEllipse(center=0.5 * (c11 + c22), half_diff=u, cross=w,
                            fit_residual=fit)


def gauss_curvature_intrinsic(lift: Jet3, space: AmbientSpace) -> np.ndarray:
    """Intrinsic Gauss curvature from the metric alone, by Brioschi's formula.

    E, F, G and their partials up to order 2 are pairings of the lift's
    exact partials up to order 3, so nothing is differenced.  Independent of
    the second fundamental form, so it cross-checks the ambient-identity route.
    """
    pair = functools.partial(real_pair, sig=space.sig)
    d1, d2, d11, d12, d22 = lift.d1, lift.d2, lift.d11, lift.d12, lift.d22
    # <d1, d122>, <d112, d2> and <d12, d12> each serve two second partials
    a, b, c = pair(d1, lift.d122), pair(lift.d112, d2), pair(d12, d12)
    return _brioschi(
        pair(d1, d1), pair(d1, d2), pair(d2, d2),  # E, F, G
        2.0 * pair(d11, d1), 2.0 * pair(d12, d1),  # E_u, E_v
        pair(d11, d2) + pair(d1, d12),  # F_u
        pair(d12, d2) + pair(d1, d22),  # F_v
        2.0 * pair(d12, d2), 2.0 * pair(d22, d2),  # G_u, G_v
        2.0 * a + 2.0 * c,  # E_vv
        b + pair(d11, d22) + c + a,  # F_uv
        2.0 * b + 2.0 * c)  # G_uu


def _brioschi(E0, F0, G0, E_u, E_v, F_u, F_v, G_u, G_v, E_vv, F_uv, G_uu):
    """K = (det M1 - det M2) / (EG - F^2)^2 from the metric's partials.

    M1 has the rows (-E_vv/2 + F_uv - G_uu/2, E_u/2, F_u - E_v/2),
    (F_v - G_u/2, E, F), (G_v/2, F, G); M2 has (0, E_v/2, G_u/2),
    (E_v/2, E, F), (G_u/2, F, G).  Both expand along their first row, and
    squares are products, so one point's scalars round as a batch does.
    """
    det = E0 * G0 - F0 * F0
    a, b, c = -0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v
    d, e = F_v - 0.5 * G_u, 0.5 * G_v
    m1 = a * det - b * (d * G0 - F0 * e) + c * (d * F0 - E0 * e)
    f, k = 0.5 * E_v, 0.5 * G_u
    m2 = -f * (f * G0 - F0 * k) + k * (f * F0 - E0 * k)
    return (m1 - m2) / (det * det)

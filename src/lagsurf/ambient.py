"""Ambient model spaces and frame decompositions of the lift derivatives.

The flat space is handled directly; the curved targets are handled entirely
through their standard lifts (unit-norm for positive curvature, norm -1 in
the indefinite pairing for negative curvature).  Horizontal lifts carry all
of the surface geometry, so nothing here ever builds a chart downstairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (GRAM_COND_LIMIT, DegeneratePointError, Jet2,
                       component_major, herm_pair, real_pair)


@dataclass(frozen=True)
class AmbientSpace:
    """Target space data: holomorphic sectional curvature and lift model.

    ``lift_norm`` is the required Hermitian square of the lift (+1 on the
    sphere model, -1 on the anti-De-Sitter model, None when the target is
    flat and the immersion needs no lift at all).
    """

    model: str
    c: float
    signature: tuple[float, ...]
    lift_norm: float | None

    @property
    def sig(self) -> np.ndarray:
        return np.asarray(self.signature)

    @property
    def is_lifted(self) -> bool:
        return self.lift_norm is not None


C2 = AmbientSpace("c2", 0.0, (1.0, 1.0), None)
CP2 = AmbientSpace("cp2", 4.0, (1.0, 1.0, 1.0), 1.0)
CH2 = AmbientSpace("ch2", -4.0, (1.0, 1.0, -1.0), -1.0)

def membership_defect(lift: Jet2, space: AmbientSpace) -> float:
    """Max deviation of herm(psi, psi) from the required lift norm."""
    if not space.is_lifted:
        return 0.0
    dev = herm_pair(lift.v, lift.v, space.sig) - space.lift_norm
    return float(np.max(np.abs(dev)))


def horizontality_defect(lift: Jet2, space: AmbientSpace) -> float:
    """Max |herm(d_u psi, psi)| over both parameters (0 where no lift)."""
    if not space.is_lifted:
        return 0.0
    d = max(np.max(np.abs(herm_pair(du, lift.v, space.sig)))
            for du in (lift.d1, lift.d2))
    return float(d)


def lagrangian_defect(lift: Jet2, space: AmbientSpace) -> float:
    """Max |Im herm(d1 psi, d2 psi)|: vanishing makes the surface Lagrangian
    (herm(d2, d1) is its conjugate, and herm(d_i, d_i) is real)."""
    return float(np.max(np.abs(herm_pair(lift.d1, lift.d2, space.sig).imag)))


@dataclass(frozen=True)
class FrameSplit:
    """What the geometry reads off the second derivatives of the lift.

    ``metric`` is the induced metric g_ij (``..., 2, 2``).  ``normal``
    (``..., 3, 2``) holds, for the pairs (11, 12, 22), the coefficients on
    (J d1, J d2) of d_uv psi: the second fundamental form.  The tangent
    and lift parts are fixed by the metric, so only the batch maxima of
    their defects are kept (see second_form_split; 0.0 over a flat target).
    """

    metric: np.ndarray
    normal: np.ndarray
    split_residual: float
    position_defect: float
    fiber_defect: float


def _norm(a):
    # Euclidean norm over the last axis, in place one component at a time:
    # the real parts' squares, then the imaginary parts', then the two
    re, im = a[..., 0].real ** 2, a[..., 0].imag ** 2
    for k in range(1, a.shape[-1]):
        re += a[..., k].real ** 2
        im += a[..., k].imag ** 2
    return np.sqrt(re + im)


def gram_condition(g11, g22, t12, c1=None, c2=None, nu=None):
    """Condition number of the real frame Gram matrix, in closed form.

    That matrix realifies the Hermitian Gram matrix of (d1, d2[, psi]) and
    shares its eigenvalues: those of the tangent block T = [[g11, t12],
    [conj t12, g22]], and over a lifted target the Schur complement
    nu - c^H T^-1 c of psi, c = (c1, c2) = herm(d_i, psi).  The complement
    is exact where psi is horizontal (c = 0) and vanishes exactly where the
    full matrix is singular.  Degenerate input gives inf or nan.
    """
    mean = 0.5 * (g11 + g22)
    abs_t12_sq = t12.real ** 2 + t12.imag ** 2
    det_t = g11 * g22 - abs_t12_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = mean + np.sqrt((0.5 * (g11 - g22)) ** 2 + abs_t12_sq)
        eig = [np.abs(hi), np.abs(det_t / hi)]
        if nu is not None:
            quad = (g22 * np.abs(c1) ** 2 + g11 * np.abs(c2) ** 2
                    - 2.0 * (np.conj(c1) * t12 * c2).real)
            eig.append(np.abs(nu - quad / det_t))
        return np.maximum.reduce(eig) / np.minimum.reduce(eig)


def second_form_split(lift: Jet2, space: AmbientSpace) -> FrameSplit:
    """Split d_uv psi over the adapted frame in closed form.

    The real frame (d1, d2, J d1, J d2[, psi, i psi]) realifies the complex
    basis (d1, d2[, psi]); its Gram matrix is diag(g, g, nu*I) up to the
    off-block terms that lagrangian_defect and horizontality_defect
    measure.  So with h = herm(d_uv psi, b), g^-1 h on (d1, d2) gives the
    tangent (real part) and normal (imaginary part, on J d1, J d2)
    coefficients, and h / nu on psi (nu the model's lift norm) gives
    position + i * fiber; each d_uv psi is split on its own, on arrays of
    the batch shape.  Gates, in order: g positive definite, then
    gram_condition (off-block terms included) under GRAM_COND_LIMIT.
    Returned: g, the normal parts, and three maxima, each relative to 1 +
    the local scale: the residual of the full reconstruction against
    d_uv psi, which certifies the split and sees any neglected coupling;
    the deviation of position from -g_uv / nu; and fiber, which vanishes
    precisely when the lift is horizontal and Lagrangian.
    """
    sig = space.sig
    d1, d2, psi = lift.d1, lift.d2, lift.v
    # a huge jet overflows here; the Gram gate reports the inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        g11 = real_pair(d1, d1, sig)
        g22 = real_pair(d2, d2, sig)
        t12 = herm_pair(d1, d2, sig)
        g12 = t12.real
        det = g11 * g22 - g12 * g12
        if np.any(g11 <= 0.0) or np.any(det <= 0.0):
            raise DegeneratePointError(
                "induced metric is not positive definite")
        off_block = ((herm_pair(d1, psi, sig), herm_pair(d2, psi, sig),
                      real_pair(psi, psi, sig)) if space.is_lifted else ())
        cond = gram_condition(g11, g22, t12, *off_block)
    if np.any(~np.isfinite(cond)) or np.any(cond > GRAM_COND_LIMIT):
        raise DegeneratePointError(
            f"frame Gram condition number {np.max(cond):.3e} exceeds "
            f"{GRAM_COND_LIMIT:.0e}; singular or non-immersed point")

    # one d_uv psi at a time; normals fill one buffer (see component_major)
    basis = [d1, d2, psi] if space.is_lifted else [d1, d2]
    normal = np.empty((3, 2) + np.shape(g11))
    residual, position, fiber = [], [0.0], [0.0]
    for p, (x, g) in enumerate(zip((lift.d11, lift.d12, lift.d22),
                                   (g11, g12, g22))):
        h = [herm_pair(x, b, sig) for b in basis]
        # g^-1 (h1, h2) by the closed-form 2x2 inverse
        z1 = (g22 * h[0] - g12 * h[1]) / det
        z2 = (g11 * h[1] - g12 * h[0]) / det
        normal[p, 0], normal[p, 1] = z1.imag, z2.imag
        gap = x - z1[..., None] * d1
        gap -= z2[..., None] * d2
        if space.is_lifted:
            z_psi = h[2] / space.lift_norm
            gap -= z_psi[..., None] * psi
            gscale = 1.0 + np.abs(g)
            position.append(np.max(np.abs(z_psi.real + g / space.lift_norm)
                                   / gscale))
            fiber.append(np.max(np.abs(z_psi.imag) / gscale))
        residual.append(np.max(_norm(gap) / (1.0 + _norm(x))))

    metric = np.array([[g11, g12], [g12, g22]])
    return FrameSplit(metric=component_major(metric, 2),
                      normal=component_major(normal, 2),
                      split_residual=float(np.max(residual)),
                      position_defect=float(np.max(position)),
                      fiber_defect=float(np.max(fiber)))

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

def membership_defect(lift: Jet2, space: AmbientSpace) -> np.ndarray | float:
    """Pointwise deviation of herm(psi, psi) from the required lift norm."""
    if not space.is_lifted:
        return 0.0
    return np.abs(herm_pair(lift.v, lift.v, space.sig) - space.lift_norm)


def horizontality_defect(lift: Jet2,
                         space: AmbientSpace) -> np.ndarray | float:
    """Pointwise max |herm(d_u psi, psi)| over u (0.0 where no lift)."""
    if not space.is_lifted:
        return 0.0
    return np.maximum(np.abs(herm_pair(lift.d1, lift.v, space.sig)),
                      np.abs(herm_pair(lift.d2, lift.v, space.sig)))


def lagrangian_defect(lift: Jet2, space: AmbientSpace) -> np.ndarray:
    """Pointwise |Im herm(d1 psi, d2 psi)|: vanishing makes the surface
    Lagrangian (herm(d2, d1) is its conjugate, and herm(d_i, d_i) is real)."""
    return np.abs(herm_pair(lift.d1, lift.d2, space.sig).imag)


@dataclass(frozen=True)
class FrameSplit:
    """What the geometry reads off the second derivatives of the lift.

    ``metric`` is the induced metric g_ij (``..., 2, 2``).  ``coeff``
    (``..., 3, 2``, complex) holds, for the pairs (11, 12, 22), the
    coefficients of d_uv psi on (d1, d2): real parts are tangent, and
    imaginary parts, on (J d1, J d2), are the second fundamental form.
    split_defects certifies them, and forms the psi coefficient itself.
    """

    metric: np.ndarray
    coeff: np.ndarray


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
    coefficients; each d_uv psi is split on its own, on arrays of the
    batch shape.  Gates, in order: g positive definite, then
    gram_condition (off-block terms included) under GRAM_COND_LIMIT.
    Returned: g and the coefficients; split_defects certifies them.
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

    # one d_uv psi at a time into one buffer (see component_major)
    coeff = np.empty((3, 2) + np.shape(g11), dtype=complex)
    for p, x in enumerate((lift.d11, lift.d12, lift.d22)):
        h1, h2 = herm_pair(x, d1, sig), herm_pair(x, d2, sig)
        # g^-1 (h1, h2) by the closed-form 2x2 inverse
        coeff[p, 0] = (g22 * h1 - g12 * h2) / det
        coeff[p, 1] = (g11 * h2 - g12 * h1) / det

    metric = np.array([[g11, g12], [g12, g22]])
    return FrameSplit(metric=component_major(metric, 2),
                      coeff=component_major(coeff, 2))


def split_defects(lift: Jet2, space: AmbientSpace,
                  split: FrameSplit) -> dict[str, np.ndarray | float]:
    """The split's certification from its own coefficients, by check name:
    pointwise maxima over uv, relative to 1 + the local scale, of
    split_residual (the whole reconstruction against d_uv psi, so it sees
    any neglected coupling), position_coeff (position against -g_uv / nu)
    and fiber_coeff (zero exactly where the lift is horizontal and
    Lagrangian; these two are 0.0 over a flat target).  The coefficient
    herm(d_uv psi, psi) / nu on psi (nu the model's lift norm), position +
    i * fiber, is formed here, where it is read."""
    g_uv = [split.metric[..., i, j] for i, j in ((0, 0), (0, 1), (1, 1))]
    residual = position = fiber = 0.0
    for p, x in enumerate((lift.d11, lift.d12, lift.d22)):
        z = split.coeff[..., p, :]
        gap = x - z[..., 0, None] * lift.d1
        gap -= z[..., 1, None] * lift.d2
        if space.is_lifted:
            on_psi = herm_pair(x, lift.v, space.sig) / space.lift_norm
            gap -= on_psi[..., None] * lift.v
            gscale = 1.0 + np.abs(g_uv[p])
            position = np.maximum(position, np.abs(
                on_psi.real + g_uv[p] / space.lift_norm) / gscale)
            fiber = np.maximum(fiber, np.abs(on_psi.imag) / gscale)
        residual = np.maximum(residual, _norm(gap) / (1.0 + _norm(x)))
    return {"split_residual": residual, "position_coeff": position,
            "fiber_coeff": fiber}

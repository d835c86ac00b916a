"""The general real Gram solve: the reference route for the frame split.

``lagsurf.ambient.second_form_split`` solves its frame system in closed
form, relying on the block structure of the frame's Gram matrix.  The
functions here assume no structure at all: they build the real Gram matrix
of an arbitrary basis under the signature pairing and solve it with LAPACK,
gated by the SVD condition number.  Tests check the fast split and its
degeneracy gate against them.
"""

from __future__ import annotations

import numpy as np

from lagsurf.numerics import GRAM_COND_LIMIT, DegeneratePointError, apply_J


def gram(basis, sig):
    """Real Gram matrix (..., k, k) of the basis under real_pair, and the
    basis stacked as (..., k, m)."""
    stacked = np.stack(basis, axis=-2)
    prod = np.einsum("...am,...bm->...ab", stacked * np.asarray(sig),
                     np.conj(stacked))
    return prod.real, stacked


def span_coefficients(v, basis, sig):
    """Real coefficients x with v ~ sum_a x_a basis_a under real_pair.

    Solves the (possibly indefinite) Gram system explicitly; orthonormality
    of the basis is never assumed.  Batches broadcast over leading axes.
    Raises DegeneratePointError when the Gram condition number exceeds
    GRAM_COND_LIMIT.
    """
    g, stacked = gram(basis, sig)
    cond = np.linalg.cond(g)
    if np.any(~np.isfinite(cond)) or np.any(cond > GRAM_COND_LIMIT):
        raise DegeneratePointError(
            f"Gram condition number {np.max(cond):.3e} exceeds "
            f"{GRAM_COND_LIMIT:.0e}; singular or non-immersed point")
    rhs = np.einsum("...m,...am->...a",
                    np.asarray(v) * np.asarray(sig), np.conj(stacked)).real
    # a trailing unit axis keeps solve from reading a batch of
    # right-hand sides as one matrix of them
    return np.linalg.solve(g, rhs[..., None])[..., 0]


def project_onto_span(v, basis, sig):
    """Orthogonal projection of v onto the real span of basis under real_pair.

    Returns the unique w in span(basis) with real_pair(v - w, b) = 0 for all
    basis vectors b.  Idempotent.
    """
    coeffs = span_coefficients(v, basis, sig)
    stacked = np.stack(basis, axis=-2)
    return np.einsum("...a,...am->...m", coeffs.astype(complex), stacked)


def frame_basis(lift, space):
    """The real adapted frame (d1, d2, J d1, J d2[, psi, i psi])."""
    basis = [lift.d1, lift.d2, apply_J(lift.d1), apply_J(lift.d2)]
    if space.is_lifted:
        basis += [lift.v, apply_J(lift.v)]
    return basis


def frame_condition(lift, space):
    """SVD condition number of the real frame Gram matrix at each point."""
    return np.linalg.cond(gram(frame_basis(lift, space), space.sig)[0])


def reference_split(lift, space):
    """(tangent, normal, position, fiber) by the general Gram solve.

    Shapes follow FrameSplit: tangent (..., 3, 2), normal (..., 3, m),
    position and fiber (..., 3) or None over the flat target.
    """
    basis = frame_basis(lift, space)
    coeffs = np.stack([span_coefficients(x, basis, space.sig)
                       for x in (lift.d11, lift.d12, lift.d22)], axis=-2)
    normal = np.einsum("...pa,...am->...pm", coeffs[..., 2:4].astype(complex),
                       np.stack(basis[2:4], axis=-2))
    if not space.is_lifted:
        return coeffs[..., 0:2], normal, None, None
    return coeffs[..., 0:2], normal, coeffs[..., 4], coeffs[..., 5]

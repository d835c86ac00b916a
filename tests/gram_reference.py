"""The general real Gram solve and the complex-vector assembly: the
reference routes for the frame split and the invariants.

``lagsurf.ambient.second_form_split`` solves its frame system in closed
form, relying on the block structure of the frame's Gram matrix.  The
functions here assume no structure at all: they build the real Gram matrix
of an arbitrary basis under the signature pairing and solve it with LAPACK,
gated by the SVD condition number.  ``lagsurf.geom`` holds the second
fundamental form as real (J e1, J e2) coordinates; ``reference_geometry``
builds it as vectors in C^m instead and pairs them.  Tests check the fast
split, its degeneracy gate and the invariants against these routes.
"""

from __future__ import annotations

import numpy as np

from lagsurf.numerics import (GRAM_COND_LIMIT, DegeneratePointError, apply_J,
                              real_pair)


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

    Coefficients of d11, d12 and d22 on the real frame: tangent (..., 3, 2)
    on (d1, d2), normal (..., 3, 2) on (J d1, J d2) as in FrameSplit, and
    position and fiber (..., 3) on (psi, i psi), or None over the flat
    target.
    """
    basis = frame_basis(lift, space)
    coeffs = np.stack([span_coefficients(x, basis, space.sig)
                       for x in (lift.d11, lift.d12, lift.d22)], axis=-2)
    if not space.is_lifted:
        return coeffs[..., 0:2], coeffs[..., 2:4], None, None
    return (coeffs[..., 0:2], coeffs[..., 2:4], coeffs[..., 4],
            coeffs[..., 5])


def normal_vectors(lift, coeffs):
    """Vectors (..., 3, m) from normal coefficients (..., 3, 2) on
    (J d1, J d2)."""
    jd = np.stack([apply_J(lift.d1), apply_J(lift.d2)], axis=-2)
    return np.einsum("...pa,...am->...pm", coeffs.astype(complex), jd)


def reference_geometry(lift, space):
    """C, |H|^2, |sigma|^2, K and D by the complex-vector route.

    The normal parts of the general Gram solve become vectors sigma(d_u,
    d_v) in C^m, then sigma(e_i, e_j) on the Gram-Schmidt frame (e1, e2),
    each paired with J e_k by real_pair to give C[..., i, j, k]; |H|^2,
    |sigma|^2 and D pair the vectors, and K = c/4 + 2|H|^2 - |sigma|^2/2.
    """
    sig = space.sig
    d1, d2 = lift.d1, lift.d2
    g11, g12, g22 = (real_pair(a, b, sig) for a, b in
                     ((d1, d1), (d1, d2), (d2, d2)))
    det = g11 * g22 - g12 * g12
    p = 1.0 / np.sqrt(g11)
    r = np.sqrt(g11 / det)
    q = -g12 / np.sqrt(g11 * det)
    p, q, r = p[..., None], q[..., None], r[..., None]
    je = (apply_J(p * d1), apply_J(q * d1 + r * d2))

    vectors = normal_vectors(lift, reference_split(lift, space)[1])
    sc11, sc12, sc22 = (vectors[..., i, :] for i in range(3))
    s11 = p * p * sc11
    s12 = p * (q * sc11 + r * sc12)
    s22 = q * q * sc11 + 2.0 * q * r * sc12 + r * r * sc22

    C = np.stack([np.stack([np.stack([real_pair(s, j, sig) for j in je],
                                     axis=-1) for s in row], axis=-2)
                  for row in ((s11, s12), (s12, s22))], axis=-3)
    H = 0.5 * (s11 + s22)
    H2 = real_pair(H, H, sig)
    sigma_sq = (real_pair(s11, s11, sig) + 2.0 * real_pair(s12, s12, sig)
                + real_pair(s22, s22, sig))
    diff = s11 - s22
    D = (0.25 * real_pair(diff, diff, sig) - real_pair(s12, s12, sig)
         + 1j * real_pair(diff, s12, sig))
    return {"C": C, "H2": H2, "sigma_sq": sigma_sq,
            "K": space.c / 4.0 + 2.0 * H2 - 0.5 * sigma_sq, "D": D}


# the complex-vector route may differ from the (J e1, J e2) coordinates by
# this much, relative to 1 + the largest size of the quantity; measured:
# 1.2e-12 (K on psi-ch2(0.7)), most about 1e-15
REFERENCE_GAP = 1e-11


def reference_gaps(pg, lift, space):
    """Per quantity, max |pg - reference| / (1 + max |reference|)."""
    return {name: float(np.max(np.abs(getattr(pg, name) - want))
                        / (1.0 + np.max(np.abs(want))))
            for name, want in reference_geometry(lift, space).items()}

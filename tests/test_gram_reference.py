"""The general Gram solve that the closed-form split is checked against."""

from __future__ import annotations

import numpy as np
import pytest

from gram_reference import project_onto_span, span_coefficients
from lagsurf.ambient import C2, CH2, CP2
from lagsurf.numerics import DegeneratePointError, real_pair

SIG_C2, SIG_S5, SIG_H51 = C2.sig, CP2.sig, CH2.sig
SIGS = {"c2": SIG_C2, "s5": SIG_S5, "h51": SIG_H51}


def _vectors(rng, sig, n=1, batch=()):
    shape = batch + (n, len(sig))
    return np.moveaxis(rng.normal(size=shape) + 1j * rng.normal(size=shape),
                       -2, 0)


def test_projection_idempotent_and_orthogonal():
    rng = np.random.default_rng(17)
    for name, sig in SIGS.items():
        basis = list(_vectors(rng, sig, 2))
        v = _vectors(rng, sig, 1)[0]
        p = project_onto_span(v, basis, sig)
        p2 = project_onto_span(p, basis, sig)
        assert np.max(np.abs(p - p2)) < 1e-10, name
        for b in basis:
            assert abs(real_pair(v - p, b, sig)) < 1e-10, name


def test_projection_recovers_span_member():
    rng = np.random.default_rng(19)
    basis = list(_vectors(rng, SIG_S5, 2))
    x = rng.normal(size=2)
    v = x[0] * basis[0] + x[1] * basis[1]
    coeffs = span_coefficients(v, basis, SIG_S5)
    assert np.max(np.abs(coeffs - x)) < 1e-12
    p = project_onto_span(v, basis, SIG_S5)
    assert np.max(np.abs(p - v)) < 1e-12


@pytest.mark.parametrize("batch", [1, 2, 3, 5])
def test_batched_span_coefficients(batch):
    # a batch as long as the basis once came back as (batch, k, k), and
    # other lengths raised a core-dimension error
    rng = np.random.default_rng(23)
    basis = list(_vectors(rng, SIG_H51, 2, batch=(batch,)))
    x = rng.normal(size=(batch, 2))
    v = x[:, :1] * basis[0] + x[:, 1:] * basis[1]
    coeffs = span_coefficients(v, basis, SIG_H51)
    assert coeffs.shape == (batch, 2)
    assert np.max(np.abs(coeffs - x)) < 1e-12


def test_degenerate_basis_raises():
    b = np.array([1.0 + 0j, 0.0, 0.0])
    with pytest.raises(DegeneratePointError):
        span_coefficients(b, [b, b * (1.0 + 1e-14)], SIG_S5)

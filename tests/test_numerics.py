"""Pairings and jet arithmetic against independent oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagsurf.ambient import C2, CH2, CP2
from lagsurf.numerics import (Jet2, Jet3, apply_J, herm_pair, jet_sin_cos,
                              real_pair)

SIG_C2, SIG_S5, SIG_H51 = C2.sig, CP2.sig, CH2.sig
SIGS = {"c2": SIG_C2, "s5": SIG_S5, "h51": SIG_H51}

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def _vectors(rng, sig, n=1):
    dim = len(sig)
    return (rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim)))


@given(st.lists(finite, min_size=12, max_size=12))
@settings(max_examples=200, deadline=None)
def test_herm_pair_conjugate_symmetry(values):
    a = np.array(values[:3]) + 1j * np.array(values[3:6])
    b = np.array(values[6:9]) + 1j * np.array(values[9:])
    for sig in (SIG_S5, SIG_H51):
        lhs = herm_pair(a, b, sig)
        rhs = np.conj(herm_pair(b, a, sig))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_herm_pair_sesquilinear():
    rng = np.random.default_rng(11)
    for name, sig in SIGS.items():
        a, b, c = _vectors(rng, sig, 3)
        alpha = complex(rng.normal(), rng.normal())
        # linear in the first slot
        lhs = herm_pair(alpha * a + b, c, sig)
        rhs = alpha * herm_pair(a, c, sig) + herm_pair(b, c, sig)
        assert abs(lhs - rhs) < 1e-12, name
        # conjugate-linear in the second slot
        lhs = herm_pair(a, alpha * b + c, sig)
        rhs = np.conj(alpha) * herm_pair(a, b, sig) + herm_pair(a, c, sig)
        assert abs(lhs - rhs) < 1e-12, name


def _signed_product_sum(a, b, sig):
    # sig[k] * a_k * conj(b_k), summed in component order
    total = sig[0] * a[..., 0] * np.conj(b[..., 0])
    for k in range(1, len(sig)):
        total = total + sig[k] * a[..., k] * np.conj(b[..., k])
    return total


@pytest.mark.parametrize("space", [C2, CP2, CH2], ids=lambda s: s.model)
@pytest.mark.parametrize("batch", [(), (7,), (4, 5)])
def test_herm_pair_sign_terms_equal_signed_products(space, batch):
    # adding or subtracting each term by the sign of eps_k equals the
    # product with eps_k, so the two sums agree exactly.  A single vector
    # is compared as a one-row batch: on 0-d input the products above are
    # numpy scalars, whose complex multiply rounds differently from the
    # array loop that herm_pair and every batch row use
    rng = np.random.default_rng(17)
    shape = batch + (len(space.signature),)
    for _ in range(50):
        a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                for _ in range(2))
        got = herm_pair(a, b, space.sig)
        want = _signed_product_sum(a[None], b[None], space.sig)[0]
        assert np.shape(got) == batch
        assert np.all(got == want)


def test_signature_signs():
    e3 = np.array([0.0, 0.0, 1.0 + 0.0j])
    assert real_pair(e3, e3, SIG_S5) == 1.0
    assert real_pair(e3, e3, SIG_H51) == -1.0


def test_real_pair_is_real_part():
    rng = np.random.default_rng(3)
    a, b = _vectors(rng, SIG_H51, 2)
    assert real_pair(a, b, SIG_H51) == pytest.approx(
        herm_pair(a, b, SIG_H51).real, abs=1e-15)


def test_apply_J_involution_exact():
    rng = np.random.default_rng(5)
    (a,) = _vectors(rng, SIG_S5, 1)
    assert np.array_equal(apply_J(apply_J(a)), -a)


def test_apply_J_isometry_and_skewness():
    rng = np.random.default_rng(7)
    for sig in (SIG_C2, SIG_S5, SIG_H51):
        a, b = _vectors(rng, sig, 2)
        # pairing preserved
        assert abs(herm_pair(apply_J(a), apply_J(b), sig)
                   - herm_pair(a, b, sig)) < 1e-12
        # skew-adjoint for the real pairing
        assert abs(real_pair(apply_J(a), b, sig)
                   + real_pair(a, apply_J(b), sig)) < 1e-12
        assert abs(real_pair(apply_J(a), a, sig)) < 1e-12


# ---------------------------------------------------------------------------
# jets


def test_jet_of_square_map_exact():
    j1, _ = Jet2.variables(3.0, 0.0)
    sq = j1 * j1
    assert sq.v == 9.0 and sq.d1 == 6.0 and sq.d11 == 2.0
    assert sq.d2 == 0.0 and sq.d12 == 0.0 and sq.d22 == 0.0


def test_jet_double_angle_identity():
    # sin(x)cos(x) and sin(2x)/2 share every derivative up to order two
    a1 = np.linspace(-2.0, 2.0, 9)
    j1, _ = Jet2.variables(a1, 0.0)
    sin, cos = jet_sin_cos(j1)
    lhs = sin * cos
    rhs = jet_sin_cos(j1 * 2.0)[0] * 0.5
    for l, r in zip(lhs._fields(), rhs._fields()):
        assert np.max(np.abs(l - r)) < 1e-12


def test_jet_exp_product_rule():
    # exp(x*y): all second-order partials in closed form
    x, y = 0.7, -1.3
    j1, j2 = Jet2.variables(x, y)
    e = np.exp(x * y)
    j = (j1 * j2).compose_scalar(e, e, e, e)
    assert j.v == pytest.approx(e, rel=1e-14)
    assert j.d1 == pytest.approx(y * e, rel=1e-14)
    assert j.d2 == pytest.approx(x * e, rel=1e-14)
    assert j.d11 == pytest.approx(y * y * e, rel=1e-14)
    assert j.d12 == pytest.approx((1.0 + x * y) * e, rel=1e-14)
    assert j.d22 == pytest.approx(x * x * e, rel=1e-14)


def test_jet3_exp_product_rule_to_third_order():
    # exp(x*y) again, with its mixed third partials in closed form
    x, y = 0.7, -1.3
    j1, j2 = Jet3.variables(x, y)
    e = np.exp(x * y)
    j = (j1 * j2).compose_scalar(e, e, e, e)
    assert j.d112 == pytest.approx((2.0 * y + x * y * y) * e, rel=1e-14)
    assert j.d122 == pytest.approx((2.0 * x + x * x * y) * e, rel=1e-14)


def test_jet3_reciprocal_and_stack_keep_the_third_order():
    j1, j2 = Jet3.variables(0.4, 1.7)
    f = j1 * j1 * j2 + j1 * j2 * j2 + 1.0
    prod = f * f.reciprocal()
    assert isinstance(prod, Jet3)
    assert prod.v == pytest.approx(1.0, abs=1e-15)
    for value in prod._fields()[1:]:
        assert abs(value) < 1e-14
    stacked = Jet3.stack([f, f.conj() * 1j])
    assert isinstance(stacked, Jet3) and stacked.d112.shape == (2,)
    assert stacked.d112[0] == 2.0 and stacked.d122[1] == 2j


def test_jet_reciprocal_matches_quotient_rule():
    j1, j2 = Jet2.variables(0.4, 1.7)
    f = j1 * j1 + j2 * j2 + 1.0
    g = f.reciprocal()
    prod = f * g
    assert prod.v == pytest.approx(1.0, abs=1e-15)
    for name in ("d1", "d2", "d11", "d12", "d22"):
        assert abs(getattr(prod, name)) < 1e-14


def test_jet_reciprocal_raises_on_zero():
    j1, _ = Jet2.variables(0.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        j1.reciprocal()


def test_jet_conj_is_real_linear():
    j1, j2 = Jet2.variables(0.3, 0.9)
    z = j1 + j2 * 1j
    w = z.conj() * z  # |z|^2 = x^2 + y^2
    assert w.v == pytest.approx(0.3 ** 2 + 0.9 ** 2, rel=1e-14)
    assert abs(w.v.imag) == 0.0
    assert w.d11 == pytest.approx(2.0, rel=1e-13)
    assert w.d22 == pytest.approx(2.0, rel=1e-13)
    assert abs(w.d12) < 1e-14


def test_jet_stack_shapes():
    j1, j2 = Jet2.variables(np.zeros(5), np.ones(5))
    stacked = Jet2.stack([j1, j2, j1 * j2])
    assert stacked.v.shape == (5, 3)
    assert stacked.v.dtype == complex
    assert stacked.d12.shape == (5, 3)


def _quotient_rule(f):
    # the reciprocal's partials written out by hand, as Jet2.reciprocal and
    # Jet3.reciprocal once had them, field by field
    inv = 1.0 / f.v
    inv2 = inv * inv
    inv3 = inv2 * inv
    fields = (inv, -f.d1 * inv2, -f.d2 * inv2,
              2.0 * f.d1 * f.d1 * inv3 - f.d11 * inv2,
              2.0 * f.d1 * f.d2 * inv3 - f.d12 * inv2,
              2.0 * f.d2 * f.d2 * inv3 - f.d22 * inv2)
    if not isinstance(f, Jet3):
        return fields
    d1f, d2f, d3f = -inv2, 2.0 * inv2 * inv, -6.0 * inv2 * inv2
    a1, a2 = f.d1, f.d2
    return fields + (
        d3f * a1 * a1 * a2 + d2f * (2.0 * f.d12 * a1 + f.d11 * a2)
        + d1f * f.d112,
        d3f * a1 * a2 * a2 + d2f * (2.0 * f.d12 * a2 + f.d22 * a1)
        + d1f * f.d122)


def _denominators(cls, a1, a2):
    # jets whose first partials are neither 0 nor 1, so that the grouping
    # of a second-order term can move its bits: a real jet, a complex jet
    # with zero imaginary parts (like psi-ch2's |w|^2), and a complex one
    j1, j2 = cls.variables(a1, a2)
    sin, cos = jet_sin_cos(j1 * 0.7 - j2 * 1.3)
    real = (j1 * j1) * j2 + sin * cos * 3.1 + 5.0
    z = j1 * 0.9 + (j2 * 1.1 - 0.3) * 1j
    w = z * z.conj()
    return real, (w + w.conj()) * 0.5 + 0.25, z * z + (2.0 + 1.5j)


@pytest.mark.parametrize("cls", [Jet2, Jet3])
@pytest.mark.parametrize("where", ["batch", "point"])
def test_jet_reciprocal_keeps_the_bits_of_the_quotient_rule(cls, where):
    # the reciprocal is the chain rule through 1/x, with each second-order
    # term grouped as f'' * (d_i * d_j): on real values that is the written
    # out quotient rule bit for bit.  numpy's complex multiply need not
    # commute bit for bit, so a truly complex jet agrees to round-off only
    rng = np.random.default_rng(29)
    a1, a2 = ((rng.uniform(-2.0, 2.0, 500), rng.uniform(-2.0, 2.0, 500))
              if where == "batch" else (0.37, -1.21))
    real, zero_imag, complex_ = _denominators(cls, a1, a2)
    assert np.all(zero_imag.v.imag == 0.0) and np.any(complex_.v.imag != 0.0)
    for f in (real, zero_imag):
        got = f.reciprocal()
        assert type(got) is cls
        for field, want in zip(got._fields(), _quotient_rule(f),
                               strict=True):
            assert np.array_equal(field, want)
    for field, want in zip(complex_.reciprocal()._fields(),
                           _quotient_rule(complex_), strict=True):
        assert np.allclose(field, want, rtol=1e-14, atol=0.0)

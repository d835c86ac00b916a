"""Catalog parameter validation and the immersion formulas themselves."""

from __future__ import annotations

import numpy as np
import pytest

from lagsurf.atlas import (ChartDomainError, SphereChart, build_grid,
                           random_points)
from lagsurf.catalog import (FAMILIES, KINDS, SurfaceSpec, evaluate_lift,
                             lift_at)
from lagsurf.numerics import Jet2, Jet3


def test_kind_inventory():
    assert len(KINDS) == 8
    # every parameter a family reads is a SurfaceSpec field
    assert all(hasattr(SurfaceSpec, name)
               for family in FAMILIES.values() for name in family.params)


def test_unknown_kind_lists_alternatives():
    with pytest.raises(ValueError, match="clifford-torus"):
        SurfaceSpec("moebius")


# the fields of each spec: an invalid spec raises as it is built
@pytest.mark.parametrize("spec, fragment", [
    (dict(kind="whitney-cp2", t=-0.1), "t >= 0"),
    (dict(kind="whitney-ch2", t=0.0), "t > 0"),
    (dict(kind="whitney-ch2", t=-1.0), "t > 0"),
    (dict(kind="psi-ch2", s=np.pi / 4.0), "pi/4"),
    (dict(kind="psi-ch2", s=-0.1), "pi/4"),
    (dict(kind="product-torus-c2", r1=0.0), "positive radii"),
    (dict(kind="product-torus-c2", r2=-1.0), "positive radii"),
    (dict(kind="whitney-cp2", t=float("nan")), "finite t"),
    (dict(kind="psi-ch2", s=float("nan")), "finite s"),
    (dict(kind="product-torus-c2", r1=float("inf")), "finite r1"),
])
def test_out_of_range_parameters(spec, fragment):
    with pytest.raises(ValueError, match=fragment):
        SurfaceSpec(**spec)


def test_stray_parameter_rejected():
    with pytest.raises(ValueError, match="takes no parameter"):
        SurfaceSpec("clifford-torus", t=1.0)
    with pytest.raises(ValueError, match="takes no parameter"):
        SurfaceSpec("whitney-cp2", r1=2.0)


def test_params_and_label():
    spec = SurfaceSpec("product-torus-c2", r1=1.0, r2=2.5)
    assert spec.params() == {"r1": 1.0, "r2": 2.5}
    assert spec.label() == "product-torus-c2(1,2.5)"
    assert SurfaceSpec("eta-ch2").label() == "eta-ch2"
    assert SurfaceSpec("whitney-cp2", t=0.5).label() == "whitney-cp2(0.5)"


def test_arity_mismatch():
    j1, j2 = Jet2.variables(0.1, 0.2)
    with pytest.raises(ValueError, match="3 domain coordinates"):
        evaluate_lift(SurfaceSpec("whitney-cp2", t=1.0), (j1, j2))
    with pytest.raises(ValueError, match="2 domain coordinates"):
        evaluate_lift(SurfaceSpec("eta-ch2"), (j1, j1, j2))


def test_psi_rejects_origin():
    j1, j2 = Jet2.variables(0.0, 0.0)
    with pytest.raises(ChartDomainError, match="z = 0"):
        evaluate_lift(SurfaceSpec("psi-ch2", s=0.2), (j1, j2))


def test_whitney_cp2_at_zero_is_totally_geodesic():
    phi, theta = build_grid(SphereChart(), 11, 11)
    phi, theta = phi[:, None], theta[None, :]
    a = lift_at(SurfaceSpec("whitney-cp2", t=0.0), phi, theta)
    b = lift_at(SurfaceSpec("totally-geodesic-cp2"), phi, theta)
    for fa, fb in zip(a._fields(), b._fields()):
        assert np.max(np.abs(fa - fb)) < 1e-14


def test_clifford_torus_components_have_equal_moduli():
    lift = lift_at(SurfaceSpec("clifford-torus"), 0.7, 2.1)
    mods = np.abs(lift.v)
    assert np.max(np.abs(mods - 1.0 / np.sqrt(3.0))) < 1e-15


def test_product_torus_radii():
    spec = SurfaceSpec("product-torus-c2", r1=0.5, r2=3.0)
    lift = lift_at(spec, 1.0, 2.0)
    assert abs(lift.v[..., 0]) == pytest.approx(0.5, rel=1e-15)
    assert abs(lift.v[..., 1]) == pytest.approx(3.0, rel=1e-15)


def test_whitney_c2_double_point():
    # both sphere poles of the +-z axis land on the same image point (0, 0):
    # the classic single double point of the flat-target sphere immersion
    eps = 1e-9
    near_north = lift_at(SurfaceSpec("whitney-c2"), eps, 0.0)
    near_south = lift_at(SurfaceSpec("whitney-c2"), np.pi - eps, 0.0)
    assert np.max(np.abs(near_north.v)) < 1e-8
    assert np.max(np.abs(near_south.v)) < 1e-8


def test_evaluate_lift_validates_spec():
    j1, j2 = Jet2.variables(0.1, 0.2)
    with pytest.raises(ValueError, match="t > 0"):
        evaluate_lift(SurfaceSpec("whitney-ch2", t=0.0), (j1, j2))


def test_lift_shapes_follow_batch():
    phi = np.linspace(0.5, 2.5, 7)
    theta = np.full(7, 0.3)
    lift = lift_at(SurfaceSpec("whitney-cp2", t=1.0), phi, theta)
    assert lift.v.shape == (7, 3)
    assert lift.d12.shape == (7, 3)


# ---------------------------------------------------------------------------
# third-order lifts

EVERY_KIND = [SurfaceSpec(kind, **dict(FAMILIES[kind].defaults))
              for kind in KINDS]


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda s: s.label())
def test_jet3_low_part_is_bitwise_the_jet2_lift(spec):
    a1, a2 = random_points(spec.chart, 300, np.random.default_rng(7))
    pairs = [(lift_at(spec, a1, a2, Jet3), lift_at(spec, a1, a2))]
    # one point runs as a batch of one in either class
    pairs += [(lift_at(spec, a1[i], a2[i], Jet3), lift_at(spec, a1[i], a2[i]))
              for i in range(0, 300, 15)]
    for lift3, lift2 in pairs:
        assert isinstance(lift3, Jet3)
        assert all(_same_bits(got, want) for got, want in
                   zip(lift3._fields()[:6], lift2._fields(), strict=True))


# each closed form as written in the catalog, composed with its chart
def _sympy_lift(kind, a1, a2):
    import sympy as sp

    if kind == "whitney-cp2":  # at t = 1/2
        x, y, z = (sp.sin(a1) * sp.cos(a2), sp.sin(a1) * sp.sin(a2),
                   sp.cos(a1))
        ct, st = sp.cosh(sp.Rational(1, 2)), sp.sinh(sp.Rational(1, 2))
        inv = 1 / (st ** 2 * z ** 2 + ct ** 2)
        f = (ct + sp.I * st * z) * inv
        return [x * f, y * f, (z + sp.I * st * ct * (z ** 2 + 1)) * inv]
    if kind == "psi-ch2":  # at s = 3/10, on the polar chart (r, theta)
        z, zb = a1 * sp.exp(sp.I * a2), a1 * sp.exp(-sp.I * a2)
        c, s = sp.cos(sp.Rational(3, 10)), sp.sin(sp.Rational(3, 10))
        w = c * z + s * zb
        # |w|^2 = r^2 (1 + 2 c s cos 2 theta), with |z|^2 = r^2
        inv = 1 / (a1 ** 2 * (1 + 2 * c * s * sp.cos(2 * a2)))
        shared = w * inv / sp.sqrt(2)
        return [(c ** 2 * z ** 2 - s ** 2 * zb ** 2) * inv,
                (a1 ** 2 - 1) * shared, (a1 ** 2 + 1) * shared]
    if kind == "clifford-torus":
        return [sp.exp(sp.I * a1) / sp.sqrt(3), sp.exp(sp.I * a2) / sp.sqrt(3),
                sp.exp(-sp.I * (a1 + a2)) / sp.sqrt(3)]
    raise KeyError(kind)


# the jet fields as (order in a1, order in a2): Jet3 carries the mixed
# third partials only
ORDERS = {"v": (0, 0), "d1": (1, 0), "d2": (0, 1), "d11": (2, 0),
          "d12": (1, 1), "d22": (0, 2), "d112": (2, 1), "d122": (1, 2)}


@pytest.mark.parametrize("spec", [
    SurfaceSpec("whitney-cp2", t=0.5), SurfaceSpec("psi-ch2", s=0.3),
    SurfaceSpec("clifford-torus")], ids=lambda s: s.label())
def test_jet3_partials_match_sympy_derivatives(spec):
    import sympy as sp

    a1, a2 = sp.symbols("a1 a2", real=True)
    parts = _sympy_lift(spec.kind, a1, a2)
    u1, u2 = random_points(spec.chart, 20, np.random.default_rng(3))
    lift = lift_at(spec, u1, u2, Jet3)
    for name, (n1, n2) in ORDERS.items():
        want = np.stack([np.broadcast_to(sp.lambdify(
            (a1, a2), sp.diff(part, a1, n1, a2, n2), "numpy")(u1, u2),
            u1.shape) for part in parts], axis=-1)
        got = getattr(lift, name)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), \
            name

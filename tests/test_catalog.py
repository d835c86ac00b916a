"""Catalog parameter validation and the immersion formulas themselves."""

from __future__ import annotations

import numpy as np
import pytest

from lagsurf.atlas import ChartDomainError, SphereChart, build_grid
from lagsurf.catalog import (FAMILIES, KINDS, SurfaceSpec, evaluate_lift,
                             lift_at, validate_params)
from lagsurf.numerics import Jet2


def test_kind_inventory():
    assert len(KINDS) == 8
    # every parameter a family reads is a SurfaceSpec field
    assert all(hasattr(SurfaceSpec, name)
               for family in FAMILIES.values() for name in family.params)


def test_unknown_kind_lists_alternatives():
    with pytest.raises(ValueError, match="clifford-torus"):
        validate_params(SurfaceSpec("moebius"))


@pytest.mark.parametrize("spec, fragment", [
    (SurfaceSpec("whitney-cp2", t=-0.1), "t >= 0"),
    (SurfaceSpec("whitney-ch2", t=0.0), "t > 0"),
    (SurfaceSpec("whitney-ch2", t=-1.0), "t > 0"),
    (SurfaceSpec("psi-ch2", s=np.pi / 4.0), "pi/4"),
    (SurfaceSpec("psi-ch2", s=-0.1), "pi/4"),
    (SurfaceSpec("product-torus-c2", r1=0.0), "positive radii"),
    (SurfaceSpec("product-torus-c2", r2=-1.0), "positive radii"),
    (SurfaceSpec("whitney-cp2", t=float("nan")), "finite t"),
    (SurfaceSpec("psi-ch2", s=float("nan")), "finite s"),
    (SurfaceSpec("product-torus-c2", r1=float("inf")), "finite r1"),
])
def test_out_of_range_parameters(spec, fragment):
    with pytest.raises(ValueError, match=fragment):
        validate_params(spec)


def test_stray_parameter_rejected():
    with pytest.raises(ValueError, match="takes no parameter"):
        validate_params(SurfaceSpec("clifford-torus", t=1.0))
    with pytest.raises(ValueError, match="takes no parameter"):
        validate_params(SurfaceSpec("whitney-cp2", r1=2.0))


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

"""Charts, grids, and quadrature rules against closed-form integrals."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import StereographicChart, flat_grid, stereographic_from_xyz
from lagsurf.atlas import (ChartDomainError, PlanarChart, PolarAnnulusChart,
                           QuadratureRule, SphereChart, TorusChart,
                           build_grid, random_points, sphere_quadrature,
                           torus_quadrature)


def integrate(f, rule):
    nodes = flat_grid(rule.nodes1, rule.nodes2)
    return float(np.sum(rule.weights * f(*nodes)))


def _sphere_xyz(phi, theta):
    jx, jy, jz = SphereChart().coords(phi, theta)
    return jx.v, jy.v, jz.v


def test_sphere_chart_on_unit_sphere():
    phi, theta = flat_grid(*build_grid(SphereChart(), 13, 17))
    x, y, z = _sphere_xyz(phi, theta)
    assert np.max(np.abs(x * x + y * y + z * z - 1.0)) < 1e-14


def test_sphere_chart_rejects_poles():
    with pytest.raises(ChartDomainError):
        SphereChart().coords(0.0, 1.0)
    with pytest.raises(ChartDomainError):
        SphereChart().coords(np.pi, 0.0)


def test_polar_chart_rejects_puncture():
    with pytest.raises(ChartDomainError):
        PolarAnnulusChart().coords(0.0, 1.0)


def test_grid_respects_margins_and_shape():
    chart = SphereChart()
    phi, theta = build_grid(chart, 8, 6)
    assert phi.shape == (8,) and theta.shape == (6,)
    span = np.pi
    assert np.min(phi) >= 0.02 * span - 1e-15
    assert np.max(phi) <= np.pi - 0.02 * span + 1e-15
    # periodic axis: endpoint excluded
    assert np.max(theta) < 2.0 * np.pi


def test_grid_is_deterministic():
    a = build_grid(PolarAnnulusChart(), 9, 9)
    b = build_grid(PolarAnnulusChart(), 9, 9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert np.min(a[0]) >= 0.2


def test_random_points_seeded_and_interior():
    chart = SphereChart()
    p1, t1 = random_points(chart, 64, np.random.default_rng(0))
    p2, t2 = random_points(chart, 64, np.random.default_rng(0))
    assert np.array_equal(p1, p2) and np.array_equal(t1, t2)
    assert np.min(p1) > 0.0 and np.max(p1) < np.pi


def test_stereographic_round_trip():
    rng = np.random.default_rng(2)
    phi, theta = random_points(SphereChart(), 50, rng)
    x, y, z = _sphere_xyz(phi, theta)
    for pole in ("north", "south"):
        chart = StereographicChart(pole)
        u, v = stereographic_from_xyz(chart, x, y, z)
        jx, jy, jz = chart.coords(u, v)
        assert np.max(np.abs(jx.v - x)) < 1e-12
        assert np.max(np.abs(jy.v - y)) < 1e-12
        assert np.max(np.abs(jz.v - z)) < 1e-12


def test_sphere_quadrature_area_and_moment():
    # weights carry d(phi) d(theta); the round area element is sin(phi)
    rule = sphere_quadrature(32, 64)
    area = integrate(lambda p, t: np.sin(p), rule)
    assert area == pytest.approx(4.0 * np.pi, abs=1e-12)
    # second moment of z = cos(phi): 4*pi/3
    moment = integrate(lambda p, t: np.cos(p) ** 2 * np.sin(p), rule)
    assert moment == pytest.approx(4.0 * np.pi / 3.0, abs=1e-12)


def test_sphere_quadrature_weights_positive():
    rule = sphere_quadrature(16, 16)
    assert np.all(rule.weights > 0.0)
    assert np.all((rule.nodes1 > 0.0) & (rule.nodes1 < np.pi))


def test_sphere_quadrature_converges_on_smooth_integrand():
    f = lambda p, t: np.exp(np.cos(p)) * np.sin(p) * (1.0 + 0.3 * np.cos(3.0 * t))
    exact = 2.0 * np.pi * (np.exp(1.0) - np.exp(-1.0))
    errs = [abs(integrate(f, sphere_quadrature(n, 2 * n)) - exact)
            for n in (4, 8, 16)]
    assert errs[2] < 1e-10
    assert errs[2] < errs[0]


def test_torus_quadrature_area_and_fourier_mode():
    rule = torus_quadrature(24, 24)
    area = integrate(lambda t1, t2: np.ones_like(t1), rule)
    assert area == pytest.approx(4.0 * np.pi ** 2, rel=1e-14)
    # pure Fourier modes integrate to zero exactly under the periodic rule
    mode = integrate(lambda t1, t2: np.cos(3.0 * t1 + 2.0 * t2), rule)
    assert abs(mode) < 1e-12


def test_quadrature_rule_is_frozen():
    rule = torus_quadrature(4, 4)
    assert isinstance(rule, QuadratureRule)
    with pytest.raises(AttributeError):
        rule.weights = np.ones(16)


def test_planar_and_torus_charts_are_identity():
    jx, jy = PlanarChart().coords(1.5, -2.0)
    assert jx.v == 1.5 and jy.v == -2.0
    assert jx.d1 == 1.0 and jx.d2 == 0.0 and jy.d2 == 1.0
    j1, j2 = TorusChart().coords(0.25, 0.75)
    assert j1.v == 0.25 and j2.v == 0.75

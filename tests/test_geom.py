"""Pointwise invariants against hand-computed oracles and exact covariance."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from gram_reference import REFERENCE_GAP, reference_gaps
from helpers import certifiable, every_array, flat_grid, rotate_frame
from lagsurf import geom
from lagsurf.ambient import C2
from lagsurf.atlas import build_grid, random_points
from lagsurf.catalog import SurfaceSpec, lift_at
from lagsurf.geom import (circularity_route_gap, density_moduli_gap,
                          ellipse_samples, gauss_curvature_intrinsic,
                          geometry_from_jet, point_geometry,
                          product_identity_check, radius, radius_route_gap,
                          scaled_circularity)
from lagsurf.numerics import TOLERANCES, Jet2, Jet3
from lagsurf.scans import _identity_values, grid_tiles

CIRCULAR_SPECS = [
    SurfaceSpec("whitney-c2"),
    SurfaceSpec("whitney-cp2", t=0.5),
    SurfaceSpec("whitney-ch2", t=0.5),
    SurfaceSpec("totally-geodesic-cp2"),
    SurfaceSpec("psi-ch2", s=0.3),
    SurfaceSpec("eta-ch2"),
    SurfaceSpec("clifford-torus"),
]


def _grid_geometry(spec, n=13):
    a1, a2 = flat_grid(*build_grid(spec.chart, n, n))
    return point_geometry(spec, a1, a2)


@pytest.mark.parametrize("spec", CIRCULAR_SPECS + [
    SurfaceSpec("psi-ch2", s=0.7), SurfaceSpec("whitney-cp2", t=3.0),
    SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0)], ids=lambda s: s.label())
def test_invariants_match_the_complex_vector_route(spec):
    lift = lift_at(spec, *flat_grid(*build_grid(spec.chart, 33, 33)))
    pg = geometry_from_jet(lift, spec.ambient)
    gaps = reference_gaps(pg, lift, spec.ambient)
    assert max(gaps.values()) <= REFERENCE_GAP, gaps


# ---------------------------------------------------------------------------
# hand oracle: product of circles


def test_product_torus_hand_oracle():
    # radii (1, 2); natural frame: C111 = 1/r1, C222 = 1/r2, C112 = C122 = 0,
    # D = (1/r1^2 + 1/r2^2)/4 real, F = Hc = (1/r1 + i/r2)/2, K = 0
    pg = point_geometry(SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0),
                        0.4, 1.9)
    assert float(pg.C[..., 0, 0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert float(pg.C[..., 1, 1, 1]) == pytest.approx(0.5, abs=1e-12)
    assert float(pg.C[..., 0, 0, 1]) == pytest.approx(0.0, abs=1e-12)
    assert float(pg.C[..., 0, 1, 1]) == pytest.approx(0.0, abs=1e-12)
    assert complex(pg.D) == pytest.approx(0.3125 + 0.0j, abs=1e-12)
    assert complex(pg.F) == pytest.approx(0.5 + 0.25j, abs=1e-12)
    assert complex(pg.Hc) == pytest.approx(0.5 + 0.25j, abs=1e-12)
    assert float(pg.H2) == pytest.approx(0.3125, abs=1e-12)
    assert float(pg.K) == pytest.approx(0.0, abs=1e-12)
    assert float(pg.sigma_sq) == pytest.approx(1.25, abs=1e-12)


def test_product_torus_square_oracle():
    pg = point_geometry(SurfaceSpec("product-torus-c2", r1=1.0, r2=1.0),
                        2.2, 0.1)
    assert complex(pg.D) == pytest.approx(0.5 + 0.0j, abs=1e-13)
    assert float(pg.R) == pytest.approx(0.5, abs=1e-13)
    assert float(pg.H2) == pytest.approx(0.5, abs=1e-13)


def test_clifford_torus_oracle():
    pg = _grid_geometry(SurfaceSpec("clifford-torus"), n=9)
    # induced metric of the angle chart is constant [[2/3,1/3],[1/3,2/3]]
    assert np.max(np.abs(pg.g[..., 0, 0] - 2.0 / 3.0)) < 1e-13
    assert np.max(np.abs(pg.g[..., 0, 1] - 1.0 / 3.0)) < 1e-13
    assert np.max(np.abs(pg.g[..., 1, 1] - 2.0 / 3.0)) < 1e-13
    assert np.max(pg.H2) < 1e-28                     # minimal
    assert np.max(np.abs(pg.K)) < 1e-12              # flat
    assert np.max(np.abs(pg.R - 1.0 / np.sqrt(2.0))) < 1e-12
    assert np.max(np.abs(pg.D)) < 1e-12


def test_totally_geodesic_vanishing_second_form():
    pg = _grid_geometry(SurfaceSpec("totally-geodesic-cp2"), n=9)
    assert float(np.max(pg.sigma_sq)) < 1e-24
    assert np.max(np.abs(pg.K - 1.0)) < 1e-12
    assert np.max(pg.R) < 1e-12


def test_psi_flat_nonminimal_oracle():
    pg = _grid_geometry(SurfaceSpec("psi-ch2", s=0.0), n=11)
    assert np.max(np.abs(pg.K)) < 1e-10
    assert np.max(np.abs(pg.R - 1.0 / np.sqrt(2.0))) < 1e-10
    assert np.max(np.sqrt(pg.H2)) > 1.0  # decidedly not minimal


# ---------------------------------------------------------------------------
# structural identities


@pytest.mark.parametrize("spec", CIRCULAR_SPECS, ids=lambda s: s.label())
def test_circular_members_have_tiny_defect(spec):
    pg = _grid_geometry(spec)
    assert float(np.max(scaled_circularity(pg))) < 1e-10


@pytest.mark.parametrize("spec", CIRCULAR_SPECS + [
    SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0)], ids=lambda s: s.label())
def test_route_and_moduli_identities(spec):
    pg = _grid_geometry(spec)
    assert np.max(circularity_route_gap(pg)) < 1e-10
    assert np.max(density_moduli_gap(pg)) < 1e-10
    assert np.max(product_identity_check(pg)) < 1e-9
    assert (np.max(radius_route_gap(pg)) < 1e-8
            or spec.kind == "product-torus-c2")


def test_density_dichotomy():
    # Whitney-type members: F == 0 with Hc free; minimal members: Hc == 0
    for spec in (SurfaceSpec("whitney-c2"), SurfaceSpec("whitney-cp2", t=0.5),
                 SurfaceSpec("whitney-ch2", t=0.5),
                 SurfaceSpec("psi-ch2", s=0.3), SurfaceSpec("eta-ch2")):
        pg = _grid_geometry(spec)
        assert np.max(np.abs(pg.F)) < 1e-10, spec.label()
    pg = _grid_geometry(SurfaceSpec("clifford-torus"))
    assert np.max(np.abs(pg.Hc)) < 1e-12
    assert np.min(np.abs(pg.F)) > 1.0


def test_whitney_curvature_pinching_identity():
    # with F == 0 the moduli identity collapses to |H|^2 = 2K - c/2
    for spec in (SurfaceSpec("whitney-c2"), SurfaceSpec("whitney-cp2", t=1.0),
                 SurfaceSpec("whitney-ch2", t=1.0)):
        pg = _grid_geometry(spec)
        rhs = 2.0 * pg.K - pg.space.c / 2.0
        assert np.max(np.abs(pg.H2 - rhs) / (1.0 + np.abs(rhs))) < 1e-10


def test_product_identity_imaginary_sign():
    # recorded orientation convention: Im(F * conj(Hc)) = -Im(D)
    pg = point_geometry(SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0),
                        0.9, 0.2)
    pg = rotate_frame(pg, 0.35)
    prod = complex(pg.F) * complex(pg.Hc).conjugate()
    d = complex(pg.D)
    assert abs(d.imag) > 1e-3  # the convention is actually exercised
    assert prod.real == pytest.approx(d.real, abs=1e-12)
    assert prod.imag == pytest.approx(-d.imag, abs=1e-12)


# ---------------------------------------------------------------------------
# covariance


def test_frame_rotation_covariance():
    pg = point_geometry(SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0),
                        1.1, 0.7)
    for alpha in (0.3, 1.2, 2.9):
        rot = rotate_frame(pg, alpha)
        # D picks up exactly exp(-4 i alpha)
        expected = np.exp(-4j * alpha) * complex(pg.D)
        assert complex(rot.D) == pytest.approx(expected, abs=1e-12)
        # scalar invariants are frozen
        for name in ("K", "H2", "R", "sigma_sq"):
            assert float(getattr(rot, name)) == pytest.approx(
                float(getattr(pg, name)), abs=1e-12), name
        assert abs(np.abs(complex(rot.F)) - np.abs(complex(pg.F))) < 1e-12
        assert abs(np.abs(complex(rot.Hc)) - np.abs(complex(pg.Hc))) < 1e-12
        # identities survive the rotation
        assert np.max(circularity_route_gap(rot)) < 1e-10
        assert np.max(density_moduli_gap(rot)) < 1e-10
        assert np.max(product_identity_check(rot)) < 1e-9


def test_expansion_typo_regression():
    # the cross term in 4*Re D is -2*C111*C122; the same formula with
    # -2*C111*C112 instead is measurably wrong in a generic frame
    pg = rotate_frame(point_geometry(
        SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0), 0.4, 1.9), 0.7)
    C111 = float(pg.C[..., 0, 0, 0])
    C112 = float(pg.C[..., 0, 0, 1])
    C122 = float(pg.C[..., 0, 1, 1])
    C222 = float(pg.C[..., 1, 1, 1])
    correct = (C111 ** 2 - 2.0 * C111 * C122 - 3.0 * C122 ** 2
               - 3.0 * C112 ** 2 - 2.0 * C112 * C222 + C222 ** 2)
    typo = (C111 ** 2 - 2.0 * C111 * C112 - 3.0 * C122 ** 2
            - 3.0 * C112 ** 2 - 2.0 * C112 * C222 + C222 ** 2)
    assert abs(0.25 * correct - float(pg.D.real)) < 1e-10
    assert abs(0.25 * typo - float(pg.D.real)) > 1e-2


def test_conformal_scaling_in_flat_target():
    # scaling the flat-target immersion by lam: K -> K/lam^2, R -> R/lam,
    # and circularity (a property of the shape) is untouched
    spec = SurfaceSpec("whitney-c2")
    a1, a2 = flat_grid(*build_grid(spec.chart, 9, 9))
    lift = lift_at(spec, a1, a2)
    base = geometry_from_jet(lift, spec.ambient)
    for lam in (0.5, 3.0):
        scaled = geometry_from_jet(lift * lam, spec.ambient)
        assert np.max(np.abs(scaled.K - base.K / lam ** 2)) < 1e-10
        assert np.max(np.abs(scaled.R - base.R / lam)) < 1e-10
        assert float(np.max(scaled_circularity(scaled))) < 1e-10


def test_scaled_product_torus_matches_scaled_radii():
    lift = lift_at(SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0), 0.3, 0.8)
    direct = point_geometry(SurfaceSpec("product-torus-c2", r1=0.5, r2=1.0),
                            0.3, 0.8)
    halved = geometry_from_jet(lift * 0.5, direct.space)
    assert complex(halved.D) == pytest.approx(complex(direct.D), abs=1e-12)
    assert float(halved.K) == pytest.approx(float(direct.K), abs=1e-12)
    assert float(halved.H2) == pytest.approx(float(direct.H2), abs=1e-12)


# ---------------------------------------------------------------------------
# radius and ellipse sampling


def test_radius_gate_accepts_circular():
    pg = _grid_geometry(SurfaceSpec("clifford-torus"), n=9)
    r = radius(pg)
    assert np.max(np.abs(r - 1.0 / np.sqrt(2.0))) < 1e-12


def test_radius_gate_rejects_non_circular():
    pg = point_geometry(SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0),
                        0.1, 0.2)
    with pytest.raises(ValueError, match="not circular"):
        radius(pg)


@pytest.mark.parametrize("name, gate, message", [
    ("circularity", radius, "not circular"),
    ("radius_routes", radius, "radius routes disagree"),
])
def test_library_gates_read_the_tolerance_table(name, gate, message,
                                                monkeypatch):
    pg = _grid_geometry(SurfaceSpec("clifford-torus"), n=9)
    gate(pg)
    monkeypatch.setitem(TOLERANCES, name, -1.0)
    with pytest.raises((ValueError, RuntimeError), match=message):
        gate(pg)


def test_radius_gate_widens_with_the_tolerance_table(monkeypatch):
    pg = point_geometry(SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0),
                        0.1, 0.2)
    monkeypatch.setitem(TOLERANCES, "circularity", 10.0)
    monkeypatch.setitem(TOLERANCES, "radius_routes", 10.0)
    assert np.isfinite(radius(pg))


def test_overflowing_jet_is_refused_by_the_non_finite_gate():
    # an orthonormal frame whose one second partial overflows sigma's square
    z = np.zeros(2, complex)
    lift = Jet2(z, np.array([1.0, 0.0], complex),
                np.array([0.0, 1.0], complex), np.array([1e160j, 0.0]), z, z)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="non-finite geometry field 'K'"):
            geometry_from_jet(lift, C2)


def test_ellipse_samples_period_pi():
    pg = point_geometry(SurfaceSpec("whitney-cp2", t=0.8), 1.1, 0.6)
    theta, normals = ellipse_samples(pg).samples(16)
    for k in range(8):
        delta = normals[k] - normals[k + 8]
        assert np.max(np.abs(delta)) < 1e-12
        assert theta[k + 8] == pytest.approx(theta[k] + np.pi, abs=1e-12)


@pytest.mark.parametrize("spec", CIRCULAR_SPECS, ids=lambda s: s.label())
def test_ellipse_fit_residual_circular(spec):
    pg = _grid_geometry(spec, n=7)
    fit = ellipse_samples(pg).fit_residual
    assert fit.shape == pg.R.shape
    assert np.max(fit) < 1e-8


def test_ellipse_fit_residual_degenerate_segment():
    # radii (1,1): the ellipse degenerates to a segment of half-length 1/2
    # around |H| = 1/sqrt(2), so the circle-fit residual is exactly 0.5
    pg = point_geometry(SurfaceSpec("product-torus-c2", r1=1.0, r2=1.0),
                        0.0, 0.0)
    fit = ellipse_samples(pg).fit_residual
    assert fit == pytest.approx(0.5, abs=1e-10)
    assert fit > 0.3


# one member of every catalog kind
EVERY_KIND = CIRCULAR_SPECS + [SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0)]


@pytest.mark.parametrize("spec", EVERY_KIND + [SurfaceSpec("psi-ch2")],
                         ids=lambda s: s.label())
def test_one_point_is_its_row_of_a_batch(spec):
    # probe at a point and scan over a grid agree bitwise there; psi-ch2's
    # lift multiplies complex jets, which on numpy scalars round otherwise
    a1, a2 = np.array([0.4, 1.1, 2.0]), np.array([0.3, 1.7, 4.0])
    batch = every_array(spec, a1, a2)
    for i in range(a1.size):
        single = every_array(spec, a1[i], a2[i])
        assert single.keys() == batch.keys()
        for name, got in single.items():
            assert np.array_equal(got, batch[name][i]), name


@pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda s: s.label())
def test_grid_on_its_axes_is_the_grid_on_flat_points(spec):
    # a grid evaluated on (rows, 1) x (1, cols) computes what depends on one
    # parameter once per row or column, yet every array and defect has the
    # bits of the same points passed flat
    axis1, axis2 = build_grid(spec.chart, 9, 131)
    tiled = every_array(spec, axis1[:, None], axis2[None, :])
    flat = every_array(spec, *flat_grid(axis1, axis2))
    assert tiled["K"].shape == (9, 131)
    assert tiled.keys() == flat.keys()
    for name, want in flat.items():
        got = tiled[name]
        assert got.shape == (9, 131) + want.shape[1:], name
        assert np.array_equal(got.reshape(want.shape), want), name


@pytest.mark.parametrize("spec", [SurfaceSpec("whitney-cp2", t=0.5),
                                  SurfaceSpec("whitney-c2"),
                                  SurfaceSpec("product-torus-c2",
                                              r1=1.0, r2=2.0)],
                         ids=lambda s: s.label())
def test_every_check_of_a_batch_is_its_tiles_concatenated(spec):
    # 19,650 points: past the 16,384 where numpy may reuse a temporary of
    # `*` with its operands swapped, so tiled and whole products differ
    # in the last bit unless the checks pair with np.multiply.  Every
    # pointwise check, whichever branch of the report it is on, is bitwise
    # the same on the whole batch as on the grid_tiles tiles joined.
    a1, a2 = build_grid(spec.chart, 150, 131)
    geometry = certifiable(spec, *flat_grid(a1, a2))
    whole = geometry[2]
    want = _identity_values(spec, *geometry)
    tiles = [(tile[2].K.shape, _identity_values(spec, *tile))
             for tile in (certifiable(spec, t1, t2)
                          for _, t1, t2 in grid_tiles(a1, a2))]
    assert len(tiles) > 1
    for name, values in want.items():
        whole_values = np.broadcast_to(values, whole.K.shape)
        joined = np.concatenate([np.broadcast_to(tile[name], shape).ravel()
                                 for shape, tile in tiles])
        assert np.array_equal(joined, whole_values), name


def _normals_route_distances(pg, n_angles):
    # reference route: every angle's normal in one full-shape array, in the
    # (J e1, J e2) coordinates the cubic tensor holds, then its distance to
    # the center; angle axis first
    c11, c12, c22 = pg.C[..., 0, 0, :], pg.C[..., 0, 1, :], pg.C[..., 1, 1, :]
    center = 0.5 * (c11 + c22)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    shape = (n_angles,) + (1,) * center.ndim
    cos2, sin2 = (np.array([f(2.0 * t) for t in thetas]).reshape(shape)
                  for f in (np.cos, np.sin))
    normals = center + cos2 * (0.5 * (c11 - c22)) + sin2 * c12
    return np.sqrt((normals[..., 0] - center[..., 0]) ** 2
                   + (normals[..., 1] - center[..., 1]) ** 2)


def _one_broadcast_fit_residual(pg, n_angles):
    return np.max(np.abs(_normals_route_distances(pg, n_angles) - pg.R),
                  axis=0)


# angle counts of the sampled route: odd, even, few and many
SAMPLED_ANGLES = (8, 9, 16, 64, 200, 1001)


def _semi_axes(pg):
    """(a, a - b) of the ellipse from D and R, not from the fit: |D| is
    a^2 - b^2 and 2 R^2 is a^2 + b^2, and a - b = |D| / (a + b) keeps its
    digits next to a circle."""
    half = 0.5 * np.abs(pg.D)
    a = np.sqrt(pg.R ** 2 + half)
    b = np.sqrt(np.maximum(pg.R ** 2 - half, 0.0))
    gap = np.divide(2.0 * half, a + b, out=np.zeros_like(a), where=a > 0.0)
    return a, gap


def _assert_fit_bounds_the_sampled_route(pg):
    # the sampled maximum can reach the exact one only by round-off, and
    # trails it by at most 2 pi (a - b) / n: as a function of theta, the
    # distance |alpha e^{4i theta} + beta| moves at most 4 min(|alpha|,
    # |beta|) = 2 (a - b) per radian, and a sample lies within pi / n of
    # the worst angle.  The round-off is 8 ulps at the scale of the
    # sampled route, which adds H in and takes it off again.
    fit = ellipse_samples(pg).fit_residual
    a, a_minus_b = _semi_axes(pg)
    round_off = 8.0 * np.spacing(1.0 + a + pg.R + np.sqrt(pg.H2))
    assert fit.shape == pg.R.shape and np.all(np.isfinite(fit))
    for n_angles in SAMPLED_ANGLES:
        sampled = _one_broadcast_fit_residual(pg, n_angles)
        assert sampled.shape == pg.R.shape
        assert np.all(sampled <= fit + round_off), n_angles
        assert np.all(fit - sampled
                      <= 2.0 * np.pi * a_minus_b / n_angles + round_off)


@pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda s: s.label())
def test_ellipse_fit_residual_matches_the_normals_route(spec):
    for pg in (_grid_geometry(spec, n=64), point_geometry(spec, 0.7, 1.3)):
        _assert_fit_bounds_the_sampled_route(pg)


def _hand_built_geometry(s11, s12, s22):
    # sigma_ij on (J e1, J e2), batch first, in an orthonormal chart frame
    C = np.empty(s11.shape[:-1] + (2, 2, 2))
    C[..., 0, 0, :], C[..., 1, 1, :] = s11, s22
    C[..., 0, 1, :] = C[..., 1, 0, :] = s12
    g = np.broadcast_to(np.eye(2), s11.shape[:-1] + (2, 2))
    return geom._assemble(SurfaceSpec("whitney-c2").ambient, g, C, {})


def test_ellipse_fit_residual_of_degenerate_ellipses():
    # segments (w = lambda u, product-torus points), points (u = w = 0)
    # and general ellipses.  The closed form never squares a distance, so
    # no angle meets a segment's end with a quadratic form's round-off,
    # and no square root sees a value rounded below 0 (lambda = -1 did on
    # 16 and 64 angles): it warns nowhere.
    rng = np.random.default_rng(7)
    s11, s12, s22 = rng.normal(size=(3, 1024, 2))
    half_diff = 0.5 * (s11 - s22)
    cases = [_grid_geometry(SurfaceSpec("product-torus-c2", r1=r1, r2=r2),
                            n=64) for r1, r2 in ((1.0, 1.0), (1.0, 2.0))]
    cases += [_hand_built_geometry(s11, lam * half_diff, s22)
              for lam in (1.0, -1.0, 2.0, 0.5, 1e-3, np.tan(np.pi / 8))]
    cases += [_hand_built_geometry(s11, 0.0 * half_diff, s11),
              _hand_built_geometry(s11, s12, s22)]
    for pg in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_fit_bounds_the_sampled_route(pg)


def test_ellipse_fit_residual_of_a_segment_is_its_radius():
    # w = tan(pi / 8) u is a segment of half-length a = |u| / cos(pi / 8)
    # with b = 0 and R = a / sqrt(2), so the residual is max(a - R, R) = R.
    # A quadratic form sampled at 64 angles, one of them at its end, lost
    # about 1e-8 of it there.
    rng = np.random.default_rng(7)
    s11, s22 = rng.normal(size=(2, 1024, 2))
    lam = np.tan(np.pi / 8)
    pg = _hand_built_geometry(s11, lam * 0.5 * (s11 - s22), s22)
    u = 0.5 * (s11 - s22)
    a = np.hypot(1.0, lam) * np.hypot(u[..., 0], u[..., 1])
    want = np.maximum(a - pg.R, pg.R)
    fit = ellipse_samples(pg).fit_residual
    assert np.all(np.abs(fit - want) <= 4.0 * np.spacing(want))


def test_ellipse_needs_enough_angles():
    pg = point_geometry(SurfaceSpec("clifford-torus"), 0.1, 0.1)
    with pytest.raises(ValueError, match="n_angles"):
        ellipse_samples(pg).samples(4)


# ---------------------------------------------------------------------------
# intrinsic curvature route


@pytest.mark.parametrize("spec", [
    SurfaceSpec("whitney-c2"),
    SurfaceSpec("whitney-cp2", t=2.0),
    SurfaceSpec("whitney-ch2", t=2.0),
    SurfaceSpec("psi-ch2", s=0.3),
    SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0),
    SurfaceSpec("whitney-cp2", t=0.5),
    SurfaceSpec("whitney-ch2", t=0.5),
    SurfaceSpec("whitney-ch2", t=0.005),
    SurfaceSpec("totally-geodesic-cp2"),
    SurfaceSpec("psi-ch2", s=0.764),
    SurfaceSpec("eta-ch2"),
    SurfaceSpec("clifford-torus"),
], ids=lambda s: s.label())
def test_intrinsic_curvature_matches_invariant(spec):
    # exact partials leave only round-off between the routes, also where
    # curvature concentrates (whitney-ch2(0.005)) and where the lift's
    # pairings cancel (psi-ch2(0.764))
    a1, a2 = random_points(spec.chart, 200, np.random.default_rng(23))
    lift = lift_at(spec, a1, a2, Jet3)
    k = geometry_from_jet(lift, spec.ambient).K
    k_int = gauss_curvature_intrinsic(lift, spec.ambient)
    assert np.max(np.abs(k_int - k) / (1.0 + np.abs(k))) <= 1e-10


@pytest.mark.parametrize("spec", [
    SurfaceSpec("totally-geodesic-cp2"), SurfaceSpec("eta-ch2"),
    SurfaceSpec("psi-ch2", s=0.3), SurfaceSpec("clifford-torus"),
    SurfaceSpec("product-torus-c2")], ids=lambda s: s.label())
def test_one_point_scalars_are_its_row_of_a_batch(spec):
    # `** 2` on one point's numpy scalars is libm pow, on arrays x * x: the
    # squares in intrinsic K and in the circularity scale are products.
    # Each kind here has a point in these draws where pow rounds otherwise
    # (for psi-ch2, where its lift's scalar products do).
    rng = np.random.default_rng(5)
    for _ in range(2):
        a1, a2 = random_points(spec.chart, 200, rng)
        k_batch = gauss_curvature_intrinsic(lift_at(spec, a1, a2, Jet3),
                                            spec.ambient)
        circ_batch = scaled_circularity(point_geometry(spec, a1, a2))
        for i in range(a1.size):
            k = gauss_curvature_intrinsic(lift_at(spec, a1[i], a2[i], Jet3),
                                          spec.ambient)
            circ = scaled_circularity(point_geometry(spec, a1[i], a2[i]))
            assert k == k_batch[i], i
            assert circ == circ_batch[i], i


def _brioschi_by_determinants(E, F, G, E_u, E_v, F_u, F_v, G_u, G_v,
                              E_vv, F_uv, G_uu):
    # Brioschi's two 3x3 determinants, each handed to LAPACK
    def det3(rows):
        return np.linalg.det(np.moveaxis(np.array(rows), (0, 1), (-2, -1)))

    zero = np.zeros_like(E)
    m1 = det3([[-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v],
               [F_v - 0.5 * G_u, E, F],
               [0.5 * G_v, F, G]])
    m2 = det3([[zero, 0.5 * E_v, 0.5 * G_u],
               [0.5 * E_v, E, F],
               [0.5 * G_u, F, G]])
    return (m1 - m2) / (E * G - F * F) ** 2


@pytest.mark.parametrize("scale", [1e-3, 5e-4, 0.1])
def test_closed_form_brioschi_matches_the_determinants(scale):
    # random positive-definite metrics (E, G > 0, F^2 < EG) with random
    # first and second partials of size up to 2 * scale: small scales are
    # the nearly flat metrics, where both sides are small
    rng = np.random.default_rng(11)
    E = rng.uniform(0.5, 2.0, 500)
    G = rng.uniform(0.5, 2.0, 500)
    F = rng.uniform(-0.9, 0.9, 500) * np.sqrt(E * G)
    partials = scale * rng.uniform(-2.0, 2.0, (9, 500))
    want = _brioschi_by_determinants(E, F, G, *partials)
    np.testing.assert_allclose(geom._brioschi(E, F, G, *partials), want,
                               rtol=1e-12, atol=0.0)

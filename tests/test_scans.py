"""Grid scans, energy integrals, and the radius-pinching audit."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from helpers import flat_grid
from lagsurf.atlas import build_grid, sphere_quadrature, torus_quadrature
from lagsurf.catalog import SurfaceSpec
from lagsurf.geom import point_geometry, scaled_circularity
from lagsurf import scans
from lagsurf.scans import (_CHUNK, PINCH_THRESHOLD, UnsupportedDomainError,
                           _first_tied, curvature_scan, pinching_hypothesis,
                           pinching_report, willmore)

SPHERE_CONFIGS = [
    SurfaceSpec("whitney-c2"),
    SurfaceSpec("whitney-cp2", t=0.8),
    SurfaceSpec("whitney-ch2", t=0.8),
    SurfaceSpec("totally-geodesic-cp2"),
]


@pytest.mark.parametrize("spec, lo, hi", [
    (SurfaceSpec("whitney-c2"), 0.0, 1.0),
    (SurfaceSpec("whitney-cp2", t=0.8), 1.0, 1.0 + 2.0 * math.sinh(0.8) ** 2),
    (SurfaceSpec("whitney-ch2", t=0.8), -1.0, -1.0 + 2.0 * math.cosh(0.8) ** 2),
], ids=lambda v: v.label() if isinstance(v, SurfaceSpec) else str(v))
def test_curvature_ranges(spec, lo, hi):
    scan = curvature_scan(spec, grid=(64, 64))
    width = hi - lo
    # contained in the closed-form range ...
    assert scan.k_min >= lo - 1e-9
    assert scan.k_max <= hi + 1e-9
    # ... and the grid actually approaches both ends
    assert scan.k_min <= lo + 0.02 * width
    assert scan.k_max >= hi - 0.02 * width


@pytest.mark.parametrize("spec", [
    SurfaceSpec("whitney-c2"),
    SurfaceSpec("whitney-cp2", t=0.8),
    SurfaceSpec("whitney-ch2", t=0.8),
], ids=lambda s: s.label())
def test_curvature_extrema_locations(spec):
    # curvature peaks over the double point (z = 0) and bottoms out at the
    # ends of the axis (z = +-1) for every sphere family member
    scan = curvature_scan(spec, grid=(64, 64))
    assert scan.argmax_z is not None and scan.argmin_z is not None
    assert abs(scan.argmax_z) < 0.1
    assert abs(scan.argmin_z) > 0.9


def test_flat_members_have_flat_scans():
    for spec in (SurfaceSpec("clifford-torus"),
                 SurfaceSpec("psi-ch2", s=0.0),
                 SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0)):
        scan = curvature_scan(spec, grid=(32, 32))
        assert max(abs(scan.k_min), abs(scan.k_max)) < 1e-9, spec.label()


def test_scan_flags():
    clifford = curvature_scan(SurfaceSpec("clifford-torus"), grid=(32, 32))
    assert clifford.compact and clifford.circular and clifford.minimal
    assert clifford.argmin_z is None and clifford.argmax_z is None

    product = curvature_scan(SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0),
                             grid=(32, 32))
    assert product.compact and not product.circular and not product.minimal

    psi = curvature_scan(SurfaceSpec("psi-ch2", s=0.0), grid=(32, 32))
    assert not psi.compact and psi.circular and not psi.minimal

    eta = curvature_scan(SurfaceSpec("eta-ch2"), grid=(32, 32))
    assert not eta.compact and eta.circular


def test_scan_radius_extrema():
    scan = curvature_scan(SurfaceSpec("clifford-torus"), grid=(32, 32))
    assert scan.r_min == pytest.approx(PINCH_THRESHOLD, abs=1e-12)
    assert scan.r_max == pytest.approx(PINCH_THRESHOLD, abs=1e-12)


# ---------------------------------------------------------------------------
# chunked evaluation against one whole-grid batch

# both spread over several 4096-point chunks with a ragged last one
CHUNKED_GRIDS = [(100, 77), (97, 131), (150, 131)]
CHUNKED_SPECS = [SurfaceSpec("whitney-cp2", t=0.5),
                 SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0)]


def _whole_grid_scan(spec, grid):
    """curvature_scan's reductions over one point_geometry call."""
    chart = spec.chart
    a1, a2 = flat_grid(*build_grid(chart, *grid))
    pg = point_geometry(spec, a1, a2)
    j_min, j_max = int(np.argmin(pg.K)), int(np.argmax(pg.K))
    h = np.sqrt(np.clip(pg.H2, 0.0, None))
    i_min, i_max = (_first_tied(pg.K, h, spec.ambient.c, j)
                    for j in (j_min, j_max))
    z = chart.height(a1, a2) if hasattr(chart, "height") else None
    h_max = float(np.max(h))
    d_max_scaled = float(np.max(scaled_circularity(pg)))
    return (float(pg.K[j_min]), float(pg.K[j_max]),
            (float(a1[i_min]), float(a2[i_min])),
            (float(a1[i_max]), float(a2[i_max])),
            None if z is None else (float(z[i_min]), float(z[i_max])),
            float(np.min(pg.R)), float(np.max(pg.R)),
            float(np.max(np.abs(pg.D))), d_max_scaled, h_max)


@pytest.mark.parametrize("grid", CHUNKED_GRIDS, ids=str)
@pytest.mark.parametrize("spec", CHUNKED_SPECS, ids=lambda s: s.label())
def test_chunked_scan_equals_whole_grid_batch(spec, grid):
    scan = curvature_scan(spec, grid=grid)
    heights = (None if scan.argmin_z is None
               else (scan.argmin_z, scan.argmax_z))
    assert (scan.k_min, scan.k_max, scan.argmin, scan.argmax, heights,
            scan.r_min, scan.r_max, scan.d_max, scan.d_max_scaled,
            scan.h_max) == _whole_grid_scan(spec, grid)


@pytest.mark.parametrize("orders", CHUNKED_GRIDS, ids=str)
@pytest.mark.parametrize("spec", CHUNKED_SPECS, ids=lambda s: s.label())
def test_chunked_willmore_equals_whole_grid_batch(spec, orders):
    rules = {"sphere": sphere_quadrature, "torus": torus_quadrature}
    rule = rules[spec.family.quadrature](*orders)
    pg = point_geometry(spec, *flat_grid(rule.nodes1, rule.nodes2))
    det = pg.g[..., 0, 0] * pg.g[..., 1, 1] - pg.g[..., 0, 1] ** 2
    area_element = np.sqrt(det)
    rep = willmore(spec, orders=orders)
    assert rep.area == float(np.sum(rule.weights * area_element))
    assert rep.integral_h2 == float(
        np.sum(rule.weights * pg.H2 * area_element))


@pytest.mark.parametrize("grid", [(150, 131), (3, 5000)], ids=str)
def test_grid_tiles_cover_every_flat_index_once_in_order(grid, monkeypatch):
    # 150 x 131: 31 whole rows per tile, the last tile ragged; 3 x 5000:
    # each row longer than a tile, so it goes in two pieces
    axes = build_grid(SurfaceSpec("whitney-c2").chart, *grid)
    want1, want2 = flat_grid(*axes)
    tiles = []

    def record(spec, a1, a2):
        tiles.append(np.broadcast_arrays(a1, a2))
        return None

    monkeypatch.setattr(scans, "point_geometry", record)
    stop = 0
    for (flat, _), (a1, a2) in zip(scans.grid_geometry(None, *axes), tiles):
        assert flat.start == stop and 0 < flat.stop - flat.start <= _CHUNK
        assert a1.ndim == 2 and a1.size == flat.stop - flat.start
        assert np.array_equal(a1.ravel(), want1[flat])
        assert np.array_equal(a2.ravel(), want2[flat])
        stop = flat.stop
    assert stop == grid[0] * grid[1]


def _bytes_per_point(run):
    """Slope of the tracemalloc peak of run(n) on n x n points, 64 to 256."""
    run(8)  # first-call caches out of the count

    def peak(n):
        tracemalloc.start()
        try:
            run(n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return (peak(256) - peak(64)) / (256 ** 2 - 64 ** 2)


# 64 x 64 is one tile, so the slope from it also counts, spread over the
# extra points, the geometry of the tile before held while the next one is
# built (about 1.1 MB, or 18 B per point here)


def test_scan_memory_is_flat_in_grid_size():
    # per point only K and |H| remain for the tie search, 16 B; measured
    # 34 B (88 B with flat grid coordinates and five per-point arrays,
    # about 1.45 KB unchunked)
    spec = SurfaceSpec("whitney-cp2", t=0.5)
    assert _bytes_per_point(lambda n: curvature_scan(spec, grid=(n, n))) < 40


def test_willmore_memory_is_flat_in_quadrature_size():
    # per node the flat weights, area element and |H|^2 remain, 24 B;
    # measured 43 B (72 B with flat node coordinates)
    spec = SurfaceSpec("whitney-cp2", t=0.5)
    assert _bytes_per_point(lambda n: willmore(spec, orders=(n, n))) < 48


# ---------------------------------------------------------------------------
# energy integrals


@pytest.mark.parametrize("spec", SPHERE_CONFIGS, ids=lambda s: s.label())
def test_willmore_spheres_hit_topological_bound(spec):
    rep = willmore(spec, orders=(64, 128))
    assert rep.chi == 2
    assert rep.w == pytest.approx(8.0 * math.pi, abs=1e-10)
    assert rep.defect < 1e-10


def test_willmore_product_torus_closed_form():
    rep = willmore(SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0),
                   orders=(32, 64))
    assert rep.w == pytest.approx(math.pi ** 2 * 2.5, abs=1e-12)
    assert rep.area == pytest.approx(4.0 * math.pi ** 2 * 2.0, abs=1e-10)
    # square torus: the minimum of the closed form over radii, w = 2 pi^2
    sq = willmore(SurfaceSpec("product-torus-c2", r1=1.0, r2=1.0),
                  orders=(16, 16))
    assert sq.w == pytest.approx(2.0 * math.pi ** 2, abs=1e-12)


def test_willmore_order_refinement_converges():
    coarse = willmore(SurfaceSpec("whitney-cp2", t=0.5), orders=(8, 16))
    fine = willmore(SurfaceSpec("whitney-cp2", t=0.5), orders=(32, 64))
    assert fine.defect < coarse.defect
    assert fine.defect < 1e-12


def test_willmore_unsupported_domains():
    with pytest.raises(UnsupportedDomainError, match="more than once"):
        willmore(SurfaceSpec("clifford-torus"))
    with pytest.raises(UnsupportedDomainError, match="noncompact"):
        willmore(SurfaceSpec("psi-ch2", s=0.1))
    with pytest.raises(UnsupportedDomainError, match="noncompact"):
        willmore(SurfaceSpec("eta-ch2"))


# ---------------------------------------------------------------------------
# pinching audit


PINCH_MEMBERS = [
    SurfaceSpec("whitney-c2"),
    SurfaceSpec("whitney-cp2", t=0.5),
    SurfaceSpec("whitney-ch2", t=0.5),
    SurfaceSpec("totally-geodesic-cp2"),
    SurfaceSpec("psi-ch2", s=0.0),
    SurfaceSpec("psi-ch2", s=0.3),
    SurfaceSpec("eta-ch2"),
    SurfaceSpec("clifford-torus"),
    SurfaceSpec("product-torus-c2", r1=1.0, r2=1.0),
    SurfaceSpec("product-torus-c2", r1=1.0, r2=0.5),
]


def test_pinching_holds_only_for_minimal_flat_torus():
    holders = [spec.label() for spec in PINCH_MEMBERS
               if pinching_hypothesis(curvature_scan(spec, grid=(32, 32)))]
    assert holders == ["clifford-torus"]


def test_pinching_needs_compactness():
    # the flat family member carries R = 1/sqrt(2) everywhere, yet fails
    # the hypothesis purely for lack of compactness
    scan = curvature_scan(SurfaceSpec("psi-ch2", s=0.0), grid=(32, 32))
    assert scan.r_min >= PINCH_THRESHOLD - 1e-8
    assert scan.circular and not scan.compact
    assert not pinching_hypothesis(scan)


def test_pinching_report_is_consistent_across_catalog():
    for spec in PINCH_MEMBERS:
        text = pinching_report(curvature_scan(spec, grid=(24, 24)))
        assert "INCONSISTENT" not in text, spec.label()
    clifford = pinching_report(
        curvature_scan(SurfaceSpec("clifford-torus"), grid=(24, 24)))
    assert "holds" in clifford
    assert "flat minimal case" in clifford

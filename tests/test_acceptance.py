"""Acceptance gate: ten end-to-end criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -s -v`` to see the per-criterion
PASS/FAIL lines alongside the test results.  Tolerances here are pinned;
loosening them is never the fix for a red line.
"""

from __future__ import annotations

import json
import math

import numpy as np

from helpers import (StereographicChart, flat_grid, rotate_frame,
                     stereographic_from_xyz)
from lagsurf.atlas import build_grid, random_points
from lagsurf.ambient import second_form_split, split_defects
from lagsurf.catalog import SurfaceSpec, evaluate_lift, lift_at
from lagsurf.cli import main
from lagsurf.geom import (circularity_route_gap, density_moduli_gap,
                          gauss_curvature_intrinsic, geometry_from_jet,
                          point_geometry, product_identity_check,
                          radius_route_gap, scaled_circularity)
from lagsurf.numerics import Jet3
from lagsurf.scans import curvature_scan, pinching_hypothesis, willmore

CIRCULAR_CONFIGS = [
    SurfaceSpec("whitney-c2"),
    SurfaceSpec("whitney-cp2", t=0.0),
    SurfaceSpec("whitney-cp2", t=0.5),
    SurfaceSpec("whitney-cp2", t=2.0),
    SurfaceSpec("whitney-ch2", t=0.5),
    SurfaceSpec("whitney-ch2", t=2.0),
    SurfaceSpec("psi-ch2", s=0.0),
    SurfaceSpec("psi-ch2", s=0.3),
    SurfaceSpec("psi-ch2", s=0.7),
    SurfaceSpec("eta-ch2"),
    SurfaceSpec("clifford-torus"),
]

CATALOG_CONFIGS = [
    SurfaceSpec("whitney-c2"),
    SurfaceSpec("whitney-cp2", t=0.5),
    SurfaceSpec("whitney-ch2", t=0.5),
    SurfaceSpec("totally-geodesic-cp2"),
    SurfaceSpec("psi-ch2", s=0.3),
    SurfaceSpec("eta-ch2"),
    SurfaceSpec("clifford-torus"),
    SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0),
]


def _emit(num: int, ok: bool, text: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    return ok


def _grid_geometry(spec, n=64):
    a1, a2 = flat_grid(*build_grid(spec.chart, n, n))
    return point_geometry(spec, a1, a2)


def test_criterion_01_circular_ellipse_across_catalog():
    worst = 0.0
    worst_label = ""
    for spec in CIRCULAR_CONFIGS:
        value = float(np.max(scaled_circularity(_grid_geometry(spec))))
        if value > worst:
            worst, worst_label = value, spec.label()
    ok = worst < 1e-8
    assert _emit(1, ok, f"scaled |D| < 1e-8 on {len(CIRCULAR_CONFIGS)} "
                 f"circular configs (worst {worst:.2e} at {worst_label})")


def test_criterion_02_product_torus_negative_control():
    pg = _grid_geometry(SurfaceSpec("product-torus-c2", r1=1.0, r2=1.0))
    re_gap = float(np.max(np.abs(pg.D.real - 0.5)))
    im_gap = float(np.max(np.abs(pg.D.imag)))
    # hand value (1/r1^2 + 1/r2^2) / 4 = 0.5 at every grid point
    ok = re_gap < 1e-10 and im_gap < 1e-12
    assert _emit(2, ok, "product-torus(1,1) grid-wide Re D = 0.5 "
                 f"(+-{re_gap:.2e}), Im D = 0 (+-{im_gap:.2e})")


def test_criterion_03_density_dichotomy():
    whitney_type = [SurfaceSpec("whitney-c2"), SurfaceSpec("whitney-cp2", t=0.5),
                    SurfaceSpec("whitney-ch2", t=0.5),
                    SurfaceSpec("psi-ch2", s=0.3), SurfaceSpec("eta-ch2")]
    f_worst = max(float(np.max(np.abs(_grid_geometry(s, n=32).F)))
                  for s in whitney_type)
    hc_worst = max(float(np.max(np.abs(_grid_geometry(s, n=32).Hc)))
                   for s in (SurfaceSpec("clifford-torus"),
                             SurfaceSpec("whitney-cp2", t=0.0)))
    pg = _grid_geometry(SurfaceSpec("product-torus-c2", r1=1.0, r2=1.0), n=32)
    both_min = min(float(np.min(np.abs(pg.F))), float(np.min(np.abs(pg.Hc))))
    ok = f_worst < 1e-8 and hc_worst < 1e-8 and both_min > 0.1
    assert _emit(3, ok, f"cubic density |F| < 1e-8 on Whitney-type "
                 f"(worst {f_worst:.2e}); |Hc| < 1e-8 on minimal members "
                 f"(worst {hc_worst:.2e}); both > 0.1 on the circle product "
                 f"(min {both_min:.3f})")


def test_criterion_04_identity_suite_at_random_points():
    rng_seed = 0
    gauss_worst = route_worst = moduli_worst = 0.0
    product_worst = sym_worst = 0.0
    for spec in CATALOG_CONFIGS:
        a1, a2 = random_points(spec.chart, 200,
                               np.random.default_rng(rng_seed))
        lift = lift_at(spec, a1, a2, Jet3)
        pg = geometry_from_jet(lift, spec.ambient)
        k_int = gauss_curvature_intrinsic(lift, spec.ambient)
        gauss_worst = max(gauss_worst, float(
            np.max(np.abs(k_int - pg.K) / (1.0 + np.abs(pg.K)))))
        if spec.kind != "product-torus-c2":  # radius needs a circular ellipse
            route_worst = max(route_worst, np.max(radius_route_gap(pg)))
        moduli_worst = max(moduli_worst, np.max(density_moduli_gap(pg)))
        product_worst = max(product_worst, np.max(product_identity_check(pg)))
        sym_worst = max(sym_worst, np.max(pg.defects["c_symmetry"]))
    ok = (gauss_worst < 1e-4 and route_worst < 1e-8 and moduli_worst < 1e-8
          and product_worst < 1e-9 and sym_worst < 1e-10)
    assert _emit(4, ok, "identities at 200 random points per surface: "
                 f"intrinsic K {gauss_worst:.2e} (<1e-4), radius routes "
                 f"{route_worst:.2e} (<1e-8), moduli {moduli_worst:.2e} "
                 f"(<1e-8), product {product_worst:.2e} (<1e-9), symmetry "
                 f"{sym_worst:.2e} (<1e-10)")


def test_criterion_05_curvature_ranges_and_extrema():
    cases = [
        (SurfaceSpec("whitney-c2"), 0.0, 1.0),
        (SurfaceSpec("whitney-cp2", t=0.5), 1.0,
         1.0 + 2.0 * math.sinh(0.5) ** 2),
        (SurfaceSpec("whitney-cp2", t=2.0), 1.0,
         1.0 + 2.0 * math.sinh(2.0) ** 2),
        (SurfaceSpec("whitney-ch2", t=0.5), -1.0,
         -1.0 + 2.0 * math.cosh(0.5) ** 2),
        (SurfaceSpec("whitney-ch2", t=2.0), -1.0,
         -1.0 + 2.0 * math.cosh(2.0) ** 2),
    ]
    range_worst = 0.0
    extrema_ok = True
    for spec, lo, hi in cases:
        scan = curvature_scan(spec, grid=(64, 64))
        range_worst = max(range_worst, lo - scan.K_min, scan.K_max - hi, 0.0)
        phi, _ = build_grid(spec.chart, 64, 64)
        z = np.cos(np.unique(phi))
        nearest_to_axis = float(np.min(np.abs(z)))
        farthest = float(np.max(np.abs(z)))
        extrema_ok &= abs(abs(scan.argmax_z) - nearest_to_axis) < 1e-12
        extrema_ok &= abs(abs(scan.argmin_z) - farthest) < 1e-12
    ok = range_worst < 1e-6 and extrema_ok
    assert _emit(5, ok, "K ranges within closed-form bounds "
                 f"(worst violation {range_worst:.2e} < 1e-6); extrema at "
                 f"grid points nearest the axis ends: {extrema_ok}")


def test_criterion_06_energy_equality_and_torus_value():
    sphere_cases = [SurfaceSpec("whitney-c2")]
    sphere_cases += [SurfaceSpec("whitney-cp2", t=t) for t in (0.3, 0.8, 2.0)]
    sphere_cases += [SurfaceSpec("whitney-ch2", t=t) for t in (0.3, 0.8, 2.0)]
    sphere_worst = max(abs(willmore(s, orders=(128, 256)).w - 8.0 * math.pi)
                       for s in sphere_cases)
    torus_worst = 0.0
    for r1, r2 in ((1.0, 1.0), (1.0, 2.0)):
        rep = willmore(SurfaceSpec("product-torus-c2", r1=r1, r2=r2),
                       orders=(128, 256))
        expected = math.pi ** 2 * (r1 / r2 + r2 / r1)
        torus_worst = max(torus_worst, abs(rep.w - expected))
    ok = sphere_worst < 1e-5 and torus_worst < 1e-6
    assert _emit(6, ok, f"sphere energies |W - 8 pi| < 1e-5 "
                 f"(worst {sphere_worst:.2e}); circle-product W matches "
                 f"pi^2 (r1/r2 + r2/r1) (worst {torus_worst:.2e} < 1e-6)")


def test_criterion_07_minimal_flat_torus_facts_and_pinching():
    scan = curvature_scan(SurfaceSpec("clifford-torus"), grid=(64, 64))
    h_ok = scan.H_max < 1e-10
    k_ok = max(abs(scan.K_min), abs(scan.K_max)) < 1e-8
    r_ok = max(abs(scan.R_min - 1.0 / math.sqrt(2.0)),
               abs(scan.R_max - 1.0 / math.sqrt(2.0))) < 1e-8
    members = CATALOG_CONFIGS + [SurfaceSpec("psi-ch2", s=0.0),
                                 SurfaceSpec("product-torus-c2",
                                             r1=1.0, r2=1.0)]
    holders = [spec.label() for spec in members
               if pinching_hypothesis(curvature_scan(spec, grid=(32, 32)))]
    unique = holders == ["clifford-torus"]
    ok = h_ok and k_ok and r_ok and unique
    assert _emit(7, ok, f"clifford-torus grid-wide: |H| {scan.H_max:.2e} "
                 f"(<1e-10), |K| <= {max(abs(scan.K_min), abs(scan.K_max)):.2e}"
                 f" (<1e-8), R = 1/sqrt(2) (+-{abs(scan.R_max - scan.R_min):.2e});"
                 f" pinching hypothesis holds exactly for {holders}")


def _split_residual(spec, n):
    lift = lift_at(spec, *flat_grid(*build_grid(spec.chart, n, n)))
    split = second_form_split(lift, spec.ambient)
    return split_defects(lift, spec.ambient, split)["split_residual"]


def test_criterion_08_lift_structure():
    lifted = [s for s in CATALOG_CONFIGS if s.ambient.is_lifted]
    worst = 0.0
    split_worst = 0.0
    for spec in lifted:
        pg = _grid_geometry(spec, n=32)
        worst = max(worst, *(np.max(pg.defects[name]) for name in
                             ("membership", "horizontality", "lagrangian")))
        split_worst = max(split_worst, np.max(_split_residual(spec, 32)))
    for spec in CATALOG_CONFIGS:
        split_worst = max(split_worst, np.max(_split_residual(spec, 32)))
    ok = worst < 1e-10 and split_worst < 1e-10
    assert _emit(8, ok, f"lift membership/horizontality/Lagrangian defects "
                 f"< 1e-10 (worst {worst:.2e}); frame-split residual "
                 f"< 1e-10 (worst {split_worst:.2e})")


def test_criterion_09_expansion_typo_regression():
    # the direct sigma-vector route is the authority; the variant expansion
    # with a -2*C111*C112 cross term contradicts it, the corrected
    # -2*C111*C122 term reproduces it
    pg = rotate_frame(point_geometry(
        SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0), 0.4, 1.9), 0.7)
    C111 = float(pg.C[..., 0, 0, 0])
    C112 = float(pg.C[..., 0, 0, 1])
    C122 = float(pg.C[..., 0, 1, 1])
    C222 = float(pg.C[..., 1, 1, 1])
    tail = -3.0 * C122 ** 2 - 3.0 * C112 ** 2 - 2.0 * C112 * C222 + C222 ** 2
    corrected = 0.25 * (C111 ** 2 - 2.0 * C111 * C122 + tail)
    variant = 0.25 * (C111 ** 2 - 2.0 * C111 * C112 + tail)
    agree = abs(corrected - float(pg.D.real))
    disagree = abs(variant - float(pg.D.real))
    route_gap = np.max(circularity_route_gap(pg))
    ok = agree < 1e-10 and disagree > 1e-2 and route_gap < 1e-10
    assert _emit(9, ok, f"corrected expansion matches direct D to "
                 f"{agree:.2e} (<1e-10); the miscopied cross term is off by "
                 f"{disagree:.2e} (>1e-2)")


def test_criterion_10_reproducibility_and_chart_overlap(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["verify", "--surface", "whitney-cp2(0.5)",
            "--grid", "32x32", "--quad", "64x128"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    bitwise = out1.read_bytes() == out2.read_bytes()

    # same surface points through two overlapping charts
    spec = SurfaceSpec("whitney-cp2", t=0.5)
    rng = np.random.default_rng(4)
    phi, theta = random_points(spec.chart, 50, rng)
    x = np.sin(phi) * np.cos(theta)
    y = np.sin(phi) * np.sin(theta)
    z = np.cos(phi)
    stereo = StereographicChart("north")
    u, v = stereographic_from_xyz(stereo, x, y, z)
    pg_a = point_geometry(spec, phi, theta)
    pg_b = geometry_from_jet(evaluate_lift(spec, stereo.coords(u, v)),
                             spec.ambient)
    overlap = max(
        float(np.max(np.abs(pg_a.K - pg_b.K))),
        float(np.max(np.abs(pg_a.R - pg_b.R))),
        float(np.max(np.abs(np.sqrt(pg_a.H2) - np.sqrt(pg_b.H2)))))
    ok = bitwise and overlap < 1e-8
    assert _emit(10, ok, f"verify output bitwise-stable: {bitwise}; "
                 f"chart-overlap spread of (K, R, |H|) = {overlap:.2e} "
                 "(< 1e-8)")


def test_acceptance_goldens_still_pass(capsys):
    # the shipped golden reports must themselves be green
    import pathlib
    for path in sorted((pathlib.Path(__file__).parent / "golden").glob("*.json")):
        report = json.loads(path.read_text())
        assert report["pass"], path.name

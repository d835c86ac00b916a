"""Each command builds and prints only what it reports.

The split's certification (split_defects) runs only where a report prints
it: on every tile of ``verify`` and once in ``probe``.  ``ellipse`` and
``probe`` write their reports from templates, so their bytes are checked
here against the reference writers, and the ellipse normals take one cos
and one sin call over the whole angle grid, which must round as the
per-angle calls do.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys

import numpy as np
import pytest

from lagsurf import ambient, catalog, cli, geom, scans
from lagsurf.catalog import KINDS, SurfaceSpec, lift_at
from lagsurf.cli import build_parser, main, resolve_config
from lagsurf.geom import ellipse_samples, geometry_from_jet, point_geometry
from lagsurf.numerics import apply_J, real_pair
from lagsurf.scans import grid_tiles

# ---------------------------------------------------------------------------
# the ellipse report's bytes

# every kind at its defaults, and two members at other parameters
ELLIPSE_SURFACES = list(KINDS) + ["psi-ch2(0)", "product-torus(1,2)"]
ANGLES = [8, 9, 64, 1000]


def _reference_report(cfg, ellipse) -> str:
    """The report as the reference writers give it: json.dumps(indent=2),
    or csv.writer with .17g cells, at cfg.angles uniform angles, the
    normals by scalar cos and sin per angle.  The values are finite: the
    geometry's non-finite gate rejects a point whose metric, K, D, F or Hc
    is not, and every entry of C (so of the center and the normals) enters
    K or D."""
    theta = np.linspace(0.0, 2.0 * np.pi, cfg.angles, endpoint=False)
    thetas = theta.tolist()
    normals = [(ellipse.center + np.cos(2.0 * t) * ellipse.half_diff
                + np.sin(2.0 * t) * ellipse.cross).tolist() for t in theta]
    center = ellipse.center.tolist()
    fit = float(ellipse.fit_residual)
    if cfg.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["theta", "normal1", "normal2",
                         "center1", "center2", "fit_residual"])
        for theta, normal in zip(thetas, normals):
            writer.writerow([f"{v:.17g}" for v in
                             (theta, *normal, *center, fit)])
        return buffer.getvalue()
    payload = {
        "surface": cfg.spec.kind,
        "params": cfg.spec.params(),
        "point": list(cfg.point),
        "fit_residual": fit,
        "samples": [{"theta": theta, "normal": normal, "center": center}
                    for theta, normal in zip(thetas, normals)],
    }
    return json.dumps(payload, indent=2) + "\n"


def _ellipse_argv(surface, angles, fmt):
    return ["ellipse", "--surface", surface, "--angles", str(angles),
            "--format", fmt, "0.4", "1.1"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("angles", ANGLES)
@pytest.mark.parametrize("surface", ELLIPSE_SURFACES)
def test_ellipse_report_matches_the_reference_writers(surface, angles, fmt,
                                                      capsys):
    argv = _ellipse_argv(surface, angles, fmt)
    cfg = resolve_config(build_parser().parse_args(argv))
    want = _reference_report(
        cfg, ellipse_samples(point_geometry(cfg.spec, *cfg.point)))
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_ellipse_reports_cover_exponent_forms(capsys):
    # the template prints repr, as json does, and %.17g, as the csv cells
    # are: both meet exponents on the catalog (minimal points have H ~ 0)
    for fmt in ("json", "csv"):
        assert main(_ellipse_argv("clifford-torus", 8, fmt)) == 0
        assert "e-" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_ellipse_report_renders_signed_zeros_and_extremes(fmt, monkeypatch,
                                                          capsys):
    # the catalog prints no -0.0, so values are planted in a real ellipse:
    # signed zeros, a subnormal, huge and tiny exponents
    planted = []

    def samples(pg):
        ellipse = dataclasses.replace(
            ellipse_samples(pg),
            center=np.array([-0.0, 1e-300]),
            half_diff=np.array([5e-324, 1e22]),
            cross=np.array([-0.0, -2.5e-17]),
            fit_residual=np.float64(-0.0))
        planted.append(ellipse)
        return ellipse

    monkeypatch.setattr(cli, "ellipse_samples", samples)
    argv = _ellipse_argv("whitney-cp2(0.5)", 9, fmt)
    assert main(argv) == 0
    out = capsys.readouterr().out
    cfg = resolve_config(build_parser().parse_args(argv))
    assert out == _reference_report(cfg, planted[0])
    assert ("-0.0" if fmt == "json" else ",-0,") in out
    assert "e-324" in out and "1e+22" in out


# ---------------------------------------------------------------------------
# the probe report's bytes

PROBE_POINTS = [("1.0", "0.5"), ("0.4", "1.1")]


def _record_probe(monkeypatch, plant=None) -> dict:
    """Record what cmd_probe computes: its lift, geometry, intrinsic K and
    check rows, each row as the run's own configuration judged it, in
    report order.  ``plant`` replaces the (split, geometry) it is given."""
    seen = {"rows": []}
    gauss_row, check_row = cli._gauss_check, cli._check

    def split_geometry(lift, space):
        split, pg = geom.split_geometry(lift, space)
        seen["lift"] = lift
        seen["pg"] = plant(pg) if plant else pg
        return split, seen["pg"]

    def gauss_check(k_int, k, where, cfg):
        seen["k_int"] = k_int
        return gauss_row(k_int, k, where, cfg)

    def check(*args, **kwargs):
        seen["rows"].append(check_row(*args, **kwargs))
        return seen["rows"][-1]

    monkeypatch.setattr(cli, "split_geometry", split_geometry)
    monkeypatch.setattr(cli, "_gauss_check", gauss_check)
    monkeypatch.setattr(cli, "_check", check)
    return seen


def _probe_reference(cfg, seen) -> tuple[str, bool]:
    """The probe report as json.dumps(report, indent=2) writes it, each
    value read out by float() and each normal vector built on its own."""
    lift, pg, k_int = seen["lift"], seen["pg"], seen["k_int"]
    checks = seen["rows"]  # the identity checks, then gauss_routes
    e1, e2 = geom.tangent_frame(lift, pg.g)

    def vector(vec):
        return {"re": [float(x) for x in np.real(vec)],
                "im": [float(x) for x in np.imag(vec)]}

    def normal(coords):  # the normal vector with (J e1, J e2) coordinates
        return vector(coords[0] * apply_J(e1) + coords[1] * apply_J(e2))

    C = pg.C
    report = {
        "surface": cfg.spec.kind, "params": cfg.spec.params(),
        "point": list(cfg.point), "chart": cfg.spec.chart.kind,
        "g": [[float(pg.g[i, j]) for j in (0, 1)] for i in (0, 1)],
        "K": float(pg.K), "K_intrinsic": float(k_int), "H2": float(pg.H2),
        "sigma_sq": float(pg.sigma_sq), "R": float(pg.R),
        "D_re": float(np.real(pg.D)), "D_im": float(np.imag(pg.D)),
        "F_re": float(np.real(pg.F)), "F_im": float(np.imag(pg.F)),
        "F_abs": float(np.abs(pg.F)),
        "Hc_re": float(np.real(pg.Hc)), "Hc_im": float(np.imag(pg.Hc)),
        "Hc_abs": float(np.abs(pg.Hc)),
        "C": {"111": float(C[0, 0, 0]), "112": float(C[0, 0, 1]),
              "122": float(C[0, 1, 1]), "222": float(C[1, 1, 1])},
        "H": normal(0.5 * (C[0, 0] + C[1, 1])),
        "e1": vector(e1), "e2": vector(e2),
        "sigma11": normal(C[0, 0]), "sigma12": normal(C[0, 1]),
        "sigma22": normal(C[1, 1]),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return json.dumps(report, indent=2) + "\n", report["pass"]


@pytest.mark.parametrize("point", PROBE_POINTS, ids="-".join)
@pytest.mark.parametrize("surface", ELLIPSE_SURFACES)
def test_probe_report_matches_json_dumps(surface, point, monkeypatch,
                                         capsys):
    seen = _record_probe(monkeypatch)
    argv = ["probe", "--surface", surface, *point]
    code = main(argv)
    want, passed = _probe_reference(
        resolve_config(build_parser().parse_args(argv)), seen)
    assert code == (0 if passed else 1)
    assert capsys.readouterr().out == want
    # the circular families print their fit rows, the other its margin
    names = [c["name"] for c in seen["rows"]]
    circular = not surface.startswith("product-torus")
    assert ("ellipse_fit" in names) == circular
    assert ("non_circularity" in names) != circular


def test_probe_report_renders_signed_zeros_and_extremes(monkeypatch,
                                                        capsys):
    # the catalog prints none of these, so they are planted in a real
    # geometry and its intrinsic K, and two tolerances are set to extremes
    def plant(pg):
        g = pg.g.copy()
        g[0, 1] = g[1, 0] = -0.0
        C = pg.C.copy()
        C[0, 0, 0], C[0, 0, 1], C[1, 1, 1] = -0.0, 5e-324, 1e22
        C[0, 1, 1] = C[1, 0, 1] = -np.inf
        return dataclasses.replace(
            pg, g=g, C=C, K=np.float64(-0.0), H2=np.float64(5e-324),
            sigma_sq=np.float64(1e22), R=np.float64(np.inf),
            D=np.complex128(complex(-0.0, np.nan)),
            F=np.complex128(complex(np.inf, -np.inf)),
            Hc=np.complex128(complex(5e-324, -0.0)))

    seen = _record_probe(monkeypatch, plant)
    monkeypatch.setattr(cli, "gauss_curvature_intrinsic",
                        lambda lift, space: np.float64(np.nan))
    argv = ["probe", "--surface", "whitney-cp2(0.5)", "--tol",
            "circularity=1e22", "--tol", "membership=5e-324", "0.4", "1.1"]
    with np.errstate(all="ignore"):
        code = main(argv)
        want, passed = _probe_reference(
            resolve_config(build_parser().parse_args(argv)), seen)
    out = capsys.readouterr().out
    assert code == 1 and not passed
    assert out == want
    for token in ("-0.0", "5e-324", "1e+22", "NaN", "Infinity",
                  "-Infinity"):
        assert token in out, token


# ---------------------------------------------------------------------------
# the trig assumption behind CurvatureEllipse.samples


@pytest.mark.parametrize("n", [8, 9, 16, 64, 1000, 4096])
def test_angle_grid_trig_in_one_call_is_bitwise_the_scalar_calls(n):
    # samples takes cos and sin of the whole grid at once; a platform whose
    # vector loops round otherwise fails here, not in a report diff
    pg = point_geometry(SurfaceSpec("whitney-cp2", t=0.5), 0.4, 1.1)
    two_theta = 2.0 * ellipse_samples(pg).samples(n)[0]
    for f in (np.cos, np.sin):
        scalar = np.array([f(t) for t in two_theta])
        assert f(two_theta).tobytes() == scalar.tobytes(), f.__name__


# ---------------------------------------------------------------------------
# which commands certify the split


def _count_calls(monkeypatch, func) -> list:
    """Count calls of func through every lagsurf module name bound to it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return func(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "lagsurf" or key.startswith("lagsurf."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def _count_tiles(monkeypatch) -> list:
    """Count the tiles that scans and cli take from grid_tiles."""
    tiles = []

    def counted_tiles(axis1, axis2):
        for tile in grid_tiles(axis1, axis2):
            tiles.append(None)
            yield tile

    for module in (scans, cli):
        monkeypatch.setattr(module, "grid_tiles", counted_tiles)
    return tiles


LIFT_DEFECTS = ("membership_defect", "horizontality_defect",
                "lagrangian_defect")


@pytest.mark.parametrize("argv, certified", [
    (["scan", "--surface", "whitney-cp2(0.5)", "--grid", "100x77"], False),
    (["willmore", "--surface", "whitney-cp2(0.5)", "--quad", "64x128"],
     False),
    (["verify", "--surface", "psi-ch2(0.3)", "--grid", "100x77"], True),
], ids=["scan", "willmore", "verify"])
def test_grid_commands_certify_only_in_verify(argv, certified, monkeypatch,
                                              capsys):
    # every tile pays the lift defects; only verify's pay the certification
    # (psi-ch2 has no energy integral, so its tiles are all verify's own,
    # and its one other geometry is the 200 seeded points of gauss_routes)
    certify = _count_calls(monkeypatch, ambient.split_defects)
    lift = {name: _count_calls(monkeypatch, getattr(ambient, name))
            for name in LIFT_DEFECTS}
    tiles = _count_tiles(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(tiles) > 1
    assert len(certify) == (len(tiles) if certified else 0)
    for name, calls in lift.items():
        assert len(calls) == len(tiles) + certified, name


@pytest.mark.parametrize("command, certifications", [("probe", 1),
                                                     ("ellipse", 0)])
def test_point_commands_certify_only_in_probe(command, certifications,
                                              monkeypatch, capsys):
    certify = _count_calls(monkeypatch, ambient.split_defects)
    lift = {name: _count_calls(monkeypatch, getattr(ambient, name))
            for name in LIFT_DEFECTS}
    argv = [command, "--surface", "whitney-cp2(0.5)", "0.4", "1.1"]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(certify) == certifications
    for name, calls in lift.items():
        assert len(calls) == 1, name


@pytest.mark.parametrize("argv", [
    ["probe", "--surface", "whitney-cp2(0.5)", "0.4", "1.1"],
    ["verify", "--surface", "psi-ch2(0.3)", "--grid", "100x77"],
], ids=["probe", "verify"])
def test_both_curvature_routes_read_one_lift(argv, monkeypatch, capsys):
    # probe lifts its point once, and verify its tiles and then its 200
    # seeded Gauss points once each: the intrinsic route lifts nothing
    lifts = _count_calls(monkeypatch, catalog.lift_at)
    geometries = _count_calls(monkeypatch, geom.point_geometry)
    tiles = _count_tiles(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(lifts) == len(tiles) + 1
    assert geometries == []


# the rows probe prints, in order: the split's three between the lift
# defects and c_symmetry; verify adds curvature_range and willmore
CIRCULAR_ROWS = ["membership", "horizontality", "lagrangian",
                 "split_residual", "position_coeff", "fiber_coeff",
                 "c_symmetry", "circularity_routes", "density_moduli",
                 "product_identity", "circularity", "radius_routes",
                 "ellipse_fit", "gauss_routes"]
NON_CIRCULAR_ROWS = CIRCULAR_ROWS[:10] + ["non_circularity", "gauss_routes"]


@pytest.mark.parametrize("surface, rows", [
    ("whitney-cp2(0.5)", CIRCULAR_ROWS),
    ("product-torus(1,2)", NON_CIRCULAR_ROWS),
])
def test_certified_rows_keep_their_names_and_order(surface, rows, capsys):
    assert main(["probe", "--surface", surface, "0.4", "1.1"]) == 0
    probe = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in probe["checks"]] == rows
    assert main(["verify", "--surface", surface, "--grid", "16x16",
                 "--quad", "16x32"]) == 0
    verify = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in verify["checks"]] == rows + [
        "curvature_range", "willmore"]


def test_tangent_frame_is_orthonormal_and_chart_ordered():
    # e1 is along d1, and (e1, e2) is orthonormal in the target's pairing
    spec = SurfaceSpec("whitney-ch2", t=0.5)
    lift = lift_at(spec, np.array([0.4, 1.3]), np.array([1.1, 5.0]))
    e1, e2 = geom.tangent_frame(lift, geometry_from_jet(lift, spec.ambient).g)
    sig = spec.ambient.sig
    gram = np.array([[real_pair(a, b, sig) for b in (e1, e2)]
                     for a in (e1, e2)])
    assert np.allclose(gram, np.eye(2)[:, :, None], rtol=0.0, atol=1e-13)
    assert np.all(real_pair(e1, lift.d1, sig) > 0.0)
    assert np.allclose(real_pair(e2, lift.d1, sig), 0.0, atol=1e-13)

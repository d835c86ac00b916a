"""Command-line behavior: exit codes, schemas, determinism, goldens."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from helpers import GOLDEN_CONFIGS, STANDARD, certifiable
from lagsurf import cli, numerics, scans
from lagsurf.ambient import split_defects
from lagsurf.atlas import build_grid
from lagsurf.catalog import FAMILIES, KINDS, SurfaceSpec
from lagsurf.cli import (_MAX_ANGLES, _MAX_ORDER, MAX_POINTS, TOLERANCES,
                         ConfigError, _parse_angles, _parse_number,
                         _parse_orders, _parse_pair, build_parser, main,
                         parse_surface, read_config_file, resolve_config)
from lagsurf.geom import MIN_ANGLES, c_symmetry_gap
from lagsurf.scans import _DETAILS, _check, _identity_values

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# parsing


def test_parse_surface_token_forms():
    assert parse_surface("clifford-torus") == SurfaceSpec("clifford-torus")
    assert parse_surface("whitney-cp2(0.5)") == SurfaceSpec("whitney-cp2",
                                                            t=0.5)
    assert parse_surface(" product-torus(1, 2) ") == SurfaceSpec(
        "product-torus-c2", r1=1.0, r2=2.0)
    assert parse_surface("psi-ch2(pi/5)") == SurfaceSpec("psi-ch2",
                                                         s=math.pi / 5.0)
    with pytest.raises(ConfigError, match="unknown surface"):
        parse_surface("mystery-surface")
    # an unknown kind is named before its parameters are counted
    with pytest.raises(ConfigError, match="unknown surface 'moebius'"):
        parse_surface("moebius(1)")
    with pytest.raises(ConfigError, match="at most"):
        parse_surface("whitney-cp2(1,2,3)")
    # a bare kind() takes the defaults, the family's own where it has one
    assert parse_surface("whitney-cp2()") == SurfaceSpec("whitney-cp2")
    assert parse_surface("whitney-cp2( )") == SurfaceSpec("whitney-cp2")
    assert parse_surface("whitney-ch2") == SurfaceSpec("whitney-ch2", t=0.5)
    # the spec's domain error comes through with its own message
    with pytest.raises(ConfigError, match=r"^whitney-ch2 needs t > 0;"):
        parse_surface("whitney-ch2(0)")


def test_a_family_alias_names_its_kind_only_on_the_command_line():
    aliased = {f.alias: kind for kind, f in FAMILIES.items() if f.alias}
    assert aliased == {"product-torus": "product-torus-c2"}
    for alias, kind in aliased.items():
        assert alias not in FAMILIES
        assert parse_surface(f"{alias}(1,2)").kind == kind
        with pytest.raises(ValueError, match="unknown surface kind"):
            SurfaceSpec(alias)


@pytest.mark.parametrize("token", ["product-torus(1,,2)", "whitney-cp2(,)",
                                   "whitney-cp2(0.5,)", "whitney-cp2(,0.5)",
                                   "product-torus( , 2)"])
def test_empty_parameter_slot_is_a_usage_error(token, capsys):
    # once such a slot was dropped: (1,,2) ran as (1, 2), (,) as t = 0
    with pytest.raises(ConfigError, match="empty parameter slot"):
        parse_surface(token)
    assert main(["probe", "--surface", token, "0.4", "1.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: empty parameter slot in surface {token!r}\n")


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nsurface = clifford-torus  # trailing\n"
                   "grid = 8x8\nquad = 16x16\ntol = circularity=1e-6\n"
                   "seed = 3\n")
    assert read_config_file(str(cfg)) == [
        ("surface", SurfaceSpec("clifford-torus")), ("grid", (8, 8)),
        ("quad", (16, 16)), ("tol", {"circularity": 1e-6}), ("seed", 3)]
    code, out = run_cli(capsys, ["verify", "--config", str(cfg)])
    report = json.loads(out)
    assert code == 0 and report["surface"] == "clifford-torus"
    assert report["grid"] == [8, 8] and report["seed"] == 3
    tol = {check["name"]: check["tol"] for check in report["checks"]}
    assert tol["circularity"] == 1e-6
    assert tol["membership"] == TOLERANCES["membership"]


@pytest.mark.parametrize("text, value", [
    ("pi/3", math.pi / 3.0),
    ("-pi/4", -math.pi / 4.0),
    ("2*pi/5", 2.0 * math.pi / 5.0),
    ("e", math.e),
    ("(1+2)/3", 1.0),
    ("0.25", 0.25),
])
def test_parse_number_arithmetic(text, value):
    assert _parse_number(text) == value


@pytest.mark.parametrize("text", ["2**3", "1/0", "nan", "inf", "1e999",
                                  "abs(1)", "pi.real", "1j", ""])
def test_parse_number_rejections_exit_2(text, capsys):
    # the torus chart takes any angle, so only the parse can fail here
    assert main(["probe", "--surface", "clifford-torus", text, "1"]) == 2
    assert "cannot parse number" in capsys.readouterr().err


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("surfaze = clifford-torus\n")
    with pytest.raises(ConfigError, match="unknown key"):
        read_config_file(str(cfg))


@pytest.mark.parametrize("line, error", [
    ("grid 8x8", "{cfg}:3: expected key=value"),
    ("grid = 1x5", "grid orders must be at least 2"),
])
def test_bad_config_line_exits_2_with_one_error_line(line, error, tmp_path,
                                                     capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"surface = clifford-torus\n# grid sizes\n{line}\n")
    assert main(["scan", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: {error.format(cfg=cfg)}\n")


@pytest.mark.parametrize("where", [lambda tmp: tmp / "missing.cfg",
                                   lambda tmp: tmp],
                         ids=["missing", "directory"])
def test_unreadable_config_exits_2_with_one_error_line(where, tmp_path,
                                                       capsys):
    path = str(where(tmp_path))
    assert main(["scan", "--surface", "clifford-torus", "--config",
                 path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read config {path!r}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_usage_errors(capsys):
    assert main(["verify", "--surface", "whitney-ch2(0)"]) == 2
    assert main(["verify", "--surface", "no-such-kind"]) == 2
    assert main(["willmore", "--surface", "clifford-torus"]) == 2
    assert main(["willmore", "--surface", "eta-ch2"]) == 2
    assert main(["verify", "--surface", "whitney-c2",
                 "--tol", "bogus=1"]) == 2
    assert main(["verify"]) == 2  # no surface selected
    capsys.readouterr()


@pytest.mark.parametrize("argv, fragment", [
    # the number grammar refuses these before the spec's finite check
    (["--surface", "whitney-cp2(nan)"], "cannot parse number 'nan'"),
    (["--surface", "whitney-cp2(inf)"], "cannot parse number 'inf'"),
    (["--surface", "psi-ch2(-inf)"], "cannot parse number '-inf'"),
    (["--surface", "product-torus(1,nan)"], "cannot parse number 'nan'"),
    (["--surface", "whitney-cp2(1e3)"],
     "whitney-cp2(1000): the closed-form lift overflows"),
    (["--surface", "whitney-ch2(1e3)"], "the closed-form lift overflows"),
])
def test_exit_code_non_finite_or_overflowing_parameter(argv, fragment,
                                                       capsys):
    assert main(["verify"] + argv + ["--grid", "8x8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize("argv", [
    ["--surface", "eta-ch2", "1e200", "1"],
    ["--surface", "whitney-cp2(300)", "1", "1"],
    ["--surface", "product-torus(1e300,1)", "0.1", "0.2"],
    # the lift is finite, but the metric's pairings leave the float range
    ["--surface", "product-torus(1e-77,1e-78)", "0", "0"],
    ["--surface", "product-torus(1e52,1e51)", "0", "0"],
])
def test_exit_code_overflow_prints_one_line_and_no_warning(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["probe"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_float_overflow_past_the_gates_is_a_domain_error(capsys):
    # before, the overflow printed numpy's warnings and the run exited 1
    assert main(["probe", "--surface", "product-torus(1e37,1e41)",
                 "0", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: precision exhausted at "
                          "product-torus-c2(1e+37,1e+41): overflow")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9", "abc"])
def test_exit_code_bad_tolerance_value(value, tmp_path, capsys):
    surface = ["--surface", "clifford-torus", "--grid", "8x8"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tol = circularity={value}\n")
    for argv in (["verify", "--quad", "16x16", f"--tol=circularity={value}"],
                 ["scan", f"--tol=circularity={value}"],
                 ["verify", "--quad", "16x16", "--config", str(cfg)],
                 ["scan", "--config", str(cfg)]):
        assert main(argv + surface) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: bad tolerance value in "
                                f"'circularity={value}'\n")


def test_overflow_message_names_chart_coordinates(capsys):
    # eta-ch2 has no parameters: only the chart coordinate can overflow
    assert main(["probe", "--surface", "eta-ch2", "1e200", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: eta-ch2: the closed-form lift overflows at these parameters "
        "or chart coordinates\n")


@pytest.mark.parametrize("command", ["probe", "ellipse"])
def test_point_next_to_the_psi_puncture_is_a_domain_error(command, capsys):
    # r > 0 passes the chart, but |w|^2 underflows to 0
    assert main([command, "--surface", "psi-ch2(0.5)", "1e-170", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: psi-ch2 ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["probe", "--surface", "whitney-cp2(0.5)", "1.0", "0.5"],
    ["verify", "--surface", "whitney-cp2(0.5)", "--grid", "8x8",
     "--quad", "8x16"],
    ["scan", "--surface", "whitney-cp2(0.5)", "--grid", "8x8"],
], ids=lambda argv: argv[0])
def test_each_call_validates_its_spec_once(argv, monkeypatch, capsys):
    checked = []
    family = FAMILIES["whitney-cp2"]
    monkeypatch.setitem(FAMILIES, "whitney-cp2", replace(
        family, domain=lambda spec: checked.append(spec) or True))
    code, _ = run_cli(capsys, argv)
    assert code == 0 and len(checked) == 1


def test_cli_reads_the_library_tolerance_table():
    assert TOLERANCES is numerics.TOLERANCES


def test_exit_code_unwritable_out(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["verify", "--surface", "clifford-torus", "--grid", "8x8",
                 "--quad", "16x16", "--out", str(target)]) == 2
    assert "cannot write report" in capsys.readouterr().err
    assert not target.exists()


def test_exit_code_degenerate_frame(capsys):
    # the frame Gram gate rejects this stretched sphere: a domain error
    assert main(["verify", "--surface", "whitney-cp2(10)",
                 "--grid", "32x32"]) == 2
    assert "condition number" in capsys.readouterr().err


def test_exit_code_check_failure(capsys):
    # an absurdly tight tolerance flips a passing check to failing: exit 1
    code, out = run_cli(capsys, ["verify", "--surface", "clifford-torus",
                                 "--grid", "8x8", "--quad", "16x16",
                                 "--tol", "circularity=1e-30"])
    assert code == 1
    report = json.loads(out)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert "circularity" in failed and not report["pass"]


def test_exit_code_success(capsys):
    code, _ = run_cli(capsys, ["scan", "--surface", "eta-ch2",
                               "--grid", "8x8"])
    assert code == 0


# ---------------------------------------------------------------------------
# subcommand output schemas


def test_list_text_and_json(capsys):
    code, out = run_cli(capsys, ["list"])
    assert code == 0
    assert len(out.strip().splitlines()) == 8
    code, out = run_cli(capsys, ["list", "--json"])
    rows = json.loads(out)
    assert [r["kind"] for r in rows] == [
        "whitney-c2", "whitney-cp2", "whitney-ch2", "totally-geodesic-cp2",
        "psi-ch2", "eta-ch2", "clifford-torus", "product-torus-c2"]


def test_probe_reports_radius_and_passes(capsys):
    code, out = run_cli(capsys, ["probe", "--surface", "clifford-torus",
                                 "0.4", "1.1"])
    assert code == 0
    report = json.loads(out)
    assert report["R"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert report["pass"] is True
    for key in ("K", "H2", "D_re", "D_im", "F_abs", "Hc_abs", "g",
                "sigma11", "e1", "checks"):
        assert key in report


def test_probe_accepts_pi_expressions(capsys):
    code, out = run_cli(capsys, ["probe", "--surface", "whitney-cp2(0.5)",
                                 "pi/3", "pi/5"])
    assert code == 0
    report = json.loads(out)
    assert report["point"][0] == pytest.approx(math.pi / 3.0, rel=1e-15)


# negative coordinates that argparse's own pattern reads as flags; it reads
# '-0.5' as a number
NEGATIVE_FORMS = ["-1e-3", "-pi/3", "-e", "-2*pi/7", "-(1+2)/10"]


@pytest.mark.parametrize("position", [0, 1], ids=["a1", "a2"])
@pytest.mark.parametrize("command, surface", [("probe", "eta-ch2"),
                                              ("ellipse", "clifford-torus")])
@pytest.mark.parametrize("token", NEGATIVE_FORMS)
def test_negative_coordinate_parses_in_every_number_form(token, command,
                                                         surface, position,
                                                         capsys):
    point = ["0.5", "0.5"]
    point[position] = token
    argv = [command, "--surface", surface]
    code, out = run_cli(capsys, argv + point)
    assert code == 0
    assert json.loads(out)["point"][position] == _parse_number(token)
    # the report of the same point given after '--'
    assert run_cli(capsys, argv + ["--"] + point) == (0, out)


@pytest.mark.parametrize("token", ["-x", "-pi/", "-1e"])
def test_a_dash_token_that_is_no_number_stays_a_usage_error(token, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--surface", "eta-ch2", token, "0.5"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def _gauss_row(out):
    return next(row for row in json.loads(out)["checks"]
                if row["name"] == "gauss_routes")


def test_probe_next_to_the_pole_exits_0(capsys):
    # phi = 5e-4 lies inside the sphere chart, and the intrinsic route
    # needs no room around the point
    code, out = run_cli(capsys, ["probe", "--surface", "whitney-c2",
                                 "0.0005", "1.0"])
    assert code == 0
    assert _gauss_row(out)["pass"] is True


def test_concentrated_curvature_passes_gauss_routes(capsys):
    # whitney-ch2(0.005) concentrates its curvature on a scale of about t;
    # its split_residual and willmore rows fail, so the run exits 1
    code, out = run_cli(capsys, ["verify", "--surface", "whitney-ch2(0.005)"])
    assert code == 1
    row = _gauss_row(out)
    assert row["pass"] is True and row["max_defect"] <= 1e-10


def test_ellipse_csv_schema(capsys):
    code, out = run_cli(capsys, ["ellipse", "--surface", "product-torus(1,1)",
                                 "--angles", "16", "--format", "csv",
                                 "0.3", "0.7"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["theta", "normal1", "normal2",
                       "center1", "center2", "fit_residual"]
    assert len(rows) == 17  # header + one row per angle
    fit = float(rows[1][5])
    assert fit == pytest.approx(0.5, abs=1e-10)
    # 17 significant digits survive a parse round trip
    assert float(rows[2][0]) == 2.0 * math.pi / 16.0


def test_ellipse_json_schema(capsys):
    code, out = run_cli(capsys, ["ellipse", "--surface", "clifford-torus",
                                 "--angles", "8", "0.0", "0.0"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["samples"]) == 8
    assert payload["fit_residual"] < 1e-10


def test_willmore_payload(capsys):
    code, out = run_cli(capsys, ["willmore", "--surface", "whitney-c2",
                                 "--quad", "32x64"])
    assert code == 0
    payload = json.loads(out)
    assert payload["w"] == pytest.approx(8.0 * math.pi, abs=1e-9)
    assert payload["chi"] == 2 and payload["orders"] == [32, 64]


def test_scan_payload(capsys):
    code, out = run_cli(capsys, ["scan", "--surface", "clifford-torus",
                                 "--grid", "16x16"])
    assert code == 0
    payload = json.loads(out)
    assert payload["circular"] and payload["minimal"] and payload["compact"]
    assert payload["R_min"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert any("holds" in line for line in payload["pinching"])


def test_scan_report_keys_are_the_scan_record_fields(capsys):
    # one source for the report's shape: ScanReport's fields after spec,
    # between the surface and the pinching audit
    code, out = run_cli(capsys, ["scan", "--surface", "whitney-c2",
                                 "--grid", "8x8"])
    names = [f.name for f in fields(scans.ScanReport)]
    assert code == 0 and names[0] == "spec"
    assert list(json.loads(out)) == ["surface", "params", *names[1:],
                                     "pinching"]


@pytest.mark.parametrize("tol_name, measure, flag", [
    ("circularity", "D_max_scaled", "circular"),
    ("minimality", "H_max", "minimal"),
])
def test_scan_passes_at_a_tolerance_equal_to_the_defect(tol_name, measure,
                                                        flag, capsys):
    # like every other named check, a defect equal to its tolerance passes
    argv = ["scan", "--surface", "product-torus(1,2)", "--grid", "8x8"]
    _, out = run_cli(capsys, argv)
    payload = json.loads(out)
    defect = payload[measure]
    assert defect > 0.0 and not payload[flag]
    _, out = run_cli(capsys, argv + ["--tol", f"{tol_name}={defect!r}"])
    payload = json.loads(out)
    assert payload[measure] == defect and payload[flag] is True


# one valid surface token per catalog kind
_VALID_SURFACE = {"whitney-cp2": "whitney-cp2(0.5)",
                  "whitney-ch2": "whitney-ch2(0.5)",
                  "psi-ch2": "psi-ch2(0.3)",
                  "product-torus-c2": "product-torus-c2(1,2)"}


@pytest.mark.parametrize("kind", FAMILIES)
def test_registry_agrees_with_subcommands(kind, capsys):
    family = FAMILIES[kind]
    surface = ["--surface", _VALID_SURFACE.get(kind, kind)]
    _, out = run_cli(capsys, ["list", "--json"])
    listed = {row["kind"]: row for row in json.loads(out)}[kind]
    code, out = run_cli(capsys, ["probe"] + surface + ["1.0", "0.5"])
    assert code == 0
    assert json.loads(out)["chart"] == listed["chart"]
    code, out = run_cli(capsys, ["scan"] + surface + ["--grid", "8x8"])
    assert code == 0
    assert json.loads(out)["compact"] == (family.chi is not None)
    code = main(["willmore"] + surface + ["--quad", "8x16"])
    capsys.readouterr()
    assert (code == 0) == (family.quadrature is not None)


# ---------------------------------------------------------------------------
# determinism and goldens


def test_verify_is_bitwise_reproducible(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["verify", "--surface", "whitney-cp2(0.5)",
            "--grid", "24x24", "--quad", "32x64"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("surface", ["whitney-cp2(0.5)", "product-torus(1,2)"])
def test_chunked_verify_matches_one_whole_grid_batch(surface, capsys):
    # 19,650 points in five chunks, the last one ragged; product-torus has
    # the margin check non_circularity, whose worst chunk is its minimum
    argv = ["verify", "--surface", surface, "--grid", "150x131",
            "--quad", "8x16"]
    code, out = run_cli(capsys, argv)
    report = json.loads(out)
    cfg = resolve_config(build_parser().parse_args(argv))
    spec = cfg.spec
    axis1, axis2 = build_grid(spec.chart, *cfg.grid)
    lift, split, whole = certifiable(spec, axis1[:, None], axis2[None, :])
    want = [_check(name, _DETAILS[name], values, cfg.tol) for name, values
            in _identity_values(spec, lift, split, whole).items()]
    # every identity check comes first, in order, bitwise equal
    assert report["checks"][:len(want)] == want
    assert report["K_range"] == [float(np.min(whole.K)),
                                 float(np.max(whole.K))]
    assert report["R_range"] == [float(np.min(whole.R)),
                                 float(np.max(whole.R))]
    assert code == 0 and report["pass"]


@pytest.mark.parametrize("spec", [SurfaceSpec("whitney-cp2", t=0.5),
                                  SurfaceSpec("product-torus-c2",
                                              r1=1.0, r2=2.0)],
                         ids=lambda s: s.label())
def test_every_check_is_named_by_its_tolerance(spec):
    # one name per check: its key in pg.defects or the split's
    # certification, its report row and its TOLERANCES entry; the detail
    # table fixes the report order, the pointwise defects first
    assert set(_DETAILS) <= set(TOLERANCES)
    lift, split, pg = certifiable(spec, 0.4, 1.1)
    defects = pg.defects | split_defects(lift, pg.space, split) | {
        "c_symmetry": c_symmetry_gap(pg)}
    assert set(defects) <= set(TOLERANCES)
    values = _identity_values(spec, lift, split, pg)
    assert list(values) == [name for name in _DETAILS if name in values]
    assert set(list(values)[:len(defects)]) == set(defects)


def test_verify_memory_is_flat_in_grid_size(tmp_path):
    argv = ["verify", "--surface", "whitney-cp2(0.5)", "--quad", "8x16",
            "--out", str(tmp_path / "report.json")]
    main(argv + ["--grid", "8x8"])  # first-call caches out of the count

    def peak(n):
        tracemalloc.start()
        try:
            assert main(argv + ["--grid", f"{n}x{n}"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a tile's geometry is a constant and the grid is two axes, so nothing
    # is kept per point; measured 0.3 B, the tile held while the next is
    # built (44 B with flat grid coordinates, about 1.2 KB in one
    # whole-grid batch).  From 128x128 on, every grid has more than one
    # tile, so both peaks hold one tile while the next is built; a 64x64
    # grid is one tile and would count the held tile as per-point growth.
    per_point = (peak(256) - peak(128)) / (256 ** 2 - 128 ** 2)
    assert per_point < 16


def _assert_close_tree(got, want, path=""):
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for key in want:
            _assert_close_tree(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close_tree(g, w, f"{path}[{i}]")
    elif isinstance(want, bool) or want is None or isinstance(want, str):
        assert got == want, path
    else:
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), path


@pytest.mark.parametrize("name, surface", GOLDEN_CONFIGS)
def test_verify_matches_golden(name, surface, capsys):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    code, out = run_cli(capsys, ["verify", "--surface", surface] + STANDARD)
    assert code == 0
    _assert_close_tree(json.loads(out), golden)


# pointwise goldens in tests/golden/point: probe, and ellipse as JSON and CSV
# at 16 angles, all at the chart point (0.4, 1.1)
POINT_GOLDENS = [
    ("clifford-torus", "clifford-torus"),
    ("product-torus-1-1", "product-torus(1,1)"),
]
POINT_REPORTS = [("probe", "json"), ("ellipse", "json"), ("ellipse", "csv")]


def _csv_tree(text):
    rows = list(csv.reader(io.StringIO(text)))
    return [rows[0]] + [[float(cell) for cell in row] for row in rows[1:]]


@pytest.mark.parametrize("command, fmt", POINT_REPORTS)
@pytest.mark.parametrize("name, surface", POINT_GOLDENS)
def test_point_report_matches_golden(name, surface, command, fmt, capsys):
    argv = [command, "--surface", surface]
    if command == "ellipse":
        argv += ["--angles", "16", "--format", fmt]
    code, out = run_cli(capsys, argv + ["0.4", "1.1"])
    assert code == 0
    golden = (GOLDEN_DIR / "point" / f"{command}-{name}.{fmt}").read_text()
    parse = _csv_tree if fmt == "csv" else json.loads
    _assert_close_tree(parse(out), parse(golden))


# grid goldens in tests/golden/grid: scan at 100x77 for every golden surface,
# willmore at 64x128 for each one with an energy integral
GRID_REPORTS = (
    [("scan", name, surface, ["--grid", "100x77"])
     for name, surface in GOLDEN_CONFIGS]
    + [("willmore", name, surface, ["--quad", "64x128"])
       for name, surface in GOLDEN_CONFIGS
       if parse_surface(surface).family.quadrature is not None])


@pytest.mark.parametrize("command, name, surface, size", GRID_REPORTS,
                         ids=[f"{c}-{n}" for c, n, _, _ in GRID_REPORTS])
def test_grid_report_matches_golden(command, name, surface, size, capsys):
    code, out = run_cli(capsys, [command, "--surface", surface] + size)
    assert code == 0
    golden = (GOLDEN_DIR / "grid" / f"{command}-{name}.json").read_text()
    _assert_close_tree(json.loads(out), json.loads(golden))


@pytest.mark.parametrize("kind", KINDS)
def test_bare_kind_runs_at_its_defaults(kind, capsys):
    # a kind named with no parameters probes the middle of its chart box
    (lo1, hi1), (lo2, hi2) = FAMILIES[kind].chart.bounds
    point = [repr(0.5 * (lo1 + hi1)), repr(0.5 * (lo2 + hi2))]
    code, out = run_cli(capsys, ["probe", "--surface", kind] + point)
    assert code == 0
    assert json.loads(out)["surface"] == kind


def test_default_parameter_yields_to_a_given_one(capsys):
    code, out = run_cli(capsys, ["scan", "--surface", "whitney-ch2",
                                 "--grid", "8x8"])
    assert code == 0 and json.loads(out)["params"] == {"t": 0.5}
    code, out = run_cli(capsys, ["scan", "--surface", "whitney-ch2(0.8)",
                                 "--grid", "8x8"])
    assert code == 0 and json.loads(out)["params"] == {"t": 0.8}


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("surface = clifford-torus\ngrid = 8x8\nquad = 16x16\n")
    code, out = run_cli(capsys, ["verify", "--config", str(cfg),
                                 "--grid", "12x12"])
    assert code == 0
    assert json.loads(out)["grid"] == [12, 12]


# ---------------------------------------------------------------------------
# the option table: each subcommand accepts only the options it reads

FLAGS = {
    "list": {"--json"},
    "probe": {"--surface", "--tol"},
    "verify": {"--surface", "--grid", "--quad", "--tol", "--seed"},
    "ellipse": {"--surface", "--angles", "--format"},
    "willmore": {"--surface", "--quad"},
    "scan": {"--surface", "--grid", "--tol"},
}
# the family-parameter flags, gone: a parameter is given inline only
_REMOVED = {"--t", "--s", "--r1", "--r2"}
# flags that some subcommand reads; every other subcommand rejects them,
# and every subcommand rejects the removed ones
_SHARED = _REMOVED | {"--surface", "--grid", "--quad", "--angles", "--tol",
                      "--seed", "--format"}
_VALUE = {"--surface": "whitney-c2", "--grid": "8x8", "--quad": "8x16",
          "--tol": "circularity=1e-6", "--format": "csv"}
UNREAD = [(command, flag) for command in FLAGS
          for flag in sorted(_SHARED - FLAGS[command])]  # 51 pairs


@pytest.mark.parametrize("command, flag", UNREAD)
def test_unread_flag_is_a_usage_error(command, flag, capsys):
    read = ["--surface", "whitney-c2"] if command != "list" else []
    point = ["0.4", "1.1"] if command in ("probe", "ellipse") else []
    with pytest.raises(SystemExit) as exc:
        main([command] + read + [flag, _VALUE.get(flag, "1")] + point)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", FLAGS)
def test_help_lists_exactly_the_flags_the_subcommand_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z0-9]+", capsys.readouterr().out))
    assert listed == FLAGS[command] | {"--help", "--out", "--config"}


def test_one_config_file_serves_every_subcommand(tmp_path, capsys):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("surface = whitney-c2\ngrid = 8x8\nquad = 16x32\n"
                   "angles = 8\ntol = circularity=1e-6\nseed = 3\n"
                   "format = csv\n")
    config = ["--config", str(cfg)]
    code, out = run_cli(capsys, ["list"] + config)
    assert code == 0 and len(out.splitlines()) == 8
    code, out = run_cli(capsys, ["probe"] + config + ["0.4", "1.1"])
    assert code == 0 and json.loads(out)["surface"] == "whitney-c2"
    code, out = run_cli(capsys, ["verify"] + config)
    report = json.loads(out)
    assert code == 0 and report["grid"] == [8, 8] and report["seed"] == 3
    assert report["willmore"]["orders"] == [16, 32]
    code, out = run_cli(capsys, ["ellipse"] + config + ["0.4", "1.1"])
    assert code == 0 and len(out.splitlines()) == 9  # CSV: header + 8
    code, out = run_cli(capsys, ["willmore"] + config)
    assert code == 0 and json.loads(out)["orders"] == [16, 32]
    code, out = run_cli(capsys, ["scan"] + config)
    assert code == 0 and json.loads(out)["grid"] == [8, 8]


def test_config_file_values_are_checked_whichever_subcommand_runs(
        tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("surface = clifford-torus\nquad = bogus\n")
    assert main(["scan", "--config", str(cfg)]) == 2  # scan reads no quad
    assert capsys.readouterr().err == "error: expected N1xN2, got 'bogus'\n"


@pytest.mark.parametrize("surface", ["nosuch(1,2,3)", "whitney-ch2(0)"])
@pytest.mark.parametrize("command", FLAGS)
def test_config_file_surface_is_checked_whichever_subcommand_runs(
        command, surface, tmp_path, capsys):
    # once the file's surface was kept as text, and list never parsed it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"surface = {surface}\n")
    point = ["0.4", "1.1"] if command in ("probe", "ellipse") else []
    assert main([command, "--config", str(cfg)] + point) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    # the message --surface gives for the same value
    assert main(["probe", "--surface", surface, "0.4", "1.1"]) == 2
    assert capsys.readouterr().err == captured.err


@pytest.mark.parametrize("key", ["t", "s", "r1", "r2"])
def test_family_parameter_is_no_config_key(key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"surface = whitney-cp2\n{key} = 0.5\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: unknown key {key!r}\n")


@pytest.mark.parametrize("argv, message", [
    (["verify", "--surface", "whitney-cp2(abc)"],
     "cannot parse number 'abc'"),
    (["verify", "--surface", "clifford-torus", "--grid", "1x"],
     "expected N1xN2, got '1x'"),
    (["verify", "--surface", "clifford-torus", "--seed", "1.5"],
     "bad value '1.5' for 'seed'"),
    (["ellipse", "--surface", "clifford-torus", "--format", "xml", "0", "0"],
     "format must be 'json' or 'csv'"),
    (["verify", "--surface", "clifford-torus", "--seed", "-1"],
     "seed must be a non-negative integer, got '-1'"),
    (["scan", "--surface", "clifford-torus", "--grid", "1x5"],
     "grid orders must be at least 2"),
])
def test_bad_flag_value_returns_2_with_one_error_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("surface", ["clifford-torus", "product-torus(1,2)"])
@pytest.mark.parametrize("argv", [
    ["probe", "--angles", "-5", "0.4", "1.1"],
    ["verify", "--grid", "8x8", "--quad", "8x8", "--angles", "3"],
    ["ellipse", "--angles", str(MIN_ANGLES - 1), "0.4", "1.1"],
], ids=lambda argv: argv[0])
def test_too_few_angles_is_a_usage_error_on_every_surface(surface, argv,
                                                          capsys):
    # only ellipse samples the ellipse, and its bound holds on every
    # surface; probe and verify take no --angles, whatever the count
    argv = argv[:1] + ["--surface", surface] + argv[1:]
    if argv[0] == "ellipse":
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: need n_angles >= {MIN_ANGLES} to see the ellipse\n")
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --angles" in capsys.readouterr().err


def test_too_few_angles_in_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    surface = "surface = product-torus(1,2)\n"
    cfg.write_text(surface + f"angles = {MIN_ANGLES - 1}\n")
    assert main(["scan", "--config", str(cfg)]) == 2  # scan reads no angles
    assert capsys.readouterr().err == (
        f"error: need n_angles >= {MIN_ANGLES} to see the ellipse\n")
    cfg.write_text(surface + f"angles = {MIN_ANGLES}\n")
    assert main(["ellipse", "--config", str(cfg), "0.4", "1.1"]) == 0
    capsys.readouterr()


def test_grid_and_quad_sizes_are_capped(tmp_path, monkeypatch, capsys):
    # the largest sizes in use and exactly MAX_POINTS pass; one point more
    # exits 2 with one line while the options are read, before sampling
    for text in ("512x512", "256x512", f"2x{MAX_POINTS // 2}"):
        n1, n2 = _parse_pair(text)
        assert n1 * n2 <= MAX_POINTS
    n1 = next(k for k in range(2, 1000) if (MAX_POINTS + 1) % k == 0)
    past = f"{n1}x{(MAX_POINTS + 1) // n1}"

    def sampled(*args, **kwargs):
        raise AssertionError("an oversized request reached the sampler")

    monkeypatch.setattr(scans, "build_grid", sampled)
    monkeypatch.setattr(scans, "willmore", sampled)
    monkeypatch.setattr(cli, "willmore", sampled)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"surface = whitney-c2\nquad = {past}\n")
    for argv in (["verify", "--surface", "whitney-c2", "--grid", past],
                 ["willmore", "--config", str(cfg)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: {past} is {MAX_POINTS + 1} points, over the cap of "
            f"{MAX_POINTS}\n")


def test_quad_orders_and_angles_are_capped(tmp_path, monkeypatch, capsys):
    # a sphere rule's order is a dense eigenproblem, and each angle is a
    # report row: the caps pass, one more exits 2 with one line while the
    # options are read, from a flag or a config file on any subcommand
    assert _MAX_ORDER == math.isqrt(MAX_POINTS)
    assert _parse_orders(f"{_MAX_ORDER}x2") == (_MAX_ORDER, 2)
    assert _parse_angles(str(_MAX_ANGLES)) == _MAX_ANGLES
    # --grid axes are linspace, so only their product is capped
    assert _parse_pair(f"{_MAX_ORDER + 1}x2") == (_MAX_ORDER + 1, 2)

    def sampled(*args, **kwargs):
        raise AssertionError("an oversized request reached the sampler")

    monkeypatch.setattr(cli, "willmore", sampled)
    monkeypatch.setattr(scans, "willmore", sampled)
    monkeypatch.setattr(cli, "point_geometry", sampled)
    quad, angles = f"{_MAX_ORDER + 1}x2", str(_MAX_ANGLES + 1)
    errors = {
        "quad": f"error: {quad} has an order over the cap of {_MAX_ORDER}\n",
        "angles": f"error: {angles} angles, over the cap of {_MAX_ANGLES}\n"}
    runs = [(["willmore", "--surface", "whitney-c2", "--quad", quad],
             errors["quad"]),
            (["willmore", "--surface", "whitney-c2", "--quad", "2x2049"],
             f"error: 2x2049 has an order over the cap of {_MAX_ORDER}\n"),
            (["verify", "--surface", "whitney-c2", "--quad", quad],
             errors["quad"]),
            (["ellipse", "--surface", "clifford-torus", "--angles", angles,
              "0.4", "1.1"], errors["angles"])]
    for key, value in (("quad", quad), ("angles", angles)):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"surface = whitney-c2\n{key} = {value}\n")
        runs += [([command, "--config", str(cfg)]
                  + (["0.4", "1.1"] if command in ("probe", "ellipse")
                     else []), errors[key]) for command in FLAGS]
    for argv, error in runs:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == error, argv


def test_negative_seed_in_config_file_names_the_option(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("surface = clifford-torus\nseed = -3\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: seed must be a non-negative integer, got '-3'\n")


@pytest.mark.parametrize("argv, sampler", [
    (["scan", "--surface", "whitney-c2", "--grid", "8x8"], "build_grid"),
    (["willmore", "--surface", "whitney-c2", "--quad", "8x8"],
     "sphere_quadrature"),
])
def test_allocation_failure_exits_2_with_one_error_line(argv, sampler,
                                                        monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(scans, sampler, exhausted)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: not enough memory for this grid or quadrature\n")


def test_closed_reader_is_not_an_error():
    # the read end is closed before the CLI writes, so every write to
    # stdout fails with EPIPE, as under `lagsurf scan ... | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lagsurf.cli", "scan", "--surface",
             "whitney-cp2(0.5)", "--grid", "8x8"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, check=False)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_reader_leaving_mid_report_is_not_an_error():
    # the reader takes 10 bytes of a report larger than the pipe's buffer
    # and closes its end, as under `lagsurf ellipse ... | head -c 10`: a
    # write fails with EPIPE midway, and what is still buffered is dropped
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "lagsurf.cli", "ellipse", "--surface",
         "clifford-torus", "--angles", str(_MAX_ANGLES), "0.4", "1.1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        head = proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert head == b'{\n  "surfa'
    assert (proc.returncode, err) == (0, b"")


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_matches_fresh_processes(capsys):
    # the parser is shared by every main call in a process: one call's
    # subcommand and tolerances must not reach the next
    runs = [["probe", "--surface", "clifford-torus",
             "--tol", "circularity=0", "0.4", "1.1"],
            ["verify", "--surface", "clifford-torus", "--grid", "8x8",
             "--quad", "16x16", "--tol", "circularity_routes=1e-9"]]
    in_process = [run_cli(capsys, argv) for argv in runs]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    fresh = []
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "lagsurf.cli", *argv],
                              capture_output=True, text=True, env=env,
                              check=False)
        fresh.append((proc.returncode, proc.stdout))
    assert in_process == fresh


def test_surface_error_comes_before_point_error(capsys):
    assert main(["probe", "--surface", "nope", "2**3", "1"]) == 2
    assert "unknown surface 'nope'" in capsys.readouterr().err


def test_flag_tolerances_merge_over_file_tolerances(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("surface = clifford-torus\ntol = circularity=1e-6\n"
                   "tol = membership=1e-7\n")
    code, out = run_cli(capsys, ["verify", "--config", str(cfg),
                                 "--grid", "8x8", "--quad", "16x16",
                                 "--tol", "membership=1e-8"])
    tol = {check["name"]: check["tol"] for check in json.loads(out)["checks"]}
    assert code == 0
    assert tol["circularity"] == 1e-6 and tol["membership"] == 1e-8

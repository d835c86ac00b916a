"""Command-line front end: catalog listing, pointwise probes, grid
verification, ellipse sampling, energy integrals, and curvature scans.

Every report is deterministic for a fixed configuration: no timestamps,
fixed reduction order, and a fixed random seed for the sampled checks, so
byte-identical reruns are part of the contract.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import math
import operator
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .atlas import build_grid, random_points
from .catalog import FAMILIES, KINDS, SurfaceSpec, validate_params
from .geom import (circularity_route_gap, density_moduli_gap, ellipse_samples,
                   gauss_curvature_intrinsic, point_geometry,
                   product_identity_check, radius_route_gap,
                   scaled_circularity)
from .numerics import TOLERANCES
from .scans import curvature_scan, pinching_report, willmore

_CONFIG_KEYS = ("surface", "t", "s", "r1", "r2", "grid", "quad", "tol",
                "format", "out", "seed", "angles")

class ConfigError(ValueError):
    """The run configuration is malformed (unknown key, bad value)."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved options for one subcommand invocation."""

    surface: str | None = None
    t: float | None = None
    s: float | None = None
    r1: float | None = None
    r2: float | None = None
    grid: tuple[int, int] = (64, 64)
    quad: tuple[int, int] = (128, 256)
    tol: dict[str, float] = field(default_factory=dict)
    format: str = "json"
    out: str | None = None
    seed: int = 0
    angles: int = 64

    def tolerance(self, name: str) -> float:
        return self.tol.get(name, TOLERANCES[name])

    def spec(self) -> SurfaceSpec:
        if self.surface is None:
            raise ConfigError("no surface selected; pass --surface KIND")
        kind, inline = parse_surface_token(self.surface)
        for param in fields(SurfaceSpec)[1:]:  # every field after kind
            value = getattr(self, param.name)
            if value is not None:
                inline[param.name] = value
        spec = SurfaceSpec(kind, **inline)
        validate_params(spec)
        return spec


def parse_surface_token(token: str) -> tuple[str, dict[str, float]]:
    """Split ``kind`` or ``kind(a,b)`` into a kind and keyword parameters."""
    token = token.strip()
    values: list[str] = []
    if token.endswith(")"):
        token, _, tail = token.partition("(")
        token = token.strip()
        values = [part.strip() for part in tail[:-1].split(",") if part.strip()]
    if token == "product-torus":
        token = "product-torus-c2"
    family = FAMILIES.get(token)
    names = family.params if family else ()
    if len(values) > len(names):
        raise ConfigError(
            f"surface {token!r} takes at most {len(names)} parameters")
    params = {name: _parse_number(text) for name, text in zip(names, values)}
    if family is None:
        raise ConfigError(
            f"unknown surface {token!r}; choose one of {', '.join(KINDS)}")
    return token, params


_CONSTANTS = {"pi": math.pi, "e": math.e}
_OPERATORS = {ast.UAdd: operator.pos, ast.USub: operator.neg,
              ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv}


def _arith(node) -> float:
    """Value of a + - * / expression over numbers, pi and e, in floats."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        return _CONSTANTS[node.id]
    op = _OPERATORS.get(type(getattr(node, "op", None)))
    if isinstance(node, ast.UnaryOp) and op is not None:
        return op(_arith(node.operand))
    if isinstance(node, ast.BinOp) and op is not None:
        return op(_arith(node.left), _arith(node.right))
    raise ValueError("unsupported expression")


def _parse_number(text: str) -> float:
    """Parse a finite number, allowing + - * / with pi and e ('pi/3')."""
    try:
        value = _arith(ast.parse(text.strip(), mode="eval").body)
    except (SyntaxError, ValueError, ArithmeticError, RecursionError,
            MemoryError):
        raise ConfigError(f"cannot parse number {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"cannot parse number {text!r}")
    return value


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"expected N1xN2, got {text!r}")
    try:
        n1, n2 = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"expected N1xN2, got {text!r}") from None
    if n1 < 2 or n2 < 2:
        raise ConfigError("grid orders must be at least 2")
    return n1, n2


def _parse_tol(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    name = name.strip()
    if not sep or name not in TOLERANCES:
        known = ", ".join(sorted(TOLERANCES))
        raise ConfigError(f"bad tolerance {text!r}; known names: {known}")
    try:
        return name, float(value)
    except ValueError:
        raise ConfigError(f"bad tolerance value in {text!r}") from None


def read_config_file(path: str) -> dict:
    """Parse a key=value config file; '#' starts a comment."""
    data: dict = {}
    tols: dict[str, float] = {}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        if key == "tol":
            name, tol = _parse_tol(value)
            tols[name] = tol
        elif key in _CONFIG_KEYS:
            data[key] = value
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    if tols:
        data["tol"] = tols
    return data


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file values with command-line flags (flags win)."""
    data: dict = {}
    if getattr(args, "config", None):
        data.update(read_config_file(args.config))
    tols = dict(data.pop("tol", {}))

    converters = {
        "surface": str,
        "t": float, "s": float, "r1": float, "r2": float,
        "grid": _parse_pair, "quad": _parse_pair,
        "format": str, "out": str, "seed": int, "angles": int,
    }
    resolved: dict = {}
    for key, conv in converters.items():
        if key in data:
            try:
                resolved[key] = conv(data[key])
            except ConfigError:
                raise
            except (TypeError, ValueError):
                raise ConfigError(
                    f"bad config value {data[key]!r} for {key!r}") from None
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
    for text in getattr(args, "tol", None) or ():
        name, tol = _parse_tol(text)
        tols[name] = tol
    if resolved.get("format") not in (None, "json", "csv"):
        raise ConfigError("format must be 'json' or 'csv'")
    return RunConfig(tol=tols, **resolved)


# ---------------------------------------------------------------------------
# check construction


def _check(name: str, detail: str, defect: float, cfg: RunConfig,
           tol_name: str | None = None, exceed: bool = False) -> dict:
    """One report row, judged by the tolerance named tol_name or name."""
    tol = cfg.tolerance(tol_name or name)
    defect = float(defect)
    ok = defect > tol if exceed else defect <= tol
    return {"name": name, "detail": detail, "max_defect": defect,
            "tol": tol, "pass": bool(ok)}


def _identity_checks(spec: SurfaceSpec, pg, cfg: RunConfig,
                     n_angles: int) -> list[dict]:
    """The pointwise checks shared by `verify` (on a grid) and `probe`."""
    checks = [
        _check("membership", "lift lies on the model quadric",
               pg.membership, cfg),
        _check("horizontality", "lift tangents are horizontal",
               pg.horizontality, cfg),
        _check("lagrangian", "tangent plane is Lagrangian",
               pg.lagrangian, cfg),
        _check("split_residual", "second derivatives recombine from the split",
               pg.split_residual, cfg),
        _check("position_coeff", "position coefficient matches -g/nu",
               pg.position_defect, cfg),
        _check("fiber_coeff", "no fiber component in second derivatives",
               pg.fiber_defect, cfg),
        _check("c_symmetry", "cubic tensor is fully symmetric",
               pg.c_symmetry_defect, cfg),
        _check("circularity_routes",
               "|D| route agrees with the cubic-tensor expansion",
               circularity_route_gap(pg), cfg),
        _check("density_moduli", "|Hc| = |H| and |F|^2 = c/2 + |H|^2 - 2K",
               density_moduli_gap(pg), cfg),
        _check("product_identity", "F * conj(Hc) matches D up to the Im sign",
               product_identity_check(pg), cfg),
    ]
    scaled = scaled_circularity(pg)
    if not spec.family.circular:
        checks.append(_check(
            "non_circularity",
            "min scaled |D| stays above tol: the ellipse is never a circle",
            float(np.min(scaled)), cfg, exceed=True))
    else:
        checks.append(_check("circularity", "max scaled |D| over the sample",
                             float(np.max(scaled)), cfg))
        checks.append(_check("radius_routes",
                             "R from the invariants matches both sigma routes",
                             radius_route_gap(pg), cfg))
        _, fit = ellipse_samples(pg, n_angles)
        checks.append(_check("ellipse_fit",
                             "sampled curve fits a circle in the normal plane",
                             fit, cfg))
    return checks


def _gauss_check(spec: SurfaceSpec, cfg: RunConfig, chart) -> dict:
    """Intrinsic-vs-extrinsic curvature agreement at seeded random points."""
    rng = np.random.default_rng(cfg.seed)
    a1, a2 = random_points(chart, 200, rng)
    pg = point_geometry(spec, a1, a2, chart=chart)
    k_int = gauss_curvature_intrinsic(spec, a1, a2, chart=chart)
    gap = np.max(np.abs(k_int - pg.K) / (1.0 + np.abs(pg.K)))
    return _check("gauss_routes",
                  "metric-only curvature agrees at 200 seeded points",
                  float(gap), cfg)


def _willmore_payload(rep) -> dict:
    return {
        "integral_h2": rep.integral_h2,
        "area": rep.area,
        "c": rep.c,
        "w": rep.w,
        "chi": rep.chi,
        "defect": rep.defect,
        "orders": list(rep.orders),
    }


# ---------------------------------------------------------------------------
# subcommands


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise ConfigError(
                f"cannot write report {cfg.out!r}: {exc}") from None
    else:
        print(text)


def cmd_list(cfg: RunConfig, args: argparse.Namespace) -> int:
    rows = [{"kind": kind,
             "ambient": family.ambient.model,
             "parameters": list(family.params),
             "chart": family.chart.kind,
             "note": family.note} for kind, family in FAMILIES.items()]
    if getattr(args, "json", False):
        _emit(json.dumps(rows, indent=2), cfg)
        return 0
    width = max(len(r["kind"]) for r in rows)
    lines = []
    for row in rows:
        params = ",".join(row["parameters"]) or "-"
        lines.append(f"{row['kind']:<{width}}  {row['ambient']:<3} "
                     f" params: {params:<6}  {row['note']}")
    _emit("\n".join(lines), cfg)
    return 0


def _probe_point(args: argparse.Namespace):
    a1 = _parse_number(args.a1)
    a2 = _parse_number(args.a2)
    return a1, a2


def _vector_payload(vec: np.ndarray) -> dict:
    return {"re": [float(x) for x in np.real(vec)],
            "im": [float(x) for x in np.imag(vec)]}


def cmd_probe(cfg: RunConfig, args: argparse.Namespace) -> int:
    spec = cfg.spec()
    a1, a2 = _probe_point(args)
    chart = spec.default_chart
    pg = point_geometry(spec, a1, a2, chart=chart)
    checks = _identity_checks(spec, pg, cfg, cfg.angles)
    k_int = gauss_curvature_intrinsic(spec, a1, a2, chart=chart)
    gap = abs(float(k_int) - float(pg.K)) / (1.0 + abs(float(pg.K)))
    checks.append(_check("gauss_routes",
                         "metric-only curvature agrees at the probe point",
                         gap, cfg))
    report = {
        "surface": spec.kind,
        "params": spec.params(),
        "point": [a1, a2],
        "chart": chart.kind,
        "g": [[float(pg.g[..., 0, 0]), float(pg.g[..., 0, 1])],
              [float(pg.g[..., 1, 0]), float(pg.g[..., 1, 1])]],
        "K": float(pg.K),
        "K_intrinsic": float(k_int),
        "H2": float(pg.H2),
        "sigma_sq": float(pg.sigma_sq),
        "R": float(pg.R),
        "D_re": float(np.real(pg.D)),
        "D_im": float(np.imag(pg.D)),
        "F_re": float(np.real(pg.F)),
        "F_im": float(np.imag(pg.F)),
        "F_abs": float(np.abs(pg.F)),
        "Hc_re": float(np.real(pg.Hc)),
        "Hc_im": float(np.imag(pg.Hc)),
        "Hc_abs": float(np.abs(pg.Hc)),
        "C": {"111": float(pg.C[..., 0, 0, 0]),
              "112": float(pg.C[..., 0, 0, 1]),
              "122": float(pg.C[..., 0, 1, 1]),
              "222": float(pg.C[..., 1, 1, 1])},
        "H": _vector_payload(pg.H),
        "e1": _vector_payload(pg.e1),
        "e2": _vector_payload(pg.e2),
        "sigma11": _vector_payload(pg.sigma11),
        "sigma12": _vector_payload(pg.sigma12),
        "sigma22": _vector_payload(pg.sigma22),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    _emit(json.dumps(report, indent=2), cfg)
    return 0 if report["pass"] else 1


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    spec = cfg.spec()
    chart = spec.default_chart
    a1, a2 = build_grid(chart, *cfg.grid)
    pg = point_geometry(spec, a1, a2, chart=chart)
    checks = _identity_checks(spec, pg, cfg, cfg.angles)
    checks.append(_gauss_check(spec, cfg, chart))

    family = spec.family
    k_lo, k_hi = float(np.min(pg.K)), float(np.max(pg.K))
    if family.k_range is not None:
        lo, hi = family.k_range(spec)
        gap = max(lo - k_lo, k_hi - hi, 0.0)
        checks.append(_check("curvature_range",
                             f"K stays inside [{lo:g}, {hi:g}]", gap, cfg))

    report = {
        "surface": spec.kind,
        "params": spec.params(),
        "grid": list(cfg.grid),
        "seed": cfg.seed,
        "checks": checks,
        "K_range": [k_lo, k_hi],
        "R_range": [float(np.min(pg.R)), float(np.max(pg.R))],
    }
    if family.willmore is not None:
        value, tol_name = family.willmore(spec)
        rep = willmore(spec, orders=cfg.quad)
        checks.append(_check(
            "willmore", f"energy integral matches {value:.12g}",
            abs(rep.w - value), cfg, tol_name=tol_name))
        report["willmore"] = _willmore_payload(rep)
    report["pass"] = all(c["pass"] for c in checks)
    _emit(json.dumps(report, indent=2), cfg)
    return 0 if report["pass"] else 1


def cmd_ellipse(cfg: RunConfig, args: argparse.Namespace) -> int:
    spec = cfg.spec()
    a1, a2 = _probe_point(args)
    pg = point_geometry(spec, a1, a2, chart=spec.default_chart)
    samples, fit = ellipse_samples(pg, cfg.angles)
    if cfg.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["theta", "normal1", "normal2",
                         "center1", "center2", "fit_residual"])
        for sample in samples:
            writer.writerow([f"{v:.17g}" for v in
                             (sample.theta,
                              float(sample.normal[..., 0]),
                              float(sample.normal[..., 1]),
                              float(sample.center[..., 0]),
                              float(sample.center[..., 1]),
                              fit)])
        _emit(buffer.getvalue().rstrip("\n"), cfg)
        return 0
    payload = {
        "surface": spec.kind,
        "params": spec.params(),
        "point": [a1, a2],
        "fit_residual": fit,
        "samples": [{
            "theta": sample.theta,
            "normal": [float(sample.normal[..., 0]),
                       float(sample.normal[..., 1])],
            "center": [float(sample.center[..., 0]),
                       float(sample.center[..., 1])],
        } for sample in samples],
    }
    _emit(json.dumps(payload, indent=2), cfg)
    return 0


def cmd_willmore(cfg: RunConfig, args: argparse.Namespace) -> int:
    spec = cfg.spec()
    rep = willmore(spec, orders=cfg.quad)
    payload = {"surface": spec.kind, "params": spec.params()}
    payload.update(_willmore_payload(rep))
    _emit(json.dumps(payload, indent=2), cfg)
    return 0


def cmd_scan(cfg: RunConfig, args: argparse.Namespace) -> int:
    spec = cfg.spec()
    scan = curvature_scan(spec, grid=cfg.grid,
                          circ_tol=cfg.tolerance("circularity"),
                          minimal_tol=cfg.tolerance("minimality"))
    payload = {
        "surface": spec.kind,
        "params": spec.params(),
        "grid": list(scan.grid),
        "compact": scan.compact,
        "K_min": scan.k_min,
        "K_max": scan.k_max,
        "argmin": list(scan.argmin),
        "argmax": list(scan.argmax),
        "argmin_z": scan.argmin_z,
        "argmax_z": scan.argmax_z,
        "R_min": scan.r_min,
        "R_max": scan.r_max,
        "D_max": scan.d_max,
        "D_max_scaled": scan.d_max_scaled,
        "H_max": scan.h_max,
        "circular": scan.circular,
        "minimal": scan.minimal,
        "pinching": pinching_report(scan).splitlines(),
    }
    _emit(json.dumps(payload, indent=2), cfg)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser, point: bool = False) -> None:
    parser.add_argument("--surface", help="kind, or kind(v1,v2)")
    parser.add_argument("--t", type=float, help="family parameter t")
    parser.add_argument("--s", type=float, help="family parameter s")
    parser.add_argument("--r1", type=float, help="first circle radius")
    parser.add_argument("--r2", type=float, help="second circle radius")
    parser.add_argument("--grid", type=_parse_pair, metavar="N1xN2",
                        help="sample grid (default 64x64)")
    parser.add_argument("--quad", type=_parse_pair, metavar="N1xN2",
                        help="quadrature orders (default 128x256)")
    parser.add_argument("--angles", type=int,
                        help="ellipse sample count (default 64)")
    parser.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="override one named tolerance")
    parser.add_argument("--seed", type=int, help="seed for sampled checks")
    parser.add_argument("--format", choices=("json", "csv"),
                        help="output format where both are supported")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--config", help="key=value config file")
    if point:
        parser.add_argument("a1", help="first chart coordinate (pi allowed)")
        parser.add_argument("a2", help="second chart coordinate (pi allowed)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagsurf",
        description="Catalog and verification tools for Lagrangian surfaces "
                    "with prescribed curvature-ellipse shape.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="enumerate the surface catalog")
    p_list.add_argument("--json", action="store_true",
                        help="emit the catalog as JSON")
    _add_common(p_list)
    p_list.set_defaults(func=cmd_list)

    p_probe = sub.add_parser("probe",
                             help="all pointwise invariants at one point")
    _add_common(p_probe, point=True)
    p_probe.set_defaults(func=cmd_probe)

    p_verify = sub.add_parser("verify",
                              help="run the named checks on a sample grid")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_ellipse = sub.add_parser("ellipse",
                               help="sample the curvature ellipse at a point")
    _add_common(p_ellipse, point=True)
    p_ellipse.set_defaults(func=cmd_ellipse)

    p_will = sub.add_parser("willmore",
                            help="energy integral over a closed surface")
    _add_common(p_will)
    p_will.set_defaults(func=cmd_willmore)

    p_scan = sub.add_parser("scan",
                            help="grid extrema of K, R, |D|, |H|")
    _add_common(p_scan)
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.func(cfg, args)
    except ValueError as exc:
        # config, chart-domain, degenerate-point and unsupported-integral
        # errors are all ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

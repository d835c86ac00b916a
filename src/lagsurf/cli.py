"""Command-line front end: catalog listing, pointwise probes, grid
verification, ellipse sampling, energy integrals, and curvature scans.

Every report is deterministic for a fixed configuration: no timestamps,
fixed reduction order, and a fixed random seed for the sampled checks, so
byte-identical reruns are part of the contract.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import math
import operator
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .catalog import FAMILIES, KINDS, SurfaceSpec
from .geom import MIN_ANGLES, ellipse_samples, point_geometry
from .numerics import TOLERANCES
from .scans import (ScanReport, curvature_scan, pinching_report, probe_report,
                    verify_report, willmore, willmore_fields)


class ConfigError(ValueError):
    """The run configuration is malformed (unknown key, bad value)."""


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


def _is_number(text: str) -> bool:
    try:
        _parse_number(text)
    except ConfigError:
        return False
    return True


def parse_surface(text: str) -> SurfaceSpec:
    """The surface that ``kind`` or ``kind(v1,v2)`` names, each parameter
    not given at its default; a domain error keeps the spec's message."""
    token = text.strip()
    values: list[str] = []
    if token.endswith(")"):
        kind, _, tail = token.partition("(")
        values = [part.strip() for part in tail[:-1].split(",")]
        if "" in values and values != [""]:  # a bare kind() is allowed
            raise ConfigError(f"empty parameter slot in surface {token!r}")
        token, values = kind.strip(), [part for part in values if part]
    token = next((k for k, f in FAMILIES.items() if token == f.alias), token)
    if token not in FAMILIES:
        raise ConfigError(
            f"unknown surface {token!r}; choose one of {', '.join(KINDS)}")
    family = FAMILIES[token]
    if len(values) > len(family.params):
        raise ConfigError(
            f"surface {token!r} takes at most {len(family.params)} parameters")
    params = dict(family.defaults) | {
        name: _parse_number(part) for name, part in zip(family.params, values)}
    try:
        return SurfaceSpec(token, **params)
    except ValueError as exc:
        raise ConfigError(*exc.args) from None


# most points one --grid or --quad may ask for: verify takes about a
# microsecond a point, so a run stays at seconds, never hours
MAX_POINTS = 1 << 22
# highest --quad order: a sphere rule's Gauss-Legendre nodes solve a dense
# eigenproblem of that order, which takes seconds and gigabytes past this
_MAX_ORDER = math.isqrt(MAX_POINTS)
# most angles ellipse may sample: its report takes about 200 bytes an angle
_MAX_ANGLES = 1 << 16


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        n1, n2 = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"expected N1xN2, got {text!r}") from None
    if n1 < 2 or n2 < 2:
        raise ConfigError("grid orders must be at least 2")
    if n1 * n2 > MAX_POINTS:
        raise ConfigError(f"{n1}x{n2} is {n1 * n2} points, over the cap of "
                          f"{MAX_POINTS}")
    return n1, n2


def _parse_orders(text: str) -> tuple[int, int]:
    n1, n2 = _parse_pair(text)
    if max(n1, n2) > _MAX_ORDER:
        raise ConfigError(f"{n1}x{n2} has an order over the cap of "
                          f"{_MAX_ORDER}")
    return n1, n2


def _parse_tol(text: str) -> dict[str, float]:
    name, sep, value = text.partition("=")
    name = name.strip()
    if not sep or name not in TOLERANCES:
        known = ", ".join(sorted(TOLERANCES))
        raise ConfigError(f"bad tolerance {text!r}; known names: {known}")
    try:
        tol = float(value)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:  # finite and non-negative; nan fails
        raise ConfigError(f"bad tolerance value in {text!r}")
    return {name: tol}


def _parse_angles(text: str) -> int:
    count = int(text)
    if count < MIN_ANGLES:
        raise ConfigError(f"need n_angles >= {MIN_ANGLES} to see the ellipse")
    if count > _MAX_ANGLES:
        raise ConfigError(f"{count} angles, over the cap of {_MAX_ANGLES}")
    return count


def _parse_seed(text: str) -> int:
    if int(text) < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _parse_format(text: str) -> str:
    if text not in ("json", "csv"):
        raise ConfigError("format must be 'json' or 'csv'")
    return text


@dataclass(frozen=True)
class Option:
    """One ``--name`` flag, also a config-file key unless ``convert`` is
    None (an on/off switch).  ``default`` is text converted like a given
    value (None: unset); the entries of a ``repeat`` option merge by name."""

    convert: Callable[[str], object] | None
    default: str | None
    help: str
    metavar: str | None = None
    repeat: bool = False


OPTIONS = {
    "surface": Option(parse_surface, None, "kind, or kind(v1,v2)"),
    "grid": Option(_parse_pair, "64x64", "sample grid", "N1xN2"),
    "quad": Option(_parse_orders, "128x256", "quadrature orders", "N1xN2"),
    "angles": Option(_parse_angles, "64", "ellipse sample count"),
    "tol": Option(_parse_tol, None, "override one named tolerance",
                  "NAME=VALUE", repeat=True),
    "seed": Option(_parse_seed, "0", "seed for sampled checks"),
    "format": Option(_parse_format, "json", "output format, json or csv"),
    "out": Option(str, None, "write the report to this path"),
    "json": Option(None, None, "emit the catalog as JSON"),
}


def _convert(name: str, text: str):
    try:
        return OPTIONS[name].convert(text)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"bad value {text!r} for {name!r}") from None


def read_config_file(path: str) -> list[tuple[str, object]]:
    """(key, converted value) per line of a key=value config file ('#' starts
    a comment); every line is checked, whichever subcommand runs."""
    pairs = []
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
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
        if key not in OPTIONS or OPTIONS[key].convert is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        pairs.append((key, _convert(key, value)))
    return pairs


def resolve_config(args: argparse.Namespace) -> SimpleNamespace:
    """The options the subcommand reads: the table default, then the config
    file, then the flags.  Later values win; tolerances merge by name, over
    the library's table.  The surface comes back as ``spec``."""
    command = COMMANDS[args.command]
    given = read_config_file(args.config) if args.config else []
    values = {}
    for name in command.options:
        opt = OPTIONS[name]
        if opt.convert is None:
            values[name] = getattr(args, name)
            continue
        values[name] = {} if opt.repeat else (
            None if opt.default is None else _convert(name, opt.default))
        given += [(name, _convert(name, text))
                  for text in getattr(args, name) or ()]
    for name, value in given:
        if name in values:
            values[name] = (values[name] | value if OPTIONS[name].repeat
                            else value)
    if "surface" in values:
        values["spec"] = values.pop("surface")
        if values["spec"] is None:
            raise ConfigError("no surface selected; pass --surface KIND")
    if "tol" in values:
        values["tol"] = TOLERANCES | values["tol"]
    if command.point:
        values["point"] = (_parse_number(args.a1), _parse_number(args.a2))
    return SimpleNamespace(**values)


# ---------------------------------------------------------------------------
# subcommands


def _emit(text: str, cfg: SimpleNamespace) -> None:
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise ConfigError(
                f"cannot write report {cfg.out!r}: {exc}") from None
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader left: what is still buffered goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_list(cfg: SimpleNamespace) -> int:
    rows = [{"kind": kind,
             "ambient": family.ambient.model,
             "parameters": list(family.params),
             "chart": family.chart.kind,
             "note": family.note} for kind, family in FAMILIES.items()]
    if cfg.json:
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


def cmd_probe(cfg: SimpleNamespace) -> int:
    report = probe_report(cfg.spec, *cfg.point, tol=cfg.tol)
    _emit(json.dumps(report, indent=2), cfg)
    return 0 if report["pass"] else 1


def cmd_verify(cfg: SimpleNamespace) -> int:
    report = verify_report(cfg.spec, grid=cfg.grid, quad=cfg.quad,
                           tol=cfg.tol, seed=cfg.seed)
    _emit(json.dumps(report, indent=2), cfg)
    return 0 if report["pass"] else 1


def cmd_ellipse(cfg: SimpleNamespace) -> int:
    spec = cfg.spec
    pg = point_geometry(spec, *cfg.point)
    ellipse = ellipse_samples(pg)
    theta, normals = ellipse.samples(cfg.angles)
    # (theta, normal1, normal2) per row of a template holding the constants;
    # the geometry's non-finite gate keeps NaN and Infinity out
    samples = zip(theta.tolist(), *normals.T.tolist())
    center = ellipse.center.tolist()
    fit = float(ellipse.fit_residual)
    if cfg.format == "csv":
        # csv.writer's rows: no .17g cell needs quoting
        row = "%.17g,%.17g,%.17g," + ",".join(
            f"{v:.17g}" for v in (*center, fit))
        _emit("\n".join(["theta,normal1,normal2,center1,center2,"
                         "fit_residual"] + [row % s for s in samples]), cfg)
        return 0
    # json.dumps(payload, indent=2), the samples written after the header
    head = json.dumps({"surface": spec.kind, "params": spec.params(),
                       "point": list(cfg.point), "fit_residual": fit},
                      indent=2)
    row = ('    {\n      "theta": %r,\n      "normal": [\n        %r,\n'
           '        %r\n      ],\n      "center": [\n        '
           + ",\n        ".join(map(repr, center)) + "\n      ]\n    }")
    _emit(head[:-2] + ',\n  "samples": [\n'
          + ",\n".join(row % s for s in samples) + "\n  ]\n}", cfg)
    return 0


def cmd_willmore(cfg: SimpleNamespace) -> int:
    spec = cfg.spec
    rep = willmore(spec, orders=cfg.quad)
    payload = {"surface": spec.kind, "params": spec.params(),
               **willmore_fields(rep)}
    _emit(json.dumps(payload, indent=2), cfg)
    return 0


def cmd_scan(cfg: SimpleNamespace) -> int:
    spec = cfg.spec
    scan = curvature_scan(spec, grid=cfg.grid,
                          circ_tol=cfg.tol["circularity"],
                          minimal_tol=cfg.tol["minimality"])
    payload = {"surface": spec.kind, "params": spec.params(),
               **{f.name: getattr(scan, f.name)
                  for f in fields(ScanReport)[1:]},  # every field after spec
               "pinching": pinching_report(scan).splitlines()}
    _emit(json.dumps(payload, indent=2), cfg)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@dataclass(frozen=True)
class Command:
    """A subcommand: handler, help line, the options it reads, and whether
    it takes a chart point (two positional coordinates)."""

    run: Callable[[SimpleNamespace], int]
    help: str
    options: tuple[str, ...]
    point: bool = False


COMMANDS = {
    "list": Command(cmd_list, "enumerate the surface catalog",
                    ("json", "out")),
    "probe": Command(cmd_probe, "all pointwise invariants at one point",
                     ("surface", "tol", "out"), point=True),
    "verify": Command(cmd_verify, "run the named checks on a sample grid",
                      ("surface", "grid", "quad", "tol", "seed", "out")),
    "ellipse": Command(cmd_ellipse, "sample the curvature ellipse at a point",
                       ("surface", "angles", "format", "out"), point=True),
    "willmore": Command(cmd_willmore, "energy integral over a closed surface",
                        ("surface", "quad", "out")),
    "scan": Command(cmd_scan, "grid extrema of K, R, |D|, |H|",
                    ("surface", "grid", "tol", "out")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with exactly the flags it reads; every
    value is collected as text and converted by ``resolve_config``.  Built
    on the first call and reused: parsing leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="lagsurf",
        description="Catalog and verification tools for Lagrangian surfaces "
                    "with prescribed curvature-ellipse shape.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # whole flag names only: a prefix would read --t as --tol
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for key in command.options:
            opt = OPTIONS[key]
            shown = "" if opt.default is None else f" (default {opt.default})"
            kind = ({"action": "store_true"} if opt.convert is None else
                    {"action": "append", "metavar": opt.metavar})
            p.add_argument(f"--{key}", help=opt.help + shown, **kind)
        p.add_argument("--config", help="key=value config file")
        if command.point:
            p.add_argument("a1", help="first chart coordinate (pi allowed)")
            p.add_argument("a2", help="second chart coordinate (pi allowed)")
            # argparse reads -0.5 as a number but -1e-3 and -pi/3 as flags;
            # here a '-' token is a coordinate if _parse_number takes it
            p._negative_number_matcher = SimpleNamespace(match=_is_number)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        # what numpy would warn of (not what a caller ignores) is an error:
        # past the library's own gates, double precision ran out
        with np.errstate(**{kind: "raise" for kind, mode
                            in np.geterr().items() if mode == "warn"}):
            return COMMANDS[args.command].run(cfg)
    except ValueError as exc:
        # config, chart-domain, degenerate-point and unsupported-integral
        # errors are all ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: precision exhausted at {cfg.spec.label()}: {exc}",
              file=sys.stderr)
        return 2
    except MemoryError:
        print("error: not enough memory for this grid or quadrature",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

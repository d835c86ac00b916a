"""Seeded inputs for the benchmark workloads.

The benchmark draws every input from ``random.Random(seed)``; the program
only ever sees the generated argv.  Family facts needed to judge a report
(declared parameter domains, closed-form Gauss curvature ranges and
Willmore energies) are written down here from the paper's catalog, so the
check is independent of the program's own tables.  Tolerances are the
program's: ``lagsurf.cli.TOLERANCES`` (see checks.py).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class Family:
    """One catalog member as the benchmark drives and judges it.

    ``interior`` holds one (lo, hi) range per parameter for the timed
    draws.  ``edges`` holds bands next to each edge of the declared domain
    (for an unbounded side, a band far out along it); each band is one
    draw of every parameter.  ``chart_box`` bounds seeded probe points well
    inside the default chart.
    """

    token: str
    interior: tuple[tuple[float, float], ...]
    edges: tuple[tuple[tuple[float, float], ...], ...]
    chart_box: tuple[tuple[float, float], tuple[float, float]]
    k_range: Callable[..., tuple[float, float]] | None
    willmore: Callable[..., tuple[float, str]] | None
    circular: bool = True

    def surface(self, params: tuple[float, ...]) -> str:
        if not params:
            return self.token
        return f"{self.token}({','.join(f'{p:.6g}' for p in params)})"


def _sphere_w(*_params):
    return 8.0 * math.pi, "willmore"


SPHERE_BOX = ((0.1, math.pi - 0.1), (0.0, TAU))
TORUS_BOX = ((0.0, TAU), (0.0, TAU))

# Declared domains: whitney-cp2 t >= 0, whitney-ch2 t > 0,
# psi-ch2 0 <= s < pi/4, product-torus r1, r2 > 0.  The timed draws stay
# inside the part of each domain where every check passes at the seed
# commit, so a timed call never fails and its cost does not depend on a
# rejection path; the edge bands are run and reported on every run.
FAMILIES: tuple[Family, ...] = (
    Family("whitney-c2", (), (), SPHERE_BOX,
           lambda: (0.0, 1.0), _sphere_w),
    Family("whitney-cp2", ((0.05, 3.0),),
           (((0.0, 0.01),), ((8.0, 16.0),)), SPHERE_BOX,
           lambda t: (1.0, 1.0 + 2.0 * math.sinh(t) ** 2), _sphere_w),
    Family("whitney-ch2", ((0.25, 3.0),),
           (((0.005, 0.08),), ((8.0, 16.0),)), SPHERE_BOX,
           lambda t: (-1.0, -1.0 + 2.0 * math.cosh(t) ** 2), _sphere_w),
    Family("totally-geodesic-cp2", (), (), SPHERE_BOX,
           lambda: (1.0, 1.0), _sphere_w),
    Family("psi-ch2", ((0.02, 0.7),),
           (((0.0, 0.01),), ((0.76, 0.785),)), ((0.3, 4.5), (0.0, TAU)),
           None, None),
    Family("eta-ch2", (), (), ((-2.5, 2.5), (-2.5, 2.5)), None, None),
    Family("clifford-torus", (), (), TORUS_BOX, lambda: (0.0, 0.0), None),
    Family("product-torus", ((0.5, 3.0), (0.5, 3.0)),
           (((0.005, 0.2), (0.005, 0.2)), ((12.0, 100.0), (12.0, 100.0))),
           TORUS_BOX, lambda r1, r2: (0.0, 0.0),
           lambda r1, r2: (math.pi ** 2 * (r1 / r2 + r2 / r1),
                           "willmore_torus"),
           circular=False),
)
BY_TOKEN = {f.token: f for f in FAMILIES}


@dataclass(frozen=True)
class Call:
    """One generated CLI invocation and what the checks need to judge it."""

    argv: tuple[str, ...]
    family: str
    params: tuple[float, ...]
    points: int

    @property
    def command(self) -> str:
        return self.argv[0]


# Grid and quadrature sizes per subcommand: timed runs use "full", the
# benchmark's own tests "smoke", and the edge bands "edge".
SIZES = {
    "verify": {"full": ("64x64", "128x256"), "smoke": ("16x16", "64x128"),
               "edge": ("32x32", "128x256")},
    "scan": {"full": "512x512", "smoke": "32x32", "edge": "32x32"},
    "willmore": {"full": "256x512", "smoke": "64x128", "edge": "64x128"},
}


def _pair_points(text: str) -> int:
    n1, n2 = text.split("x")
    return int(n1) * int(n2)


def requested_points(argv) -> int:
    """Chart points requested on the command line.

    Grid n1*n2 plus quadrature n1*n2 where given, 1 for a point call.  This
    counts inputs, never internals, so it means the same at every commit.
    """
    argv = list(argv)
    if argv and argv[0] in ("probe", "ellipse"):
        return 1
    return sum(_pair_points(argv[i + 1]) for i, a in enumerate(argv[:-1])
               if a in ("--grid", "--quad"))


def _draw(rng: random.Random, ranges) -> tuple[float, ...]:
    return tuple(float(f"{rng.uniform(lo, hi):.6g}") for lo, hi in ranges)


def _call(argv: list[str], family: Family, params) -> Call:
    return Call(tuple(argv), family.token, params, requested_points(argv))


def _verify(family, params, size, rng) -> Call:
    grid, quad = size
    return _call(["verify", "--surface", family.surface(params),
                  "--grid", grid, "--quad", quad,
                  "--seed", str(rng.randrange(1000))], family, params)


def _point_calls(family, params, rng) -> list[Call]:
    (lo1, hi1), (lo2, hi2) = family.chart_box
    point = [f"{rng.uniform(lo1, hi1):.6f}", f"{rng.uniform(lo2, hi2):.6f}"]
    return [_call([cmd, "--surface", family.surface(params)] + point,
                  family, params) for cmd in ("probe", "ellipse")]


def _scan(family, params, size) -> Call:
    return _call(["scan", "--surface", family.surface(params),
                  "--grid", size], family, params)


def _willmore(family, params, size) -> Call:
    return _call(["willmore", "--surface", family.surface(params),
                  "--quad", size], family, params)


def _verify_catalog(rng, size) -> Iterator[list[Call]]:
    while True:
        yield [_verify(f, _draw(rng, f.interior), size["verify"], rng)
               for f in FAMILIES]


def _probe_points(rng, size) -> Iterator[list[Call]]:
    for family in itertools.cycle(FAMILIES):
        yield _point_calls(family, _draw(rng, family.interior), rng)


# One scan-large op audits one surface: a scan and an energy integral of
# the same lifted sphere family, so every op does about the same work.
_SCAN_FAMILIES = (BY_TOKEN["whitney-cp2"], BY_TOKEN["whitney-ch2"])


def _scan_large(rng, size) -> Iterator[list[Call]]:
    for family in itertools.cycle(_SCAN_FAMILIES):
        params = _draw(rng, family.interior)
        yield [_scan(family, params, size["scan"]),
               _willmore(family, params, size["willmore"])]


def _edge_calls(workload: str, rng) -> list[Call]:
    calls: list[Call] = []
    for family in FAMILIES:
        for band in family.edges:
            params = _draw(rng, band)
            if workload == "verify-catalog":
                calls.append(_verify(family, params,
                                     SIZES["verify"]["edge"], rng))
            elif workload == "probe-points":
                calls.extend(_point_calls(family, params, rng))
            else:
                calls.append(_scan(family, params, SIZES["scan"]["edge"]))
                if family.willmore is not None:
                    calls.append(_willmore(family, params,
                                           SIZES["willmore"]["edge"]))
    return calls


@dataclass(frozen=True)
class Workload:
    """A workload: why it exists, how it runs, and what it must reach."""

    why: str
    groups: Callable
    in_process: bool
    reaches: tuple[str, ...]


# verify-catalog is runnable but not in BENCHMARK.json: its batches live in
# the last-level cache, which other tenants of a shared machine also use,
# so its rate swings by a fifth between runs minutes apart.  The layers it
# reaches are all reached by probe-points or scan-large as well.
WORKLOADS = {
    "verify-catalog": Workload(
        "full check suite on every catalog member at the golden settings: "
        "mid-size batches where the frame split dominates",
        _verify_catalog, True,
        ("cli.main", "scans.willmore", "geom.point_geometry",
         "geom.geometry_from_jet", "geom.ellipse_samples",
         "geom.gauss_curvature_intrinsic", "geom.identity_gaps",
         "catalog.lift_at", "atlas.coords", "atlas.sampling",
         "ambient.second_form_split", "ambient.lift_defects")),
    "probe-points": Workload(
        "single-point probe and ellipse calls: per-call overhead dominates, "
        "the control that batched-kernel changes must leave flat",
        _probe_points, True,
        ("cli.main", "geom.point_geometry", "geom.geometry_from_jet",
         "geom.ellipse_samples", "geom.gauss_curvature_intrinsic",
         "geom.identity_gaps", "catalog.lift_at", "atlas.coords",
         "ambient.second_form_split", "ambient.lift_defects")),
    "scan-large": Workload(
        "scan and willmore on grids larger than the last-level cache, one "
        "fresh CLI process per call: memory-bound, every call pays start-up",
        _scan_large, False,
        ("cli.main", "scans.curvature_scan", "scans.willmore",
         "geom.point_geometry", "geom.geometry_from_jet", "catalog.lift_at",
         "atlas.coords", "atlas.sampling", "ambient.second_form_split",
         "ambient.lift_defects")),
}


def calls(workload: str, seed: int, smoke: bool = False,
          edges: bool = False) -> Iterator[tuple[int, Call]]:
    """Seeded (op index, call) pairs; a timed run stops only between ops.

    An op is one user action: a catalog pass, one point probed and its
    ellipse sampled, or one surface scanned and integrated.  The edge
    bands give one op per call and end; the timed workloads never end.
    """
    if edges:
        rng = random.Random(f"{workload}/edges/{seed}")
        yield from enumerate(_edge_calls(workload, rng))
        return
    rng = random.Random(f"{workload}/{seed}")
    size = {cmd: s["smoke" if smoke else "full"] for cmd, s in SIZES.items()}
    for index, group in enumerate(WORKLOADS[workload].groups(rng, size)):
        for call in group:
            yield index, call

"""Grid scans and global functionals: curvature ranges, Willmore energy,
radius pinching.

These audit the classification statements on the catalog: they never prove
anything, they measure the hypotheses and conclusions on sampled grids and
report consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atlas import build_grid, sphere_quadrature, torus_quadrature
from .catalog import SurfaceSpec
from .geom import point_geometry, scaled_circularity
from .numerics import TOLERANCES

PINCH_THRESHOLD = 1.0 / math.sqrt(2.0)
# grid round-off allowed below the threshold, and above K = 0 for "flat"
_PINCH_SLACK = 1e-8
# points per point_geometry call on a grid: a tile's temporaries stay in
# cache, and memory holds only the per-point scalars the reductions read
_CHUNK = 4096
# grid points whose K lies within this fraction of the sizes of its
# summands of an extreme tie with it: round-off spreads measured over the
# catalog stay under 2**-33 up to psi-ch2(0.78); at s = 0.784, next to that
# family's domain edge, ties and distinct values both come near 2**-31
_K_TIE = 2.0 ** -32


def grid_geometry(spec: SurfaceSpec, axis1, axis2):
    """(flat slice, point_geometry) over tiles of whole rows of the grid
    axis1 x axis2, at most _CHUNK points each (a longer row goes in
    pieces), each evaluated on its axes (rows, 1) x (1, cols)."""
    n2 = np.size(axis2)
    step = max(1, _CHUNK // n2)
    for i in range(0, np.size(axis1), step):
        for j in range(0, n2, _CHUNK):
            a1, a2 = axis1[i:i + step, None], axis2[None, j:j + _CHUNK]
            start = i * n2 + j
            yield (slice(start, start + a1.size * a2.size),
                   point_geometry(spec, a1, a2))


def _first_tied(k, h, c: float, i: int) -> int:
    """The first grid index whose K ties with K[i] (see _K_TIE), searched
    chunk by chunk.  K = c/4 + 2|H|^2 - |sigma|^2/2 gives the sizes of its
    summands from K and |H| alone."""
    def size(s):
        h2 = 2.0 * h[s] ** 2
        return abs(c) / 4.0 + h2 + np.abs(c / 4.0 + h2 - k[s])

    for start in range(0, k.size, _CHUNK):
        s = slice(start, start + _CHUNK)
        tied = np.abs(k[s] - k[i]) <= _K_TIE * (size(s) + size(i))
        if np.any(tied):
            return s.start + int(np.argmax(tied))
    return i


class UnsupportedDomainError(ValueError):
    """Raised for global integrals the surface's domain cannot support."""


@dataclass(frozen=True)
class ScanReport:
    """Grid aggregate of the pointwise invariants of one surface."""

    spec: SurfaceSpec
    grid: tuple[int, int]
    compact: bool
    k_min: float
    k_max: float
    argmin: tuple[float, float]
    argmax: tuple[float, float]
    argmin_z: float | None
    argmax_z: float | None
    r_min: float
    r_max: float
    d_max: float
    d_max_scaled: float
    h_max: float
    circular: bool
    minimal: bool


def curvature_scan(spec: SurfaceSpec, grid=(64, 64),
                   circ_tol=TOLERANCES["circularity"],
                   minimal_tol=TOLERANCES["minimality"]) -> ScanReport:
    """Sample the invariants over a chart grid and aggregate the extremes.

    The curvature arg-extrema come back as chart points, plus the sphere
    height z where the chart has one — the catalog's extremum structure is
    expressed in z.  Each is the first grid point whose K ties with the
    extreme (see _K_TIE).
    """
    compact = spec.family.chi is not None
    chart = spec.chart
    n1, n2 = grid
    axis1, axis2 = build_grid(chart, n1, n2)
    # K and |H| per point for the tie search; the rest reduce per tile
    k, h = np.empty((2, n1 * n2))
    r_min, r_max, d_max, d_max_scaled = math.inf, -math.inf, 0.0, 0.0
    for s, pg in grid_geometry(spec, axis1, axis2):
        k[s], h[s] = pg.K.ravel(), np.sqrt(np.clip(pg.H2, 0.0, None)).ravel()
        r_min, r_max = min(r_min, np.min(pg.R)), max(r_max, np.max(pg.R))
        d_max = max(d_max, np.max(np.abs(pg.D)))
        d_max_scaled = max(d_max_scaled, np.max(scaled_circularity(pg)))

    j_min, j_max = int(np.argmin(k)), int(np.argmax(k))
    i_min, i_max = (_first_tied(k, h, spec.ambient.c, j)
                    for j in (j_min, j_max))
    # chart points and heights are read at the two extrema only
    rows, cols = np.divmod([i_min, i_max], n2)
    p1, p2 = axis1[rows], axis2[cols]
    z = chart.height(p1, p2) if hasattr(chart, "height") else None
    h_max, d_max_scaled = float(np.max(h)), float(d_max_scaled)

    return ScanReport(
        spec=spec, grid=(n1, n2), compact=compact,
        k_min=float(k[j_min]), k_max=float(k[j_max]),
        argmin=(float(p1[0]), float(p2[0])),
        argmax=(float(p1[1]), float(p2[1])),
        argmin_z=None if z is None else float(z[0]),
        argmax_z=None if z is None else float(z[1]),
        r_min=float(r_min), r_max=float(r_max),
        d_max=float(d_max), d_max_scaled=d_max_scaled,
        h_max=h_max,
        circular=bool(d_max_scaled <= circ_tol),
        minimal=bool(h_max <= minimal_tol))


@dataclass(frozen=True)
class WillmoreReport:
    """The Willmore-type energy W = int |H|^2 dA + (c/2) Area."""

    spec: SurfaceSpec
    integral_h2: float
    area: float
    c: float
    w: float
    chi: int
    defect: float
    orders: tuple[int, int]


def willmore(spec: SurfaceSpec, orders=(128, 256)) -> WillmoreReport:
    """Integrate the Willmore energy over a compact catalog surface.

    Sphere-domain surfaces use Gauss-Legendre x trapezoid (all nodes away
    from the poles); the flat product torus uses the periodic trapezoid
    rule.  The defect reported is |W - 4 pi chi|, which the energy bound
    turns into an equality exactly for the Whitney-type spheres.
    """
    family = spec.family
    if family.quadrature is None:
        raise UnsupportedDomainError(
            f"{spec.kind}: noncompact domain has no Willmore integral here"
            if family.chi is None else
            f"{spec.kind}: the angle parametrization covers its projected "
            "image more than once, so the plain integral over-counts")
    # built per call, so rebinding the module-level names (bench tracing)
    # reaches every rule
    rules = {"sphere": sphere_quadrature, "torus": torus_quadrature}
    rule = rules[family.quadrature](*orders)

    area_element, h2 = np.empty((2, rule.weights.size))
    for s, pg in grid_geometry(spec, rule.nodes1, rule.nodes2):
        det = pg.g[..., 0, 0] * pg.g[..., 1, 1] - pg.g[..., 0, 1] ** 2
        area_element[s], h2[s] = np.sqrt(det).ravel(), pg.H2.ravel()
    area = float(np.sum(rule.weights * area_element))
    integral_h2 = float(np.sum(rule.weights * h2 * area_element))
    w = integral_h2 + spec.ambient.c / 2.0 * area
    return WillmoreReport(spec=spec, integral_h2=integral_h2, area=area,
                          c=spec.ambient.c, w=w, chi=family.chi,
                          defect=abs(w - 4.0 * math.pi * family.chi),
                          orders=orders)


def pinching_hypothesis(scan: ScanReport) -> bool:
    """Whether the scanned surface satisfies: compact, circular ellipse,
    and radius >= 1/sqrt(2) grid-wide (up to round-off)."""
    return (scan.compact and scan.circular
            and scan.r_min >= PINCH_THRESHOLD - _PINCH_SLACK)


def pinching_report(scan: ScanReport) -> str:
    """Human-readable audit of the radius-pinching classification.

    States whether the hypothesis (compact + circular + R >= 1/sqrt(2))
    holds on the sampled grid, whether the flat minimal route applies, and
    whether the outcome agrees with the catalog ground truth, where the
    minimal flat torus is the only member expected to pass.
    """
    holds = pinching_hypothesis(scan)
    expected = scan.spec.kind == "clifford-torus"
    lines = [
        f"surface: {scan.spec.label()}   grid: {scan.grid[0]}x{scan.grid[1]}",
        f"compact: {scan.compact}   circular: {scan.circular} "
        f"(max scaled |D| = {scan.d_max_scaled:.3e})",
        f"R range: [{scan.r_min:.9f}, {scan.r_max:.9f}]   "
        f"threshold 1/sqrt(2) = {PINCH_THRESHOLD:.9f}",
        f"pinching hypothesis (compact, circular, R >= threshold - "
        f"{_PINCH_SLACK:g}):"
        f" {'holds' if holds else 'fails'}",
        f"minimal: {scan.minimal} (max |H| = {scan.h_max:.3e})   "
        f"K range: [{scan.k_min:.9f}, {scan.k_max:.9f}]",
    ]
    if holds and scan.minimal and scan.k_max <= _PINCH_SLACK:
        lines.append("flat minimal case: surface matches the pinched "
                     "classification target")
    agree = holds == expected
    lines.append("catalog ground truth: "
                 + ("consistent" if agree else "INCONSISTENT")
                 + f" (this kind is {'' if expected else 'not '}expected "
                 f"to satisfy the hypothesis)")
    return "\n".join(lines)

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
# points per point_geometry call in scans: a chunk's temporaries stay in
# cache, and memory holds only the per-point scalars the reductions read
_CHUNK = 4096


def _chunks(n: int):
    return (slice(i, i + _CHUNK) for i in range(0, n, _CHUNK))


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
                   circ_tol: float | None = None,
                   minimal_tol: float | None = None) -> ScanReport:
    """Sample the invariants over a chart grid and aggregate the extremes.

    The curvature arg-extrema come back as chart points, plus the sphere
    height z where the chart has one — the catalog's extremum structure is
    expressed in z.  Unset tolerances come from TOLERANCES.
    """
    if circ_tol is None:
        circ_tol = TOLERANCES["circularity"]
    if minimal_tol is None:
        minimal_tol = TOLERANCES["minimality"]
    compact = spec.family.chi is not None
    chart = spec.default_chart
    n1, n2 = grid
    a1, a2 = build_grid(chart, n1, n2)
    k, r, d_abs, d_scaled, h = np.empty((5, a1.size))
    for s in _chunks(a1.size):
        pg = point_geometry(spec, a1[s], a2[s], chart=chart)
        k[s], r[s], d_abs[s] = pg.K, pg.R, np.abs(pg.D)
        d_scaled[s] = scaled_circularity(pg)
        h[s] = np.sqrt(np.clip(pg.H2, 0.0, None))

    i_min, i_max = int(np.argmin(k)), int(np.argmax(k))
    # the height is read at the two extrema only
    ends = [i_min, i_max]
    z = chart.height(a1[ends], a2[ends]) if hasattr(chart, "height") else None
    h_max, d_max_scaled = float(np.max(h)), float(np.max(d_scaled))

    return ScanReport(
        spec=spec, grid=(n1, n2), compact=compact,
        k_min=float(k[i_min]), k_max=float(k[i_max]),
        argmin=(float(a1[i_min]), float(a2[i_min])),
        argmax=(float(a1[i_max]), float(a2[i_max])),
        argmin_z=None if z is None else float(z[0]),
        argmax_z=None if z is None else float(z[1]),
        r_min=float(np.min(r)), r_max=float(np.max(r)),
        d_max=float(np.max(d_abs)), d_max_scaled=d_max_scaled,
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
    for s in _chunks(rule.weights.size):
        pg = point_geometry(spec, rule.nodes1[s], rule.nodes2[s])
        det = pg.g[..., 0, 0] * pg.g[..., 1, 1] - pg.g[..., 0, 1] ** 2
        area_element[s], h2[s] = np.sqrt(det), pg.H2
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

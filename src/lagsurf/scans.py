"""Grid scans, global functionals and the check reports: curvature ranges,
Willmore energy, radius pinching, and the rows of probe and verify.

These audit the classification statements on the catalog: they never prove
anything, they measure the hypotheses and conclusions on sampled grids and
report consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .ambient import split_defects
from .atlas import (build_grid, random_points, sphere_quadrature,
                    torus_quadrature)
from .catalog import SurfaceSpec, lift_at
from .geom import (c_symmetry_gap, circularity_route_gap, density_moduli_gap,
                   ellipse_samples, gauss_curvature_intrinsic,
                   geometry_from_jet, point_geometry, product_identity_check,
                   radius_route_gap, scaled_circularity, split_geometry,
                   tangent_frame)
from .numerics import TOLERANCES, Jet3, apply_J

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


def grid_tiles(axis1, axis2):
    """(flat slice, a1, a2) over tiles of whole rows of the grid axis1 x
    axis2, at most _CHUNK points each (a longer row goes in pieces), each
    given as its axes (rows, 1) x (1, cols) to evaluate it on."""
    n2 = np.size(axis2)
    step = max(1, _CHUNK // n2)
    for i in range(0, np.size(axis1), step):
        for j in range(0, n2, _CHUNK):
            a1, a2 = axis1[i:i + step, None], axis2[None, j:j + _CHUNK]
            start = i * n2 + j
            yield slice(start, start + a1.size * a2.size), a1, a2


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
    K_min: float
    K_max: float
    argmin: tuple[float, float]
    argmax: tuple[float, float]
    argmin_z: float | None
    argmax_z: float | None
    R_min: float
    R_max: float
    D_max: float
    D_max_scaled: float
    H_max: float
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
    for s, a1, a2 in grid_tiles(axis1, axis2):
        pg = point_geometry(spec, a1, a2)
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
        K_min=float(k[j_min]), K_max=float(k[j_max]),
        argmin=(float(p1[0]), float(p2[0])),
        argmax=(float(p1[1]), float(p2[1])),
        argmin_z=None if z is None else float(z[0]),
        argmax_z=None if z is None else float(z[1]),
        R_min=float(r_min), R_max=float(r_max),
        D_max=float(d_max), D_max_scaled=d_max_scaled,
        H_max=h_max,
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
    for s, a1, a2 in grid_tiles(rule.nodes1, rule.nodes2):
        pg = point_geometry(spec, a1, a2)
        det = pg.g[..., 0, 0] * pg.g[..., 1, 1] - pg.g[..., 0, 1] ** 2
        area_element[s], h2[s] = np.sqrt(det).ravel(), pg.H2.ravel()
    area = float(np.sum(rule.weights * area_element))
    integral_h2 = float(np.sum(rule.weights * h2 * area_element))
    w = integral_h2 + spec.ambient.c / 2.0 * area
    return WillmoreReport(spec=spec, integral_h2=integral_h2, area=area,
                          c=spec.ambient.c, w=w, chi=family.chi,
                          defect=abs(w - 4.0 * math.pi * family.chi),
                          orders=orders)


def willmore_fields(rep: WillmoreReport) -> dict:
    """Every field of rep after spec, by name, as the reports print them."""
    return {f.name: getattr(rep, f.name) for f in fields(rep)[1:]}


def pinching_hypothesis(scan: ScanReport) -> bool:
    """Whether the scanned surface satisfies: compact, circular ellipse,
    and radius >= 1/sqrt(2) grid-wide (up to round-off)."""
    return (scan.compact and scan.circular
            and scan.R_min >= PINCH_THRESHOLD - _PINCH_SLACK)


def pinching_report(scan: ScanReport) -> str:
    """Human-readable audit of the radius-pinching classification.

    States whether the hypothesis (compact + circular + R >= 1/sqrt(2))
    holds on the sampled grid, whether the flat minimal route applies, and
    whether the outcome agrees with the catalog ground truth, where the
    minimal flat torus is the only member expected to pass.
    """
    holds = pinching_hypothesis(scan)
    expected = scan.spec.family.pinched
    lines = [
        f"surface: {scan.spec.label()}   grid: {scan.grid[0]}x{scan.grid[1]}",
        f"compact: {scan.compact}   circular: {scan.circular} "
        f"(max scaled |D| = {scan.D_max_scaled:.3e})",
        f"R range: [{scan.R_min:.9f}, {scan.R_max:.9f}]   "
        f"threshold 1/sqrt(2) = {PINCH_THRESHOLD:.9f}",
        f"pinching hypothesis (compact, circular, R >= threshold - "
        f"{_PINCH_SLACK:g}):"
        f" {'holds' if holds else 'fails'}",
        f"minimal: {scan.minimal} (max |H| = {scan.H_max:.3e})   "
        f"K range: [{scan.K_min:.9f}, {scan.K_max:.9f}]",
    ]
    if holds and scan.minimal and scan.K_max <= _PINCH_SLACK:
        lines.append("flat minimal case: surface matches the pinched "
                     "classification target")
    agree = holds == expected
    lines.append("catalog ground truth: "
                 + ("consistent" if agree else "INCONSISTENT")
                 + f" (this kind is {'' if expected else 'not '}expected "
                 f"to satisfy the hypothesis)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the checks of probe and verify

# checks that pass by staying above their tolerance: a larger value is better
_MARGINS = {"non_circularity"}

# what each pointwise check's row says, by check name, in report order
_DETAILS = {
    "membership": "lift lies on the model quadric",
    "horizontality": "lift tangents are horizontal",
    "lagrangian": "tangent plane is Lagrangian",
    "split_residual": "second derivatives recombine from the split",
    "position_coeff": "position coefficient matches -g/nu",
    "fiber_coeff": "no fiber component in second derivatives",
    "c_symmetry": "cubic tensor is fully symmetric",
    "circularity_routes": "|D| route agrees with the cubic-tensor expansion",
    "density_moduli": "|Hc| = |H| and |F|^2 = c/2 + |H|^2 - 2K",
    "product_identity": "F * conj(Hc) matches D up to the Im sign",
    "non_circularity":
        "min scaled |D| stays above tol: the ellipse is never a circle",
    "circularity": "max scaled |D| over the sample",
    "radius_routes": "R from the invariants matches both sigma routes",
    "ellipse_fit": "both semi-axes of the ellipse equal R",
}


def _worst(name: str, values) -> float:
    """The worst of a check's values: the max, the min for a margin."""
    # np.min or np.max, without their wrapper's cost on a one-point value
    reduce = (np.minimum if name in _MARGINS else np.maximum).reduce
    return float(reduce(values, None))


def _check(name: str, detail: str, values, tol: dict,
           tol_name: str | None = None) -> dict:
    """One report row: the worst of ``values``, judged by the tolerance
    named tol_name or name."""
    limit = tol[tol_name or name]
    defect = _worst(name, values)
    ok = defect > limit if name in _MARGINS else defect <= limit
    return {"name": name, "detail": detail, "max_defect": defect,
            "tol": limit, "pass": bool(ok)}


def _identity_values(spec, lift, split, pg) -> dict:
    """Each pointwise check's values at pg's points, in report order."""
    values = pg.defects | split_defects(lift, pg.space, split) | {
        "c_symmetry": c_symmetry_gap(pg),
        "circularity_routes": circularity_route_gap(pg),
        "density_moduli": density_moduli_gap(pg),
        "product_identity": product_identity_check(pg)}
    scaled = scaled_circularity(pg)
    if not spec.family.circular:
        values["non_circularity"] = scaled
    else:
        values |= {"circularity": scaled,
                   "radius_routes": radius_route_gap(pg),
                   "ellipse_fit": ellipse_samples(pg).fit_residual}
    return {name: values[name] for name in _DETAILS if name in values}


def _gauss_check(k_int, k, where: str, tol: dict) -> dict:
    """Intrinsic-vs-extrinsic curvature agreement, |K_int - K| / (1 + |K|),
    at the points named by ``where``."""
    return _check("gauss_routes", f"metric-only curvature agrees at {where}",
                  np.abs(k_int - k) / (1.0 + np.abs(k)), tol)


def probe_report(spec: SurfaceSpec, a1: float, a2: float,
                 tol=TOLERANCES) -> dict:
    """The probe report at the chart point (a1, a2): every pointwise
    invariant, the frame and sigma as ambient vectors, and one row per
    check; ``pass`` is whether every row passes."""
    lift = lift_at(spec, a1, a2, Jet3)  # one lift serves both K routes
    split, pg = split_geometry(lift, spec.ambient)
    checks = [_check(name, _DETAILS[name], values, tol) for name, values
              in _identity_values(spec, lift, split, pg).items()]
    k_int = gauss_curvature_intrinsic(lift, spec.ambient)
    checks.append(_gauss_check(k_int, pg.K, "the probe point", tol))
    e1, e2 = tangent_frame(lift, pg.g)
    # H, sigma11, sigma12 and sigma22 from their (J e1, J e2) coordinates
    C = pg.C
    coords = np.stack([0.5 * (C[0, 0] + C[1, 1]), C[0, 0], C[0, 1], C[1, 1]])
    normals = coords[:, :1] * apply_J(e1) + coords[:, 1:] * apply_J(e2)
    h, s11, s12, s22, v1, v2 = ({"re": v.real.tolist(), "im": v.imag.tolist()}
                                for v in (*normals, e1, e2))
    return {
        "surface": spec.kind, "params": spec.params(), "point": [a1, a2],
        "chart": spec.chart.kind, "g": pg.g.tolist(),
        "K": float(pg.K), "K_intrinsic": float(k_int), "H2": float(pg.H2),
        "sigma_sq": float(pg.sigma_sq), "R": float(pg.R),
        "D_re": float(pg.D.real), "D_im": float(pg.D.imag),
        "F_re": float(pg.F.real), "F_im": float(pg.F.imag),
        "F_abs": float(np.abs(pg.F)), "Hc_re": float(pg.Hc.real),
        "Hc_im": float(pg.Hc.imag), "Hc_abs": float(np.abs(pg.Hc)),
        "C": {"111": float(C[0, 0, 0]), "112": float(C[0, 0, 1]),
              "122": float(C[0, 1, 1]), "222": float(C[1, 1, 1])},
        "H": h, "e1": v1, "e2": v2, "sigma11": s11, "sigma12": s12,
        "sigma22": s22, "checks": checks,
        "pass": all(c["pass"] for c in checks)}


def verify_report(spec: SurfaceSpec, grid, quad, seed: int,
                  tol=TOLERANCES) -> dict:
    """The verify report: each pointwise check's worst over the chart grid,
    the two K routes at 200 points seeded by ``seed``, the K range and the
    energy (quadrature orders ``quad``) where the family has closed forms."""
    axis1, axis2 = build_grid(spec.chart, *grid)
    # each check's worst per tile, then its row over the tiles' worst
    tiles, k_ends, r_ends = {}, [], []
    for _, a1, a2 in grid_tiles(axis1, axis2):
        lift = lift_at(spec, a1, a2)
        split, pg = split_geometry(lift, spec.ambient)
        for name, values in _identity_values(spec, lift, split, pg).items():
            tiles.setdefault(name, []).append(_worst(name, values))
        k_ends += [np.min(pg.K), np.max(pg.K)]
        r_ends += [np.min(pg.R), np.max(pg.R)]
    checks = [_check(name, _DETAILS[name], worst, tol)
              for name, worst in tiles.items()]
    s1, s2 = random_points(spec.chart, 200, np.random.default_rng(seed))
    lift = lift_at(spec, s1, s2, Jet3)
    checks.append(_gauss_check(
        gauss_curvature_intrinsic(lift, spec.ambient),
        geometry_from_jet(lift, spec.ambient).K, "200 seeded points", tol))

    family = spec.family
    k_lo, k_hi = float(min(k_ends)), float(max(k_ends))
    if family.k_range is not None:
        lo, hi = family.k_range(spec)
        checks.append(_check("curvature_range",
                             f"K stays inside [{lo:g}, {hi:g}]",
                             [lo - k_lo, k_hi - hi, 0.0], tol))
    report = {"surface": spec.kind, "params": spec.params(),
              "grid": list(grid), "seed": seed, "checks": checks,
              "K_range": [k_lo, k_hi],
              "R_range": [float(min(r_ends)), float(max(r_ends))]}
    if family.willmore is not None:
        value, tol_name = family.willmore(spec)
        rep = willmore(spec, orders=quad)
        checks.append(_check(
            "willmore", f"energy integral matches {value:.12g}",
            abs(rep.w - value), tol, tol_name=tol_name))
        report["willmore"] = willmore_fields(rep)
    report["pass"] = all(c["pass"] for c in checks)
    return report

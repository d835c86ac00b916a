"""Catalog of built-in Lagrangian immersions, evaluated as lift jets.

Each entry maps domain coordinates (sphere points, a complex plane
coordinate, torus angles) to the component jets of the immersion into C^2,
or of its horizontal lift when the target is curved.  All formulas are
closed-form; derivatives come from jet arithmetic, not differencing.  Every
other fact about a kind (target, chart, parameter domain, compactness,
closed-form curvature range and energy) lives in its ``Family`` record in
``FAMILIES``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .ambient import C2, CH2, CP2, AmbientSpace
from .atlas import (
    ChartDomainError,
    PlanarChart,
    PolarAnnulusChart,
    SphereChart,
    TorusChart,
)
from .numerics import Jet2, jet_sin_cos

@dataclass(frozen=True)
class Family:
    """Every fact about one catalog kind, in one record.

    ``params`` are the parameters the kind reads; the rest must stay at
    their defaults.  ``defaults`` replaces a ``SurfaceSpec`` default that
    lies outside the domain when the command line names the kind bare.
    ``chart`` is the kind's one chart, shared by all its specs.
    ``domain`` is the parameter predicate (None: every finite value) and
    ``domain_error`` the message when it fails.  ``chi`` is the Euler
    characteristic of a compact domain (None: noncompact).  ``quadrature``
    names the atlas rule (``"sphere"`` or ``"torus"``) the Willmore
    integral runs on (None: no integral).  ``k_range`` and ``willmore``
    give the closed-form Gauss curvature range and (energy, tolerance
    name) where the paper has one.  ``circular`` is False for the one
    family whose ellipse must never be a circle, ``pinched`` True for the
    one radius pinching singles out; ``alias`` is a command-line name.
    """

    ambient: AmbientSpace
    chart: object
    evaluator: Callable[..., list[Jet2]]
    note: str
    params: tuple[str, ...] = ()
    defaults: tuple[tuple[str, float], ...] = ()
    domain: Callable[[SurfaceSpec], bool] | None = None
    domain_error: str = ""
    chi: int | None = None
    quadrature: str | None = None
    k_range: Callable[[SurfaceSpec], tuple[float, float]] | None = None
    willmore: Callable[[SurfaceSpec], tuple[float, str]] | None = None
    circular: bool = True
    pinched: bool = False
    alias: str = ""


@dataclass(frozen=True)
class SurfaceSpec:
    """One catalog surface: a kind tag plus its shape parameters, checked
    against the kind's ``Family`` once, when the spec is built."""

    kind: str
    t: float = 0.0
    s: float = 0.0
    r1: float = 1.0
    r2: float = 1.0

    def __post_init__(self):
        """Reject unknown kinds, stray or non-finite parameters, and values
        outside the family's domain."""
        family = FAMILIES.get(self.kind)
        if family is None:
            raise ValueError(f"unknown surface kind {self.kind!r}; expected "
                             f"one of: {', '.join(KINDS)}")
        for param in fields(SurfaceSpec)[1:]:  # every field after kind
            name = param.name
            if (name not in family.params
                    and getattr(self, name) != param.default):
                raise ValueError(f"{self.kind} takes no parameter {name!r}")
        for name in family.params:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{self.kind} needs a finite {name}, got "
                                 f"{getattr(self, name)!r}")
        if family.domain is not None and not family.domain(self):
            raise ValueError(family.domain_error)

    @property
    def family(self) -> Family:
        return FAMILIES[self.kind]

    @property
    def ambient(self) -> AmbientSpace:
        return self.family.ambient

    @property
    def chart(self):
        return self.family.chart

    def params(self) -> dict[str, float]:
        """The parameters this kind reads, for display and reports."""
        return {name: getattr(self, name) for name in self.family.params}

    def label(self) -> str:
        values = self.params()
        if not values:
            return self.kind
        return f"{self.kind}({','.join(f'{v:g}' for v in values.values())})"


def _re(j: Jet2) -> Jet2:
    # real part as a jet; the imaginary cancellation is exact
    return (j + j.conj()) * 0.5


def _unit_circle(angle: Jet2) -> Jet2:
    sin, cos = jet_sin_cos(angle)
    return cos + 1j * sin


def _whitney_c2(spec, x, y, z):
    # normalized so the Gauss curvature spans exactly [0, 1]
    f = math.sqrt(2.0) * (1.0 + 1j * z) / (z * z + 1.0)
    return [f * x, f * y]


def _whitney_cp2(spec, x, y, z):
    ct, st = math.cosh(spec.t), math.sinh(spec.t)
    zz = z * z
    inv = ((st * st) * zz + ct * ct).reciprocal()
    f = (ct + (1j * st) * z) * inv
    third = (z + (1j * st * ct) * (zz + 1.0)) * inv
    return [x * f, y * f, third]


def _whitney_ch2(spec, x, y, z):
    ct, st = math.cosh(spec.t), math.sinh(spec.t)
    zz = z * z
    inv = ((ct * ct) * zz + st * st).reciprocal()
    f = (st + (1j * ct) * z) * inv
    third = (z - (1j * st * ct) * (zz + 1.0)) * inv
    return [x * f, y * f, third]


def _totally_geodesic_cp2(spec, x, y, z):
    # the real slice of the sphere model, lifted as-is
    return [x, y, z]


def _psi_ch2(spec, p, q):
    z = p + 1j * q
    c, s = math.cos(spec.s), math.sin(spec.s)
    zb = z.conj()
    w = c * z + s * zb
    # |w|^2 vanishes at z = 0, and underflows to 0 next to it
    w_sq = _re(w * w.conj())
    if np.any(w_sq.v == 0.0):
        raise ChartDomainError("psi-ch2 is undefined at or next to z = 0")
    inv = 1.0 / w_sq
    zsq = _re(z * zb)
    first = ((c * c) * (z * z) - (s * s) * (zb * zb)) * inv
    shared = w * inv * (1.0 / math.sqrt(2.0))
    return [first, (zsq - 1.0) * shared, (zsq + 1.0) * shared]


def _eta_ch2(spec, x, y):
    x2, y2 = x * x, y * y
    inv = 1.0 / (4.0 * x2 + 1.0)
    e1 = (2.0 * y) * (1.0 + 2j * x) * inv
    e2 = ((2.0 * x - 4.0 * (x2 * x) - 4.0 * (x * y2))
          + 1j * (6.0 * x2 + 2.0 * y2)) * inv
    e3 = ((6.0 * x2 + 2.0 * y2 + 1.0)
          + 1j * (4.0 * (x2 * x) + 4.0 * (x * y2))) * inv
    return [e1, e2, e3]


def _clifford_torus(spec, t1, t2):
    scale = 1.0 / math.sqrt(3.0)
    return [_unit_circle(t1) * scale, _unit_circle(t2) * scale,
            _unit_circle(t1 + t2).conj() * scale]


def _product_torus_c2(spec, t1, t2):
    return [_unit_circle(t1) * spec.r1, _unit_circle(t2) * spec.r2]


def _sphere_energy(spec):
    # the energy bound is an equality on the Whitney-type spheres
    return 8.0 * math.pi, "willmore"


def _product_torus_energy(spec):
    ratio = spec.r1 / spec.r2 + spec.r2 / spec.r1
    return math.pi ** 2 * ratio, "willmore_torus"


def _sphere(ambient, evaluator, note, k_range, **facts) -> Family:
    return Family(ambient, SphereChart(), evaluator, note, chi=2,
                  quadrature="sphere", k_range=k_range,
                  willmore=_sphere_energy, **facts)


FAMILIES: dict[str, Family] = {
    "whitney-c2": _sphere(
        C2, _whitney_c2,
        "flat-target sphere immersion; Gauss curvature spans [0, 1]",
        lambda spec: (0.0, 1.0)),
    "whitney-cp2": _sphere(
        CP2, _whitney_cp2,
        "sphere family in the positively curved target; t >= 0",
        lambda spec: (1.0, 1.0 + 2.0 * math.sinh(spec.t) ** 2),
        params=("t",), domain=lambda spec: spec.t >= 0.0,
        domain_error="whitney-cp2 needs t >= 0"),
    "whitney-ch2": _sphere(
        CH2, _whitney_ch2,
        "sphere family in the negatively curved target; t > 0",
        lambda spec: (-1.0, -1.0 + 2.0 * math.cosh(spec.t) ** 2),
        params=("t",), defaults=(("t", 0.5),),
        domain=lambda spec: spec.t > 0.0,
        domain_error="whitney-ch2 needs t > 0; the family degenerates "
                     "at t = 0"),
    "totally-geodesic-cp2": _sphere(
        CP2, _totally_geodesic_cp2,
        "real form; the second fundamental form vanishes",
        lambda spec: (1.0, 1.0)),
    "psi-ch2": Family(
        CH2, PolarAnnulusChart(), _psi_ch2,
        "complete noncompact family on the punctured plane",
        params=("s",), domain=lambda spec: 0.0 <= spec.s < math.pi / 4.0,
        domain_error="psi-ch2 needs 0 <= s < pi/4; the denominator "
                     "loses positivity at s = pi/4"),
    "eta-ch2": Family(
        CH2, PlanarChart(), _eta_ch2,
        "complete noncompact example on the plane"),
    "clifford-torus": Family(
        CP2, TorusChart(), _clifford_torus,
        "minimal flat torus; ellipse radius 1/sqrt(2) everywhere",
        chi=0, k_range=lambda spec: (0.0, 0.0), pinched=True),
    "product-torus-c2": Family(
        C2, TorusChart(), _product_torus_c2,
        "circle product; the ellipse degenerates to a segment",
        params=("r1", "r2"), domain=lambda spec: min(spec.r1, spec.r2) > 0.0,
        domain_error="product-torus-c2 needs positive radii r1, r2",
        chi=0, quadrature="torus", k_range=lambda spec: (0.0, 0.0),
        willmore=_product_torus_energy, circular=False,
        alias="product-torus"),
}

KINDS = tuple(FAMILIES)


def evaluate_lift(spec: SurfaceSpec, coords) -> Jet2:
    """Jet of the (lifted) immersion from domain-coordinate jets."""
    family = spec.family
    if len(coords) != spec.chart.n_coords:
        raise ValueError(f"{spec.kind} expects {spec.chart.n_coords} domain "
                         f"coordinates, got {len(coords)}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            parts = family.evaluator(spec, *coords)
    except (OverflowError, FloatingPointError):
        raise ValueError(f"{spec.label()}: the closed-form lift overflows "
                         f"at these parameters or chart coordinates") from None
    return type(parts[0]).stack(parts)  # in the class the chart seeded


def lift_at(spec: SurfaceSpec, a1, a2, jet=Jet2) -> Jet2:
    """Evaluate the lift jet at parameters of the spec's chart, seeded as
    ``jet`` (Jet3 adds the third partials).  A single point runs as a batch
    of one, so it has the bits of a batch's row."""
    point = np.ndim(a1) == np.ndim(a2) == 0
    if point:
        a1, a2 = np.reshape(a1, 1), np.reshape(a2, 1)
    lift = evaluate_lift(spec, spec.chart.coords(a1, a2, jet))
    return jet(*(f[0] for f in lift._fields())) if point else lift

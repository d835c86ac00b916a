"""Spans around the program's layer boundaries, recorded from outside.

Each boundary is a set of public functions (or chart methods) of one
``lagsurf`` module.  ``Tracer.install`` wraps each function once and
rebinds the wrapper at every module-level name that refers to the
function, so calls through ``cli.point_geometry``, ``scans.point_geometry``,
``geom.lift_at`` or ``geom.amb.second_form_split`` all land in the same
span.  A boundary whose function is missing raises ``TracerError``; the
caller also raises when a boundary its workload must reach recorded no span.

``numerics`` has no boundary here: its work is inside ``catalog.lift_at``
and ``ambient.second_form_split``.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

from workloads import requested_points


class TracerError(RuntimeError):
    """A boundary could not be wrapped or recorded nothing."""


def _batch(jet) -> int:
    # a stacked jet carries the ambient component axis last
    return int(np.size(jet.v) // np.shape(jet.v)[-1])


_GAPS = ("circularity_route_gap", "density_moduli_gap",
         "product_identity_check", "radius_route_gap")
_SAMPLING = ("build_grid", "random_points", "sphere_quadrature",
             "torus_quadrature")
_DEFECTS = ("membership_defect", "horizontality_defect", "lagrangian_defect")


def _sampled(args, result) -> int:
    return int(np.size(result.weights) if hasattr(result, "weights")
               else np.size(result[0]))


# boundary -> (module, function names, points(args, result)).
# "atlas.coords" wraps the ``coords`` method of every chart class instead.
BOUNDARIES = {
    "cli.main": ("cli", ("main",), lambda a, r: requested_points(a[0])),
    "scans.curvature_scan": ("scans", ("curvature_scan",),
                             lambda a, r: r.grid[0] * r.grid[1]),
    "scans.willmore": ("scans", ("willmore",),
                       lambda a, r: r.orders[0] * r.orders[1]),
    "geom.point_geometry": ("geom", ("point_geometry",),
                            lambda a, r: int(np.size(r.K))),
    "geom.geometry_from_jet": ("geom", ("geometry_from_jet",),
                               lambda a, r: int(np.size(r.K))),
    "geom.ellipse_samples": ("geom", ("ellipse_samples",),
                             lambda a, r: int(np.size(a[0].K))),
    "geom.gauss_curvature_intrinsic": ("geom", ("gauss_curvature_intrinsic",),
                                       lambda a, r: int(np.size(r))),
    "geom.identity_gaps": ("geom", _GAPS, lambda a, r: int(np.size(a[0].K))),
    "catalog.lift_at": ("catalog", ("lift_at",), lambda a, r: _batch(r)),
    "atlas.coords": ("atlas", (), lambda a, r: int(np.size(r[0].v))),
    "atlas.sampling": ("atlas", _SAMPLING, _sampled),
    "ambient.second_form_split": ("ambient", ("second_form_split",),
                                  lambda a, r: _batch(a[0])),
    "ambient.lift_defects": ("ambient", _DEFECTS, lambda a, r: _batch(a[0])),
}


def _lagsurf_modules() -> dict:
    return {key: mod for key, mod in sys.modules.items()
            if key == "lagsurf" or key.startswith("lagsurf.")}


def _rebind(modules: dict, original, replacement) -> list[str]:
    """Point every module-level name bound to ``original`` at the
    replacement; return the names as module.attr."""
    sites = []
    for key, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                sites.append(f"{key.removeprefix('lagsurf.')}.{attr}")
    return sites


def _chart_classes(atlas):
    return [obj for obj in vars(atlas).values()
            if isinstance(obj, type) and obj.__module__ == atlas.__name__
            and "coords" in vars(obj)]


class Tracer:
    """In-memory spans: [boundary, parent index, start, end, points]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.sites: dict[str, list[str]] = {}

    def _wrap(self, name, fn, points):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            # a boundary calling itself (refined intrinsic K) is one span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[4] = points(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary at every name it is looked up by.

        Every target is resolved before anything is wrapped, so a missing
        boundary leaves the program untouched.
        """
        modules = _lagsurf_modules()
        targets = []
        for boundary, (modname, funcs, points) in BOUNDARIES.items():
            module = modules.get(f"lagsurf.{modname}")
            if module is None:
                raise TracerError(f"{boundary}: lagsurf.{modname} not loaded")
            if boundary == "atlas.coords":
                charts = _chart_classes(module)
                if not charts:
                    raise TracerError("atlas.coords: no chart class found")
                targets += [(boundary, cls, points) for cls in charts]
                continue
            for func in funcs:
                original = getattr(module, func, None)
                if not callable(original):
                    raise TracerError(f"{boundary}: lagsurf.{modname} has no "
                                      f"function {func!r}")
                targets.append((boundary, original, points))
        for boundary, target, points in targets:
            sites = self.sites.setdefault(boundary, [])
            if isinstance(target, type):
                target.coords = self._wrap(boundary, target.coords, points)
                sites.append(f"atlas.{target.__name__}.coords")
            else:
                sites += _rebind(modules, target,
                                 self._wrap(boundary, target, points))

    def layers(self) -> dict[str, dict[str, float]]:
        """calls, points and self time per boundary, plus nested counts."""
        out = {b: {"calls": 0, "points": 0, "self_s": 0.0}
               for b in BOUNDARIES}
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        gauss_lift_points = 0
        for i, (name, parent, start, end, points) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["points"] += points
            row["self_s"] += end - start - child[i]
            if name == "catalog.lift_at" and self._under(
                    i, "geom.gauss_curvature_intrinsic"):
                gauss_lift_points += points
        out["catalog.lift_at"]["points_in_gauss"] = gauss_lift_points
        return out

    def _under(self, index: int, boundary: str) -> bool:
        parent = self.spans[index][1]
        while parent >= 0:
            if self.spans[parent][0] == boundary:
                return True
            parent = self.spans[parent][1]
        return False


class AllocProbe:
    """tracemalloc peak above the starting level inside point_geometry."""

    def __init__(self):
        self.bytes = 0
        self.points = 0
        self.largest = 0

    def install(self) -> None:
        original = sys.modules["lagsurf.geom"].point_geometry

        def probed(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = original(*args, **kwargs)
            used = tracemalloc.get_traced_memory()[1] - base
            self.bytes += used
            self.largest = max(self.largest, used)
            self.points += int(np.size(result.K))
            return result

        _rebind(_lagsurf_modules(), original, probed)
        tracemalloc.start()

"""Pointwise and global invariants of Lagrangian surfaces via lift jets."""

from .ambient import C2, CH2, CP2, AmbientSpace, second_form_split
from .atlas import (ChartDomainError, PlanarChart, PolarAnnulusChart,
                    SphereChart, TorusChart, build_grid, random_points,
                    sphere_quadrature, torus_quadrature)
from .catalog import KINDS, SurfaceSpec, evaluate_lift, lift_at
from .geom import (CurvatureEllipse, PointGeometry, ellipse_samples,
                   gauss_curvature_intrinsic, geometry_from_jet,
                   point_geometry, product_identity_check, radius,
                   scaled_circularity)
from .numerics import (DegeneratePointError, Jet2, Jet3, apply_J, herm_pair,
                       real_pair)
from .scans import (ScanReport, UnsupportedDomainError, WillmoreReport,
                    curvature_scan, pinching_hypothesis, pinching_report,
                    willmore)

__version__ = "0.1.0"

__all__ = [
    "AmbientSpace",
    "C2",
    "CH2",
    "CP2",
    "ChartDomainError",
    "CurvatureEllipse",
    "DegeneratePointError",
    "Jet2",
    "Jet3",
    "KINDS",
    "PlanarChart",
    "PointGeometry",
    "PolarAnnulusChart",
    "ScanReport",
    "SphereChart",
    "SurfaceSpec",
    "TorusChart",
    "UnsupportedDomainError",
    "WillmoreReport",
    "apply_J",
    "build_grid",
    "curvature_scan",
    "ellipse_samples",
    "evaluate_lift",
    "gauss_curvature_intrinsic",
    "geometry_from_jet",
    "herm_pair",
    "lift_at",
    "pinching_hypothesis",
    "pinching_report",
    "point_geometry",
    "product_identity_check",
    "radius",
    "random_points",
    "real_pair",
    "scaled_circularity",
    "second_form_split",
    "sphere_quadrature",
    "torus_quadrature",
    "__version__",
]

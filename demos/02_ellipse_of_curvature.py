"""
The ellipse of curvature, sampled
=================================

At a point p, the second fundamental form traces the curve
sigma(v, v) as the unit tangent v turns: an ellipse in the normal plane
centered at the mean curvature vector H.  This demo samples that curve in
(J e1, J e2) coordinates for two contrasting members and prints the data a
plotting tool would consume.
"""

from __future__ import annotations

import numpy as np

from lagsurf import SurfaceSpec, ellipse_samples, point_geometry, radius

for spec, point in ((SurfaceSpec("clifford-torus"), (0.4, 1.1)),
                    (SurfaceSpec("product-torus-c2", r1=1.0, r2=1.0),
                     (0.3, 0.7))):
    pg = point_geometry(spec, *point)
    ellipse = ellipse_samples(pg, n_angles=12)
    print(f"== {spec.label()} at {point}")
    print(f"{'theta':>8} {'n1':>10} {'n2':>10}")
    for theta, (n1, n2) in zip(ellipse.theta.tolist(),
                               ellipse.normals().tolist()):
        print(f"{theta:>8.4f} {n1:>10.6f} {n2:>10.6f}")
    c1, c2 = ellipse.center.tolist()
    print(f"center: ({c1:.6f}, {c2:.6f})   "
          f"circle-fit residual: {ellipse.fit_residual:.3e}")
    try:
        r = radius(pg)
        print(f"circular: radius R = {float(r):.12f}")
    except ValueError as exc:
        print(f"not circular: {exc}")
    print()

print("The minimal flat torus draws an exact circle of radius 1/sqrt(2) =")
print(f"{1.0 / np.sqrt(2.0):.12f}; the circle product collapses to a segment")
print("(every sample has n2 = constant), so the circle fit misses by 0.5 and")
print("the radius accessor refuses the point.")

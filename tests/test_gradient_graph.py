"""Gradient graphs of random polynomials: Lagrangian surfaces in C^2 with
no symmetry, built with Jet2 arithmetic.

The catalog surfaces are symmetric, so a slipped index in the frame split
or the invariants can cancel on them.  The graph (x, y) -> (x + i f_x,
y + i f_y) of the gradient of any f is Lagrangian (its symplectic pullback
is f_xy - f_yx = 0) and immersed (its real part is the identity), so every
defect must sit at round-off.  Adding eps * y to f_x makes the pullback
eps dx ^ dy, and the Lagrangian defect must read eps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gram_reference import REFERENCE_GAP, reference_gaps, reference_split
from lagsurf.ambient import C2, second_form_split
from lagsurf.cli import TOLERANCES
from lagsurf.geom import circularity_route_gap, geometry_from_jet
from lagsurf.numerics import Jet2

DEGREE = 4
# exponents (i, j) of the monomials x^i y^j of f, degree 1 to DEGREE
MONOMIALS = [(i, n - i) for n in range(1, DEGREE + 1) for i in range(n + 1)]
# every defect stays under this; the coefficients keep |g| under about 1.2e3
ROUND_OFF = 1e-12

coefficients = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False,
              allow_infinity=False),
    min_size=len(MONOMIALS), max_size=len(MONOMIALS))


def _points(seed, n=64):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)


def gradient_graph(coeffs, x, y, eps=0.0):
    """Lift jet of (x + i (f_x + eps y), y + i f_y), f = sum c x^i y^j."""
    j1, j2 = Jet2.variables(x, y)
    px, py = [j1 * 0.0 + 1.0], [j2 * 0.0 + 1.0]
    for _ in range(DEGREE):
        px.append(px[-1] * j1)
        py.append(py[-1] * j2)
    fx = fy = j1 * 0.0
    for c, (i, j) in zip(coeffs, MONOMIALS):
        if i:
            fx = fx + (c * i) * px[i - 1] * py[j]
        if j:
            fy = fy + (c * j) * px[i] * py[j - 1]
    fx = fx + eps * j2
    return Jet2.stack([j1 + fx * 1j, j2 + fy * 1j])


@given(coefficients, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_gradient_graph_defects_sit_at_round_off(coeffs, seed):
    lift = gradient_graph(coeffs, *_points(seed))
    pg = geometry_from_jet(lift, C2)
    assert pg.lagrangian <= ROUND_OFF
    assert pg.split_residual <= ROUND_OFF
    assert pg.c_symmetry_defect <= ROUND_OFF
    assert circularity_route_gap(pg) <= ROUND_OFF
    assert pg.position_defect == pg.fiber_defect == 0.0


@given(coefficients, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_gradient_graph_split_matches_general_gram_solve(coeffs, seed):
    lift = gradient_graph(coeffs, *_points(seed))
    normal = second_form_split(lift, C2).normal
    want = reference_split(lift, C2)[1]
    assert normal.shape == want.shape
    gap = np.max(np.abs(normal - want)) / (1.0 + np.max(np.abs(want)))
    assert gap <= 1e-11


@given(coefficients, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_gradient_graph_invariants_match_the_complex_vector_route(coeffs,
                                                                  seed):
    lift = gradient_graph(coeffs, *_points(seed))
    gaps = reference_gaps(geometry_from_jet(lift, C2), lift, C2)
    assert max(gaps.values()) <= REFERENCE_GAP, gaps


@pytest.mark.parametrize("eps", [1e-6, 1e-3])
@given(coefficients, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_perturbed_gradient_graph_fails_lagrangian(eps, coeffs, seed):
    # Im herm(d1, d2) is -eps at every point, far above the tolerance
    lift = gradient_graph(coeffs, *_points(seed), eps=eps)
    pg = geometry_from_jet(lift, C2)
    assert pg.lagrangian == pytest.approx(eps, rel=1e-6)
    assert pg.lagrangian >= 1e3 * TOLERANCES["lagrangian"]

"""Gradient graphs of random polynomials: Lagrangian surfaces in C^2 with
no symmetry, built with Jet2 arithmetic.

The catalog surfaces are symmetric, so a slipped index in the frame split
or the invariants can cancel on them.  The graph (x, y) -> (x + i f_x,
y + i f_y) of the gradient of any f is Lagrangian (its symplectic pullback
is f_xy - f_yx = 0) and immersed (its real part is the identity), so every
defect must sit at round-off.  Adding eps * y to f_x makes the pullback
eps dx ^ dy, and the Lagrangian defect must read eps.  A harmonic f gives
a special Lagrangian graph, which is minimal with a circular ellipse of
curvature; adding eps x^2 to it breaks both.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gram_reference import REFERENCE_GAP, reference_gaps, reference_split
from lagsurf.ambient import C2, second_form_split, split_defects
from lagsurf.cli import TOLERANCES
from lagsurf.geom import (circularity_route_gap, ellipse_samples,
                          geometry_from_jet, radius, radius_route_gap,
                          scaled_circularity)
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
    defects = pg.defects | split_defects(lift, C2,
                                         second_form_split(lift, C2))
    for name in ("lagrangian", "split_residual", "c_symmetry"):
        assert np.max(defects[name]) <= ROUND_OFF, name
    assert np.max(circularity_route_gap(pg)) <= ROUND_OFF
    assert defects["position_coeff"] == defects["fiber_coeff"] == 0.0


@given(coefficients, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_gradient_graph_split_matches_general_gram_solve(coeffs, seed):
    lift = gradient_graph(coeffs, *_points(seed))
    normal = second_form_split(lift, C2).coeff.imag
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
    lagrangian = np.max(pg.defects["lagrangian"])
    assert lagrangian == pytest.approx(eps, rel=1e-6)
    assert lagrangian >= 1e3 * TOLERANCES["lagrangian"]


# ---------------------------------------------------------------------------
# harmonic f: special Lagrangian graphs, on the circular side

HARMONIC_DEGREE = 4


def harmonic_coefficients(seed, eps=0.0):
    """Coefficients over MONOMIALS of f = Re sum_{n<=4} a_n (x + iy)^n,
    a_n seeded, plus eps x^2 (the twin, Laplacian 2 eps): the x^i y^j term
    of Re a_n (x + iy)^n is Re(a_n C(n, j) i^j)."""
    rng = np.random.default_rng(seed)
    a = (rng.uniform(-1.0, 1.0, HARMONIC_DEGREE + 1)
         + 1j * rng.uniform(-1.0, 1.0, HARMONIC_DEGREE + 1))
    coeffs = [(a[i + j] * math.comb(i + j, j) * 1j ** j).real
              for i, j in MONOMIALS]
    coeffs[MONOMIALS.index((2, 0))] += eps
    return coeffs


@pytest.mark.parametrize("seed", range(10))
def test_harmonic_gradient_graph_is_circular_and_minimal(seed):
    # Delta f = 0 makes the graph special Lagrangian (Harvey & Lawson 1982):
    # minimal, so D = F * conj(Hc) = 0 and the ellipse is a circle about 0
    lift = gradient_graph(harmonic_coefficients(seed), *_points(seed, 4096))
    pg = geometry_from_jet(lift, C2)
    R = radius(pg)  # raises unless circular and its three routes agree
    assert np.max(radius_route_gap(pg)) <= TOLERANCES["radius_routes"]
    assert np.max(ellipse_samples(pg).fit_residual) <= ROUND_OFF
    assert np.max(np.sqrt(pg.H2)) <= TOLERANCES["minimality"]
    # c = 0 and H = 0: K = -|sigma|^2 / 2 <= 0 and R = sqrt(-K / 2)
    assert np.max(pg.K) <= 0.0
    assert np.max(np.abs(R - np.sqrt(-pg.K / 2.0))) <= ROUND_OFF


@pytest.mark.parametrize("seed", range(10))
def test_harmonic_twin_fails_minimality_and_circularity(seed):
    # f + 1e-3 x^2 has Laplacian 2e-3: H and D leave round-off by orders
    lift = gradient_graph(harmonic_coefficients(seed, eps=1e-3),
                          *_points(seed, 4096))
    pg = geometry_from_jet(lift, C2)
    h_max = np.max(np.sqrt(pg.H2))
    circ = np.max(scaled_circularity(pg))
    assert h_max >= 1e3 * TOLERANCES["minimality"]
    assert circ >= 1e3 * TOLERANCES["circularity"]
    with pytest.raises(ValueError, match="not circular"):
        radius(pg)

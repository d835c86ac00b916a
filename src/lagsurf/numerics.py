"""Signature-aware linear algebra on C^2/C^3 and exact jet arithmetic.

Ambient points are complex numpy arrays of shape (..., m), m in {2, 3}, and
the ones built here are stored component-major (see component_major).  The
flat real form interleaves real and imaginary parts, so six reals
(r1, ..., r6) pair into (r1 + i*r2, r3 + i*r4, r5 + i*r6).  Pairings carry a
per-component signature eps in {+1, -1}^m, which is what distinguishes the
round lift sphere (+,+,+) from the anti-De Sitter lift space (+,+,-).

Jets hold a value and all chart partials up to second order (Jet2), or up
to third (Jet3, whose lower orders run Jet2's code and so keep its bits),
and propagate them through arithmetic exactly (up to round-off), so no
numerical differentiation enters the package.  Complex conjugation is
real-linear and therefore jet-compatible; holomorphic differentiation is
deliberately out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Gram systems with condition number above this mark a degenerate
# (non-immersed or numerically singular) point.
GRAM_COND_LIMIT = 1e8

# Default thresholds for every named check; --tol NAME=VALUE overrides one.
TOLERANCES: dict[str, float] = {
    "membership": 1e-10,
    "horizontality": 1e-10,
    "lagrangian": 1e-10,
    "split_residual": 1e-10,
    "position_coeff": 1e-10,
    "fiber_coeff": 1e-10,
    "c_symmetry": 1e-10,
    "circularity_routes": 1e-10,
    "gauss_routes": 1e-4,
    "density_moduli": 1e-8,
    "product_identity": 1e-9,
    "radius_routes": 1e-8,
    "ellipse_fit": 1e-8,
    "circularity": 1e-8,
    # margin, not an error bound: min scaled |D| must stay above this
    "non_circularity": 1e-2,
    "minimality": 1e-8,
    "curvature_range": 1e-6,
    "willmore": 1e-5,
    "willmore_torus": 1e-6,
}


class DegeneratePointError(ValueError):
    """Indefinite induced metric or ill-conditioned frame Gram system."""


def herm_pair(a, b, sig):
    """Hermitian pairing sum_k eps_k * a_k * conj(b_k).

    Conjugate-symmetric: herm_pair(a, b) == conj(herm_pair(b, a)).  The
    second slot carries the conjugation.  Summed in component order, each
    term added or subtracted by the sign of eps_k: numpy is slow to reduce
    a length-2 or 3 axis, and a product with +-1 is one more pass.
    """
    a, b, sig = np.asarray(a), np.asarray(b), np.asarray(sig)
    # not `*`: numpy would reuse a big conj temporary, operands swapped
    total = np.multiply(a[..., 0], np.conj(b[..., 0]))
    if sig[0] < 0:
        total = -total
    for k in range(1, len(sig)):
        term = np.multiply(a[..., k], np.conj(b[..., k]))
        total = total - term if sig[k] < 0 else total + term
    return total


def component_major(buf, lead=1):
    """The (*batch, *lead) view of a buffer stored as (*lead, *batch): the
    shape stays (..., m) while each component a[..., k] is contiguous, and
    elementwise results keep the memory order of their inputs."""
    if buf.ndim == lead:
        return buf
    return buf.transpose(tuple(range(lead, buf.ndim)) + tuple(range(lead)))


def real_pair(a, b, sig):
    """Real part of the Hermitian pairing: the (pseudo-)Riemannian metric."""
    return herm_pair(a, b, sig).real


def apply_J(a):
    """Multiply every complex component by i.  apply_J(apply_J(a)) == -a."""
    return 1j * np.asarray(a, dtype=complex)


@dataclass(frozen=True)
class Jet2:
    """Second-order jet of a map of two real chart parameters.

    All six fields share one array shape: scalar jets are shaped like the
    evaluation batch, stacked ambient jets append a trailing component axis.
    ``d12`` is the single stored mixed partial, so the symmetry of second
    derivatives is structural.  Arithmetic follows the Leibniz/chain rules
    exactly up to round-off.
    """

    v: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d11: np.ndarray
    d12: np.ndarray
    d22: np.ndarray

    # keep numpy scalars/arrays from hijacking mixed arithmetic
    __array_ufunc__ = None

    @classmethod
    def variables(cls, a1, a2):
        """Seed jets of the two chart parameters, each shaped like its own
        parameter: on grid axes (n1, 1) and (1, n2) they broadcast late."""
        a1, a2 = np.array(a1, dtype=float), np.array(a2, dtype=float)
        one1, zero1 = np.ones_like(a1), np.zeros_like(a1)
        one2, zero2 = np.ones_like(a2), np.zeros_like(a2)
        return (cls(a1, one1, zero1, zero1, zero1, zero1),
                cls(a2, zero2, one2, zero2, zero2, zero2))

    @classmethod
    def stack(cls, components):
        """Stack scalar jets, broadcast together, into one vector-valued
        jet (trailing axis) stored component-major (see component_major)."""
        shape = np.broadcast(*(j.v for j in components)).shape
        bufs = np.empty((len(components[0]._fields()), len(components))
                        + shape, dtype=complex)
        for k, jet in enumerate(components):
            for buf, field in zip(bufs, jet._fields()):
                buf[k] = field
        return cls(*(component_major(buf) for buf in bufs))

    def _fields(self):
        return (self.v, self.d1, self.d2, self.d11, self.d12, self.d22)

    def __add__(self, other):
        if isinstance(other, Jet2):
            return type(self)(*(a + b for a, b in zip(self._fields(),
                                                      other._fields())))
        return type(self)(self.v + other, *self._fields()[1:])

    __radd__ = __add__

    def __neg__(self):
        return type(self)(*(-f for f in self._fields()))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return type(self)(*(f * other for f in self._fields()))
        a, b = self, other
        return Jet2(
            a.v * b.v,
            a.d1 * b.v + a.v * b.d1,
            a.d2 * b.v + a.v * b.d2,
            a.d11 * b.v + 2.0 * a.d1 * b.d1 + a.v * b.d11,
            a.d12 * b.v + a.d1 * b.d2 + a.d2 * b.d1 + a.v * b.d12,
            a.d22 * b.v + 2.0 * a.d2 * b.d2 + a.v * b.d22,
        )

    __rmul__ = __mul__

    def reciprocal(self):
        """Jet of 1/f.  Errors when the value vanishes anywhere."""
        if np.any(self.v == 0):
            raise ZeroDivisionError("jet division by a zero-valued jet")
        inv = 1.0 / self.v
        inv2 = inv * inv
        inv3 = inv2 * inv
        return Jet2(
            inv,
            -self.d1 * inv2,
            -self.d2 * inv2,
            2.0 * self.d1 * self.d1 * inv3 - self.d11 * inv2,
            2.0 * self.d1 * self.d2 * inv3 - self.d12 * inv2,
            2.0 * self.d2 * self.d2 * inv3 - self.d22 * inv2,
        )

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def conj(self):
        """Componentwise complex conjugate (a real-linear map)."""
        return type(self)(*(np.conj(f) for f in self._fields()))

    def compose_scalar(self, fv, d1f, d2fv, d3fv):
        """Chain rule through a scalar function f, given the values f(v),
        f'(v), f''(v) and f'''(v) at this jet's value v (f''' for Jet3)."""
        return Jet2(
            fv,
            d1f * self.d1,
            d1f * self.d2,
            d2fv * self.d1 * self.d1 + d1f * self.d11,
            d2fv * self.d1 * self.d2 + d1f * self.d12,
            d2fv * self.d2 * self.d2 + d1f * self.d22,
        )


@dataclass(frozen=True)
class Jet3(Jet2):
    """Third-order jet: a Jet2 plus the four third partials.

    Field-wise operations are Jet2's own; the product, reciprocal and chain
    rules run Jet2's for the orders up to 2 and add the third order here.
    """

    d111: np.ndarray
    d112: np.ndarray
    d122: np.ndarray
    d222: np.ndarray

    @classmethod
    def variables(cls, a1, a2):
        return tuple(cls(*j._fields(), *(np.zeros_like(j.v),) * 4)
                     for j in Jet2.variables(a1, a2))

    def _fields(self):
        return (*super()._fields(), self.d111, self.d112, self.d122, self.d222)

    def __mul__(self, other):
        low = super().__mul__(other)
        if not isinstance(other, Jet2):  # kept a Jet3, also by __rmul__
            return low
        a, b = self, other
        return Jet3(
            *low._fields(),
            a.d111 * b.v + 3.0 * (a.d11 * b.d1 + a.d1 * b.d11) + a.v * b.d111,
            a.d112 * b.v + a.d11 * b.d2 + 2.0 * (a.d12 * b.d1 + a.d1 * b.d12)
            + a.d2 * b.d11 + a.v * b.d112,
            a.d122 * b.v + a.d22 * b.d1 + 2.0 * (a.d12 * b.d2 + a.d2 * b.d12)
            + a.d1 * b.d22 + a.v * b.d122,
            a.d222 * b.v + 3.0 * (a.d22 * b.d2 + a.d2 * b.d22) + a.v * b.d222,
        )

    def reciprocal(self):
        low = super().reciprocal()
        inv2 = low.v * low.v
        return self._chain(low, -inv2, 2.0 * inv2 * low.v, -6.0 * inv2 * inv2)

    def compose_scalar(self, fv, d1f, d2fv, d3fv):
        return self._chain(super().compose_scalar(fv, d1f, d2fv, d3fv),
                           d1f, d2fv, d3fv)

    def _chain(self, low, d1f, d2f, d3f):
        # the third partials of f(self), from f', f'' and f''' at self.v
        a1, a2 = self.d1, self.d2
        return Jet3(
            *low._fields(),
            d3f * a1 * a1 * a1 + 3.0 * d2f * self.d11 * a1 + d1f * self.d111,
            d3f * a1 * a1 * a2 + d2f * (2.0 * self.d12 * a1 + self.d11 * a2)
            + d1f * self.d112,
            d3f * a1 * a2 * a2 + d2f * (2.0 * self.d12 * a2 + self.d22 * a1)
            + d1f * self.d122,
            d3f * a2 * a2 * a2 + 3.0 * d2f * self.d22 * a2 + d1f * self.d222,
        )


def jet_sin_cos(j: Jet2) -> tuple[Jet2, Jet2]:
    """(sin j, cos j), with one sin and one cos pass over the values."""
    s, c = np.sin(j.v), np.cos(j.v)
    return j.compose_scalar(s, c, -s, -c), j.compose_scalar(c, -s, -c, s)

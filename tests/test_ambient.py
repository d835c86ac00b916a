"""Target-space defect measures and the second-derivative frame split."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gram_reference import (frame_condition, gram, normal_vectors,
                            reference_split)
from helpers import GOLDEN_CONFIGS, ambient_dim, flat_grid
from lagsurf.ambient import (C2, CH2, CP2, _norm, gram_condition,
                             horizontality_defect, lagrangian_defect,
                             membership_defect, second_form_split,
                             split_defects)
from lagsurf.atlas import build_grid
from lagsurf.catalog import SurfaceSpec, lift_at
from lagsurf.geom import geometry_from_jet, tangent_frame
from lagsurf.cli import TOLERANCES, parse_surface
from lagsurf.numerics import (GRAM_COND_LIMIT, DegeneratePointError, Jet2,
                              component_major, herm_pair, real_pair)

ALL_SPECS = [
    SurfaceSpec("whitney-c2"),
    SurfaceSpec("whitney-cp2", t=0.7),
    SurfaceSpec("whitney-ch2", t=0.7),
    SurfaceSpec("totally-geodesic-cp2"),
    SurfaceSpec("psi-ch2", s=0.3),
    SurfaceSpec("eta-ch2"),
    SurfaceSpec("clifford-torus"),
    SurfaceSpec("product-torus-c2", r1=1.0, r2=2.0),
]


def _grid_lift(spec, n=9):
    a1, a2 = flat_grid(*build_grid(spec.chart, n, n))
    return lift_at(spec, a1, a2)


def test_space_constants():
    assert C2.c == 0.0 and not C2.is_lifted
    assert CP2.c == 4.0 and CP2.lift_norm == 1.0
    assert CH2.c == -4.0 and CH2.lift_norm == -1.0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_catalog_lifts_satisfy_all_constraints(spec):
    lift = _grid_lift(spec)
    space = spec.ambient
    assert np.max(membership_defect(lift, space)) < 1e-12
    assert np.max(horizontality_defect(lift, space)) < 1e-12
    assert np.max(lagrangian_defect(lift, space)) < 1e-12


def _control_map(x, y):
    # (x, y) -> (zeta, conj(zeta)^2 + zeta) in the flat target:
    # Im herm(d1, d2) = 4|zeta|^2 - 2, so it vanishes only on |zeta|^2 = 1/2
    j1, j2 = Jet2.variables(x, y)
    zeta = j1 + j2 * 1j
    return Jet2.stack([zeta, zeta.conj() * zeta.conj() + zeta])


def test_non_lagrangian_control_map():
    x = np.array([0.0, 0.5, 1.0, 1.3])
    y = np.array([0.0, 0.5, 0.0, -0.2])
    lift = _control_map(x, y)
    zsq = x * x + y * y
    expected = np.max(np.abs(4.0 * zsq - 2.0))
    assert np.max(lagrangian_defect(lift, C2)) == pytest.approx(expected,
                                                                rel=1e-12)
    on_circle = 1.0 / np.sqrt(2.0)
    k1, k2 = Jet2.variables(on_circle, 0.0)
    zc = k1 + k2 * 1j
    circle_lift = Jet2.stack([zc, zc.conj() * zc.conj() + zc])
    assert np.max(lagrangian_defect(circle_lift, C2)) < 1e-15


def _four_pair_lagrangian_defect(lift, space):
    # the defect over every ordered pair of d1, d2, as once measured
    return float(max(np.max(np.abs(herm_pair(du, dv, space.sig).imag))
                     for du in (lift.d1, lift.d2) for dv in (lift.d1, lift.d2)))


@pytest.mark.parametrize("spec", ALL_SPECS + [SurfaceSpec("psi-ch2", s=0.764)],
                         ids=lambda s: s.label())
def test_lagrangian_defect_pairs_once(spec):
    # herm(d2, d1) = conj(herm(d1, d2)) and herm(d_i, d_i) is real, so the
    # other three pairings add only the round-off of the complex products
    lift = _grid_lift(spec)
    one = float(np.max(lagrangian_defect(lift, spec.ambient)))
    assert one == float(np.max(np.abs(
        herm_pair(lift.d1, lift.d2, spec.ambient.sig).imag)))
    assert one <= _four_pair_lagrangian_defect(lift, spec.ambient)


def test_membership_detects_off_quadric_point():
    lift = _grid_lift(SurfaceSpec("clifford-torus"))
    scaled = dataclasses.replace(lift, v=lift.v * 1.01)
    assert np.max(membership_defect(scaled, CP2)) > 1e-2


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_second_form_split_reconstructs(spec):
    lift = _grid_lift(spec)
    split = second_form_split(lift, spec.ambient)
    defects = split_defects(lift, spec.ambient, split)
    assert np.max(defects["split_residual"]) < 1e-10
    assert np.max(defects["fiber_coeff"]) < 1e-10
    assert np.max(defects["position_coeff"]) < 1e-10
    assert split.metric.shape == lift.v.shape[:-1] + (2, 2)
    # coefficients on (d1, d2) only, on every target: split_defects forms
    # the one on psi
    assert split.coeff.shape == lift.v.shape[:-1] + (3, 2)
    assert split.coeff.dtype == complex
    if not spec.ambient.is_lifted:
        assert defects["position_coeff"] == 0.0
        assert defects["fiber_coeff"] == 0.0


def _stored_psi_column_defects(lift, space, split):
    """split_defects as it read a (..., 3, 3) coefficient array whose psi
    column herm(d_uv psi, psi) / nu the split stored in its one
    component-major buffer, next to the (d1, d2) columns."""
    nu = space.lift_norm
    buf = np.empty((3, 3) + np.shape(split.metric[..., 0, 0]), dtype=complex)
    for p, x in enumerate((lift.d11, lift.d12, lift.d22)):
        buf[p, :2] = np.moveaxis(split.coeff[..., p, :], -1, 0)
        buf[p, 2] = herm_pair(x, lift.v, space.sig) / nu
    coeff = component_major(buf, 2)
    g_uv = [split.metric[..., i, j] for i, j in ((0, 0), (0, 1), (1, 1))]
    residual = position = fiber = 0.0
    for p, x in enumerate((lift.d11, lift.d12, lift.d22)):
        z = coeff[..., p, :]
        gap = x - z[..., 0, None] * lift.d1
        gap -= z[..., 1, None] * lift.d2
        gap -= z[..., 2, None] * lift.v
        gscale = 1.0 + np.abs(g_uv[p])
        position = np.maximum(position, np.abs(
            z[..., 2].real + g_uv[p] / nu) / gscale)
        fiber = np.maximum(fiber, np.abs(z[..., 2].imag) / gscale)
        residual = np.maximum(residual, _norm(gap) / (1.0 + _norm(x)))
    return {"split_residual": residual, "position_coeff": position,
            "fiber_coeff": fiber}


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS
                                  if s.ambient.is_lifted],
                         ids=lambda s: s.label())
def test_psi_coefficient_formed_in_the_certification_keeps_its_bits(spec):
    # the psi coefficient moved from the split's buffer into split_defects:
    # every defect keeps the bits of the stored column, on a batch and at
    # one point
    a1, a2 = flat_grid(*build_grid(spec.chart, 9, 9))
    for point in ((a1, a2), (a1[40], a2[40])):
        lift = lift_at(spec, *point)
        split = second_form_split(lift, spec.ambient)
        got = split_defects(lift, spec.ambient, split)
        want = _stored_psi_column_defects(lift, spec.ambient, split)
        for name, values in want.items():
            assert np.shape(got[name]) == np.shape(point[0]), name
            assert np.array_equal(got[name], values), name


def test_position_coefficient_sign():
    # on the positively curved target the d11 position coefficient is -g11;
    # the split keeps only its deviation from that, so read the coefficient
    # off the reference route
    spec = SurfaceSpec("clifford-torus")
    lift = lift_at(spec, 0.3, 1.2)
    _, _, position, _ = reference_split(lift, spec.ambient)
    g11 = real_pair(lift.d1, lift.d1, CP2.sig)
    assert float(position[..., 0]) == pytest.approx(-float(g11), abs=1e-12)
    split = second_form_split(lift, spec.ambient)
    assert np.max(split_defects(lift, spec.ambient,
                                split)["position_coeff"]) < 1e-12


def test_normal_part_is_normal():
    # the coefficients on (J d1, J d2) make vectors normal to d1 and d2
    spec = SurfaceSpec("whitney-cp2", t=0.4)
    lift = _grid_lift(spec, n=5)
    coeff = second_form_split(lift, spec.ambient).coeff
    normal = normal_vectors(lift, coeff[..., :2].imag)
    sig = spec.ambient.sig
    for p in range(3):
        for du in (lift.d1, lift.d2):
            pair = real_pair(normal[..., p, :], du, sig)
            assert np.max(np.abs(pair)) < 1e-11


def test_rank_deficient_point_raises():
    lift = lift_at(SurfaceSpec("clifford-torus"), 0.3, 1.2)
    collapsed = dataclasses.replace(lift, d2=lift.d1)
    with pytest.raises(DegeneratePointError):
        second_form_split(collapsed, CP2)


@pytest.mark.parametrize("space, d1, d2", [
    (C2, [1.0, 0.0], [2.0, 0.0]),             # d2 = 2 d1: det g = 0
    (CH2, [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]),  # timelike d1: g11 = -1
])
def test_split_gates_a_metric_that_is_not_positive_definite(space, d1, d2):
    zero = np.zeros(ambient_dim(space), dtype=complex)
    value = zero.copy()
    value[0] = 1.0
    lift = Jet2(value, np.asarray(d1, dtype=complex),
                np.asarray(d2, dtype=complex), zero, zero, zero)
    with pytest.raises(DegeneratePointError,
                       match="induced metric is not positive definite"):
        second_form_split(lift, space)


# ---------------------------------------------------------------------------
# the closed-form split against the general 6x6 Gram solve

# the surfaces of the CLI goldens in tests/golden
GOLDEN_SPECS = [parse_surface(surface) for _, surface in GOLDEN_CONFIGS]


def _lift_part_defects(position, fiber, lift, space):
    """The split's position and fiber defects, from coefficient arrays
    (..., 3) on psi and i*psi: max |position + g_uv / nu| and max |fiber|,
    each over 1 + |g_uv|."""
    sig = space.sig
    g = np.stack([real_pair(lift.d1, lift.d1, sig),
                  real_pair(lift.d1, lift.d2, sig),
                  real_pair(lift.d2, lift.d2, sig)], axis=-1)
    gscale = 1.0 + np.abs(g)
    return (float(np.max(np.abs(position + g / space.lift_norm) / gscale)),
            float(np.max(np.abs(fiber) / gscale)))


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.label())
def test_split_matches_general_gram_solve(spec):
    lift = _grid_lift(spec, n=181)
    split = second_form_split(lift, spec.ambient)
    defects = split_defects(lift, spec.ambient, split)
    _, normal, position, fiber = reference_split(lift, spec.ambient)
    metric = gram([lift.d1, lift.d2], spec.ambient.sig)[0]
    for got, want in ((split.coeff[..., :2].imag, normal),
                      (split.metric, metric)):
        assert got.shape == want.shape
        gap = np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want)))
        assert gap <= 1e-11
    if spec.ambient.is_lifted:
        # both routes measure the lift parts against -g / nu and 0
        want = _lift_part_defects(position, fiber, lift, spec.ambient)
        for name, ref in zip(("position_coeff", "fiber_coeff"), want):
            assert abs(np.max(defects[name]) - ref) <= 1e-11
    else:
        assert position is None and fiber is None
        assert defects["position_coeff"] == 0.0
        assert defects["fiber_coeff"] == 0.0


@pytest.mark.parametrize("spec", [SurfaceSpec("whitney-ch2", t=0.5),
                                  SurfaceSpec("whitney-c2")],
                         ids=lambda s: s.label())
def test_split_of_one_point_is_its_row_of_a_batch(spec):
    # a 2-d batch and each of its points alone: every array field and every
    # defect of the single split is, bitwise, that point's row of the
    # batched one (a flat target's lift-part defects are 0.0 throughout)
    space = spec.ambient
    a1, a2 = np.meshgrid(np.linspace(0.4, 2.7, 3), np.linspace(0.1, 5.9, 4),
                         indexing="ij")
    lift = lift_at(spec, a1, a2)
    batch = second_form_split(lift, space)
    batch_defects = split_defects(lift, space, batch)
    arrays = [f.name for f in dataclasses.fields(batch)
              if isinstance(getattr(batch, f.name), np.ndarray)]
    assert arrays == ["metric", "coeff"]
    for index in np.ndindex(a1.shape):
        point = Jet2(*(f[index] for f in lift._fields()))
        single = second_form_split(point, space)
        single_defects = split_defects(point, space, single)
        for name in arrays:
            got, row = getattr(single, name), getattr(batch, name)[index]
            assert got.shape == row.shape, name
            assert np.array_equal(got, row), name
        assert single_defects.keys() == batch_defects.keys()
        for name, values in batch_defects.items():
            row = np.broadcast_to(values, a1.shape)[index]
            assert np.array_equal(single_defects[name], row), name


def _closed_form_condition(lift, space):
    sig = space.sig
    args = [real_pair(lift.d1, lift.d1, sig), real_pair(lift.d2, lift.d2, sig),
            herm_pair(lift.d1, lift.d2, sig)]
    if space.is_lifted:
        args += [herm_pair(lift.d1, lift.v, sig),
                 herm_pair(lift.d2, lift.v, sig),
                 real_pair(lift.v, lift.v, sig)]
    return gram_condition(*args)


GATE_CASES = [
    SurfaceSpec("whitney-cp2", t=9.0),
    SurfaceSpec("whitney-ch2", t=8.5),
    SurfaceSpec("whitney-ch2", t=12.0),
    SurfaceSpec("psi-ch2", s=0.78),
    SurfaceSpec("product-torus-c2", r1=1.0, r2=1e-9),
    SurfaceSpec("whitney-cp2", t=0.5),
]


@pytest.mark.parametrize("spec", GATE_CASES, ids=lambda s: s.label())
def test_gate_matches_svd_condition(spec):
    lift = _grid_lift(spec, n=32)
    space = spec.ambient
    want = frame_condition(lift, space)
    got = _closed_form_condition(lift, space)
    # both routes lose about eps * cond relative, past 1e-6 only far
    # beyond the gate
    rel = np.abs(got - want) / want
    assert np.all(rel <= np.maximum(1e-6, 1e-15 * want))
    if np.all(want <= GRAM_COND_LIMIT):
        second_form_split(lift, space)
    else:
        with pytest.raises(DegeneratePointError):
            second_form_split(lift, space)


def test_gate_sees_complex_tangent_plane():
    # at zeta = 0 the control map has d2 = i d1: the real metric is 2*I,
    # yet the tangent plane is complex and the frame Gram singular
    lift = _control_map(np.array([0.0]), np.array([0.0]))
    assert real_pair(lift.d1, lift.d2, C2.sig) == 0.0
    assert frame_condition(lift, C2)[0] > GRAM_COND_LIMIT
    assert not np.isfinite(_closed_form_condition(lift, C2)[0])
    with pytest.raises(DegeneratePointError):
        second_form_split(lift, C2)


def test_residual_reports_neglected_lagrangian_coupling():
    # off zeta = 0 and off |zeta|^2 = 1/2 the control map is immersed but
    # not Lagrangian.  The general solve still spans d_uv psi exactly; the
    # block split neglects Im herm(d1, d2) and its residual says so.
    lift = _control_map(np.array([1.0, 1.3]), np.array([0.0, -0.2]))
    assert np.max(lagrangian_defect(lift, C2)) > TOLERANCES["lagrangian"]
    tangent, normal, _, _ = reference_split(lift, C2)
    second = np.stack([lift.d11, lift.d12, lift.d22], axis=-2)
    recon = (tangent[..., 0, None] * lift.d1[..., None, :]
             + tangent[..., 1, None] * lift.d2[..., None, :]
             + normal_vectors(lift, normal))
    assert np.max(np.abs(second - recon)) < 1e-12
    split = second_form_split(lift, C2)
    residual = np.max(split_defects(lift, C2, split)["split_residual"])
    assert residual > TOLERANCES["split_residual"]


# ---------------------------------------------------------------------------
# storage: (..., m) arrays whose components are each contiguous

LAYOUT_SHAPES = [(12,), (3, 4)]


def _batch_points(spec, shape):
    # a 1-d or 2-d batch of chart points inside the sampling box
    (lo1, hi1), (lo2, hi2) = spec.chart.bounds
    n = int(np.prod(shape))
    return (np.linspace(lo1 + 0.1, hi1 - 0.1, n).reshape(shape),
            np.linspace(hi2 - 0.1, lo2 + 0.1, n).reshape(shape))


@pytest.mark.parametrize("shape", LAYOUT_SHAPES, ids=str)
@pytest.mark.parametrize("spec", [SurfaceSpec("whitney-cp2", t=0.5),
                                  SurfaceSpec("whitney-c2")],
                         ids=lambda s: s.label())
def test_ambient_components_are_contiguous(spec, shape):
    # a C-order stack anywhere on the way makes a component strided
    a1, a2 = _batch_points(spec, shape)
    j1, j2 = Jet2.variables(a1, a2)
    stacked = Jet2.stack([j1, j1 * j2, j2])
    lift = lift_at(spec, a1, a2)
    split = second_form_split(lift, spec.ambient)
    pg = geometry_from_jet(lift, spec.ambient)
    e1, _ = tangent_frame(lift, pg.g)
    m = ambient_dim(spec.ambient)
    assert stacked.d1.shape == shape + (3,)
    assert (lift.d1.shape, split.coeff.shape, e1.shape) == (
        shape + (m,), shape + (3, 2), shape + (m,))
    for k in range(3):
        assert stacked.d1[..., k].flags.c_contiguous
    for p in range(3):
        for k in range(split.coeff.shape[-1]):
            assert split.coeff[..., p, k].flags.c_contiguous
    for k in range(m):
        assert e1[..., k].flags.c_contiguous


def _row_major(lift):
    return Jet2(*(np.ascontiguousarray(f) for f in lift._fields()))


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.label())
def test_storage_order_leaves_every_bit(spec):
    # one lift jet stored row-major and component-major: the pairings, the
    # split and the invariants agree bitwise, defects and frame included
    a1, a2 = _batch_points(spec, (5, 7))
    lift = lift_at(spec, a1, a2)
    rows = _row_major(lift)
    assert rows.d1.flags.c_contiguous and not rows.d1[..., 0].flags.contiguous
    sig = spec.ambient.sig
    assert np.array_equal(herm_pair(lift.d1, lift.d11, sig),
                          herm_pair(rows.d1, rows.d11, sig))
    space = spec.ambient
    got, want = (second_form_split(jet, space) for jet in (rows, lift))
    _assert_same_bits(got, want)
    _assert_same_bits(split_defects(rows, space, got),
                      split_defects(lift, space, want))
    got, want = (geometry_from_jet(jet, space) for jet in (rows, lift))
    _assert_same_bits(got, want)
    _assert_same_bits(tangent_frame(rows, got.g), tangent_frame(lift, want.g))


def _assert_same_bits(got, want, path=""):
    """Equal bits through dataclass fields, dicts and tuples."""
    if dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            _assert_same_bits(getattr(got, field.name),
                              getattr(want, field.name),
                              f"{path}.{field.name}")
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_same_bits(got[key], want[key], f"{path}[{key}]")
    elif isinstance(want, tuple):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_bits(g, w, f"{path}[{i}]")
    elif isinstance(want, np.ndarray):
        assert got.shape == want.shape and got.dtype == want.dtype, path
        assert np.array_equal(got, want), path
    else:
        assert got == want, path


@pytest.mark.parametrize("m", [2, 3])
def test_norm_matches_linalg_norm_in_either_storage_order(m):
    # the split's residual norm sums components in place; the reference is
    # numpy's norm over the trailing axis
    rng = np.random.default_rng(5)
    a = rng.normal(size=(m, 40)) + 1j * rng.normal(size=(m, 40))
    for vec in (a.T, np.ascontiguousarray(a.T)):
        want = np.linalg.norm(vec, axis=-1)
        assert np.allclose(_norm(vec), want, rtol=8 * np.finfo(float).eps,
                           atol=0.0)

"""Stencil operators against hand values, analytic fields, and the dense oracle."""

import numpy as np
import pytest

from ocmg.grid import (
    GridSpec,
    SaddleOperator,
    apply_laplacian,
    apply_mass,
    apply_saddle,
    block_norm2,
    check_alpha,
    check_q,
    residual,
)
from ocmg import lfa, multigrid, oracle


def _rng(seed=0):
    return np.random.default_rng(seed)


def _rand_field(grid, rng):
    return rng.standard_normal((grid.m, grid.m))


def _rand_block(grid, rng):
    return rng.standard_normal((2, grid.m, grid.m))


def _zeros_block(grid):
    return np.zeros((2, grid.m, grid.m))


# ---------------------------------------------------------------- laplacian

def test_laplacian_zero_field():
    g = GridSpec(8)
    out = apply_laplacian(np.zeros((g.m, g.m)), g)
    assert np.all(out == 0.0)


def test_laplacian_single_point_n2():
    # one interior point, no interior neighbors: 4/h^2 = 16 at h = 1/2
    g = GridSpec(2)
    out = apply_laplacian(np.array([[1.0]]), g)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(16.0)


def test_laplacian_matches_analytic_sine():
    # u = sin(2 pi x1) sin(2 pi x2) has -Delta u = 8 pi^2 u; the discrete
    # operator reproduces it to O(h^2).  Normwise bound plus a pointwise
    # check away from the zero set of u.
    g = GridSpec(64)
    x = np.arange(1, g.N) * g.h
    X1, X2 = np.meshgrid(x, x, indexing="xy")  # X1 varies along axis 1 = i
    u = np.sin(2 * np.pi * X1) * np.sin(2 * np.pi * X2)
    exact = 8 * np.pi**2 * u
    got = apply_laplacian(u, g)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(got - exact)) <= 30.0 * g.h**2 * scale
    interior = np.abs(u) > 0.1
    rel = np.abs(got[interior] - exact[interior]) / np.abs(exact[interior])
    assert np.max(rel) < 0.02


def test_laplacian_shape_guard():
    g = GridSpec(8)
    with pytest.raises(ValueError):
        apply_laplacian(np.zeros((3, 3)), g)
    with pytest.raises(ValueError):
        apply_laplacian(np.zeros((2, 7, 6)), g)


@pytest.mark.parametrize("apply_op", [apply_laplacian, apply_mass])
def test_stencils_act_on_each_component_of_a_stack(apply_op):
    g = GridSpec(8)
    v = _rand_block(g, _rng(5))
    out = apply_op(v, g)
    assert out.shape == v.shape
    for k in range(2):
        assert np.array_equal(out[k], apply_op(v[k], g))


# ---------------------------------------------------------------- mass

def test_mass_constant_interior():
    # weights sum to 36 * h^2/36 = h^2 wherever the full stencil is interior
    g = GridSpec(16)
    out = apply_mass(np.ones((g.m, g.m)), g)
    assert np.allclose(out[1:-1, 1:-1], g.h**2, rtol=0, atol=1e-15)


def test_mass_single_point_n2():
    g = GridSpec(2)
    out = apply_mass(np.array([[1.0]]), g)
    assert out[0, 0] == pytest.approx(1.0 / 9.0)


def test_mass_matches_dense():
    g = GridSpec(8)
    u = _rand_field(g, _rng(3))
    Q = oracle.assemble("mass", g)
    assert np.allclose(apply_mass(u, g).ravel(), Q @ u.ravel(), rtol=1e-13, atol=0)


# ---------------------------------------------------------------- saddle

def test_saddle_zero():
    g = GridSpec(4)
    op = SaddleOperator(g, alpha=1.0)
    out = apply_saddle(op, _zeros_block(g))
    assert block_norm2(out) == 0.0


def test_saddle_rejects_a_scalar_field():
    g = GridSpec(4)
    op = SaddleOperator(g, alpha=1.0)
    for bad in (np.zeros((g.m, g.m)), np.zeros((3, g.m, g.m))):
        with pytest.raises(ValueError, match="block field shape"):
            apply_saddle(op, bad)


def test_saddle_single_point_n2():
    g = GridSpec(2)
    op = SaddleOperator(g, alpha=1.0)
    v = np.ones((2, 1, 1))
    out = apply_saddle(op, v)
    assert out[0, 0, 0] == pytest.approx(15.0)  # 16 - 1
    assert out[1, 0, 0] == pytest.approx(17.0)  # 1 + 16


def test_saddle_all_ones_mask_is_identity_block():
    g = GridSpec(8)
    v = _rand_block(g, _rng(1))
    plain = apply_saddle(SaddleOperator(g, alpha=0.37), v)
    masked = apply_saddle(SaddleOperator(g, alpha=0.37, mask=np.ones((g.m, g.m))), v)
    assert np.array_equal(plain[0], masked[0])
    assert np.array_equal(plain[1], masked[1])


@pytest.mark.parametrize("N", [4, 8, 16])
def test_saddle_matches_dense(N):
    g = GridSpec(N)
    rng = _rng(N)
    v = _rand_block(g, rng)
    for mask in (None, (rng.random((g.m, g.m)) < 0.5).astype(float)):
        op = SaddleOperator(g, alpha=1e-2, mask=mask)
        A = oracle.assemble("saddle", g, alpha=1e-2, mask=mask)
        got = apply_saddle(op, v)
        want = A @ v.ravel()  # the C-order ravel of a block field is [y; p]
        flat = got.ravel()
        assert np.allclose(flat, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


# ---------------------------------------------------------------- residual / norm

def test_residual_zero_iterate_returns_rhs():
    g = GridSpec(8)
    b = _rand_block(g, _rng(2))
    op = SaddleOperator(g, alpha=1.0)
    r = residual(op, b, _zeros_block(g))
    assert np.array_equal(r[0], b[0]) and np.array_equal(r[1], b[1])


def test_residual_exact_iterate_is_zero():
    g = GridSpec(8)
    op = SaddleOperator(g, alpha=0.5)
    v = _rand_block(g, _rng(4))
    b = apply_saddle(op, v)
    r = residual(op, b, v)
    assert block_norm2(r) <= 1e-12 * block_norm2(b)


def test_block_norm2_examples():
    g = GridSpec(3)
    assert block_norm2(_zeros_block(g)) == 0.0
    v = _zeros_block(g)
    v[1, 1, 0] = 3.0
    assert block_norm2(v) == pytest.approx(3.0)
    v = np.ones((2, 2, 2))
    assert block_norm2(v) == pytest.approx(np.sqrt(8.0))


# ---------------------------------------------------------------- invariants

@pytest.mark.parametrize("apply_op,kind", [(apply_laplacian, "laplacian"),
                                           (apply_mass, "mass")])
def test_scalar_operators_spd(apply_op, kind):
    g = GridSpec(16)
    rng = _rng(7)
    for _ in range(5):
        u, w = _rand_field(g, rng), _rand_field(g, rng)
        lu, lw = apply_op(u, g), apply_op(w, g)
        sym_gap = abs(np.vdot(lu, w) - np.vdot(u, lw))
        assert sym_gap <= 1e-12 * abs(np.vdot(lu, w))
        assert np.vdot(apply_op(u, g), u) > 0.0


def test_linearity():
    g = GridSpec(12)
    rng = _rng(9)
    op = SaddleOperator(g, alpha=1e-3)
    u, w = _rand_block(g, rng), _rand_block(g, rng)
    lhs = apply_saddle(op, 2.5 * u + (-1.25) * w)
    rhs = 2.5 * apply_saddle(op, u) + (-1.25) * apply_saddle(op, w)
    assert block_norm2(lhs - rhs) <= 1e-12 * block_norm2(rhs)


# ------------------------------------------------------------------ alpha

@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf"), 1e-320])
def test_saddle_operator_rejects_alpha_without_a_finite_reciprocal(alpha):
    # 1e-320 is subnormal: positive, but 1/alpha overflows to inf
    with pytest.raises(ValueError, match="alpha"):
        SaddleOperator(GridSpec(4), alpha)


def test_alpha_check_accepts_every_alpha_with_a_finite_reciprocal():
    for alpha in (1e-12, 1e-300, 2.2250738585072014e-308, 1e300):
        check_alpha(alpha)


# ---------------------------------------------------------------------- q

@pytest.mark.parametrize("check", [
    check_q,
    lambda q: lfa.LfaParams(q=q, alpha=1e-6, h=1.0 / 64),
    lfa.high_freq_grid,
    lfa.bsr_damping,
    lambda q: multigrid.level_sizes(64, q),
])
@pytest.mark.parametrize("q", [0, 1, 5, 8])
def test_every_coarsening_factor_goes_through_one_check(check, q):
    with pytest.raises(ValueError, match=f"^coarsening factor must be 2, 3 or 4, got {q}$"):
        check(q)

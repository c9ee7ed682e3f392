"""Hierarchy construction, transfer operators, cycling, and factor measurement."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

import ocmg
from ocmg import grid as grid_module
from ocmg.grid import GridSpec, apply_mass, block_norm2, residual
from ocmg.lfa import LfaParams, bsr_damping, cjr_optimal, closed_form
from ocmg import multigrid, smoothers
from ocmg.multigrid import (
    COARSEST_N,
    DIRECT_N,
    CycleSpec,
    build_hierarchy,
    cycle,
    level_sizes,
    prolong,
    restrict,
    solve,
)
from ocmg.problems import example1_fields
from ocmg.smoothers import SmootherSpec, bsr_apply, cjr_apply, relaxation, schur_apply

import oracle


def _rng(seed=0):
    return np.random.default_rng(seed)


def _zeros(N):
    return np.zeros((2, N - 1, N - 1))


# ------------------------------------------------------------- level chains

def test_level_sizes_q2():
    assert level_sizes(256, 2) == [256, 128, 64, 32]


def test_level_sizes_q3():
    assert level_sizes(243, 3) == [243, 81, 27]


def test_level_sizes_q4():
    assert level_sizes(256, 4) == [256, 64, 16]


def test_level_sizes_stops_on_divisibility():
    assert level_sizes(72, 2) == [72, 36, 18]
    assert level_sizes(148, 2) == [148, 74, 37]  # stops above DIRECT_N
    with pytest.raises(ValueError, match="cannot be coarsened"):
        level_sizes(100, 3)


def test_level_sizes_stop_at_the_directly_solved_grid():
    assert level_sizes(1024, 2)[-1] == 32
    assert level_sizes(128, 2) == [128, 64, 32]
    assert level_sizes(16, 2) == [16, 8]  # the one coarsening is never skipped
    assert level_sizes(32, 2) == [32, 16]
    assert level_sizes(24, 3) == [24, 8]
    assert level_sizes(50, 2) == [50, 25]


@settings(max_examples=300, deadline=None)
@given(N=st.integers(8, 2048), q=st.sampled_from([2, 3, 4]))
def test_level_sizes_rule(N, q):
    try:
        sizes = level_sizes(N, q)
    except ValueError:
        assert N % q or N // q < COARSEST_N
        return
    assert sizes[0] == N and len(sizes) >= 2
    assert all(n == q * c for n, c in zip(sizes, sizes[1:]))
    assert min(sizes[1:]) >= COARSEST_N
    last = sizes[-1]
    assert last <= DIRECT_N or last % q or last // q < COARSEST_N
    # no level in between is small enough to be solved directly
    assert all(n > DIRECT_N for n in sizes[1:-1])


def test_build_hierarchy_rejects_uncoarsenable():
    with pytest.raises(ValueError):
        build_hierarchy(9, 2, 1e-2, SmootherSpec("cjr"))
    with pytest.raises(ValueError):
        build_hierarchy(16, 5, 1e-2, SmootherSpec("cjr"))


def test_build_hierarchy_rejects_nan_alpha_before_the_coarse_lu(monkeypatch):
    # NaN alpha used to reach the coarse LU: splu failed with "Factor is
    # exactly singular", and the row-block inverses would turn it into NaN;
    # no coarse direct solve may be built from it

    def no_lu(*args, **kwargs):
        raise AssertionError("coarse direct solve reached")

    for solver in (grid_module.SaddleRowLU, grid_module.SaddleSine):
        monkeypatch.setattr(solver, "__init__", no_lu)
    with pytest.raises(ValueError, match="alpha"):
        build_hierarchy(16, 2, float("nan"), SmootherSpec("cjr"))


@pytest.mark.parametrize("entry", [-3.0, 1.001])
@pytest.mark.parametrize("kind", ["cjr", "bsr"])
def test_build_hierarchy_rejects_a_mask_entry_outside_0_1_before_any_direct_solve(
        monkeypatch, kind, entry):
    # the nonsingularity of the direct solves (SaddleSine, SaddleRowLU and the
    # masked Schur LU of exact bsr) assumes mask entries in [0, 1]; an entry
    # of -3 used to build without complaint

    def no_solve(*args, **kwargs):
        raise AssertionError("direct solve reached")

    for solver in (grid_module.SaddleRowLU, grid_module.SaddleSine):
        monkeypatch.setattr(solver, "__init__", no_solve)
    monkeypatch.setattr(smoothers, "schur_lu", no_solve)
    mask = np.ones((15, 15))
    mask[3, 7] = entry
    with pytest.raises(ValueError, match=r"mask has .* outside \[0, 1\]"):
        build_hierarchy(16, 2, 1e-3, SmootherSpec(kind), mask=mask)


@pytest.mark.parametrize("kw", [dict(tol=0.0), dict(tol=-1.0), dict(tol=float("nan")),
                                dict(tol=float("inf")), dict(max_iters=0),
                                dict(nu_pre=0), dict(cycle="X")])
def test_cycle_spec_rejects_bad_values(kw):
    # max_iters=0 used to give rho = 0.0 for a solve that never ran
    with pytest.raises(ValueError):
        CycleSpec(**kw)


def test_cycle_spec_rejects_a_negative_seed_by_name():
    # it used to reach default_rng in solve, whose message names neither
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        CycleSpec(seed=-1)


@pytest.mark.parametrize("name, build", [
    pytest.param("N", lambda: GridSpec(16.0), id="GridSpec(16.0)"),
    pytest.param("N", lambda: level_sizes(16.0, 2), id="level_sizes(16.0,2)"),
    pytest.param("coarsening factor", lambda: level_sizes(16, 2.0), id="level_sizes(16,2.0)"),
    pytest.param("nu", lambda: CycleSpec(nu_pre=1.5), id="nu_pre=1.5"),
    pytest.param("nu", lambda: CycleSpec(nu_pre=2.0), id="nu_pre=2.0"),
    pytest.param("max_iters", lambda: CycleSpec(max_iters=2.5), id="max_iters=2.5"),
    pytest.param("seed", lambda: CycleSpec(seed=0.5), id="seed=0.5"),
    pytest.param("pcg_iters", lambda: SmootherSpec("ibsr", pcg_iters=1.5), id="pcg_iters=1.5"),
    pytest.param("pcg_iters", lambda: SmootherSpec("ibsr", pcg_iters=2.0), id="pcg_iters=2.0"),
])
def test_integer_inputs_reject_non_integers_by_name(name, build):
    # each used to be accepted: GridSpec(16.0).m was 15.0, level_sizes(16, 2.0)
    # gave [16, 8.0], and the specs raised TypeError in the middle of a solve
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build()


@pytest.mark.parametrize("N, q, kind", [(50, 2, "cjr"), (75, 3, "cjr"), (100, 4, "bsr")])
def test_chains_stopping_above_n24_build_and_converge(N, q, kind):
    # each chain stops at N=25; the coarse row-block LU takes any coarsest grid
    hier = build_hierarchy(N, q, 1e-6, SmootherSpec(kind))
    assert hier.levels[-1].op.grid.N == 25
    data, _ = example1_fields(hier.levels[0].op.grid, 1e-6)
    res = solve(hier, np.stack([data.f, data.g]), CycleSpec())
    assert res.converged and res.rho < 1.0


def test_hierarchy_levels_are_rediscretizations():
    hier = build_hierarchy(32, 2, 1e-3, SmootherSpec("cjr"))
    assert [lev.op.grid.N for lev in hier.levels] == [32, 16]
    for lev in hier.levels:
        assert lev.op.alpha == 1e-3
        assert lev.op.grid.h == 1.0 / lev.op.grid.N


def _assert_relaxes_as(lev, direct, rng):
    """lev.relax(r) is bitwise direct(r) for a random r on lev's grid."""
    r = rng.standard_normal((2, lev.op.grid.m, lev.op.grid.m))
    np.testing.assert_array_equal(lev.relax(r), direct(r))


def test_cjr_omega_recomputed_per_level():
    # alpha small enough that the coarser smoothing level crosses the gamma switch
    alpha = 1e-10
    hier = build_hierarchy(128, 2, alpha, SmootherSpec("cjr"))
    rng, omegas = _rng(20), []
    for lev in hier.levels[:-1]:  # the coarsest level is solved, not relaxed
        expect = cjr_optimal(LfaParams(q=2, alpha=alpha, h=lev.op.grid.h)).omega
        _assert_relaxes_as(lev, lambda r: cjr_apply(r, lev.op, expect), rng)
        omegas.append(expect)
    # gamma grows on coarse grids, so the damping must actually vary
    assert len(set(omegas)) > 1


def test_bsr_omega_fixed_per_level():
    hier = build_hierarchy(128, 2, 1e-4, SmootherSpec("bsr"))
    omega = bsr_damping(2)[0]
    rng = _rng(21)
    for lev in hier.levels[:-1]:
        schur = oracle.schur_solve("bsr", lev.op)
        _assert_relaxes_as(lev, lambda r: bsr_apply(r, lev.op, omega, schur), rng)


def test_mask_carried_down_by_averaging():
    rng = _rng(3)
    N, q = 16, 2
    mask = (rng.uniform(size=(N - 1, N - 1)) < 0.5).astype(float)
    hier = build_hierarchy(N, q, 1e-2, SmootherSpec("cjr"), mask=mask)
    m1 = hier.levels[1].op.mask
    np.testing.assert_allclose(m1, restrict(mask, q), atol=0)
    assert np.all((m1 >= 0.0) & (m1 <= 1.0))
    # all-ones masks stay all-ones on every level (constant reproduction)
    hier1 = build_hierarchy(N, q, 1e-2, SmootherSpec("cjr"),
                            mask=np.ones((N - 1, N - 1)))
    assert all(np.allclose(lev.op.mask, 1.0, atol=1e-14)
               for lev in hier1.levels)


def test_averaged_coarse_mask_stabilizes_thin_rings():
    # a subsampled {0,1} coarse mask makes the 1/alpha-weighted coarse
    # correction amplify on thin free-set rings; the averaged mask must
    # keep the cycle contractive
    N, alpha = 64, 1e-6
    t = np.arange(1, N) / N
    X1, X2 = np.meshgrid(t, t)
    r = np.hypot(X1 - 0.5, X2 - 0.5)
    mask = ((r > 0.30) & (r < 0.33)).astype(float)
    hier = build_hierarchy(N, 2, alpha, SmootherSpec("ibsr"), mask=mask)
    grid = GridSpec(N)
    rng = _rng(11)
    b = rng.standard_normal((2, grid.m, grid.m))
    res = solve(hier, b, CycleSpec(cycle="W", nu_pre=2))
    assert res.converged
    assert res.rho < 0.6


# ---------------------------------------------------------------- transfers

@pytest.mark.parametrize("q", [2, 3, 4])
def test_restrict_reproduces_constants(q):
    N = 12 * q
    out = restrict(np.ones((N - 1, N - 1)), q)
    np.testing.assert_allclose(out, 1.0, atol=1e-14)


def test_restrict_delta_at_coarse_image_q2():
    N = 16
    fine = np.zeros((N - 1, N - 1))
    fine[7, 7] = 1.0  # fine node (8,8) = image of coarse node (4,4)
    out = restrict(fine, 2)
    expect = np.zeros((7, 7))
    expect[3, 3] = 0.25  # center coefficient (2/4)^2
    np.testing.assert_allclose(out, expect, atol=1e-15)


def test_restrict_reproduces_linear_q3():
    N = 27
    xs = np.arange(1, N) / N
    fine = np.tile(xs, (N - 1, 1))  # samples of f(x) = x1
    out = restrict(fine, 3)
    xc = np.arange(1, 9) / 9
    np.testing.assert_allclose(out, np.tile(xc, (8, 1)), atol=1e-14)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_prolong_zero_is_zero(q):
    Nc = 6
    out = prolong(np.zeros((Nc - 1, Nc - 1)), q)
    assert out.shape == (q * Nc - 1, q * Nc - 1)
    assert not out.any()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_prolong_reproduces_bilinear(q):
    # x1*x2 vanishes on the two boundary edges the first segments touch,
    # so interpolation is exact except on the last segment in each axis.
    Nc = 6
    N = q * Nc
    xc = np.arange(1, Nc) / Nc
    xf = np.arange(1, N) / N
    out = prolong(np.outer(xc, xc), q)
    expect = np.outer(xf, xf)
    np.testing.assert_allclose(out[:N - q, :N - q], expect[:N - q, :N - q],
                               atol=1e-14)


def test_prolong_delta_is_tensor_hat():
    Nc, q = 4, 3
    coarse = np.zeros((Nc - 1, Nc - 1))
    coarse[1, 1] = 1.0
    out = prolong(coarse, q)
    hat = np.zeros(q * Nc - 1)
    center = 2 * q - 1  # 0-based index of fine node q*2
    for k in range(-(q - 1), q):
        hat[center + k] = (q - abs(k)) / q
    np.testing.assert_allclose(out, np.outer(hat, hat), atol=1e-15)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_transfers_adjoint_up_to_q_squared(q):
    # dense probes of both operators: R = P^T / q^2
    N = 12
    Nc = N // q
    mf, mc = N - 1, Nc - 1
    P = np.zeros((mf * mf, mc * mc))
    for j in range(mc * mc):
        e = np.zeros(mc * mc)
        e[j] = 1.0
        P[:, j] = prolong(e.reshape(mc, mc), q).ravel()
    R = np.zeros((mc * mc, mf * mf))
    for j in range(mf * mf):
        e = np.zeros(mf * mf)
        e[j] = 1.0
        R[:, j] = restrict(e.reshape(mf, mf), q).ravel()
    np.testing.assert_allclose(R, P.T / q**2, atol=1e-14)


# The per-k loop transfers the sparse ones replaced, kept as the reference.

def _restrict_loops(fine, q):
    N = fine.shape[0] + 1
    Nc = N // q
    F = np.zeros((N + 1, N + 1))
    F[1:N, 1:N] = fine
    w = (q - np.abs(np.arange(-(q - 1), q))) / q**2
    tmp = np.zeros((Nc - 1, N + 1))
    for k in range(-(q - 1), q):
        tmp += w[k + q - 1] * F[q + k:N - q + k + 1:q, :]
    out = np.zeros((Nc - 1, Nc - 1))
    for k in range(-(q - 1), q):
        out += w[k + q - 1] * tmp[:, q + k:N - q + k + 1:q]
    return out


def _prolong_loops(coarse, q):
    Nc = coarse.shape[0] + 1
    N = q * Nc
    C = np.zeros((Nc + 1, Nc + 1))
    C[1:Nc, 1:Nc] = coarse
    rows = np.arange(Nc) * q
    A = np.zeros((N + 1, Nc + 1))
    for k in range(q):
        t = k / q
        A[rows + k, :] = (1.0 - t) * C[:Nc, :] + t * C[1:, :]
    out = np.zeros((N + 1, N + 1))
    for k in range(q):
        t = k / q
        out[:, rows + k] = (1.0 - t) * A[:, :Nc] + t * A[:, 1:]
    return out[1:N, 1:N]


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_transfers_match_loops_and_are_adjoint(q, data, seed):
    Nc = data.draw(st.integers(2, 48 // q), label="Nc")
    N = q * Nc
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((N - 1, N - 1))
    c = rng.standard_normal((Nc - 1, Nc - 1))
    rf, pc = restrict(f, q), prolong(c, q)
    assert rf.flags.c_contiguous and pc.flags.c_contiguous
    # same sums up to rounding (prolong sums its two axes in another order)
    np.testing.assert_allclose(rf, _restrict_loops(f, q), rtol=0,
                               atol=1e-15 * np.abs(f).max())
    np.testing.assert_allclose(pc, _prolong_loops(c, q), rtol=0,
                               atol=1e-15 * np.abs(c).max())
    lhs = np.vdot(pc, f)
    rhs = q**2 * np.vdot(c, rf)
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(pc) * np.linalg.norm(f)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), Nc=st.integers(2, 24),
       dtype=st.sampled_from([np.float32, np.float64]), stacked=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(q=2, Nc=129, dtype=np.float64, stacked=False, seed=0)  # two strips each
def test_transfers_are_bitwise_the_sparse_products(q, Nc, dtype, stacked, seed):
    # the stencils sum the sparse products' terms in their order, with the
    # weights cast to the field's dtype, so every bit agrees
    rng = np.random.default_rng(seed)
    shape = (2,) if stacked else ()
    f = rng.standard_normal(shape + (q * Nc - 1,) * 2).astype(dtype)
    c = rng.standard_normal(shape + (Nc - 1,) * 2).astype(dtype)
    if Nc == 129:
        assert len(grid_module.row_strips(f)) > 1
        assert len(grid_module.row_strips(prolong(c, q))) > 1
    for out, ref in ((restrict(f, q), oracle.restrict_reference(f, q)),
                     (prolong(c, q), oracle.prolong_reference(c, q))):
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.flags.c_contiguous
        assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("transfer", [restrict, prolong])
def test_transfers_reject_fields_they_cannot_map(transfer):
    for field in (np.ones((7, 8)), np.ones((2, 8, 7)), np.ones(7)):
        with pytest.raises(ValueError, match="square"):
            transfer(field, 2)
    # N = 3 is divisible by q = 3 but has no coarse interior point
    with pytest.raises(ValueError, match="cannot be coarsened"):
        transfer(np.ones((2, 2)) if transfer is restrict else np.ones((0, 0)), 3)
    with pytest.raises(ValueError, match="coarsening factor"):
        transfer(np.ones((2, 7, 7)), 5)


def test_restrict_rejects_indivisible():
    with pytest.raises(ValueError):
        restrict(np.ones((15, 15)), 3)


# ------------------------------------------------------------------ cycling

def test_cycle_coarsest_level_is_direct_solve():
    hier = build_hierarchy(16, 2, 1e-2, SmootherSpec("cjr"))
    coarse = hier.levels[-1]
    rng = _rng(1)
    b = rng.standard_normal((2, coarse.op.grid.m, coarse.op.grid.m))
    v = cycle(hier, len(hier.levels) - 1, b, CycleSpec())
    A = oracle.assemble("saddle", coarse.op.grid, alpha=1e-2)
    expect = oracle.dense_solve(A, b.ravel())
    np.testing.assert_allclose(v.ravel(), expect, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("N, q", [(64, 2), (81, 3)])
@pytest.mark.parametrize("mask_kind", ["none", "binary", "fractional", "sparse"])
@pytest.mark.parametrize("alpha", [1e-2, 1e-6, 1e-10])
def test_coarse_solve_is_backward_stable_above_the_oracle_size(N, q, mask_kind,
                                                               alpha):
    # coarsest grids of N=32 and N=27 are beyond the dense oracle, so the
    # direct solution is checked against the matrix-free operator; the mask is
    # drawn on the fine grid and reaches the coarsest level averaged
    rng = _rng(12)
    shape = (N - 1, N - 1)
    mask = {"none": None,
            "binary": (rng.random(shape) < 0.5).astype(float),
            "fractional": rng.random(shape),
            "sparse": _sparse_mask(_rng(17), shape, 20)}[mask_kind]
    hier = build_hierarchy(N, q, alpha, SmootherSpec("cjr"), mask=mask)
    coarse = hier.levels[-1]
    assert coarse.op.grid.N == N // q
    # both direct solves are checked: the sine solve unmasked and sparse
    sine = mask_kind in ("none", "sparse")
    assert isinstance(coarse.relax.__self__,
                      grid_module.SaddleSine if sine else grid_module.SaddleRowLU)
    _assert_lu_solves_the_saddle_system(coarse, rng)


def _sparse_mask(rng, shape, k):
    """A fractional mask nonzero at k random points."""
    mask = np.zeros(shape)
    mask.flat[rng.choice(mask.size, k, replace=False)] = rng.uniform(0.1, 1.0, k)
    return mask


def test_saddle_solver_takes_the_row_lu_above_4m_nonzeros():
    # build_hierarchy binds saddle_solver's choice (see the test above)
    grid = GridSpec(32)
    for k, solver in ((None, grid_module.SaddleSine), (0, grid_module.SaddleSine),
                      (4 * grid.m, grid_module.SaddleSine),
                      (4 * grid.m + 1, grid_module.SaddleRowLU)):
        mask = None if k is None else _sparse_mask(_rng(19), (grid.m, grid.m), k)
        op = grid_module.SaddleOperator(grid, 1e-6, mask)
        assert isinstance(grid_module.saddle_solver(op).__self__, solver)


def _assert_lu_solves_the_saddle_system(coarse, rng):
    """coarse.relax solves coarse.op's saddle system backward stably."""
    b = rng.standard_normal((2, coarse.op.grid.m, coarse.op.grid.m))
    x = coarse.relax(b)
    # at least the infinity norm of [[L, -diag(mask)/alpha], [I, L]],
    # whose L rows have absolute sums of at most 8/h^2
    mask_max = 1.0 if coarse.op.mask is None else coarse.op.mask.max()
    norm_a = 8.0 / coarse.op.grid.h**2 + max(1.0, mask_max / coarse.op.alpha)
    err = np.abs(oracle.apply_saddle(coarse.op, x) - b).max()
    assert err <= 1e-14 * (norm_a * np.abs(x).max() + np.abs(b).max())


def test_cycle_error_decreases_monotonically():
    # moderate alpha: for tiny alpha the saddle iteration is far from
    # normal and the plain Euclidean error can grow transiently
    N, alpha = 16, 1e-2
    grid = GridSpec(N)
    hier = build_hierarchy(N, 2, alpha, SmootherSpec("cjr"))
    rng = _rng(2)
    vstar = rng.standard_normal((2, grid.m, grid.m))
    b = oracle.apply_saddle(hier.levels[0].op, vstar)
    v = rng.uniform(size=(2, grid.m, grid.m))
    spec = CycleSpec(cycle="V", nu_pre=1)
    errs = [block_norm2(v - vstar)]
    for _ in range(8):
        v += cycle(hier, 0, residual(hier.levels[0].op, b, v), spec)
        errs.append(block_norm2(v - vstar))
    assert all(b < a for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
def test_w_equals_v_on_two_level_hierarchy(kind):
    hier = build_hierarchy(16, 2, 1e-3, SmootherSpec(kind))
    grid = hier.levels[0].op.grid
    rng = _rng(4)
    b = rng.standard_normal((2, grid.m, grid.m)).astype(hier.dtype)
    vv = cycle(hier, 0, b, CycleSpec(cycle="V", nu_pre=2))
    vw = cycle(hier, 0, b, CycleSpec(cycle="W", nu_pre=2))
    np.testing.assert_array_equal(vv, vw)


def test_two_level_solve_reaches_dense_solution():
    # N=16 over a direct N=8 coarse solve: plenty of smoothing must reach
    # the dense solution well within 30 cycles.
    N, alpha = 16, 1e-2
    grid = GridSpec(N)
    hier = build_hierarchy(N, 2, alpha, SmootherSpec("cjr"))
    assert len(hier.levels) == 2
    rng = _rng(5)
    b = rng.standard_normal((2, grid.m, grid.m))
    res = solve(hier, b, CycleSpec(cycle="V", nu_pre=3, tol=1e-10, max_iters=30))
    assert res.converged
    A = oracle.assemble("saddle", grid, alpha=alpha)
    expect = oracle.dense_solve(A, b.ravel())
    np.testing.assert_allclose(res.v.ravel(), expect,
                               atol=1e-9 * max(1.0, np.linalg.norm(expect)))


@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
@pytest.mark.parametrize("nu", [1, 2])
def test_cycle_leaves_caller_fields_unmodified(kind, nu):
    # the caller's b is never modified; the correction is a new array of b's dtype
    hier = build_hierarchy(32, 2, 1e-3, SmootherSpec(kind))
    grid = hier.levels[0].op.grid
    b = _rng(6).standard_normal((2, grid.m, grid.m)).astype(hier.dtype)
    b_in = b.copy()
    out = cycle(hier, 0, b, CycleSpec(cycle="W", nu_pre=nu))
    assert out.dtype == b.dtype and not np.shares_memory(out, b)
    np.testing.assert_array_equal(b, b_in)
    assert np.any(out)


@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
def test_one_solve_step_adds_the_scaled_correction_of_the_scaled_residual(kind):
    # v1 = v0 + 2^k cycle(2^-k r0), 2^k the binary exponent of ||r0||:
    # the cycle reads the residual cast to the hierarchy's dtype, and the
    # correction is scaled back in float64
    hier = build_hierarchy(32, 2, 1e-3, SmootherSpec(kind))
    op = hier.levels[0].op
    rng = _rng(7)
    v0 = rng.uniform(size=(2, op.grid.m, op.grid.m))
    b = rng.standard_normal((2, op.grid.m, op.grid.m))
    spec = CycleSpec(cycle="W", nu_pre=2, max_iters=1)
    r0 = residual(op, b, v0)
    k = math.frexp(block_norm2(r0))[1]
    c = cycle(hier, 0, (r0 * 2.0**-k).astype(np.float32), spec)
    res = solve(hier, b, spec, v0=v0)
    np.testing.assert_array_equal(res.v, v0 + c.astype(np.float64) * 2.0**k)
    assert res.history == [block_norm2(r0), block_norm2(residual(op, b, res.v))]


@pytest.mark.parametrize("N, q, kind, calls", [
    (256, 2, "W", 4), (64, 2, "V", 1), (243, 3, "W", 2), (64, 4, "W", 1)])
def test_cycle_visits_the_coarsest_level_once_per_coarse_correction(
        N, q, kind, calls):
    # the coarsest level's LU solve is exact, so a W-cycle's second visit
    # from the level above would correct nothing: 2^(L-2) LU solves, not 2^(L-1)
    hier = build_hierarchy(N, q, 1e-3, SmootherSpec("cjr"))
    grid = hier.levels[0].op.grid
    lu_solve, count = hier.levels[-1].relax, []

    def counted(*args, **kwargs):
        count.append(1)
        return lu_solve(*args, **kwargs)

    hier.levels[-1].relax = counted
    b = _rng(8).standard_normal((2, grid.m, grid.m)).astype(hier.dtype)
    cycle(hier, 0, b, CycleSpec(cycle=kind))
    assert len(count) == calls


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
def test_cycle_fields_stay_in_the_hierarchy_dtype(monkeypatch, kind, masked):
    # every field the residual, the transfers and the smoother kernels
    # return inside a float32 cycle is float32: a kernel that promotes to
    # float64 would silently give the mixed-precision gain back
    seen = []

    def record(f):
        def recorded(*args, **kwargs):
            out = f(*args, **kwargs)
            seen.append((f.__qualname__, out.dtype))
            return out
        return recorded

    # the coarsest level binds its direct solve when the hierarchy is built
    for solver in (grid_module.SaddleRowLU, grid_module.SaddleSine):
        monkeypatch.setattr(solver, "solve", record(solver.solve))
    monkeypatch.setattr(smoothers.SchurSpectral, "solve",
                        record(smoothers.SchurSpectral.solve))
    for name in ("cjr_apply", "bsr_apply", "pcg", "schur_apply", "apply_mass",
                 "apply_laplacian"):
        monkeypatch.setattr(smoothers, name, record(getattr(smoothers, name)))
    for name in ("residual", "restrict", "prolong"):
        monkeypatch.setattr(multigrid, name, record(getattr(multigrid, name)))
    mask = (_rng(14).uniform(size=(127, 127)) < 0.7).astype(float) if masked else None
    hier = build_hierarchy(128, 2, 1e-6, SmootherSpec(kind), mask=mask)
    assert hier.dtype == np.float32
    seen.clear()  # the masks were restricted in float64 while building
    b = _rng(15).standard_normal((2, 127, 127)).astype(np.float32)
    assert cycle(hier, 0, b, CycleSpec(cycle="W", nu_pre=2)).dtype == np.float32
    names = {name for name, _ in seen}
    # the 70% mask is dense, so the masked coarsest level is the row LU's
    coarse = "SaddleRowLU.solve" if masked else "SaddleSine.solve"
    assert {"residual", "restrict", "prolong", coarse} <= names
    assert {"cjr": "cjr_apply", "bsr": "bsr_apply", "ibsr": "pcg"}[kind] in names
    assert [s for s in seen if s[1] != np.float32] == []


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("alpha", [1e-2, 1e-6, 1e-12])
@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
def test_mixed_precision_solve_keeps_float64_accuracy(kind, alpha, masked):
    # float32 cycles inside a float64 residual reach the sparse direct
    # solution to float64 accuracy; float32 iterates would stall near 1e-7
    N = 32
    rng = _rng(16)
    mask = (rng.random((N - 1, N - 1)) < 0.5).astype(float) if masked else None
    hier = build_hierarchy(N, 2, alpha, SmootherSpec(kind), mask=mask)
    assert hier.dtype == np.float32
    b = rng.standard_normal((2, N - 1, N - 1))
    # from zero, so the tolerance is relative to b; masked cjr at
    # alpha=1e-12 contracts by about 0.89 per cycle
    res = solve(hier, b, CycleSpec(tol=1e-12, max_iters=300), v0=np.zeros_like(b))
    assert res.converged
    x = spsolve(oracle.saddle_matrix(hier.levels[0].op), b.ravel()).reshape(b.shape)
    assert block_norm2(res.v - x) <= 1e-10 * block_norm2(x)


@pytest.mark.parametrize("N, alpha, dtype, iters", [
    (64, 1e-40, np.float64, (1, 22, 16)), (64, 1e-100, np.float64, (1, 22, 16)),
    (256, 1e-19, np.float64, (3, 23, 16)), (256, 1e-16, np.float32, (3, 23, 16)),
    (64, 1e-19, np.float64, (1, 22, 16)), (16, 1e-19, np.float64, (1, 22, 16))])
def test_precision_follows_the_float32_range(N, alpha, dtype, iters):
    # alpha or 1/alpha beyond sqrt(float32 max) would overflow float32
    # products, and below alpha (4N^2)^2 = eps a float32 y-update keeps no
    # digit, so such a hierarchy cycles in float64; the counts are the
    # all-float64 solver's (float32 cjr cycles took 3 at N=64 and N=16)
    grid = GridSpec(N)
    data, _ = example1_fields(grid, alpha)
    for kind, want in zip(("cjr", "ibsr", "bsr"), iters):
        hier = build_hierarchy(N, 2, alpha, SmootherSpec(kind))
        assert hier.dtype == dtype
        res = solve(hier, np.stack([data.f, data.g]), CycleSpec())
        assert res.converged and res.iters == want


def test_float32_bound_is_where_the_y_update_cancels():
    # float32 cycles while alpha (4N^2)^2 >= float32 eps, float64 below
    eps = float(np.finfo(np.float32).eps)
    for N in (16, 64, 256):
        edge = eps / (4.0 * N * N) ** 2
        assert build_hierarchy(N, 2, 1.01 * edge, SmootherSpec("cjr")).dtype == np.float32
        assert build_hierarchy(N, 2, edge / 1.01, SmootherSpec("cjr")).dtype == np.float64


@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
def test_solve_is_exactly_homogeneous_under_powers_of_two(kind):
    # the residual is scaled by powers of two only, so 2^200 b gives
    # exactly 2^200 times the iterate and the history; at 2^-600 the
    # squares of b's entries underflow, and an unscaled norm stopped the
    # solve after 0 cycles
    hier = build_hierarchy(32, 2, 1e-6, SmootherSpec(kind))
    b = _rng(17).standard_normal((2, 31, 31))
    spec = CycleSpec(max_iters=8)
    one = solve(hier, b, spec, v0=_zeros(32))
    for scale in (2.0**200, 2.0**-600):
        scaled = solve(hier, scale * b, spec, v0=_zeros(32))
        np.testing.assert_array_equal(scaled.v, scale * one.v)
        assert scaled.history == [scale * h for h in one.history]


@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
def test_solve_at_the_ends_of_the_float_range(kind):
    # residual norms from 2^1023 up, or below 2^-1023, have no float scale
    # 2^-s taking them to [1/2, 1) (2.0 ** 1024 raises OverflowError); the
    # scale stops at 2^1023 or 2^-1023 instead.  At N = 32 the residual never
    # grows past ||b||, so that of 2^1023 b stays finite
    hier = build_hierarchy(32, 2, 1e-3, SmootherSpec(kind))
    b = _rng(17).standard_normal((2, 31, 31))
    b *= 2.0 ** (1 - math.frexp(block_norm2(b))[1])  # ||b|| in [1, 2)
    spec = CycleSpec(max_iters=4)
    one = solve(hier, b, spec, v0=_zeros(32))
    assert max(one.history) < 2.0
    top = solve(hier, b * 2.0**1023, spec, v0=_zeros(32))
    np.testing.assert_array_equal(top.v, one.v * 2.0**1023)
    assert top.history == [h * 2.0**1023 for h in one.history]
    # 2^-1030 b and its iterate are subnormal and keep only some 25 bits
    low = solve(hier, b * 2.0**-1030, spec, v0=_zeros(32))
    assert low.iters == 4
    np.testing.assert_allclose(low.v * 2.0**1000 * 2.0**30, one.v, rtol=0,
                               atol=1e-6 * np.abs(one.v).max())


def test_solve_of_a_tiny_right_hand_side_takes_the_cycles_of_a_small_one():
    # every entry 1e-170: the unscaled norm of b read 0, and the solve
    # returned converged after 0 cycles with v = 0
    hier = build_hierarchy(16, 2, 1e-3, SmootherSpec("cjr"))
    small, tiny = (solve(hier, np.full((2, 15, 15), x), CycleSpec(), v0=_zeros(16))
                   for x in (1e-150, 1e-170))
    assert small.converged and tiny.converged
    assert tiny.iters == small.iters == 45
    assert tiny.history[0] == pytest.approx(1e-20 * small.history[0], rel=1e-14)
    np.testing.assert_allclose(tiny.v, 1e-20 * small.v, rtol=1e-8)


def test_solve_of_a_zero_system_from_zero_returns_without_a_cycle():
    # the initial residual is exactly 0, so no relative reduction can be measured
    hier = build_hierarchy(16, 2, 1e-3, SmootherSpec("cjr"))
    res = solve(hier, _zeros(16), CycleSpec(), v0=_zeros(16))
    assert res.converged and res.failure is None
    assert (res.iters, res.rho, res.history) == (0, 0.0, [0.0])
    assert not res.v.any()


def test_solve_returns_a_float64_iterate_for_float32_input():
    hier = build_hierarchy(16, 2, 1e-3, SmootherSpec("cjr"))
    b = _rng(18).standard_normal((2, 15, 15))
    for b_in, v0 in ((b.astype(np.float32), None),
                     (b, _zeros(16).astype(np.float32)),
                     (b.astype(np.float32), _zeros(16).astype(np.float32))):
        res = solve(hier, b_in, CycleSpec(), v0=v0)
        assert res.converged and res.v.dtype == np.float64


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} rebuilt after the hierarchy")
    return refuse


def test_ibsr_levels_cache_the_schur_diagonal(monkeypatch):
    rng = _rng(9)
    mask = (rng.uniform(size=(127, 127)) < 0.7).astype(float)
    spec = SmootherSpec("ibsr")
    hier = build_hierarchy(128, 2, 1e-3, spec, mask=mask)
    rs = [rng.standard_normal((2, lev.op.grid.m, lev.op.grid.m)) for lev in hier.levels[:-1]]
    want = [relaxation(lev.op, spec, 2)(r) for r, lev in zip(rs, hier.levels)]
    monkeypatch.setattr(smoothers, "schur_diag", _refuse("schur_diag"))
    for r, w, lev in zip(rs, want, hier.levels):
        np.testing.assert_array_equal(lev.relax(r), w)


def test_masked_bsr_levels_cache_an_exact_schur_inverse(monkeypatch):
    rng = _rng(10)
    mask = (rng.uniform(size=(127, 127)) < 0.7).astype(float)
    hier = build_hierarchy(128, 2, 1e-6, SmootherSpec("bsr"), mask=mask)
    for name in ("schur_lu", "SchurSpectral", "schur_diag"):
        monkeypatch.setattr(smoothers, name, _refuse(name))
    for lev in hier.levels[:-1]:
        assert lev.op.mask is not None
        r = rng.standard_normal((2, lev.op.grid.m, lev.op.grid.m))
        w_p = lev.relax(r)[1]
        # omega times the solution for the Schur right-hand side
        b = bsr_damping(2)[0] * (r[1] - apply_mass(r[0], lev.op.grid))
        assert np.linalg.norm(schur_apply(w_p, lev.op) - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
def test_level_relax_is_bitwise_the_direct_smoother(kind, masked):
    rng = _rng(11)
    mask = (rng.uniform(size=(127, 127)) < 0.7).astype(float) if masked else None
    hier = build_hierarchy(128, 2, 1e-4, SmootherSpec(kind), mask=mask)
    for lev in hier.levels:
        r = rng.standard_normal((2, lev.op.grid.m, lev.op.grid.m)).astype(hier.dtype)
        r_in = r.copy()
        got = lev.relax(r)
        # every relax, the coarsest level's LU solve included, returns a new
        # array and leaves r as it was: the W-cycle reads rc again
        assert not np.shares_memory(got, r)
        np.testing.assert_array_equal(r, r_in)
        if lev is hier.levels[-1]:
            continue
        expect = closed_form(kind, LfaParams(q=2, alpha=1e-4, h=lev.op.grid.h)).omega
        if kind == "cjr":
            want = cjr_apply(r, lev.op, expect)
        else:
            want = bsr_apply(r, lev.op, expect, oracle.schur_solve(kind, lev.op))
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
def test_coarsest_level_builds_no_smoother_state(monkeypatch, kind):
    # the coarsest level's relax is the LU solve of its saddle system, so
    # it builds no smoother state
    built = []
    for name in ("schur_lu", "SchurSpectral", "schur_diag"):
        def record(*args, _name=name, _f=getattr(smoothers, name)):
            built.append(_name)
            return _f(*args)
        monkeypatch.setattr(smoothers, name, record)
    mask = (_rng(12).uniform(size=(127, 127)) < 0.7).astype(float)
    hier = build_hierarchy(128, 2, 1e-4, SmootherSpec(kind), mask=mask)
    assert [lev.op.grid.N for lev in hier.levels] == [128, 64, 32]
    # one Schur solve per relaxed level: a sparse LU for masked bsr, the
    # diagonal for ibsr
    assert built == {"cjr": [], "bsr": ["schur_lu"] * 2, "ibsr": ["schur_diag"] * 2}[kind]
    _assert_lu_solves_the_saddle_system(hier.levels[-1], _rng(13))
    assert all(callable(lev.relax) for lev in hier.levels[:-1])


def test_only_masked_exact_bsr_imports_scipy_sparse_linalg():
    # the transfers are NumPy stencils, the coarsest level a NumPy direct
    # solve and unmasked bsr's Schur solve sine-matrix products, so cjr, ibsr and
    # unmasked bsr solves and an ibsr Newton solve with its coarse stage import
    # no scipy module at all; masked exact bsr factors with splu
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from ocmg import cli, multigrid, ssn\n"
        "from ocmg.grid import GridSpec\n"
        "from ocmg.problems import example2_fields\n"
        "from ocmg.smoothers import SmootherSpec\n"
        "def scipy_modules():\n"
        "    return sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
        "for kind in ('cjr', 'ibsr', 'bsr'):\n"
        "    for q in (2, 3, 4):\n"
        "        h = multigrid.build_hierarchy(48, q, 1e-3, SmootherSpec(kind))\n"
        "        multigrid.solve(h, np.ones((2, 47, 47)), multigrid.CycleSpec(max_iters=2))\n"
        "cp = ssn.ControlParams(alpha=1e-4, beta=1e-3, u0=-30.0, u1=30.0)\n"
        "res = ssn.ssn_solve(example2_fields(GridSpec(32)), cp, 2, SmootherSpec('ibsr'),\n"
        "                    multigrid.CycleSpec(nu_pre=2))\n"
        "assert res.converged and res.start is not None  # the coarse stage ran\n"
        "assert scipy_modules() == [], scipy_modules()\n"
        "multigrid.build_hierarchy(16, 2, 1e-3, SmootherSpec('bsr'), mask=np.ones((15, 15)))\n"
        "assert 'scipy.sparse.linalg' in sys.modules\n")
    src = Path(ocmg.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


# Residual histories and iterate checksums of six W(1,0) cycles on the
# manufactured problem at alpha=1e-6, recorded with float32 cycles
# (64 -> 32, 81 -> 27 and 64 -> 16) and bsr's Schur solve as sine-matrix
# products.  The first and last entries are float64 residual norms, the
# five between the float32-carried estimates solve refreshes by the
# eps^(1/4) rule; they differ by at most 8.6e-7 relative from the histories
# of a float64 residual made after every cycle, which differ from the
# all-float64 solver's by at most 1.2e-6.
# Checksum: <w0, y>, <w1, p>, ||y||, ||p|| with
# w = default_rng(1).standard_normal((2, m, m)).
REFERENCE_SIZES = {2: 64, 3: 81, 4: 64}
REFERENCE = {
    ("cjr", 2): (
        [52852947.741985254, 7477277.129992019, 6422481.482341346,
         5079027.840093266, 3626059.7805248904, 2450112.6933519687,
         1601549.3281003751],
        (-91.33866791825875, 11.985939222340296, 122.96076699119298,
         36.67811876930421)),
    ("cjr", 3): (
        [66824210.69292641, 9885748.286327628, 11076756.320963541,
         11408725.369642911, 10630491.198092524, 9402729.309957724,
         8066164.91447675],
        (251.90954214822705, -27.978809543234327, 345.84688819086205,
         46.43962349556606)),
    ("cjr", 4): (
        [52852947.741985254, 9008204.46410041, 11157710.026452541,
         12892876.172630968, 13447204.129621606, 13254414.226815388,
         12620444.539959563],
        (-1014.9059608194566, 13.389927432149017, 1042.299171632106,
         36.757626700915154)),
    ("bsr", 2): (
        [52852947.741985254, 4607001.792806753, 981913.0773562924,
         242196.37483792225, 59585.446696723564, 15002.722553184767,
         3727.662704100825],
        (-152.1993898225625, 11.803495355109316, 101.5283467726857,
         36.67757054081725)),
    ("bsr", 3): (
        [66824210.69292641, 5966097.620490444, 1264421.591878906,
         311624.61789831583, 82438.57920658524, 22511.723831108,
         6245.391206448118],
        (48.10107176045905, -31.26018523087953, 127.62240592831928,
         46.4199664283638)),
    ("bsr", 4): (
        [52852947.741985254, 2692014.4569417825, 369296.98648950196,
         70004.921840396, 28809.836383062437, 10904.023601659432,
         4834.266649059227],
        (-153.41358656074487, 11.804710701603417, 101.5333309382626,
         36.677571409183734)),
    ("ibsr", 2): (
        [52852947.741985254, 4732502.936725082, 1201555.3099286302,
         301784.8702804995, 89121.93766714072, 24415.68937837426,
         6854.478764411142],
        (-152.45589203415363, 11.799756446400856, 101.52634367817885,
         36.67756913337512)),
    ("ibsr", 3): (
        [66824210.69292641, 7035791.47519628, 1720050.464603538,
         485441.5235686204, 160210.41382817537, 51697.72395642445,
         19884.94314881561],
        (49.76393737611623, -31.225838746321777, 127.73775885061585,
         46.419970483526555)),
    ("ibsr", 4): (
        [52852947.741985254, 4870829.352459435, 1166559.9145699784,
         535184.0119622907, 333719.7469613846, 209669.29499670592,
         118409.07412736477],
        (-168.3903394385093, 11.811634040753145, 114.46778337250299,
         36.6775607067369)),
}


@pytest.mark.parametrize("kind, q", sorted(REFERENCE))
def test_solve_matches_recorded_reference(kind, q):
    history_ref, check_ref = REFERENCE[kind, q]
    grid = GridSpec(REFERENCE_SIZES[q])
    data, _ = example1_fields(grid, 1e-6)
    hier = build_hierarchy(grid.N, q, 1e-6, SmootherSpec(kind))
    res = solve(hier, np.stack([data.f, data.g]),
                CycleSpec(cycle="W", nu_pre=1, max_iters=6))
    np.testing.assert_allclose(res.history, history_ref, rtol=1e-12, atol=0)
    w = _rng(1).standard_normal((2, grid.m, grid.m))
    norm_y, norm_p = np.linalg.norm(res.v[0]), np.linalg.norm(res.v[1])
    assert norm_y == pytest.approx(check_ref[2], rel=1e-12)
    assert norm_p == pytest.approx(check_ref[3], rel=1e-12)
    # relative to the largest value the inner product can take
    for wk, field, ref_dot in ((w[0], res.v[0], check_ref[0]),
                               (w[1], res.v[1], check_ref[1])):
        bound = 1e-12 * np.linalg.norm(wk) * np.linalg.norm(field)
        assert abs(np.vdot(wk, field) - ref_dot) <= bound


def test_solve_histories_deterministic():
    hier = build_hierarchy(16, 2, 1e-3, SmootherSpec("cjr"))
    b = _zeros(16)
    spec = CycleSpec(cycle="V", nu_pre=1, max_iters=12, seed=7)
    r1 = solve(hier, b, spec)
    r2 = solve(hier, b, spec)
    assert r1.history == r2.history
    r3 = solve(hier, b, CycleSpec(cycle="V", nu_pre=1, max_iters=12, seed=8))
    assert r1.history != r3.history


def test_solve_flags_divergence():
    # a wildly overdamped smoother blows the iteration up
    hier = oracle.with_cjr_damping(build_hierarchy(16, 2, 1e-3, SmootherSpec("cjr")), 3.0)
    res = solve(hier, _zeros(16),
                CycleSpec(cycle="V", nu_pre=1, max_iters=15))
    assert not res.converged
    assert res.rho > 1.0
    assert len(res.history) == res.iters + 1


def test_solve_rejects_non_finite_rhs():
    hier = build_hierarchy(16, 2, 1e-3, SmootherSpec("cjr"))
    b = _zeros(16)
    b[1, 3, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve(hier, b, CycleSpec())


def test_solve_rejects_a_right_hand_side_of_the_wrong_shape():
    hier = build_hierarchy(16, 2, 1e-3, SmootherSpec("cjr"))
    for bad in (np.zeros((15, 15)), _zeros(8), np.zeros((1, 15, 15))):
        with pytest.raises(ValueError, match="block field shape"):
            solve(hier, bad, CycleSpec())


def test_random_guess_is_the_two_component_draws():
    # one (2, m, m) draw is the y draw followed by the p draw
    m = 15
    rng = _rng(5)
    two = np.stack([rng.uniform(0.0, 1.0, (m, m)), rng.uniform(0.0, 1.0, (m, m))])
    np.testing.assert_array_equal(_rng(5).uniform(0.0, 1.0, (2, m, m)), two)
    hier = build_hierarchy(16, 2, 1e-3, SmootherSpec("cjr"))
    b = _rng(6).standard_normal((2, m, m))
    res = solve(hier, b, CycleSpec(max_iters=1, seed=5))
    assert res.history[0] == block_norm2(residual(hier.levels[0].op, b, two))


def test_solve_stops_at_first_non_finite_residual():
    # an absurd damping overflows the iterate in the first cycle; the NaN
    # residual must end the solve instead of reaching the coarse LU solve
    hier = oracle.with_cjr_damping(build_hierarchy(16, 2, 1e-3, SmootherSpec("cjr")), 1e300)
    with np.errstate(all="ignore"):
        res = solve(hier, _zeros(16), CycleSpec())
    assert not res.converged
    assert res.iters == 1
    assert not np.isfinite(res.history[-1])


@st.composite
def solve_cases(draw):
    """A small solve: q, N <= 48, a scheme, a fine mask, and alpha down to a
    float64 hierarchy's (alpha (4N^2)^2 below float32's eps)."""
    q = draw(st.sampled_from((2, 3, 4)), label="q")
    N = q * draw(st.integers(COARSEST_N, 48 // q), label="N / q")
    kind = draw(st.sampled_from(("cjr", "bsr", "ibsr")), label="scheme")
    alpha = 10.0 ** draw(st.one_of(st.floats(-12.0, 0.0), st.just(-19.0)),
                         label="log10 alpha")
    rng = _rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    mask = draw(st.sampled_from((None, 0.5, 0.05)), label="mask density")
    if mask is not None:
        mask = (rng.random((N - 1, N - 1)) < mask).astype(float)
    hier = build_hierarchy(N, q, alpha, SmootherSpec(kind), mask=mask)
    b = rng.standard_normal((2, N - 1, N - 1))
    tol = 10.0 ** -draw(st.floats(1.0, 10.0), label="-log10 tol")
    return hier, b, CycleSpec(tol=tol, max_iters=draw(st.integers(1, 8), label="max_iters"))


@settings(max_examples=40, deadline=None)
@given(solve_cases())
@example((build_hierarchy(16, 2, 1e-19, SmootherSpec("cjr")),  # a float64 hierarchy
          _rng(3).standard_normal((2, 15, 15)), CycleSpec(tol=1e-10, max_iters=8)))
def test_solve_history_ends_in_float64_norms_and_estimates_them_between(case):
    # the first and last entries are float64 residual norms, so converged and
    # rho are exact; the entries between are the estimates carried in the
    # hierarchy's dtype, each within 1e-5 of the float64 norm a solve
    # stopped there ends on
    hier, b, spec = case
    res = solve(hier, b, spec)
    h = res.history
    assert h[-1] == block_norm2(residual(hier.levels[0].op, b, res.v))
    assert res.converged == (h[-1] / h[0] <= spec.tol)
    for k in range(1, res.iters):
        stopped = solve(hier, b, replace(spec, max_iters=k))
        assert stopped.history[:k] == h[:k]
        assert h[k] == pytest.approx(stopped.history[-1], rel=1e-5)


def test_solve_refreshes_the_float64_residual_only_by_the_refresh_rule(monkeypatch):
    # between refreshes the residual is carried in the hierarchy's dtype: the
    # float64 fine residual is made for r0, once each time the estimate falls
    # by eps^(1/4) and at the end, not once per cycle
    hier = build_hierarchy(64, 2, 1e-6, SmootherSpec("cjr"))
    assert hier.dtype == np.float32
    fine, calls = hier.levels[0].op, []
    inner = multigrid.residual

    def counted(op, b, v):
        if op is fine and v.dtype == np.float64:
            calls.append(1)
        return inner(op, b, v)

    monkeypatch.setattr(multigrid, "residual", counted)
    data, _ = example1_fields(fine.grid, 1e-6)
    res = solve(hier, np.stack([data.f, data.g]), CycleSpec())
    assert res.converged and res.iters > 20
    drop = float(np.finfo(hier.dtype).eps) ** 0.25
    falls = math.log(res.history[0] / res.history[-1]) / math.log(1.0 / drop)
    assert len(calls) <= 2 + math.ceil(falls) < res.iters


def test_solve_rho_consistent_with_history():
    hier = build_hierarchy(16, 2, 1e-3, SmootherSpec("bsr"))
    res = solve(hier, _zeros(16),
                CycleSpec(cycle="V", nu_pre=1))
    assert res.converged
    expect = (res.history[-1] / res.history[0]) ** (1.0 / res.iters)
    assert res.rho == pytest.approx(expect, rel=1e-12)


def test_ibsr_tracks_exact_bsr_at_moderate_size():
    # truncated inner solves (2..4 CG steps) stay within 0.05 of exact
    N, q, alpha = 64, 2, 1e-6
    b = _zeros(N)
    spec = CycleSpec(cycle="W", nu_pre=1, seed=0)
    exact = solve(build_hierarchy(N, q, alpha, SmootherSpec("bsr")), b, spec).rho
    for k in (2, 3, 4):
        smoother = SmootherSpec("ibsr", pcg_iters=k)
        rho = solve(build_hierarchy(N, q, alpha, smoother), b, spec).rho
        assert abs(rho - exact) <= 0.05


def test_masked_hierarchy_solve_converges():
    # active-set Jacobian systems must still be solvable by the same cycles
    rng = _rng(9)
    N, alpha = 16, 1e-2
    mask = (rng.uniform(size=(N - 1, N - 1)) < 0.7).astype(float)
    hier = build_hierarchy(N, 2, alpha, SmootherSpec("bsr"), mask=mask)
    grid = GridSpec(N)
    b = rng.standard_normal((2, grid.m, grid.m))
    res = solve(hier, b, CycleSpec(cycle="W", nu_pre=2))
    assert res.converged
    A = oracle.assemble("saddle", grid, alpha=alpha, mask=mask)
    expect = oracle.dense_solve(A, b.ravel())
    np.testing.assert_allclose(res.v.ravel(), expect,
                               atol=1e-7 * max(1.0, np.linalg.norm(expect)))


# ---------------------------------------------------------------- eta ratio

def test_eta_ratio_values():
    assert oracle.eta_ratio(0.25, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert oracle.eta_ratio(0.258, 0.610) == pytest.approx(2.74, abs=0.01)
    assert oracle.eta_ratio(0.37, 0.37) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("bad", [(0.0, 0.5), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.5)])
def test_eta_ratio_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        oracle.eta_ratio(*bad)



"""Hierarchy construction, transfer operators, cycling, and factor measurement."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from ocmg import grid as grid_module
from ocmg.grid import GridSpec, apply_mass, apply_saddle, block_norm2, residual
from ocmg.lfa import LfaParams, bsr_damping, cjr_optimal, closed_form
from ocmg import multigrid, smoothers
from ocmg.multigrid import (
    COARSEST_N,
    DIRECT_N,
    CycleSpec,
    _saddle_matrix,
    build_hierarchy,
    cycle,
    eta_ratio,
    level_sizes,
    prolong,
    restrict,
    solve,
)
from ocmg.problems import example1_fields
from ocmg.smoothers import SmootherSpec, cjr_apply, relaxation, schur_apply

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
    # NaN alpha used to reach splu, which failed with "Factor is exactly singular"
    import scipy.sparse.linalg

    def no_splu(*args, **kwargs):
        raise AssertionError("splu reached")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", no_splu)
    with pytest.raises(ValueError, match="alpha"):
        build_hierarchy(16, 2, float("nan"), SmootherSpec("cjr"))


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
    # each chain stops at N=25; the sparse coarse LU takes any coarsest grid
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
    spec = SmootherSpec("bsr")
    hier = build_hierarchy(128, 2, 1e-4, spec)
    fixed = replace(spec, omega=bsr_damping(2)[0])
    rng = _rng(21)
    for lev in hier.levels[:-1]:
        _assert_relaxes_as(lev, relaxation(lev.op, fixed, 2), rng)


def test_explicit_omega_respected_everywhere():
    hier = build_hierarchy(128, 2, 1e-4, SmootherSpec("cjr", omega=0.7))
    rng = _rng(22)
    for lev in hier.levels[:-1]:
        _assert_relaxes_as(lev, lambda r: cjr_apply(r, lev.op, 0.7), rng)


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
@pytest.mark.parametrize("mask_kind", ["none", "binary", "fractional"])
@pytest.mark.parametrize("alpha", [1e-2, 1e-6, 1e-10])
def test_coarse_solve_is_backward_stable_above_the_oracle_size(N, q, mask_kind,
                                                               alpha):
    # coarsest grids of N=32 and N=27 are beyond the dense oracle, so the
    # LU solution is checked against the matrix-free operator; the mask is
    # drawn on the fine grid and reaches the coarsest level averaged
    rng = _rng(12)
    shape = (N - 1, N - 1)
    mask = {"none": None,
            "binary": (rng.random(shape) < 0.5).astype(float),
            "fractional": rng.random(shape)}[mask_kind]
    hier = build_hierarchy(N, q, alpha, SmootherSpec("cjr"), mask=mask)
    coarse = hier.levels[-1]
    assert coarse.op.grid.N == N // q
    _assert_lu_solves_the_saddle_system(coarse, rng)


def _assert_lu_solves_the_saddle_system(coarse, rng):
    """coarse.relax solves coarse.op's saddle system backward stably."""
    b = rng.standard_normal((2, coarse.op.grid.m, coarse.op.grid.m))
    x = coarse.relax(b)
    # at least the infinity norm of [[L, -diag(mask)/alpha], [I, L]],
    # whose L rows have absolute sums of at most 8/h^2
    mask_max = 1.0 if coarse.op.mask is None else coarse.op.mask.max()
    norm_a = 8.0 / coarse.op.grid.h**2 + max(1.0, mask_max / coarse.op.alpha)
    err = np.abs(apply_saddle(coarse.op, x) - b).max()
    assert err <= 1e-14 * (norm_a * np.abs(x).max() + np.abs(b).max())


def test_cycle_error_decreases_monotonically():
    # moderate alpha: for tiny alpha the saddle iteration is far from
    # normal and the plain Euclidean error can grow transiently
    N, alpha = 16, 1e-2
    grid = GridSpec(N)
    hier = build_hierarchy(N, 2, alpha, SmootherSpec("cjr"))
    rng = _rng(2)
    vstar = rng.standard_normal((2, grid.m, grid.m))
    b = apply_saddle(hier.levels[0].op, vstar)
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

    # the coarsest level binds SparseLU.solve when the hierarchy is built
    monkeypatch.setattr(grid_module.SparseLU, "solve", record(grid_module.SparseLU.solve))
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
    assert {"residual", "restrict", "prolong", "SparseLU.solve"} <= names
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
    x = spsolve(_saddle_matrix(hier.levels[0].op), b.ravel()).reshape(b.shape)
    assert block_norm2(res.v - x) <= 1e-10 * block_norm2(x)


@pytest.mark.parametrize("N, alpha, dtype, iters", [
    (64, 1e-40, np.float64, (1, 22, 16)), (64, 1e-100, np.float64, (1, 22, 16)),
    (256, 1e-19, np.float32, (3, 23, 16))])
def test_precision_follows_the_float32_range(N, alpha, dtype, iters):
    # alpha or 1/alpha beyond sqrt(float32 max) would overflow float32
    # products, so such a hierarchy cycles in float64; the counts are the
    # all-float64 solver's
    grid = GridSpec(N)
    data, _ = example1_fields(grid, alpha)
    for kind, want in zip(("cjr", "ibsr", "bsr"), iters):
        hier = build_hierarchy(N, 2, alpha, SmootherSpec(kind))
        assert hier.dtype == dtype
        res = solve(hier, np.stack([data.f, data.g]), CycleSpec())
        assert res.converged and res.iters == want


@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
def test_solve_is_exactly_homogeneous_under_powers_of_two(kind):
    # the residual is scaled by powers of two only, so 2^200 b gives
    # exactly 2^200 times the iterate and the history
    hier = build_hierarchy(32, 2, 1e-6, SmootherSpec(kind))
    b = _rng(17).standard_normal((2, 31, 31))
    spec = CycleSpec(max_iters=8)
    one = solve(hier, b, spec, v0=_zeros(32))
    big = solve(hier, 2.0**200 * b, spec, v0=_zeros(32))
    np.testing.assert_array_equal(big.v, 2.0**200 * one.v)
    assert big.history == [2.0**200 * h for h in one.history]


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
    fixed = replace(spec, omega=bsr_damping(2)[0])
    rs = [rng.standard_normal((2, lev.op.grid.m, lev.op.grid.m)) for lev in hier.levels[:-1]]
    want = [relaxation(lev.op, fixed, 2)(r) for r, lev in zip(rs, hier.levels)]
    monkeypatch.setattr(smoothers, "schur_diag", _refuse("schur_diag"))
    for r, w, lev in zip(rs, want, hier.levels):
        np.testing.assert_array_equal(lev.relax(r), w)


def test_masked_bsr_levels_cache_an_exact_schur_inverse(monkeypatch):
    rng = _rng(10)
    mask = (rng.uniform(size=(127, 127)) < 0.7).astype(float)
    hier = build_hierarchy(128, 2, 1e-6, SmootherSpec("bsr", omega=1.0), mask=mask)
    for name in ("SparseLU", "SchurSpectral", "schur_diag"):
        monkeypatch.setattr(smoothers, name, _refuse(name))
    for lev in hier.levels[:-1]:
        assert lev.op.mask is not None
        r = rng.standard_normal((2, lev.op.grid.m, lev.op.grid.m))
        w_p = lev.relax(r)[1]
        b = r[1] - apply_mass(r[0], lev.op.grid)  # the Schur right-hand side
        assert np.linalg.norm(schur_apply(w_p, lev.op) - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
def test_level_relax_is_bitwise_the_direct_smoother(kind, masked):
    rng = _rng(11)
    mask = (rng.uniform(size=(127, 127)) < 0.7).astype(float) if masked else None
    spec = SmootherSpec(kind)
    hier = build_hierarchy(128, 2, 1e-4, spec, mask=mask)
    for lev in hier.levels[:-1]:
        r = rng.standard_normal((2, lev.op.grid.m, lev.op.grid.m))
        expect = closed_form(kind, LfaParams(q=2, alpha=1e-4, h=lev.op.grid.h)).omega
        if kind == "cjr":
            want = cjr_apply(r, lev.op, expect)
        else:
            want = relaxation(lev.op, replace(spec, omega=expect), 2)(r)
        np.testing.assert_array_equal(lev.relax(r), want)
        buf = r.copy()
        assert lev.relax(buf, out=buf) is buf
        np.testing.assert_array_equal(buf, want)


@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
def test_coarsest_level_builds_no_smoother_state(monkeypatch, kind):
    # the coarsest level's relax is the LU solve of its saddle system, so
    # it builds no smoother state
    built = []
    for name in ("SparseLU", "SchurSpectral", "schur_diag"):
        def record(*args, _name=name, _f=getattr(smoothers, name)):
            built.append(_name)
            return _f(*args)
        monkeypatch.setattr(smoothers, name, record)
    mask = (_rng(12).uniform(size=(127, 127)) < 0.7).astype(float)
    hier = build_hierarchy(128, 2, 1e-4, SmootherSpec(kind), mask=mask)
    assert [lev.op.grid.N for lev in hier.levels] == [128, 64, 32]
    # one Schur solve per relaxed level: a sparse LU for masked bsr, the
    # diagonal for ibsr
    assert built == {"cjr": [], "bsr": ["SparseLU"] * 2, "ibsr": ["schur_diag"] * 2}[kind]
    _assert_lu_solves_the_saddle_system(hier.levels[-1], _rng(13))
    assert all(callable(lev.relax) for lev in hier.levels[:-1])


# Residual histories and iterate checksums of six W(1,0) cycles on the
# manufactured problem at alpha=1e-6, recorded with float32 cycles inside
# the float64 residual (64 -> 32, 81 -> 27 and 64 -> 16); the all-float64
# solver's histories differ from these by at most 1.2e-6 relative.
# Checksum: <w0, y>, <w1, p>, ||y||, ||p|| with
# w = default_rng(1).standard_normal((2, m, m)).
REFERENCE_SIZES = {2: 64, 3: 81, 4: 64}
REFERENCE = {
    ("cjr", 2): (
        [52852947.741985254, 7477277.1810417725, 6422481.512342965,
         5079027.827963427, 3626059.7356472774, 2450112.63932613,
         1601549.3423107325],
        (-91.34450645243814, 11.985946163509327, 122.96071347916548,
         36.678118857518776)),
    ("cjr", 3): (
        [66824210.69292641, 9885748.297032658, 11076756.470682865,
         11408725.541026676, 10630491.323504806, 9402729.46260484,
         8066165.192289721],
        (251.9101408231482, -27.978807928478307, 345.84698635409126,
         46.439623806014424)),
    ("cjr", 4): (
        [52852947.741985254, 9008204.477629177, 11157710.038597124,
         12892876.081670756, 13447204.101131838, 13254414.257821932,
         12620444.335054845],
        (-1014.9086765774375, 13.389930081786126, 1042.2990498596675,
         36.757626671278146)),
    ("bsr", 2): (
        [52852947.741985254, 4607001.645008941, 981913.20878746,
         242196.46492988543, 59585.474956652346, 15002.732607545217,
         3727.6655119585107],
        (-152.1993853114918, 11.803495343668537, 101.52834672932225,
         36.67757054102314)),
    ("bsr", 3): (
        [66824210.69292641, 5966097.124840681, 1264422.1039880584,
         311624.6920887203, 82438.65120623828, 22511.755417467775,
         6245.402089459735],
        (48.10117356159387, -31.26018519166465, 127.62239531000449,
         46.41996642811727)),
    ("bsr", 4): (
        [52852947.741985254, 2692014.067957769, 369297.3931224078,
         70004.93559401661, 28809.828136846536, 10904.018041943413,
         4834.264228933247],
        (-153.41351000077597, 11.804710653757006, 101.53333462790175,
         36.67757140975517)),
    ("ibsr", 2): (
        [52852947.741985254, 4732502.963038806, 1201555.3780459517,
         301784.85273856425, 89121.93838629716, 24415.68521309546,
         6854.476038153177],
        (-152.45587603331165, 11.7997564892574, 101.52635514769733,
         36.677569134102)),
    ("ibsr", 3): (
        [66824210.69292641, 7035791.572409639, 1720050.3917376737,
         485441.60032533563, 160210.44276722553, 51697.72446978712,
         19884.940840595118],
        (49.76388405954544, -31.225838512863938, 127.73774970743068,
         46.41997048336394)),
    ("ibsr", 4): (
        [52852947.741985254, 4870829.399035043, 1166560.032025883,
         535184.1097962852, 333719.65413572796, 209669.23899585108,
         118409.04893208484],
        (-168.39030724376877, 11.81163413434866, 114.46777203104095,
         36.677560706927636)),
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
    hier = build_hierarchy(16, 2, 1e-3, SmootherSpec("cjr", omega=3.0))
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
    hier = build_hierarchy(16, 2, 1e-3, SmootherSpec("cjr", omega=1e300))
    with np.errstate(all="ignore"):
        res = solve(hier, _zeros(16), CycleSpec())
    assert not res.converged
    assert res.iters == 1
    assert not np.isfinite(res.history[-1])


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
    assert eta_ratio(0.25, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert eta_ratio(0.258, 0.610) == pytest.approx(2.74, abs=0.01)
    assert eta_ratio(0.37, 0.37) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("bad", [(0.0, 0.5), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.5)])
def test_eta_ratio_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        eta_ratio(*bad)



"""Hierarchy construction, transfer operators, cycling, and factor measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocmg import grid as grid_module
from ocmg.grid import GridSpec, SaddleOperator, apply_saddle, block_norm2, residual
from ocmg.lfa import LfaParams, bsr_damping, cjr_optimal
from ocmg import multigrid, oracle
from ocmg.multigrid import (
    CycleSpec,
    build_hierarchy,
    cycle,
    eta_ratio,
    level_sizes,
    prolong,
    restrict,
    solve,
)
from ocmg.problems import example1_fields
from ocmg.smoothers import SmootherSpec, schur_apply, schur_diag


def _rng(seed=0):
    return np.random.default_rng(seed)


def _zeros(N):
    return np.zeros((2, N - 1, N - 1))


# ------------------------------------------------------------- level chains

def test_level_sizes_q2():
    assert level_sizes(256, 2) == [256, 128, 64, 32, 16, 8]


def test_level_sizes_q3():
    assert level_sizes(243, 3) == [243, 81, 27, 9]


def test_level_sizes_q4():
    assert level_sizes(256, 4) == [256, 64, 16]


def test_level_sizes_stops_on_divisibility():
    assert level_sizes(72, 2) == [72, 36, 18, 9]
    with pytest.raises(ValueError, match="cannot be coarsened"):
        level_sizes(100, 3)


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
                                dict(max_iters=0), dict(nu_pre=0), dict(cycle="X")])
def test_cycle_spec_rejects_bad_values(kw):
    # max_iters=0 used to give rho = 0.0 for a solve that never ran
    with pytest.raises(ValueError):
        CycleSpec(**kw)


def test_cycle_spec_rejects_a_negative_seed_by_name():
    # it used to reach default_rng in solve, whose message names neither
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        CycleSpec(seed=-1)


@pytest.mark.parametrize("N, q, kind", [(50, 2, "cjr"), (75, 3, "cjr"), (100, 4, "bsr")])
def test_chains_stopping_above_n24_build_and_converge(N, q, kind):
    # each chain stops at N=25; the sparse coarse LU takes any coarsest grid
    hier = build_hierarchy(N, q, 1e-6, SmootherSpec(kind))
    assert hier.levels[-1].grid.N == 25
    data, _ = example1_fields(hier.levels[0].grid, 1e-6)
    res = solve(hier, np.stack([data.f, data.g]), CycleSpec())
    assert res.converged and res.rho < 1.0


def test_hierarchy_levels_are_rediscretizations():
    hier = build_hierarchy(32, 2, 1e-3, SmootherSpec("cjr"))
    assert [lev.grid.N for lev in hier.levels] == [32, 16, 8]
    for lev in hier.levels:
        assert lev.op.alpha == 1e-3
        assert lev.grid.h == 1.0 / lev.grid.N


def test_cjr_omega_recomputed_per_level():
    # alpha small enough that the coarsest level crosses the gamma switch
    alpha = 1e-6
    hier = build_hierarchy(32, 2, alpha, SmootherSpec("cjr"))
    for lev in hier.levels:
        expect = cjr_optimal(LfaParams(q=2, alpha=alpha, h=lev.grid.h)).omega
        assert lev.smoother.omega == expect
    # gamma grows on coarse grids, so the damping must actually vary
    omegas = [lev.smoother.omega for lev in hier.levels]
    assert len(set(omegas)) > 1


def test_bsr_omega_fixed_per_level():
    hier = build_hierarchy(32, 2, 1e-4, SmootherSpec("bsr"))
    w, _ = bsr_damping(2)
    assert all(lev.smoother.omega == w for lev in hier.levels)


def test_explicit_omega_respected_everywhere():
    hier = build_hierarchy(32, 2, 1e-4, SmootherSpec("cjr", omega=0.7))
    assert all(lev.smoother.omega == 0.7 for lev in hier.levels)


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
    b = rng.standard_normal((2, coarse.grid.m, coarse.grid.m))
    v = cycle(hier, len(hier.levels) - 1, _zeros(coarse.grid.N), b,
              CycleSpec())
    A = oracle.assemble("saddle", coarse.grid, alpha=1e-2)
    expect = oracle.dense_solve(A, b.ravel())
    np.testing.assert_allclose(v.ravel(), expect, rtol=1e-12, atol=1e-12)


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
        v = cycle(hier, 0, v, b, spec)
        errs.append(block_norm2(v - vstar))
    assert all(b < a for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
def test_w_equals_v_on_two_level_hierarchy(kind):
    hier = build_hierarchy(16, 2, 1e-3, SmootherSpec(kind))
    grid = hier.levels[0].grid
    rng = _rng(4)
    b = rng.standard_normal((2, grid.m, grid.m))
    v0 = rng.uniform(size=(2, grid.m, grid.m))
    vv = cycle(hier, 0, v0.copy(), b, CycleSpec(cycle="V", nu_pre=2))
    vw = cycle(hier, 0, v0.copy(), b, CycleSpec(cycle="W", nu_pre=2))
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
    # the caller's b is never modified; the iterate it hands over is
    # updated in place and returned
    hier = build_hierarchy(32, 2, 1e-3, SmootherSpec(kind))
    grid = hier.levels[0].grid
    rng = _rng(6)
    v = rng.uniform(size=(2, grid.m, grid.m))
    b = rng.standard_normal((2, grid.m, grid.m))
    v_in, b_in = v.copy(), b.copy()
    spec = CycleSpec(cycle="W", nu_pre=nu)
    out = cycle(hier, 0, v, b, spec)
    assert out is v
    np.testing.assert_array_equal(b, b_in)
    assert not np.array_equal(v, v_in)
    # handing over the known residual changes nothing but the work done
    v_r = v_in.copy()
    out_r = cycle(hier, 0, v_r, b, spec, residual(hier.levels[0].op, b, v_r))
    assert out_r is v_r
    np.testing.assert_array_equal(out_r, out)
    np.testing.assert_array_equal(b, b_in)


@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("strip_rows", [None, 3])
def test_cycle_with_a_handed_over_residual_matches_one_without(kind, nu,
                                                               strip_rows):
    # a handed-over residual is the cycle's work buffer; the iterate is
    # bitwise the one of a cycle that evaluates its own residual, also
    # when every level is processed in strips of a few rows
    hier = build_hierarchy(32, 2, 1e-3, SmootherSpec(kind))
    grid = hier.levels[0].grid
    rng = _rng(7)
    v = rng.uniform(size=(2, grid.m, grid.m))
    b = rng.standard_normal((2, grid.m, grid.m))
    spec = CycleSpec(cycle="W", nu_pre=nu)
    want = cycle(hier, 0, v.copy(), b, spec)
    with pytest.MonkeyPatch.context() as mp:
        if strip_rows is not None:
            mp.setattr(grid_module, "STRIP_BYTES", strip_rows * 16 * grid.m)
        own = cycle(hier, 0, v.copy(), b, spec)
        r = residual(hier.levels[0].op, b, v)
        handed = cycle(hier, 0, v.copy(), b, spec, r)
    np.testing.assert_array_equal(own, want)
    np.testing.assert_array_equal(handed, want)


@pytest.mark.parametrize("N, q, kind, calls", [
    (64, 2, "W", 4), (64, 2, "V", 1), (81, 3, "W", 2), (64, 4, "W", 1)])
def test_cycle_visits_the_coarsest_level_once_per_coarse_correction(
        N, q, kind, calls, monkeypatch):
    # the coarsest level ignores its iterate, so the W-cycle's second visit
    # from the level above would repeat the first: 2^(L-2) LU solves, not 2^(L-1)
    hier = build_hierarchy(N, q, 1e-3, SmootherSpec("cjr"))
    grid = hier.levels[0].grid
    coarse_solve = multigrid._coarse_solve
    count = []

    def counted(*args, **kwargs):
        count.append(1)
        return coarse_solve(*args, **kwargs)

    monkeypatch.setattr(multigrid, "_coarse_solve", counted)
    rng = _rng(8)
    v = rng.uniform(size=(2, grid.m, grid.m))
    b = rng.standard_normal((2, grid.m, grid.m))
    cycle(hier, 0, v, b, CycleSpec(cycle=kind))
    assert len(count) == calls


def test_ibsr_levels_cache_the_schur_diagonal():
    rng = _rng(9)
    mask = (rng.uniform(size=(31, 31)) < 0.7).astype(float)
    hier = build_hierarchy(32, 2, 1e-3, SmootherSpec("ibsr"), mask=mask)
    for lev in hier.levels:
        np.testing.assert_array_equal(lev.diag, schur_diag(lev.op))
    for kind in ("cjr", "bsr"):
        hier = build_hierarchy(32, 2, 1e-3, SmootherSpec(kind), mask=mask)
        assert all(lev.diag is None for lev in hier.levels)


# Residual histories and iterate checksums of six W(1,0) cycles on the
# manufactured problem at alpha=1e-6, recorded with the per-k loop transfers
# and a cycle that recomputed every residual.  Checksum: <w0, y>, <w1, p>,
# ||y||, ||p|| with w = default_rng(1).standard_normal((2, m, m)).
REFERENCE_SIZES = {2: 64, 3: 81, 4: 64}
REFERENCE = {
    ("cjr", 2): (
        [52852947.741985254, 7481824.958353358, 6414277.224105464,
         5086509.744741547, 3638368.87200939, 2460183.6011569123,
         1608194.1122902737],
        (-112.27406510528499, 11.988434589356174, 127.47779599983987,
         36.678152296877094)),
    ("cjr", 3): (
        [66824210.69292641, 10769476.216983061, 11157266.254345449,
         11504100.983144343, 10758159.847425418, 9517938.788257176,
         8156387.5986331245],
        (281.864727397111, -27.872498713581, 407.1202731812883,
         46.44049927432867)),
    ("cjr", 4): (
        [52852947.741985254, 9008204.49750828, 11157710.154884301,
         12892876.45637964, 13447204.76126176, 13254415.012684653,
         12620445.223699693],
        (-1014.9083109546493, 13.3899300454726, 1042.2990753304455,
         36.75762669482839)),
    ("bsr", 2): (
        [52852947.741985254, 4636546.534721049, 983574.9861784021,
         242507.48431075536, 59607.94456061774, 15002.733388357341,
         3727.64330760322],
        (-152.1859731473369, 11.803496089289684, 101.5284019482558,
         36.67757056446158)),
    ("bsr", 3): (
        [66824210.69292641, 5988778.3156175995, 1263854.5283512732,
         313408.8056665268, 83665.26334247088, 23099.505144617524,
         6478.2568877981685],
        (48.13053762249332, -31.260138896573675, 127.6233072412521,
         46.419966942980054)),
    ("bsr", 4): (
        [52852947.741985254, 2692014.702251726, 369297.0585137715,
         70004.97211046364, 28809.81805403646, 10904.01861864582,
         4834.264523700996],
        (-153.41352335965618, 11.804710652956114, 101.53333459759115,
         36.67757140977303)),
    ("ibsr", 2): (
        [52852947.741985254, 4767019.281303172, 1214280.770838377,
         303508.45886570413, 89840.53563035623, 24623.77411927353,
         6905.1362691035265],
        (-152.5392493288084, 11.799628650636427, 101.52666805953821,
         36.67756893653649)),
    ("ibsr", 3): (
        [66824210.69292641, 7252562.755350793, 1792122.5883504648,
         511388.3299373634, 168758.4637559367, 54182.478848957784,
         20572.8126665709],
        (49.86912117785212, -31.225526172950666, 127.73967107162252,
         46.41997174909173)),
    ("ibsr", 4): (
        [52852947.741985254, 4870829.487771727, 1166560.0285660373,
         535184.0199113725, 333719.6530508636, 209669.30024524606,
         118409.0846850892],
        (-168.3903111888114, 11.811634115232039, 114.46778105022527,
         36.67756070730962)),
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


def test_masked_bsr_levels_cache_an_exact_schur_inverse():
    rng = _rng(10)
    mask = (rng.uniform(size=(31, 31)) < 0.7).astype(float)
    hier = build_hierarchy(32, 2, 1e-6, SmootherSpec("bsr"), mask=mask)
    for lev in hier.levels:
        assert lev.op.mask is not None
        b = rng.standard_normal((lev.grid.m, lev.grid.m))
        x = lev.schur_inv.solve(b)
        assert np.linalg.norm(schur_apply(x, lev.op) - b) <= 1e-12 * np.linalg.norm(b)

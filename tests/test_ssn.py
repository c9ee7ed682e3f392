"""Shrinkage map, active-set mask, nonlinear residual, and the Newton outer loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocmg.grid import GridSpec, SaddleOperator, apply_saddle, block_norm2, residual
from ocmg.multigrid import CycleSpec
from ocmg.problems import ProblemData, example2_fields
from ocmg import ssn
from ocmg.smoothers import SmootherSpec
from ocmg.ssn import (
    ControlParams,
    SolverError,
    dphi_mask,
    phi,
    residual_F,
    sparsity_fractions,
    ssn_solve,
)

CP = ControlParams(alpha=1e-3, beta=1e-2, u0=-30.0, u1=30.0)


def _arr(*vals):
    return np.asarray(vals, dtype=float)


# --------------------------------------------------------------- phi / mask

def test_phi_branch_values():
    out = phi(_arr(0.005, 0.02, 0.1), CP)
    np.testing.assert_allclose(out, [0.0, 10.0, 30.0], atol=1e-12)


def test_phi_odd_branches():
    out = phi(_arr(-0.005, -0.02, -0.1), CP)
    np.testing.assert_allclose(out, [0.0, -10.0, -30.0], atol=1e-12)


def test_phi_linear_when_unconstrained():
    cp = ControlParams(alpha=1e-3, beta=0.0, u0=-1e9, u1=1e9)
    rng = np.random.default_rng(0)
    p = rng.standard_normal(50)
    np.testing.assert_allclose(phi(p, cp), p / cp.alpha, rtol=1e-12)


def test_phi_range_and_monotonicity():
    p = np.linspace(-0.2, 0.2, 4001)
    out = phi(p, CP)
    assert out.min() >= CP.u0 and out.max() <= CP.u1
    assert np.all(np.diff(out) >= 0.0)


def test_dphi_mask_values():
    out = dphi_mask(_arr(0.005, 0.02, 0.1, -0.005, -0.02, -0.1), CP)
    np.testing.assert_array_equal(out, [0, 1, 0, 0, 1, 0])


def test_dphi_mask_is_binary_even_on_kinks():
    # beta=0 makes p=0 a double kink; the clamp keeps the value in {0,1}
    cp = ControlParams(alpha=1e-3, beta=0.0, u0=-1e9, u1=1e9)
    kinks = _arr(0.0, cp.alpha * cp.u1, cp.alpha * cp.u0)
    out = dphi_mask(kinks, cp)
    assert set(np.unique(out)) <= {0.0, 1.0}


def test_dphi_matches_finite_differences_away_from_kinks():
    eps = 1e-4
    kinks = np.array([CP.beta, -CP.beta, CP.beta + CP.alpha * CP.u1,
                      -CP.beta + CP.alpha * CP.u0])
    p = np.linspace(-0.15, 0.15, 1501)
    p = p[np.abs(p[:, None] - kinks[None, :]).min(axis=1) > eps]
    d = eps / 10
    fd = (phi(p + d, CP) - phi(p - d, CP)) / (2 * d)
    np.testing.assert_allclose(fd, dphi_mask(p, CP) / CP.alpha,
                               atol=1e-9 / CP.alpha * 1e-3)


@st.composite
def control_cases(draw):
    alpha = 10.0 ** draw(st.floats(-8.0, 0.0), label="log10 alpha")
    beta = draw(st.floats(0.0, 1.0), label="beta")
    u0 = -(10.0 ** draw(st.floats(-3.0, 3.0), label="log10 -u0"))
    u1 = 10.0 ** draw(st.floats(-3.0, 3.0), label="log10 u1")
    cp = ControlParams(alpha, beta, u0, u1)
    # p spans every kink: +-beta, beta + alpha u1 and -beta + alpha u0
    reach = 1.5 * (beta + alpha * max(-u0, u1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    return cp, reach, rng.uniform(-reach, reach, 200)


@settings(max_examples=100, deadline=None)
@given(control_cases())
def test_phi_lies_in_the_control_bounds(case):
    cp, reach, p = case
    kinks = _arr(cp.beta, -cp.beta, cp.beta + cp.alpha * cp.u1,
                 -cp.beta + cp.alpha * cp.u0)
    p = np.concatenate([p, kinks, [-2 * reach, 2 * reach]])
    u = phi(p, cp)
    assert np.all(u >= cp.u0) and np.all(u <= cp.u1)
    assert (u[-2], u[-1]) == (cp.u0, cp.u1)


def test_phi_stays_in_the_bounds_where_its_branches_round_past_them():
    # a four-branch form of phi that cancels to alpha u1 = 1e-8 at |p| ~ 50
    # rounds by about 1e-15, which the division by alpha lifts to 1e-7
    cp = ControlParams(alpha=1e-8, beta=1.0, u0=-1.0, u1=1.0)
    p = np.random.default_rng(0).uniform(-50.0, 50.0, 100_000)
    u = phi(p, cp)
    assert u.min() >= cp.u0 and u.max() <= cp.u1


def test_phi_equals_the_bounds_exactly_beyond_the_clip_points():
    # the four-branch form cancelled to alpha u1 and, divided by alpha,
    # ended a few ulps inside the bound; sparsity_fractions then missed
    # a quarter of the active set at these (ssn-sparse) parameters
    cp = ControlParams(alpha=1e-6, beta=1e-3, u0=-30.0, u1=30.0)
    past = np.random.default_rng(1).uniform(1e-9, 1.0, 10_000)
    assert np.all(phi(cp.beta + cp.alpha * cp.u1 + past, cp) == cp.u1)
    assert np.all(phi(-cp.beta + cp.alpha * cp.u0 - past, cp) == cp.u0)


@settings(max_examples=100, deadline=None)
@given(control_cases())
def test_dphi_mask_is_the_slope_of_alpha_phi_away_from_kinks(case):
    cp, reach, p = case
    h = 1e-6 * reach
    kinks = _arr(cp.beta, -cp.beta, cp.beta + cp.alpha * cp.u1,
                 -cp.beta + cp.alpha * cp.u0)
    p = p[np.abs(p[:, None] - kinks[None, :]).min(axis=1) > 2 * h]
    fd = cp.alpha * (phi(p + h, cp) - phi(p - h, cp)) / (2 * h)
    np.testing.assert_allclose(fd, dphi_mask(p, cp), rtol=0, atol=1e-6)


# ----------------------------------------------------------------- residual

def test_residual_F_equals_linear_residual_when_affine():
    cp = ControlParams(alpha=1e-3, beta=0.0, u0=-1e9, u1=1e9)
    grid = GridSpec(8)
    rng = np.random.default_rng(1)
    f = rng.standard_normal((grid.m, grid.m))
    g = rng.standard_normal((grid.m, grid.m))
    data = ProblemData(f, g, grid)
    y = rng.standard_normal((grid.m, grid.m))
    p = rng.standard_normal((grid.m, grid.m))
    F = residual_F(np.stack([y, p]), data, cp)
    lin = residual(SaddleOperator(grid, cp.alpha), np.stack([f, g]),
                   np.stack([y, p]))
    np.testing.assert_allclose(F[0], -lin[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(F[1], -lin[1], rtol=1e-12, atol=1e-12)


def test_residual_F_at_origin():
    grid = GridSpec(8)
    data = example2_fields(grid)
    F = residual_F(np.zeros((2, grid.m, grid.m)), data, CP)
    np.testing.assert_array_equal(F[0], -data.f)
    np.testing.assert_array_equal(F[1], -data.g)


def test_all_ones_mask_is_bitwise_unconstrained():
    grid = GridSpec(8)
    rng = np.random.default_rng(2)
    v = rng.standard_normal((2, grid.m, grid.m))
    masked = apply_saddle(SaddleOperator(grid, 1e-3, np.ones((grid.m, grid.m))), v)
    plain = apply_saddle(SaddleOperator(grid, 1e-3), v)
    assert np.array_equal(masked[0], plain[0])
    assert np.array_equal(masked[1], plain[1])


# -------------------------------------------------------------- outer loop

def test_control_params_validation():
    with pytest.raises(ValueError):
        ControlParams(alpha=0.0, beta=0.1, u0=-1.0, u1=1.0)
    with pytest.raises(ValueError):
        ControlParams(alpha=1.0, beta=-0.1, u0=-1.0, u1=1.0)
    with pytest.raises(ValueError):
        ControlParams(alpha=1.0, beta=0.1, u0=1.0, u1=2.0)


@pytest.mark.parametrize("alpha, beta", [(float("nan"), 0.1), (1e-320, 0.1),
                                         (1.0, float("nan"))])
def test_control_params_reject_nan_and_subnormal_alpha(alpha, beta):
    with pytest.raises(ValueError):
        ControlParams(alpha=alpha, beta=beta, u0=-1.0, u1=1.0)


def _solve_example2(alpha, beta, N=32, kind="ibsr", **kw):
    grid = GridSpec(N)
    data = example2_fields(grid)
    cp = ControlParams(alpha=alpha, beta=beta, u0=-30.0, u1=30.0)
    res = ssn_solve(data, cp, 2, SmootherSpec(kind),
                    CycleSpec(cycle="W", nu_pre=2), **kw)
    return res, cp, data


def test_affine_case_converges_in_one_iteration():
    res, _, _ = _solve_example2(1e-4, 0.0)
    # bounds are the +-30 defaults; widen via a direct call instead
    grid = GridSpec(32)
    data = example2_fields(grid)
    cp = ControlParams(alpha=1e-4, beta=0.0, u0=-1e9, u1=1e9)
    res = ssn_solve(data, cp, 2, SmootherSpec("ibsr"),
                    CycleSpec(cycle="W", nu_pre=2))
    assert res.converged
    assert res.iters == 1


def test_large_beta_gives_identically_zero_control():
    res, cp, _ = _solve_example2(1e-4, 10.0)
    assert res.converged
    assert np.all(res.u == 0.0)
    zero, active = sparsity_fractions(res.u, cp)
    assert zero == 1.0 and active == 0.0


def test_sparsity_grows_with_beta():
    res1, cp1, _ = _solve_example2(1e-4, 1e-3)
    res2, cp2, _ = _solve_example2(1e-4, 1e-2)
    z1, _ = sparsity_fractions(res1.u, cp1)
    z2, _ = sparsity_fractions(res2.u, cp2)
    assert 0.0 < z1 < z2 <= 1.0


def test_control_respects_bounds_and_residual_drops():
    res, cp, data = _solve_example2(1e-4, 1e-3)
    assert res.converged
    assert res.u.min() >= cp.u0 - 1e-12 and res.u.max() <= cp.u1 + 1e-12
    assert res.residuals[-1] <= 1e-10 * res.residuals[0]
    F = residual_F(res.v, data, cp)
    assert block_norm2(F) == pytest.approx(res.residuals[-1], rel=1e-12)


def test_mask_stabilized_step_is_superlinear():
    # once the active set froze, the system is affine and a single full
    # Newton step collapses the residual by orders of magnitude
    res, _, _ = _solve_example2(1e-4, 1e-3)
    assert res.steps[-1] == 1.0
    assert res.residuals[-1] <= 1e-4 * res.residuals[-2]


def test_mg_counts_tracked_per_iteration():
    res, _, _ = _solve_example2(1e-4, 1e-3)
    assert len(res.mg_iters) == res.iters
    assert res.baseline_iters > 0
    assert all(abs(c - res.baseline_iters) <= 3 for c in res.mg_iters)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_tolerance_must_be_positive_and_finite(tol):
    # nan and inf made the target nan or inf, and the solve claimed
    # convergence after no Newton step
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        _solve_example2(1e-4, 1e-3, tol=tol)


def _rebind_solve(monkeypatch, at=None, edit=None):
    """Rebind ssn.solve to record each multigrid solve's iteration count;
    the result of the solve numbered at (0 is the seed) goes through edit."""
    inner, counts = ssn.solve, []

    def counted(*args, **kwargs):
        res = inner(*args, **kwargs)
        if len(counts) == at:
            res = edit(res)
        counts.append(res.iters)
        return res
    monkeypatch.setattr(ssn, "solve", counted)
    return counts


def test_every_multigrid_solve_goes_through_the_module_binding(monkeypatch):
    # the benchmark counts the Newton loop's cycles at this binding
    counts = _rebind_solve(monkeypatch)
    res, _, _ = _solve_example2(1e-4, 1e-3)
    assert len(counts) == 1 + res.iters
    assert counts == [res.baseline_iters] + res.mg_iters


def test_diverged_seed_solve_carries_no_state(monkeypatch):
    _rebind_solve(monkeypatch, at=0, edit=lambda res: replace(res, converged=False))
    with pytest.raises(SolverError, match="diverged on the seed system") as exc:
        _solve_example2(1e-4, 1e-3)
    assert exc.value.state is None


def _check_failed_state(match, steps):
    """The N=32 example raises a SolverError matching match whose state is
    the iterate after steps accepted Newton steps."""
    with pytest.raises(SolverError, match=match) as exc:
        _solve_example2(1e-4, 1e-3)
    state = exc.value.state
    data = example2_fields(GridSpec(32))
    cp = ControlParams(alpha=1e-4, beta=1e-3, u0=-30.0, u1=30.0)
    assert not state.converged
    assert state.iters == steps == len(state.mg_iters) == len(state.residuals) - 1
    np.testing.assert_array_equal(state.u, phi(state.v[1], cp))
    assert block_norm2(residual_F(state.v, data, cp)) == state.residuals[-1]


def test_diverged_jacobian_solve_carries_the_last_accepted_iterate(monkeypatch):
    _rebind_solve(monkeypatch, at=2, edit=lambda res: replace(res, converged=False))
    _check_failed_state("diverged on the Jacobian system", 1)


def test_uphill_correction_fails_the_line_search_with_state(monkeypatch):
    _rebind_solve(monkeypatch, at=1, edit=lambda res: replace(res, v=-1e6 * res.v))
    _check_failed_state("line search failed after 20 halvings at iteration 1", 0)


def test_iteration_cap_raises_with_state(monkeypatch):
    monkeypatch.setattr(ssn, "MAX_NEWTON_STEPS", 1)
    _check_failed_state("no convergence in 1 iterations", 1)

"""ssn_solve against an independent minimizer of the control problem's
objective (oracle.SparseControl): on example 2, and over drawn smooth data
and bounds."""

from functools import cache

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ocmg.grid import GridSpec
from ocmg.multigrid import CycleSpec
from ocmg.problems import ProblemData, example2_fields
from ocmg.smoothers import SmootherSpec
from ocmg.ssn import ControlParams, ssn_solve

import oracle

EPS = np.finfo(np.float64).eps
# (N, alpha, beta, bound): the bounds +-30 are active at alpha=1e-4 and 1e-6 with
# beta=1e-3 (5% and 34% of the points at N=32), +-5 on most of the points
CASES = [(N, alpha, beta, bound) for N in (16, 32) for alpha in (1e-4, 1e-6)
         for beta, bound in ((1e-3, 30.0), (1e-2, 30.0), (1e-3, 5.0))]


@cache
def _oracle(N: int, alpha: float, beta: float, bound: float):
    control = oracle.SparseControl(example2_fields(GridSpec(N)),
                                   ControlParams(alpha, beta, -bound, bound))
    return control, control.minimizer()


def _sets(u: np.ndarray, cp: ControlParams) -> tuple[np.ndarray, np.ndarray]:
    return u == 0.0, (u == cp.u0) | (u == cp.u1)


def _assert_solves_the_control_problem(control, u_or: np.ndarray, kind: str) -> None:
    """ssn_solve(tol=1e-12) on control's problem returns its minimizer, which
    the oracle's u_or approximates: u within the strong-convexity bound, j no
    worse, and the same zero and active sets away from ties."""
    cp = control.cp
    alpha, beta = cp.alpha, cp.beta
    N = control.data.grid.N
    res = ssn_solve(control.data, cp, 2, SmootherSpec(kind), CycleSpec(nu_pre=2), tol=1e-12)
    assert res.converged
    u = res.u
    # strong convexity: ||u - u*|| <= ||s|| / alpha for the least-norm subgradient
    # s of each solution; s is rounded at about eps of its largest term per entry
    s_ssn, s_or = (np.linalg.norm(control.subgradient(x)) for x in (u, u_or))
    p = control.state(u)[1]
    rounding = np.sqrt(u.size) * 4 * EPS * (np.abs(p).max() + alpha * np.abs(u).max() + beta)
    tol = (s_ssn + s_or + 2 * rounding) / alpha
    assert np.abs(u - u_or).max() <= tol
    if u_or.any():
        # and the bound says something: the oracle is this close to the minimizer
        assert tol <= 1e-4 * np.abs(u_or).max()
    else:
        # a vanishing control has no scale to hold tol against, but then the
        # oracle's subgradient is exactly 0 (|p(0)| <= beta everywhere): u = 0
        # is the minimizer itself, and the sets below must vanish with it
        assert s_or == 0.0

    # j(u_ssn) - j(u*) <= ||s_ssn||^2 / (2 alpha), and j(u_or) >= j(u*); each j
    # sums nonnegative terms, which pairwise summation rounds to about
    # log2(2 m^2) <= 11 ulps of j, so 32 ulps cover both evaluations
    j_ssn, j_or = control.objective(u), control.objective(u_or)
    assert j_ssn <= j_or + (s_ssn + rounding) ** 2 / (2 * alpha) + 32 * EPS * j_or

    # zero and active sets: phi(p*) has its kinks where |p*| = beta and where
    # p* = beta + alpha u1 or alpha u0 - beta.  The adjoints of u and u_or lie
    # within ||L^-2|| ||u - u_or|| <= tol / lam_min^2 of each other, and the
    # solve's p (of which u = phi(p)) within its gap to the adjoint of u; a
    # point that close to a kink is a tie
    p_or = control.state(u_or)[1]
    lam_min = 8 * N**2 * np.sin(np.pi / (2 * N)) ** 2  # of L
    gap = np.abs(res.v[1] - p).max() + tol / lam_min**2
    kinks = np.array([beta, -beta, beta + alpha * cp.u1, alpha * cp.u0 - beta])
    away = np.abs(p_or[..., None] - kinks).min(axis=-1) > gap
    assert away.mean() > 0.95
    for mine, theirs in zip(_sets(u, cp), _sets(u_or, cp)):
        assert np.array_equal(mine[away], theirs[away])


@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
@pytest.mark.parametrize("N, alpha, beta, bound", CASES)
def test_ssn_solve_returns_the_minimizer_of_the_objective(N, alpha, beta, bound, kind):
    _assert_solves_the_control_problem(*_oracle(N, alpha, beta, bound), kind)


MODES = 3  # f and g combine sin(k pi x) sin(l pi y), k, l <= MODES, with these weights
_WEIGHTS = st.lists(st.integers(-4, 4), min_size=MODES**2, max_size=MODES**2)


# N = 16 or 32 and alpha in [1e-5, 1e-2]: below that, smooth data exist on
# which N = 16, started from its seed as N = 8 has no coarser grid, fails its
# line search (at alpha = 1e-6, beta = 0, bounds -1 and 100, f and g of
# weights [0, 3, -1, 0, 0, 0, -2, 2, 0] and [0, 1, -3, 0, 0, 0, -2, -2, 4] at
# scale 1), which is small-alpha robustness, not this oracle's question
@settings(max_examples=40, deadline=None)
@given(N=st.sampled_from([16, 32]), kind=st.sampled_from(["cjr", "bsr", "ibsr"]),
       log_scale=st.floats(-4.0, 0.5), f_weights=_WEIGHTS,
       # g != 0: were f = g = 0 and beta = 0, the adjoint would vanish and
       # every point would be a tie of phi's kink at 0
       g_weights=_WEIGHTS.filter(any),
       log_alpha=st.floats(-5.0, -2.0),
       beta=st.just(0.0) | st.floats(-4.0, -2.0).map(lambda e: 10.0 ** e),
       log_bounds=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)))
@example(N=16, kind="ibsr", log_scale=-3.0, f_weights=[0] * MODES**2,  # a vanishing control
         g_weights=[4] + [0] * (MODES**2 - 1), log_alpha=-4.0, beta=1e-3, log_bounds=(1.0, 1.0))
def test_ssn_solve_returns_the_minimizer_over_drawn_data_and_bounds(
        N, kind, log_scale, f_weights, g_weights, log_alpha, beta, log_bounds):
    grid = GridSpec(N)
    sines = np.sin(np.pi * np.outer(np.arange(1, MODES + 1), np.arange(1, N) * grid.h))
    # the data scale runs from a control that vanishes (|p| <= beta everywhere)
    # to one held at a bound on most of the points
    f, g = (10.0 ** log_scale / 4 * sines.T @ np.reshape(w, (MODES, MODES)) @ sines
            for w in (f_weights, g_weights))
    cp = ControlParams(10.0 ** log_alpha, beta, -10.0 ** log_bounds[0], 10.0 ** log_bounds[1])
    control = oracle.SparseControl(ProblemData(f, g, grid), cp)
    u_or = control.minimizer()
    event("the control vanishes" if not u_or.any() else "the control does not vanish")
    _assert_solves_the_control_problem(control, u_or, kind)

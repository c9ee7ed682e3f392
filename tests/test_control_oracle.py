"""ssn_solve against an independent minimizer of the control problem's
objective (oracle.SparseControl) on example 2."""

from functools import cache

import numpy as np
import pytest

from ocmg.grid import GridSpec
from ocmg.multigrid import CycleSpec
from ocmg.problems import example2_fields
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


@pytest.mark.parametrize("kind", ["cjr", "bsr", "ibsr"])
@pytest.mark.parametrize("N, alpha, beta, bound", CASES)
def test_ssn_solve_returns_the_minimizer_of_the_objective(N, alpha, beta, bound, kind):
    control, u_or = _oracle(N, alpha, beta, bound)
    cp = control.cp
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
    # and the bound says something: the oracle is this close to the minimizer
    assert tol <= 1e-4 * np.abs(u_or).max()

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

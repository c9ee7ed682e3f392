"""Semi-smooth Newton outer solver for the box-constrained sparse control problem.

The nonlinear optimality system couples the five-point state and adjoint
equations through the pointwise soft-shrinkage map, the soft threshold
of p by beta, scaled by 1/alpha and clipped to the bounds,

    phi(p) = clip( (max(0, p-beta) + min(0, p+beta)) / alpha,  u0, u1 ),

whose output always lies in [u0, u1] and vanishes on the dead zone
|p| <= beta.  A generalized derivative of alpha*phi is the {0,1} mask

    m(p) = 1_{p-beta >= 0} + 1_{p+beta <= 0}
           - 1_{p-beta-alpha u1 >= 0} - 1_{p+beta-alpha u0 <= 0},

which is exactly the indicator of the free (strictly-between-bounds,
outside-dead-zone) set.  Each Newton step solves the saddle system with
that mask in the (1,2) block by multigrid and is globalized with a
monotone backtracking line search (step halving, full step tried first
so local superlinear convergence is preserved).

The iteration starts from the unconstrained beta=0 solution; the
multigrid iteration count of that seed solve is kept as the baseline
that constrained Jacobian solves are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import apply_laplacian, block_norm2, check_alpha
from .multigrid import CycleSpec, build_hierarchy, solve
from .problems import ProblemData
from .smoothers import SmootherSpec

MAX_BACKTRACKS = 20  # step halvings per Newton step before the line search fails
MAX_NEWTON_STEPS = 50  # Newton steps before the solve fails


@dataclass(frozen=True)
class ControlParams:
    alpha: float
    beta: float
    u0: float
    u1: float

    def __post_init__(self):
        check_alpha(self.alpha)
        if not self.beta >= 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if not self.u0 < 0 < self.u1:
            raise ValueError(
                f"bounds must straddle zero, got u0={self.u0}, u1={self.u1}")


@dataclass(frozen=True)
class SsnResult:
    v: np.ndarray              # (2, m, m) block field (y, p)
    u: np.ndarray              # phi(p), the control
    mg_iters: list[int]        # per-Newton-step multigrid counts
    baseline_iters: int        # unconstrained seed solve count
    residuals: list[float]     # ||F|| history, entry 0 at the seed
    steps: list[float]         # accepted line-search step per Newton step
    converged: bool

    @property
    def iters(self) -> int:
        return len(self.steps)


class SolverError(RuntimeError):
    """Outer solver failure; carries the last state for post-mortems."""

    def __init__(self, msg: str, state: SsnResult | None = None):
        super().__init__(msg)
        self.state = state


def phi(p: np.ndarray, cp: ControlParams) -> np.ndarray:
    """Pointwise control recovery map; range is [u0, u1], bounds hit exactly."""
    shrunk = np.maximum(0.0, p - cp.beta) + np.minimum(0.0, p + cp.beta)
    return np.clip(shrunk / cp.alpha, cp.u0, cp.u1)


def dphi_mask(p: np.ndarray, cp: ControlParams) -> np.ndarray:
    """{0,1} field: 1 where phi is locally linear with slope 1/alpha."""
    a, b = cp.alpha, cp.beta
    expr = ((p - b >= 0).astype(float) + (p + b <= 0)
            - (p - b - a * cp.u1 >= 0) - (p + b - a * cp.u0 <= 0))
    # the four indicators combine to 0 or 1 except on overlapping kinks
    return np.clip(expr, 0.0, 1.0)


def residual_F(v: np.ndarray, data: ProblemData,
               cp: ControlParams) -> np.ndarray:
    """Nonlinear optimality residual (L y - phi(p) - f, L p + y - g) at v = (y, p)."""
    F = apply_laplacian(v, data.grid)
    F[0] -= phi(v[1], cp)
    F[0] -= data.f
    F[1] += v[0]
    F[1] -= data.g
    return F


def ssn_solve(data: ProblemData, cp: ControlParams, q: int,
              smoother: SmootherSpec, spec: CycleSpec = CycleSpec(),
              tol: float = 1e-10) -> SsnResult:
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    grid = data.grid
    b = np.stack([data.f, data.g])
    seed = solve(build_hierarchy(grid.N, q, cp.alpha, smoother), b, spec)
    if not seed.converged:
        raise SolverError("multigrid diverged on the seed system "
                          f"(rho={seed.rho:.3f})")
    v = seed.v
    Fv = residual_F(v, data, cp)
    residuals = [block_norm2(Fv)]
    # the seed can already solve (affine case), making a purely
    # seed-relative test self-referential; anchor the target to the
    # zero-state residual ||(f,g)|| as well
    floor = 1e-14 * np.sqrt(2.0 * grid.m ** 2)
    target = max(tol * residuals[0], tol * block_norm2(b), floor)
    mg_iters, steps = [], []
    stalled_mask = None  # the last step's mask when that step was negligible

    def result(converged: bool = False) -> SsnResult:
        return SsnResult(v, phi(v[1], cp), mg_iters, seed.iters, residuals,
                         steps, converged)

    while residuals[-1] > target:
        mask = dphi_mask(v[1], cp)
        if stalled_mask is not None and np.array_equal(mask, stalled_mask):
            # active set stationary and the last update was noise-sized
            break
        if len(steps) >= MAX_NEWTON_STEPS:
            raise SolverError(
                f"no convergence in {MAX_NEWTON_STEPS} iterations "
                f"(||F||/||F0||={residuals[-1] / residuals[0]:.3e})", result())
        # correction system: start from zero so the 1e-10 relative stop
        # scales with the current Newton residual
        jac = solve(build_hierarchy(grid.N, q, cp.alpha, smoother, mask=mask),
                    -1.0 * Fv, spec, v0=np.zeros_like(v))
        if not jac.converged:
            raise SolverError("multigrid diverged on the Jacobian system "
                              f"(rho={jac.rho:.3f})", result())
        step = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            trial = v + step * jac.v
            F_trial = residual_F(trial, data, cp)
            norm_trial = block_norm2(F_trial)
            if norm_trial < residuals[-1]:
                break
            step *= 0.5
        else:
            raise SolverError(
                f"line search failed after {MAX_BACKTRACKS} halvings at "
                f"iteration {len(steps) + 1} (||F||={residuals[-1]:.3e})",
                result())
        negligible = step * block_norm2(jac.v) <= 1e-13 * max(1.0, block_norm2(v))
        stalled_mask = mask if negligible else None
        v, Fv = trial, F_trial
        mg_iters.append(jac.iters)
        residuals.append(norm_trial)
        steps.append(step)
    return result(converged=True)


def sparsity_fractions(u: np.ndarray, cp: ControlParams) -> tuple[float, float]:
    """(zero fraction, active-bound fraction) of a control field."""
    n = u.size
    zero = float(np.count_nonzero(u == 0.0)) / n
    active = float(np.count_nonzero((u == cp.u0) | (u == cp.u1))) / n
    return zero, active

"""Semi-smooth Newton outer solver for the box-constrained sparse control problem.

The nonlinear optimality system couples the five-point state and adjoint
equations through the pointwise soft-shrinkage map

    phi(p) = (1/alpha) [ max(0, p-beta) + min(0, p+beta)
                         - max(0, p-beta-alpha u1) - min(0, p+beta-alpha u0) ],

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

from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, apply_laplacian, block_norm2, check_alpha
from .multigrid import CycleSpec, build_hierarchy, solve
from .problems import ProblemData
from .smoothers import SmootherSpec

MAX_BACKTRACKS = 20  # step halvings per Newton step before the line search fails


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


@dataclass
class SsnResult:
    y: np.ndarray
    p: np.ndarray
    u: np.ndarray
    iters: int
    mg_iters: list[int]        # per-Newton-step multigrid counts
    baseline_iters: int        # unconstrained seed solve count
    residuals: list[float]     # ||F|| history, entry 0 at the seed
    converged: bool = True
    steps: list[float] = field(default_factory=list)


class SolverError(RuntimeError):
    """Outer solver failure; carries the last state for post-mortems."""

    def __init__(self, msg: str, state: SsnResult | None = None):
        super().__init__(msg)
        self.state = state


def phi(p: np.ndarray, cp: ControlParams) -> np.ndarray:
    """Pointwise control recovery map; range is [u0, u1]."""
    a, b = cp.alpha, cp.beta
    out = (np.maximum(0.0, p - b) + np.minimum(0.0, p + b)
           - np.maximum(0.0, p - b - a * cp.u1)
           - np.minimum(0.0, p + b - a * cp.u0))
    # the branches cancel at the scale of |p| + beta: / a can round past a bound
    return np.clip(out / a, cp.u0, cp.u1)


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


def _mg_solve(data_grid: GridSpec, q: int, cp: ControlParams,
              smoother: SmootherSpec, spec: CycleSpec, b: np.ndarray,
              mask: np.ndarray | None, what: str, state: SsnResult | None,
              v0: np.ndarray | None = None):
    hier = build_hierarchy(data_grid.N, q, cp.alpha, smoother, mask=mask)
    res = solve(hier, b, spec, v0=v0)
    if not res.converged:
        raise SolverError(f"multigrid diverged on the {what} system "
                          f"(rho={res.rho:.3f})", state)
    return res


def ssn_solve(data: ProblemData, cp: ControlParams, q: int,
              smoother: SmootherSpec, spec: CycleSpec = CycleSpec(),
              max_iters: int = 50, tol: float = 1e-10) -> SsnResult:
    grid = data.grid
    b = np.stack([data.f, data.g])
    seed_res = _mg_solve(grid, q, cp, smoother, spec, b, None, "seed", None)
    v = seed_res.v
    Fv = residual_F(v, data, cp)
    norm_F = block_norm2(Fv)
    norm_F0 = norm_F
    # the seed can already solve (affine case), making a purely
    # seed-relative test self-referential; anchor the target to the
    # zero-state residual ||(f,g)|| as well
    norm_data = block_norm2(b)
    floor = 1e-14 * np.sqrt(2.0 * grid.m ** 2)
    target = max(tol * norm_F0, tol * norm_data, floor)
    out = SsnResult(v[0], v[1], phi(v[1], cp), 0, [], seed_res.iters,
                    [norm_F], converged=False)
    prev_mask = None
    prev_step_negligible = False

    while norm_F > target:
        mask = dphi_mask(v[1], cp)
        if (prev_mask is not None and np.array_equal(mask, prev_mask)
                and prev_step_negligible):
            # active set stationary and the last update was noise-sized
            break
        if out.iters >= max_iters:
            raise SolverError(f"no convergence in {max_iters} iterations "
                              f"(||F||/||F0||={norm_F / norm_F0:.3e})", out)
        # correction system: start from zero so the 1e-10 relative stop
        # scales with the current Newton residual
        jac = _mg_solve(grid, q, cp, smoother, spec, -1.0 * Fv, mask,
                        "Jacobian", out, v0=np.zeros_like(v))
        w = jac.v
        step = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            trial = v + step * w
            F_trial = residual_F(trial, data, cp)
            norm_trial = block_norm2(F_trial)
            if norm_trial < norm_F:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise SolverError(
                f"line search failed after {MAX_BACKTRACKS} halvings "
                f"at iteration {out.iters + 1} (||F||={norm_F:.3e})", out)
        prev_step_negligible = step * block_norm2(w) <= 1e-13 * max(
            1.0, block_norm2(v))
        prev_mask = mask
        v, Fv, norm_F = trial, F_trial, norm_trial
        out.y, out.p, out.u = v[0], v[1], phi(v[1], cp)
        out.iters += 1
        out.mg_iters.append(jac.iters)
        out.residuals.append(norm_F)
        out.steps.append(step)
    out.converged = True
    return out


def sparsity_fractions(u: np.ndarray, cp: ControlParams) -> tuple[float, float]:
    """(zero fraction, active-bound fraction) of a control field."""
    n = u.size
    zero = float(np.count_nonzero(u == 0.0)) / n
    active = float(np.count_nonzero((u == cp.u0) | (u == cp.u1))) / n
    return zero, active

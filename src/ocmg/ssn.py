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

ssn_solve first solves the unconstrained system (phi(p) = p/alpha, no
bounds) on the given grid.  That seed fixes the final ||F|| target, and
its multigrid iteration count is kept as the baseline that constrained
Jacobian solves are compared against.  Semi-smooth Newton is mesh
independent, so the loop then starts from one level of nested
iteration: the same problem, on the grid N/q with full-weighted f and g,
is solved from its own seed to its discretization error (1/N_c)^2, and
its (y, p) is prolonged.  On example 2 at N=128 and alpha=1e-6 this
leaves 2 fine steps where the seed start took 15.  The loop starts from
the seed instead when N/q has no coarser grid, or when the seed already
solves the system (beta = 0 and no bound active there).  It also reruns
from the seed when the coarse stage or the loop from its start fails,
which happens at small alpha (bsr, N=32, alpha=1e-10).  Every multigrid
solve goes through this module's solve binding, the coarse stage's too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import GridSpec, apply_laplacian, block_norm2, check_alpha
from .multigrid import (CycleSpec, MgResult, build_hierarchy, level_sizes,
                        prolong, restrict, solve)
from .problems import ProblemData
from .smoothers import PcgBreakdownError, SmootherSpec

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
    residuals: list[float]     # ||F|| history, entry 0 at the loop's start
    steps: list[float]         # accepted line-search step per Newton step
    converged: bool
    start: SsnResult | None = None  # the coarse stage the loop started from
    seed_start: str | None = None   # else why it started from the seed

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
    with np.errstate(over="ignore"):  # a quotient that overflows is clipped too
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
    """Semi-smooth Newton from the same problem solved one grid coarser.

    Returns converged=True once ||F|| <= max(tol ||F0||, tol ||(f,g)||, floor)
    (F0 the residual of the unconstrained seed, which may already solve
    the system; floor is round-off), or once a negligible step leaves the
    active set unchanged (a round-off stall).  When the coarse stage or
    the Newton loop from its prolonged iterate fails, the loop reruns from
    the seed, and its SolverError (on an unconverged multigrid solve, a
    failed line search or MAX_NEWTON_STEPS steps) is the one raised.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    seed, Fv, target = _seed(data, cp, q, smoother, spec, tol)

    def newton_from(v: np.ndarray, Fv: np.ndarray) -> SsnResult:
        return newton(v, Fv, data, cp, q, smoother, spec, target,
                      baseline_iters=seed.iters)

    Nc = level_sizes(data.grid.N, q)[1]
    try:
        level_sizes(Nc, q)
    except ValueError:
        return replace(newton_from(seed.v, Fv), seed_start=f"N={Nc} has no coarser grid")
    if cp.beta == 0 and dphi_mask(seed.v[1], cp).all():
        # phi is p/alpha at the seed, so the seed solves the system as well
        # as multigrid solved the linear one; a coarse start is further off
        return replace(newton_from(seed.v, Fv),
                       seed_start="no bound is active and beta=0 at the seed")
    stage = f"the coarse stage on N={Nc}"
    try:
        # solved to its discretization error, (1/Nc)^2: the prolongation
        # would lose any further accuracy
        ctol = max(tol, 1.0 / Nc ** 2)
        cspec = replace(spec, tol=ctol)
        fc, gc = restrict(np.stack([data.f, data.g]), q)
        cdata = ProblemData(fc, gc, GridSpec(Nc))
        cseed, cFv, ctarget = _seed(cdata, cp, q, smoother, cspec, ctol)
        coarse = newton(cseed.v, cFv, cdata, cp, q, smoother, cspec, ctarget,
                        baseline_iters=cseed.iters)
        stage = "Newton from the coarse stage"
        v = prolong(coarse.v, q)
        return replace(newton_from(v, residual_F(v, data, cp)), start=coarse)
    except (SolverError, PcgBreakdownError) as exc:
        seed_start = f"{stage} failed: {exc}"
    return replace(newton_from(seed.v, Fv), seed_start=seed_start)


def _seed(data: ProblemData, cp: ControlParams, q: int, smoother: SmootherSpec,
          spec: CycleSpec, tol: float) -> tuple[MgResult, np.ndarray, float]:
    """The unconstrained seed solve, its residual_F and the Newton target."""
    b = np.stack([data.f, data.g])
    seed = solve(build_hierarchy(data.grid.N, q, cp.alpha, smoother), b, spec)
    if not seed.converged:
        raise SolverError(f"multigrid {seed.failure} on the seed system "
                          f"(rho={seed.rho:.3f})")
    Fv = residual_F(seed.v, data, cp)
    floor = 1e-14 * np.sqrt(2.0 * data.grid.m ** 2)
    return seed, Fv, max(tol * block_norm2(Fv), tol * block_norm2(b), floor)


def newton(v: np.ndarray, Fv: np.ndarray, data: ProblemData, cp: ControlParams,
           q: int, smoother: SmootherSpec, spec: CycleSpec, target: float, *,
           baseline_iters: int) -> SsnResult:
    """Damped semi-smooth Newton from v, whose residual_F is Fv, to ||F|| <= target.

    converged=True as ssn_solve says; SolverError with the last accepted
    iterate as its state otherwise.  baseline_iters only labels the result.
    """
    residuals = [block_norm2(Fv)]
    mg_iters, steps = [], []
    stalled_mask = None  # the last step's mask when that step was negligible

    def result(converged: bool = False) -> SsnResult:
        return SsnResult(v, phi(v[1], cp), mg_iters, baseline_iters, residuals,
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
        # correction system: from zero, so that spec.tol (ctol = (1/N_c)^2 in
        # the coarse stage) is relative to the current Newton residual
        jac = solve(build_hierarchy(data.grid.N, q, cp.alpha, smoother, mask=mask),
                    -1.0 * Fv, spec, v0=np.zeros_like(v))
        if not jac.converged:
            raise SolverError(f"multigrid {jac.failure} on the Jacobian system "
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

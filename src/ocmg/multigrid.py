"""Geometric multigrid with coarsening by q in {2, 3, 4}.

Hierarchy invariants:

  * every coarse operator is the re-discretization of the saddle system
    with mesh step H = q h (never a Galerkin product);
  * coarsening continues while N is divisible by q and N/q stays at or
    above the coarsest size (default 8), giving the level chains
    256 -> 128 -> 64 -> 32 -> 16 -> 8   (q = 2)
    243 -> 81 -> 27 -> 9                (q = 3)
    256 -> 64 -> 16                     (q = 4);
  * active-set masks are carried down by full-weighting averaging, so a
    coarse Jacobian couples through the local free-set fraction in [0,1]
    rather than through a subsampled {0,1} pattern;
  * the collective Jacobi damping is recomputed per level from that
    level's h (gamma = h^2/(4 sqrt(alpha)) grows on coarse levels);
    the Braess-Sarazin damping is the fixed per-q constant.

Cycles use nu pre-smoothing steps and NO post-smoothing; a W-cycle
recurses twice where a V-cycle recurses once; the coarsest level is a
dense LU direct solve (assembled once per hierarchy).  No residual is
evaluated twice: solve hands the residual of its convergence check to the
next cycle, and a coarse visit from the zero iterate smooths its
right-hand side directly.

Transfers are tensor products of sparse 1D operators built once per
(N, q): full weighting R1, weights (q - |k|)/q^2 for k = -(q-1)..(q-1),
and linear interpolation P1 = q R1^T, boundary values zero.  Then
restrict(f) = R1 f R1^T and prolong(c) = P1 c P1^T are adjoint up to the
fixed factor q^2 by construction: <prolong(c), f> = q^2 <c, restrict(f)>.

The convergence factor of a solve stopped at iteration k is
rho = (||r_k|| / ||r_0||)^(1/k), measured from a seeded uniform(0,1)
random initial guess, matching the benchmark protocol reproduced here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import log

import numpy as np
import scipy.linalg

from .grid import (
    BlockField,
    GridSpec,
    SaddleOperator,
    block_norm2,
    residual,
)
from .lfa import LfaParams, bsr_damping, cjr_optimal
from .oracle import assemble
from .smoothers import SchurSpectral, SmootherSpec, bsr_apply, cjr_apply


@dataclass(frozen=True)
class CycleSpec:
    cycle: str = "W"
    nu_pre: int = 1
    tol: float = 1e-10
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.cycle not in ("V", "W"):
            raise ValueError(f"cycle must be 'V' or 'W', got {self.cycle!r}")
        if self.nu_pre < 1:
            raise ValueError("nu_pre must be >= 1")


@dataclass
class Level:
    grid: GridSpec
    op: SaddleOperator
    smoother: SmootherSpec  # omega resolved
    spectral: SchurSpectral | None  # exact-BSR inner preconditioner cache


@dataclass
class Hierarchy:
    levels: list[Level]
    q: int
    coarse_lu: tuple  # scipy (lu, piv) of the coarsest saddle matrix


@dataclass
class MgResult:
    v: BlockField
    iters: int
    rho: float
    history: list[float]
    converged: bool


def level_sizes(N: int, q: int, coarsest_n: int = 8) -> list[int]:
    """Subdivision counts per level under the coarsening rule."""
    sizes = [N]
    while sizes[-1] % q == 0 and sizes[-1] // q >= coarsest_n:
        sizes.append(sizes[-1] // q)
    return sizes


def _resolve_omega(spec: SmootherSpec, q: int, alpha: float, h: float) -> float:
    if spec.omega is not None:
        return spec.omega
    if spec.kind == "cjr":
        return cjr_optimal(LfaParams(q=q, alpha=alpha, h=h)).omega
    return bsr_damping(q)[0]


def build_hierarchy(N: int, q: int, alpha: float, smoother: SmootherSpec,
                    mask: np.ndarray | None = None,
                    coarsest_n: int = 8) -> Hierarchy:
    """Re-discretized level chain with per-level smoother parameters."""
    if q not in (2, 3, 4):
        raise ValueError(f"coarsening factor must be 2, 3 or 4, got {q}")
    sizes = level_sizes(N, q, coarsest_n)
    if len(sizes) < 2:
        raise ValueError(
            f"N={N} cannot be coarsened by q={q} (needs N divisible by q with "
            f"N/q >= {coarsest_n})")
    levels = []
    lvl_mask = mask
    for n in sizes:
        grid = GridSpec(n)
        op = SaddleOperator(grid, alpha, lvl_mask)
        spec = replace(smoother, omega=_resolve_omega(smoother, q, alpha, grid.h))
        spectral = SchurSpectral(grid, alpha) if spec.kind == "bsr" else None
        levels.append(Level(grid, op, spec, spectral))
        if lvl_mask is not None and n // q >= 2:
            # homogenized coarse coupling: full-weighting average of the
            # mask field; a subsampled {0,1} mask misrepresents thin
            # active-set boundaries and the 1/alpha-weighted correction
            # then amplifies instead of contracting
            lvl_mask = restrict(lvl_mask, q)
    coarse = levels[-1]
    A = assemble("saddle", coarse.grid, alpha=alpha, mask=coarse.op.mask)
    return Hierarchy(levels=levels, q=q, coarse_lu=scipy.linalg.lu_factor(A))


# ---------------------------------------------------------------- transfers

@lru_cache(maxsize=None)
def _transfers_1d(N: int, q: int) -> tuple:
    """Full weighting R1, (N/q - 1) x (N - 1), and interpolation P1 = q R1^T."""
    from scipy import sparse  # here, not at start-up of every ocmg command
    if N % q != 0 or N < 2 * q:
        raise ValueError(f"N={N} cannot be coarsened by q={q}")
    k = np.arange(-(q - 1), q)
    band = sparse.diags_array((q - np.abs(k)) / q**2, offsets=k,
                              shape=(N - 1, N - 1))
    R = band.tocsr()[q - 1::q]  # rows at the coarse nodes q, 2q, ...
    return R, (q * R.T).tocsr()


# Only sparse @ dense products; the transposes copy the smaller arrays.
def restrict(fine: np.ndarray, q: int) -> np.ndarray:
    """Tensor-product full weighting R1 f R1^T onto the q-times-coarser grid."""
    R, _ = _transfers_1d(fine.shape[0] + 1, q)
    return np.ascontiguousarray((R @ (R @ fine).T).T)


def prolong(coarse: np.ndarray, q: int) -> np.ndarray:
    """Tensor-product linear interpolation P1 c P1^T onto the q-times-finer grid."""
    _, P = _transfers_1d(q * (coarse.shape[0] + 1), q)
    return P @ (P @ coarse.T).T


# ---------------------------------------------------------------- cycling

def _relax(r: BlockField, lev: Level) -> BlockField:
    if lev.smoother.kind == "cjr":
        return cjr_apply(r, lev.op, lev.smoother.omega)
    return bsr_apply(r, lev.op, lev.smoother, spectral=lev.spectral)


def _coarse_solve(hier: Hierarchy, b: BlockField) -> BlockField:
    m = hier.levels[-1].grid.m
    x = scipy.linalg.lu_solve(hier.coarse_lu,
                              np.concatenate([b.y.ravel(), b.p.ravel()]))
    n = m * m
    return BlockField(x[:n].reshape(m, m), x[n:].reshape(m, m))


def cycle(hier: Hierarchy, level: int, v: BlockField | None, b: BlockField,
          spec: CycleSpec, r: BlockField | None = None,
          inplace: bool = False) -> BlockField:
    """One recursive cycle from the given level; returns the updated iterate.

    v None is the zero iterate and r, if given, its residual b - A v.  b
    is never modified, v only with inplace=True (the caller owns it).
    """
    if level == len(hier.levels) - 1:
        return _coarse_solve(hier, b)
    lev, q = hier.levels[level], hier.q
    if v is None:  # the residual of the zero iterate is b itself
        v = _relax(b, lev)
    else:
        v = v if inplace else v.copy()
        v += _relax(residual(lev.op, b, v) if r is None else r, lev)
    for _ in range(spec.nu_pre - 1):
        v += _relax(residual(lev.op, b, v), lev)
    r = residual(lev.op, b, v)
    rc = BlockField(restrict(r.y, q), restrict(r.p, q))
    del r  # unused below; freeing it lowers the peak memory of the cycle
    ec = None
    for _ in range(1 if spec.cycle == "V" else 2):
        ec = cycle(hier, level + 1, ec, rc, spec, inplace=True)
    v += BlockField(prolong(ec.y, q), prolong(ec.p, q))
    return v


def solve(hier: Hierarchy, b: BlockField, spec: CycleSpec,
          v0: BlockField | None = None) -> MgResult:
    """Cycle to tolerance from a seeded uniform(0,1) random initial guess.

    An explicit v0 overrides the random guess; correction equations are
    best started from zero so the relative tolerance is measured against
    the right-hand side rather than against random-iterate noise.  A
    non-finite b raises ValueError; a non-finite residual norm ends the
    solve unconverged before it can reach the coarse LU solve.
    """
    if not (np.isfinite(b.y).all() and np.isfinite(b.p).all()):
        raise ValueError("right-hand side contains non-finite values")
    g = hier.levels[0].grid
    op = hier.levels[0].op
    if v0 is not None:
        v = v0.copy()
    else:
        rng = np.random.default_rng(spec.seed)
        v = BlockField(rng.uniform(0.0, 1.0, (g.m, g.m)),
                       rng.uniform(0.0, 1.0, (g.m, g.m)))
    r = residual(op, b, v)
    r0 = block_norm2(r)
    history = [r0]
    if r0 == 0.0:
        return MgResult(v, 0, 0.0, history, True)
    if not np.isfinite(r0):
        return MgResult(v, 0, float("nan"), history, False)
    rel, k = 1.0, 0
    for k in range(1, spec.max_iters + 1):
        v = cycle(hier, 0, v, b, spec, r, inplace=True)
        r = residual(op, b, v)
        history.append(block_norm2(r))
        rel = history[-1] / r0
        if rel <= spec.tol or not rel <= 1e8:  # converged, diverging or NaN
            break
    rho = rel ** (1.0 / k) if k > 0 else 0.0
    return MgResult(v, k, rho, history, rel <= spec.tol)


def eta_ratio(rho_s: float, rho_j: float) -> float:
    """Work-equivalence exponent ln(rho_s)/ln(rho_j) for two factors in (0,1)."""
    if not (0.0 < rho_s < 1.0 and 0.0 < rho_j < 1.0):
        raise ValueError(f"factors must lie in (0,1), got {rho_s}, {rho_j}")
    return log(rho_s) / log(rho_j)

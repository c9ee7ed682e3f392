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
sparse LU direct solve, factored once per hierarchy, of its saddle
matrix assembled here with L = (I x T + T x I) N^2, T = tridiag(-1, 2,
-1).  Fields are stacked (2, m, m) block fields (see grid); the
transfers act on one (m, m) component at a time.  No residual is
evaluated twice: solve hands the residual of its convergence check to
the next cycle, and a coarse visit from the zero iterate smooths its
right-hand side directly.  No coarse solve is repeated either: the
coarsest level ignores the iterate it is handed, so the W-cycle visits
it once where it would visit it twice with the same right-hand side.

Buffers: a cycle handed its residual with inplace=True owns that array
and reuses it as its work buffer.  The smoother writes its correction
into it, each later residual (after every smoothing step) is written
back into it, and the cycle drops it once it is restricted, before
descending.  solve hands over the residual of its convergence check this
way and keeps no reference to it, so a level-0 cycle holds two fine
block fields (the iterate and the buffer) where it would hold three.
Without inplace=True a cycle modifies none of v, b and r.

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

from .grid import GridSpec, SaddleOperator, block_norm2, residual
from .lfa import LfaParams, bsr_damping, cjr_optimal
from .smoothers import (SchurSpectral, SmootherSpec, bsr_apply, cjr_apply,
                        schur_diag)

CYCLES = ("V", "W")


@dataclass(frozen=True)
class CycleSpec:
    cycle: str = "W"
    nu_pre: int = 1
    tol: float = 1e-10
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.cycle not in CYCLES:
            raise ValueError(f"cycle must be 'V' or 'W', got {self.cycle!r}")
        if self.nu_pre < 1:
            raise ValueError(f"nu must be at least 1, got {self.nu_pre}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclass
class Level:
    grid: GridSpec
    op: SaddleOperator
    smoother: SmootherSpec  # omega resolved
    spectral: SchurSpectral | None  # exact-BSR inner preconditioner cache
    diag: np.ndarray | float | None  # IBSR inner preconditioner cache, schur_diag(op)


@dataclass
class Hierarchy:
    levels: list[Level]
    q: int
    coarse_lu: object  # scipy SuperLU factor of the coarsest saddle matrix


@dataclass
class MgResult:
    v: np.ndarray  # (2, m, m) block field
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


def coarsening_chain(N: int, q: int, coarsest_n: int = 8) -> list[int]:
    """level_sizes of a hierarchy; a q outside {2, 3, 4} or one level is an error."""
    if q not in (2, 3, 4):
        raise ValueError(f"coarsening factor must be 2, 3 or 4, got {q}")
    sizes = level_sizes(N, q, coarsest_n)
    if len(sizes) < 2:
        raise ValueError(
            f"N={N} cannot be coarsened by q={q} (needs N divisible by q with "
            f"N/q >= {coarsest_n})")
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
    levels = []
    lvl_mask = mask
    for n in coarsening_chain(N, q, coarsest_n):
        grid = GridSpec(n)
        op = SaddleOperator(grid, alpha, lvl_mask)
        spec = replace(smoother, omega=_resolve_omega(smoother, q, alpha, grid.h))
        spectral = SchurSpectral(grid, alpha) if spec.kind == "bsr" else None
        diag = schur_diag(op) if spec.kind == "ibsr" else None
        levels.append(Level(grid, op, spec, spectral, diag))
        if lvl_mask is not None and n // q >= 2:
            # homogenized coarse coupling: full-weighting average of the
            # mask field; a subsampled {0,1} mask misrepresents thin
            # active-set boundaries and the 1/alpha-weighted correction
            # then amplifies instead of contracting
            lvl_mask = restrict(lvl_mask, q)
    from scipy.sparse.linalg import splu  # here, not at start-up of every ocmg command
    return Hierarchy(levels=levels, q=q, coarse_lu=splu(_saddle_matrix(levels[-1].op)))


def _saddle_matrix(op: SaddleOperator):
    """Sparse CSC [[L, -diag(mask)/alpha], [I, L]] in the [y; p] ravel order."""
    from scipy import sparse
    g = op.grid
    T = sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(g.m, g.m))
    I = sparse.identity(g.m)
    L = (sparse.kron(I, T) + sparse.kron(T, I)) * g.N**2
    mask = np.ones(g.npoints) if op.mask is None else op.mask.ravel()
    return sparse.bmat([[L, sparse.diags_array(-mask / op.alpha)],
                        [sparse.identity(g.npoints), L]], format="csc")


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

def _relax(r: np.ndarray, lev: Level, out: np.ndarray | None = None) -> np.ndarray:
    if lev.smoother.kind == "cjr":
        return cjr_apply(r, lev.op, lev.smoother.omega, out)
    return bsr_apply(r, lev.op, lev.smoother, lev.spectral, lev.diag, out)


def _coarse_solve(hier: Hierarchy, b: np.ndarray) -> np.ndarray:
    # the C-order ravel of a block field is the saddle matrix's [y; p]
    return hier.coarse_lu.solve(b.ravel()).reshape(b.shape)


def cycle(hier: Hierarchy, level: int, v: np.ndarray | None, b: np.ndarray,
          spec: CycleSpec, r: np.ndarray | None = None,
          inplace: bool = False) -> np.ndarray:
    """One recursive cycle from the given level; returns the updated iterate.

    v None is the zero iterate and r, if given, its residual b - A v.  b
    is never modified.  With inplace=True the caller hands over v and r:
    v is updated in place and returned, and r is overwritten as the
    cycle's work buffer.  Otherwise neither is modified.
    """
    last = len(hier.levels) - 1
    if level == last:
        return _coarse_solve(hier, b)
    lev, q = hier.levels[level], hier.q
    if v is None:  # the residual of the zero iterate is b itself
        v, r = _relax(b, lev), None
    else:
        owned = inplace or r is None
        v = v if inplace else v.copy()
        if r is None:
            r = residual(lev.op, b, v)
        r = _relax(r, lev, out=r if owned else None)
        v += r
    # r, if not None, is now an array the cycle owns: the next residuals go there
    for _ in range(spec.nu_pre - 1):
        r = residual(lev.op, b, v, out=r)
        v += _relax(r, lev, out=r)
    r = residual(lev.op, b, v, out=r)
    rc = np.stack([restrict(rk, q) for rk in r])
    del r  # unused below; freeing it lowers the peak memory of the cycle
    ec = None
    # the coarsest level ignores the iterate, so a second visit would repeat the first
    visits = 1 if spec.cycle == "V" or level + 1 == last else 2
    for _ in range(visits):
        ec = cycle(hier, level + 1, ec, rc, spec, inplace=True)
    for vk, eck in zip(v, ec):
        vk += prolong(eck, q)
    return v


def solve(hier: Hierarchy, b: np.ndarray, spec: CycleSpec,
          v0: np.ndarray | None = None) -> MgResult:
    """Cycle to tolerance from a seeded uniform(0,1) random initial guess.

    An explicit v0 overrides the random guess; correction equations are
    best started from zero so the relative tolerance is measured against
    the right-hand side rather than against random-iterate noise.  A
    non-finite b raises ValueError; a non-finite residual norm ends the
    solve unconverged before it can reach the coarse LU solve.
    """
    g = hier.levels[0].grid
    op = hier.levels[0].op
    g.check_block(b)
    if not np.isfinite(b).all():
        raise ValueError("right-hand side contains non-finite values")
    if v0 is not None:
        v = v0.copy()
    else:
        v = np.random.default_rng(spec.seed).uniform(0.0, 1.0, (2, g.m, g.m))
    # each residual goes to the next cycle as its work buffer; it is kept
    # in a one-element list that the call pops, so solve holds no
    # reference to it while the cycle runs (CPython 3.11+ moves a Python
    # call's arguments into the callee's frame; 3.10 kept them on the
    # caller's stack until the call returned)
    pending = [residual(op, b, v)]
    r0 = block_norm2(pending[0])
    history = [r0]
    if r0 == 0.0:
        return MgResult(v, 0, 0.0, history, True)
    if not np.isfinite(r0):
        return MgResult(v, 0, float("nan"), history, False)
    rel, k = 1.0, 0
    for k in range(1, spec.max_iters + 1):
        v = cycle(hier, 0, v, b, spec, pending.pop(), inplace=True)
        pending.append(residual(op, b, v))
        history.append(block_norm2(pending[0]))
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

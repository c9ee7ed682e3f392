"""Geometric multigrid with coarsening by q in {2, 3, 4}.

Hierarchy invariants:

  * every coarse operator is the re-discretization of the saddle system
    with mesh step H = q h (never a Galerkin product);
  * every chain coarsens at least once; after that it coarsens while
    the coarsest grid has more than DIRECT_N = 32 subdivisions, so the
    coarsest level is the first coarse grid with at most 32 subdivisions
    (2 * 31^2 = 1,922 unknowns, where one sparse LU solve costs less than
    the cycle dispatch of the levels below it) unless divisibility stops
    the chain first.  Each step needs N divisible by q and N/q >=
    COARSEST_N = 8.  The level chains:
    256 -> 128 -> 64 -> 32   (q = 2; N = 128 and N = 1024 also stop at 32)
    243 -> 81 -> 27          (q = 3)
    256 -> 64 -> 16          (q = 4)
    50 -> 25, 75 -> 25, 100 -> 25 and 16 -> 8;
  * active-set masks are carried down by full-weighting averaging, so a
    coarse Jacobian couples through the local free-set fraction in [0,1]
    rather than through a subsampled {0,1} pattern.

Cycles use nu pre-smoothing steps and NO post-smoothing; a W-cycle
recurses twice where a V-cycle recurses once.  Each level holds one
solve, its relax: smoothers.relaxation's damped relaxation on every
level but the coarsest, and there the sparse LU solve (B = A, omega = 1)
of its saddle matrix, assembled here and factored once per hierarchy.
Fields are stacked (2, m, m) block fields (see grid); the transfers act
on one (m, m) component at a time.  No residual or coarse solve is
computed twice: solve hands its convergence-check residual to the next
cycle, a coarse visit from the zero iterate smooths its right-hand side
directly, and as the LU solve ignores the iterate, the W-cycle visits
the coarsest level once, not twice with the same right-hand side.

Buffers: a cycle owns the iterate and the residual it is handed (see
cycle).  The residual is its work buffer: the smoother writes its
correction into it, each later residual (after every smoothing step) is
written back into it, and the cycle drops it once it is restricted,
before descending.  solve hands over the residual of its convergence
check and keeps no reference to it, so a level-0 cycle holds two fine
block fields (the iterate and the buffer) where it would hold three.

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

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from math import inf, log

import numpy as np

from .grid import (GridSpec, SaddleOperator, SparseLU, block_norm2,
                   check_integer, check_q, residual, sparse_laplacian)
from .smoothers import SmootherSpec, relaxation

CYCLES = ("V", "W")
COARSEST_N = 8  # no coarse grid has fewer subdivisions
DIRECT_N = 32  # a coarse grid this small is solved directly, not coarsened


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
        check_integer("nu", self.nu_pre)
        check_integer("max_iters", self.max_iters)
        check_integer("seed", self.seed)
        if self.nu_pre < 1:
            raise ValueError(f"nu must be at least 1, got {self.nu_pre}")
        if not 0 < self.tol < inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class Level:
    op: SaddleOperator
    relax: Callable[..., np.ndarray]  # smoothers.relaxation; the coarsest: its LU solve


@dataclass
class Hierarchy:
    levels: list[Level]
    q: int


@dataclass
class MgResult:
    v: np.ndarray  # (2, m, m) block field
    iters: int
    rho: float
    history: list[float]
    converged: bool

    @property
    def failure(self) -> str | None:
        """Why an unconverged solve stopped; None for a converged one."""
        return None if self.converged else (
            "did not reach tolerance" if np.isfinite(self.history[-1])
            else "residual norm is not finite")


def level_sizes(N: int, q: int) -> list[int]:
    """Subdivision counts per level under the coarsening rule.

    Coarsen once, then while the coarsest grid has more than DIRECT_N
    subdivisions; each step needs N divisible by q and N/q >= COARSEST_N.
    A q outside {2, 3, 4}, or an N that gives no coarse level, is an error.
    """
    check_q(q)
    check_integer("N", N)
    sizes = [N]
    while (sizes[-1] % q == 0 and sizes[-1] // q >= COARSEST_N
           and (len(sizes) == 1 or sizes[-1] > DIRECT_N)):
        sizes.append(sizes[-1] // q)
    if len(sizes) < 2:
        raise ValueError(
            f"N={N} cannot be coarsened by q={q} (needs N divisible by q with "
            f"N/q >= {COARSEST_N})")
    return sizes


def build_hierarchy(N: int, q: int, alpha: float, smoother: SmootherSpec,
                    mask: np.ndarray | None = None) -> Hierarchy:
    """Re-discretized level chain; smoother relaxes all levels but the coarsest, solved by LU."""
    ops = []
    for n in level_sizes(N, q):
        if ops and mask is not None:
            # homogenized coarse coupling: full-weighting average of the
            # mask field; a subsampled {0,1} mask misrepresents thin
            # active-set boundaries and the 1/alpha-weighted correction
            # then amplifies instead of contracting
            mask = restrict(mask, q)
        ops.append(SaddleOperator(GridSpec(n), alpha, mask))
    levels = [Level(op, relaxation(op, smoother, q)) for op in ops[:-1]]
    levels.append(Level(ops[-1], SparseLU(_saddle_matrix(ops[-1])).solve))
    return Hierarchy(levels=levels, q=q)


def _saddle_matrix(op: SaddleOperator):
    """Sparse CSC [[L, -diag(mask)/alpha], [I, L]]; [y; p] is a block field's C-order ravel."""
    from scipy import sparse
    L, n = sparse_laplacian(op.grid), op.grid.npoints
    mask = np.ones(n) if op.mask is None else op.mask.ravel()
    return sparse.bmat([[L, sparse.diags_array(-mask / op.alpha)],
                        [sparse.identity(n), L]], format="csc")


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

def cycle(hier: Hierarchy, level: int, v: np.ndarray | None, b: np.ndarray,
          spec: CycleSpec, r: np.ndarray | None = None) -> np.ndarray:
    """One recursive cycle from the given level; returns the updated iterate.

    The cycle owns what it is handed: v is updated in place and returned,
    and r, if given, must be the residual b - A v and is overwritten as
    the cycle's work buffer.  v None is the zero iterate; the coarsest
    level's relax, its LU solve, ignores v and returns a new array.  b is
    never modified.
    """
    last = len(hier.levels) - 1
    lev, q = hier.levels[level], hier.q
    if level == last:
        return lev.relax(b)
    if v is None:  # the residual of the zero iterate is b itself
        v, r = lev.relax(b), None
    else:
        if r is None:
            r = residual(lev.op, b, v)
        v += lev.relax(r, out=r)
    # r, if not None, is now an array the cycle owns: the next residuals go there
    for _ in range(spec.nu_pre - 1):
        r = residual(lev.op, b, v, out=r)
        v += lev.relax(r, out=r)
    r = residual(lev.op, b, v, out=r)
    rc = np.stack([restrict(rk, q) for rk in r])
    del r  # unused below; freeing it lowers the peak memory of the cycle
    ec = None
    # the coarsest level ignores the iterate, so a second visit would repeat the first
    visits = 1 if spec.cycle == "V" or level + 1 == last else 2
    for _ in range(visits):
        ec = cycle(hier, level + 1, ec, rc, spec)
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
    op = hier.levels[0].op
    g = op.grid
    g.check_block(b)
    if not np.isfinite(b).all():
        raise ValueError("right-hand side contains non-finite values")
    if v0 is not None:
        v = v0.copy()
    else:
        v = np.random.default_rng(spec.seed).uniform(0.0, 1.0, (2, g.m, g.m))
    # each residual goes to the next cycle as its work buffer; it is kept
    # in a one-element list that the call pops, so solve holds no
    # reference to it while the cycle runs (CPython moves a call's
    # arguments into the callee's frame)
    pending = [residual(op, b, v)]
    r0 = block_norm2(pending[0])
    history = [r0]
    if r0 == 0.0:
        return MgResult(v, 0, 0.0, history, True)
    if not np.isfinite(r0):
        return MgResult(v, 0, float("nan"), history, False)
    for k in range(1, spec.max_iters + 1):  # CycleSpec: max_iters >= 1
        v = cycle(hier, 0, v, b, spec, pending.pop())
        pending.append(residual(op, b, v))
        history.append(block_norm2(pending[0]))
        rel = history[-1] / r0
        if rel <= spec.tol or not rel <= 1e8:  # converged, diverging or NaN
            break
    return MgResult(v, k, rel ** (1.0 / k), history, rel <= spec.tol)


def eta_ratio(rho_s: float, rho_j: float) -> float:
    """Work-equivalence exponent ln(rho_s)/ln(rho_j) for two factors in (0,1)."""
    if not (0.0 < rho_s < 1.0 and 0.0 < rho_j < 1.0):
        raise ValueError(f"factors must lie in (0,1), got {rho_s}, {rho_j}")
    return log(rho_s) / log(rho_j)

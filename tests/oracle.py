"""Dense brute-force references for the matrix-free operators.

Everything here assembles explicit matrices on tiny grids (N <= MAX_N
= 24, enforced) in the same row-major index convention as the stencil
code, so matrix-vector products are comparable entry for entry; a
(2, N-1, N-1) block field ravels to the [y; p] vector of the 2(N-1)^2
matrices.  Used only by the test suite, to pin down every matrix-free
path; no solver module imports it.  Three references of any size follow
the dense ones: apply_saddle, the matrix-free A v that grid.residual
makes strip by strip; saddle_matrix, which gives the tests direct
solutions beyond the dense size guard; and transfer_matrices, the 1D
full weighting R1 and interpolation P1 = q R1^T that multigrid.restrict
and multigrid.prolong reproduce bitwise as R1 f R1^T and P1 c P1^T
(restrict_reference, prolong_reference).  Two scalar references the
tests share follow: the sampled symbol-ratio ranges and the
work-equivalence exponent.  Two hierarchy tools close the module:
schur_solve, the Schur solve of bsr or ibsr built here from the smoothers'
public pieces, and with_cjr_damping, which relaxes a collective Jacobi
hierarchy with a hand-set damping in place of the closed form's.

Assembly kinds:

  laplacian   (N-1)^2 square, five-point stencil / h^2
  mass        (N-1)^2 square, nine-point stencil * h^2/36
  saddle      2(N-1)^2 square, [[L, -M/alpha], [I, L]]
  B_J         2(N-1)^2 square, [[D, -M/alpha], [I, D]], D = diag(L) = 4/h^2
  B_m         2(N-1)^2 square, [[C, -M/alpha], [I, L]], C = Q^{-1} (dense inverse)
  schur       (N-1)^2 square, L + Q diag(mask)/alpha

The mask enters the (1,2) block only, matching the generalized Jacobian
of the constrained problem.
"""

from __future__ import annotations

from math import log

import numpy as np
from scipy import sparse

from ocmg import smoothers
from ocmg.grid import GridSpec, SaddleOperator, residual
from ocmg.lfa import high_freq_grid, symbol_laplacian, symbol_mass

MAX_N = 24  # memory guard: dense matrices only on tiny grids


def _check_size(grid: GridSpec) -> None:
    if grid.N > MAX_N:
        raise ValueError(f"dense oracle limited to N <= {MAX_N}, got N={grid.N}")


def _tridiag(m: int, lo: float, di: float, up: float) -> np.ndarray:
    T = np.diag(np.full(m, di))
    T += np.diag(np.full(m - 1, lo), -1)
    T += np.diag(np.full(m - 1, up), +1)
    return T


def assemble_laplacian(grid: GridSpec) -> np.ndarray:
    _check_size(grid)
    m = grid.m
    K = _tridiag(m, -1.0, 2.0, -1.0)
    I = np.eye(m)
    # C-order flatten is j outer, i inner: the i-direction couples adjacent
    # entries (kron(I, K)), the j-direction couples entries m apart.
    return (np.kron(I, K) + np.kron(K, I)) * grid.N**2


def assemble_mass(grid: GridSpec) -> np.ndarray:
    _check_size(grid)
    T = _tridiag(grid.m, 1.0, 4.0, 1.0)
    return np.kron(T, T) * grid.h**2 / 36.0


def assemble(kind: str, grid: GridSpec, alpha: float | None = None,
             mask: np.ndarray | None = None) -> np.ndarray:
    """Explicit matrix for one of the operator kinds listed above."""
    _check_size(grid)
    if kind == "laplacian":
        return assemble_laplacian(grid)
    if kind == "mass":
        return assemble_mass(grid)

    if alpha is None:
        raise ValueError(f"kind {kind!r} needs alpha")
    n = grid.m ** 2
    M = np.eye(n) if mask is None else np.diag(mask.ravel().astype(float))
    L = assemble_laplacian(grid)
    I = np.eye(n)

    if kind == "schur":
        return L + assemble_mass(grid) @ M / alpha

    out = np.zeros((2 * n, 2 * n))
    if kind == "saddle":
        blk11, blk22 = L, L
    elif kind == "B_J":
        D = np.eye(n) * (4.0 * grid.N**2)
        blk11, blk22 = D, D
    elif kind == "B_m":
        C = np.linalg.inv(assemble_mass(grid))
        blk11, blk22 = C, L
    else:
        raise ValueError(f"unknown assembly kind {kind!r}")
    out[:n, :n] = blk11
    out[:n, n:] = -M / alpha
    out[n:, :n] = I
    out[n:, n:] = blk22
    return out


def dense_solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct solve with a residual guard (relative 1e-10)."""
    x = np.linalg.solve(M, b)
    nb = np.linalg.norm(b)
    if nb > 0:
        rel = np.linalg.norm(M @ x - b) / nb
        if rel > 1e-10:
            raise np.linalg.LinAlgError(f"dense solve residual {rel:.2e} > 1e-10")
    return x


def apply_saddle(op: SaddleOperator, v: np.ndarray) -> np.ndarray:
    """A v = (L y - (M.p)/alpha, y + L p), matrix-free: the residual of v for a
    zero right-hand side, negated (so a zero entry may be -0.0)."""
    return -residual(op, np.zeros_like(v), v)


def saddle_matrix(op: SaddleOperator):
    """apply_saddle as a sparse CSC [[L, -diag(mask)/alpha], [I, L]] on v.ravel() = [y; p]."""
    m, n = op.grid.m, op.grid.m ** 2
    mask = np.ones(n) if op.mask is None else op.mask.astype(np.float64).ravel()
    T = sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(m, m))
    I = sparse.identity(m)
    L = (sparse.kron(I, T) + sparse.kron(T, I)) * op.grid.N**2
    return sparse.bmat([[L, sparse.diags_array(-mask / op.alpha)],
                        [sparse.identity(n), L]], format="csc")


def transfer_matrices(N: int, q: int, dtype) -> tuple:
    """Sparse CSR full weighting R1, (N/q - 1) x (N - 1), and interpolation P1 = q R1^T.

    Row i of R1 holds the weights (q - |k|)/q^2, k = -(q-1)..(q-1), at the
    fine nodes q (i + 1) + k, computed in float64 and then cast to dtype.
    """
    k = np.arange(-(q - 1), q)
    band = sparse.diags_array((q - np.abs(k)) / q**2, offsets=k, shape=(N - 1, N - 1))
    R = band.tocsr()[q - 1::q]  # rows at the coarse nodes q, 2q, ...
    return R.astype(dtype), (q * R.T).tocsr().astype(dtype)


def restrict_reference(fine: np.ndarray, q: int) -> np.ndarray:
    """R1 f R1^T over the trailing (m, m) axes, one component at a time."""
    if fine.ndim > 2:
        return np.stack([restrict_reference(f, q) for f in fine])
    R, _ = transfer_matrices(fine.shape[-1] + 1, q, fine.dtype)
    return np.ascontiguousarray((R @ (R @ fine).T).T)  # rows first, then columns


def prolong_reference(coarse: np.ndarray, q: int) -> np.ndarray:
    """P1 c P1^T over the trailing (m, m) axes, one component at a time."""
    if coarse.ndim > 2:
        return np.stack([prolong_reference(c, q) for c in coarse])
    _, P = transfer_matrices(q * (coarse.shape[-1] + 1), q, coarse.dtype)
    return P @ (P @ coarse.T).T  # columns first, then rows


def scalar_range_check(kind: str, q: int) -> tuple[float, float]:
    """Sampled (min, max) of a/a1 (kind 'jacobi') or a/b (kind 'mass') over T^H_q."""
    t1, t2 = high_freq_grid(q)
    a = symbol_laplacian(t1, t2, 1.0)
    if kind == "jacobi":
        ratio = a / 4.0
    elif kind == "mass":
        ratio = a * symbol_mass(t1, t2, 1.0)
    else:
        raise ValueError(f"kind must be 'jacobi' or 'mass', got {kind!r}")
    return float(np.min(ratio)), float(np.max(ratio))


def eta_ratio(rho_s: float, rho_j: float) -> float:
    """Work-equivalence exponent ln(rho_s)/ln(rho_j) for two factors in (0,1)."""
    if not (0.0 < rho_s < 1.0 and 0.0 < rho_j < 1.0):
        raise ValueError(f"factors must lie in (0,1), got {rho_s}, {rho_j}")
    return log(rho_s) / log(rho_j)


def schur_solve(kind: str, op: SaddleOperator):
    """The Schur solve of kind 'bsr' or 'ibsr' on op, built afresh: the sine-basis
    inverse or the sparse LU (with a mask) for bsr, two diagonally
    preconditioned CG steps from rhs / diag (SmootherSpec's default) for ibsr."""
    if kind == "bsr":
        return (smoothers.schur_lu(op) if op.mask is not None
                else smoothers.SchurSpectral(op.grid, op.alpha).solve)
    matvec = lambda w: smoothers.schur_apply(w, op)
    precond = lambda w: w / smoothers.schur_diag(op)

    def solve(rhs):
        w0 = precond(rhs)
        return w0 + smoothers.pcg(matvec, rhs - matvec(w0), 2, precond)
    return solve


def with_cjr_damping(hier, omega: float):
    """hier, its relaxed levels rebound to cjr_apply damped by omega (the
    coarsest level keeps its direct solve)."""
    for lev in hier.levels[:-1]:
        lev.relax = lambda r, op=lev.op: smoothers.cjr_apply(r, op, omega)
    return hier

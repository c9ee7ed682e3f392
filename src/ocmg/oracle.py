"""Dense brute-force references for the matrix-free operators.

Everything here assembles explicit matrices on tiny grids (N <= MAX_N
= 24, enforced) in the same row-major index convention as the stencil
code, so matrix-vector products are comparable entry for entry; a
(2, N-1, N-1) block field ravels to the [y; p] vector of the 2(N-1)^2
matrices.  Used only by the test suite, to pin down every matrix-free
path and the multigrid module's sparse coarse-solve matrix; no solver
module imports it.

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

import numpy as np

from .grid import GridSpec

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
    n = grid.npoints
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

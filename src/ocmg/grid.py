"""Uniform-grid fields and matrix-free stencil operators.

The domain is the unit square with homogeneous Dirichlet boundary
conditions, discretized by finite differences with mesh step h = 1/N.
A scalar field stores interior nodal values only, as an (N-1) x (N-1)
array ``u`` with the fixed convention

    u[j-1, i-1]  =  value at the grid point (i*h, j*h),   1 <= i, j <= N-1,

i.e. the first array axis walks the x2 direction and the second the x1
direction, so a C-order flatten gives row-major lexicographic ordering
(j outer, i inner).  Boundary values are implicit zeros and never stored.

A block field, the (state, adjoint) pair of the saddle system, is one
C-contiguous array v of shape (2, N-1, N-1) with v[0] = y and v[1] = p.
Its C-order ravel is the vector [y; p], the unknown ordering of the dense
oracle's 2(N-1)^2 matrices.  The scalar stencils act on the trailing two
axes, so one call applies them to both components of a block field.

Operators provided, all matrix-free:

  * five-point Laplacian       L u = (4u_c - u_W - u_E - u_S - u_N) / h^2
  * nine-point mass operator   Q u = (h^2/36) [1 4 1; 4 16 4; 1 4 1] * u
  * the 2x2 block saddle operator

        A (y, p) = ( L y - (M.p)/alpha ,  y + L p )

    where M is an optional {0,1} mask acting entrywise on p (identity
    when absent).  With the mask absent this is the optimality system of
    the quadratic control problem; with a mask it is the generalized
    Jacobian arising from the active-set outer iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform N x N subdivision of the unit square, h = 1/N."""

    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"need N >= 2, got N={self.N}")

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def m(self) -> int:
        """Interior points per direction."""
        return self.N - 1

    @property
    def npoints(self) -> int:
        return self.m * self.m

    def check_field(self, u: np.ndarray) -> None:
        """Trailing axes (m, m): a scalar field or a stack of them."""
        if u.shape[-2:] != (self.m, self.m):
            raise ValueError(f"field shape {u.shape} does not match grid N={self.N}")

    def check_block(self, v: np.ndarray) -> None:
        if v.shape != (2, self.m, self.m):
            raise ValueError(
                f"block field shape {v.shape} is not (2, {self.m}, {self.m})")


@dataclass(frozen=True)
class SaddleOperator:
    """Matrix-free A = [[L, -M/alpha], [I, L]]; mask None means M = I."""

    grid: GridSpec
    alpha: float
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.mask is not None:
            self.grid.check_field(self.mask)


def apply_laplacian(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Five-point Laplacian with zero Dirichlet boundary."""
    grid.check_field(u)
    out = 4.0 * u
    out[..., 1:, :] -= u[..., :-1, :]
    out[..., :-1, :] -= u[..., 1:, :]
    out[..., 1:] -= u[..., :-1]
    out[..., :-1] -= u[..., 1:]
    out *= grid.N * grid.N  # 1/h^2
    return out


def apply_mass(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Nine-point mass operator (h^2/36)[1 4 1; 4 16 4; 1 4 1].

    The stencil is the tensor product of the 1D weights [1 4 1]/6 scaled
    by h per direction, so it is applied separably.
    """
    grid.check_field(u)
    tmp = 4.0 * u
    tmp[..., 1:, :] += u[..., :-1, :]
    tmp[..., :-1, :] += u[..., 1:, :]
    out = 4.0 * tmp
    out[..., 1:] += tmp[..., :-1]
    out[..., :-1] += tmp[..., 1:]
    out *= grid.h * grid.h / 36.0
    return out


def apply_saddle(op: SaddleOperator, v: np.ndarray) -> np.ndarray:
    """A v = (L y - (M.p)/alpha, y + L p)."""
    op.grid.check_block(v)
    out = apply_laplacian(v, op.grid)
    out[0] -= (v[1] if op.mask is None else op.mask * v[1]) / op.alpha
    out[1] += v[0]
    return out


def residual(op: SaddleOperator, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """b - A v."""
    out = apply_saddle(op, v)
    return np.subtract(b, out, out=out)


def block_norm2(v: np.ndarray) -> float:
    """Euclidean norm over all 2(N-1)^2 entries."""
    return float(np.linalg.norm(v))

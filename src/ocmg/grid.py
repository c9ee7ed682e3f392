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

Operators provided, matrix-free (for the direct solves, L and Q are also
assembled sparse, only by sparse_laplacian and sparse_mass):

  * five-point Laplacian       L u = (4u_c - u_W - u_E - u_S - u_N) / h^2
  * nine-point mass operator   Q u = (h^2/36) [1 4 1; 4 16 4; 1 4 1] * u
  * the 2x2 block saddle operator

        A (y, p) = ( L y - (M.p)/alpha ,  y + L p )

    where M is an optional mask with entries in [0, 1] acting entrywise
    on p (identity when absent): {0,1} on the finest level, fractional
    where multigrid averages it onto coarse levels.  With the mask absent
    this is the optimality system of the quadratic control problem; with
    a mask it is the generalized Jacobian arising from the active-set
    outer iteration.

Strip policy: every Laplacian, saddle and residual evaluation runs one
row kernel (_laplacian_rows, _saddle_rows) over row ranges [a, b).
residual evaluates a field in row strips of about STRIP_BYTES (512 KiB)
each (row_strips), taken across both components of a block field, so
that its passes over a strip stay in a 2 MiB L2 cache;
smoothers.cjr_apply does the same.  A field of at most STRIP_BYTES is
one strip, and apply_laplacian and apply_saddle take all rows as one
range.  512 KiB strips measured as fast as 256 KiB ones and faster than
1 MiB ones at N=1024, and faster than one whole-array pass at N=256.  A
strip reads one halo row on each side and keeps the per-element order
of operations, so any split into strips is bitwise one whole-array pass.

Flat east-west policy: the x1-neighbour updates of the Laplacian row
kernel and the mass operator are each one ufunc call on the trailing
(rows, m) axes seen as one flat axis (_east_west), not on a
column-sliced 2-D view that NumPy walks row by row.  The flat call makes
the sliced update with the same operands, and also updates the rows - 1
entries where it couples a row end to the next row start; those are
saved and put back, so the result is bitwise equal.  On one Xeon core,
best of 5: apply_laplacian 0.55 -> 0.29 ms and apply_mass 0.25 -> 0.16
ms at N=256, a block residual 19.8 -> 14.5 ms at N=1024; at N <= 32 the
extra calls cost up to about 8 us per kernel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform N x N subdivision of the unit square, h = 1/N."""

    N: int

    def __post_init__(self):
        check_integer("N", self.N)
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


def check_alpha(alpha: float) -> None:
    """The one alpha check: positive and finite with a finite 1/alpha (NaN fails)."""
    if not (0.0 < alpha < math.inf and math.isfinite(1.0 / float(alpha))):
        raise ValueError(f"alpha must be positive with a finite 1/alpha, got {alpha}")


def check_integer(name: str, value: int) -> None:
    """The one integer check: an Integral, so a float such as 2.0 is refused."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_q(q: int) -> None:
    """The one coarsening-factor check: q is 2, 3 or 4 (an integer)."""
    if not isinstance(q, numbers.Integral) or q not in (2, 3, 4):
        raise ValueError(f"coarsening factor must be 2, 3 or 4, got {q}")


@dataclass(frozen=True)
class SaddleOperator:
    """Matrix-free A = [[L, -M/alpha], [I, L]]; mask None means M = I.

    A mask is one finite (m, m) field with entries in [0, 1]: {0,1} on the
    finest level, fractional on the coarse levels it is averaged onto.
    """

    grid: GridSpec
    alpha: float
    mask: np.ndarray | None = None

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.mask is None:
            return
        if np.shape(self.mask) != (self.grid.m, self.grid.m):
            raise ValueError(f"mask shape {np.shape(self.mask)} is not "
                             f"({self.grid.m}, {self.grid.m}) for grid N={self.grid.N}")
        if not np.isfinite(self.mask).all():
            raise ValueError("mask has a non-finite entry")


STRIP_BYTES = 1 << 19


def row_strips(u: np.ndarray) -> list[tuple[int, int]]:
    """Row ranges [a, b) of about STRIP_BYTES of u each, all components included."""
    m = u.shape[-2]
    rows = max(1, STRIP_BYTES * m // u.nbytes)
    return [(a, min(a + rows, m)) for a in range(0, m, rows)]


def _east_west(op, out: np.ndarray, u: np.ndarray) -> None:
    """out[..., 1:] op= u[..., :-1], then out[..., :-1] op= u[..., 1:], as flat
    passes that put back the row ends they couple (see Flat east-west policy)."""
    flat = out.shape[:-2] + (-1,)
    o, f = out.reshape(flat), u.reshape(flat)  # f may be a copy, o must not be
    if not np.may_share_memory(o, out):  # a copy would take the writes and drop them
        raise ValueError("out must have C-contiguous rows")
    keep = out[..., 1:, 0].copy()
    op(o[..., 1:], f[..., :-1], out=o[..., 1:])
    out[..., 1:, 0] = keep
    keep = out[..., :-1, -1].copy()
    op(o[..., :-1], f[..., 1:], out=o[..., :-1])
    out[..., :-1, -1] = keep


def _laplacian_rows(u: np.ndarray, a: int, b: int, out: np.ndarray,
                    scale: int) -> None:
    """Rows [a, b) of L u into out, with rows a-1 and b as the halo.

    Per element: 4u, minus the neighbours above, below, left and right in
    that order, times scale = 1/h^2.
    """
    np.multiply(u[..., a:b, :], 4.0, out=out)
    if a > 0:
        out -= u[..., a - 1:b - 1, :]
    else:
        out[..., 1:, :] -= u[..., :b - 1, :]
    if b < u.shape[-2]:
        out -= u[..., a + 1:b + 1, :]
    else:
        out[..., :-1, :] -= u[..., a + 1:, :]
    _east_west(np.subtract, out, u[..., a:b, :])
    out *= scale


def apply_laplacian(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Five-point Laplacian with zero Dirichlet boundary."""
    grid.check_field(u)
    out = np.empty(u.shape, np.result_type(u, 4.0))  # C order: _east_west views it flat
    _laplacian_rows(u, 0, grid.m, out, grid.N * grid.N)
    return out


def apply_mass(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Nine-point mass operator (h^2/36)[1 4 1; 4 16 4; 1 4 1].

    The stencil is the tensor product of the 1D weights [1 4 1]/6 scaled
    by h per direction, so it is applied separably.
    """
    grid.check_field(u)
    tmp = np.multiply(u, 4.0, order="C")
    tmp[..., 1:, :] += u[..., :-1, :]
    tmp[..., :-1, :] += u[..., 1:, :]
    out = 4.0 * tmp
    _east_west(np.add, out, tmp)
    out *= grid.h * grid.h / 36.0
    return out


@lru_cache(maxsize=None)  # one matrix per grid, shared: its entries are read-only
def sparse_laplacian(grid: GridSpec):
    """apply_laplacian as a sparse matrix: (I x T + T x I) / h^2, T = tridiag(-1, 2, -1)."""
    from scipy import sparse  # here, not at start-up of every ocmg command
    T = sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(grid.m, grid.m))
    I = sparse.identity(grid.m)
    L = (sparse.kron(I, T) + sparse.kron(T, I)) * grid.N**2
    L.data.flags.writeable = False
    return L


def sparse_mass(grid: GridSpec):
    """apply_mass as a sparse matrix: (T4 x T4) h^2/36, T4 = tridiag(1, 4, 1)."""
    from scipy import sparse  # here, not at start-up of every ocmg command
    T4 = sparse.diags_array([1.0, 4.0, 1.0], offsets=[-1, 0, 1], shape=(grid.m, grid.m))
    return sparse.kron(T4, T4) * grid.h**2 / 36.0


class SparseLU:
    """Sparse LU of a CSC matrix acting on C-order ravelled fields."""

    def __init__(self, A):
        from scipy.sparse.linalg import splu  # here, not at start-up of every ocmg command
        self._lu = splu(A)

    def solve(self, b: np.ndarray) -> np.ndarray:  # A^{-1} b, shaped as b and of its dtype
        return self._lu.solve(b.ravel()).astype(b.dtype, copy=False).reshape(b.shape)


def _saddle_rows(op: SaddleOperator, v: np.ndarray, a: int, b: int,
                 out: np.ndarray) -> None:
    """Rows [a, b) of A v (see apply_saddle) into out, of shape (2, b - a, m)."""
    _laplacian_rows(v, a, b, out, op.grid.N * op.grid.N)
    p = v[1, a:b]
    out[0] -= (p if op.mask is None else op.mask[a:b] * p) / op.alpha
    out[1] += v[0, a:b]


def apply_saddle(op: SaddleOperator, v: np.ndarray) -> np.ndarray:
    """A v = (L y - (M.p)/alpha, y + L p)."""
    op.grid.check_block(v)
    out = np.empty(v.shape, np.result_type(v, 4.0))
    _saddle_rows(op, v, 0, op.grid.m, out)
    return out


def residual(op: SaddleOperator, b: np.ndarray, v: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """b - A v, written into out if given (C-contiguous, not overlapping v)."""
    op.grid.check_block(v)
    if out is None:
        out = np.empty(v.shape, np.result_type(v, 4.0))
    for lo, hi in row_strips(v):
        strip = out[:, lo:hi]
        _saddle_rows(op, v, lo, hi, strip)
        np.subtract(b[:, lo:hi], strip, out=strip)
    return out


def block_norm2(v: np.ndarray) -> float:
    """Euclidean norm over all 2(N-1)^2 entries; inf, without a warning, if
    it overflows."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v))

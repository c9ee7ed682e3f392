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

    where M is an optional {0,1} mask acting entrywise on p (identity
    when absent).  With the mask absent this is the optimality system of
    the quadratic control problem; with a mask it is the generalized
    Jacobian arising from the active-set outer iteration.

Strip policy: residual evaluates a field larger than STRIP_BYTES
(512 KiB) in row strips of about that size (row_strips), taken across
both components of a block field, so that its successive passes over a
strip (input, output and temporaries) stay in a 2 MiB L2 cache instead
of streaming the whole field through memory once per pass;
smoothers.cjr_apply follows the same policy.  On the residual, 512 KiB
strips measured as fast as 256 KiB ones and faster than 1 MiB ones at
N=1024, and faster than the whole-array pass at N=256.  A strip reads
its rows plus one halo row on each side and keeps the whole-array order
of operations per element, so the result is bitwise the same as one
whole-array pass.  A field that fits one strip takes the whole-array
code, with no per-strip work.  apply_laplacian and apply_saddle always
make one whole-array pass, also on the larger fields that apply_laplacian
gets from smoothers.schur_apply (ibsr) at N >= 258 and from
ssn.residual_F at N >= 183.
"""

from __future__ import annotations

import math
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


def check_alpha(alpha: float) -> None:
    """The one alpha check: positive and finite with a finite 1/alpha (NaN fails)."""
    if not (0.0 < alpha < math.inf and math.isfinite(1.0 / float(alpha))):
        raise ValueError(f"alpha must be positive with a finite 1/alpha, got {alpha}")


def check_q(q: int) -> None:
    """The one coarsening-factor check: q is 2, 3 or 4."""
    if q not in (2, 3, 4):
        raise ValueError(f"coarsening factor must be 2, 3 or 4, got {q}")


@dataclass(frozen=True)
class SaddleOperator:
    """Matrix-free A = [[L, -M/alpha], [I, L]]; mask None means M = I."""

    grid: GridSpec
    alpha: float
    mask: np.ndarray | None = None

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.mask is not None:
            self.grid.check_field(self.mask)


STRIP_BYTES = 1 << 19


def row_strips(u: np.ndarray) -> list[tuple[int, int]]:
    """Row ranges [a, b) of about STRIP_BYTES of u each, all components included."""
    m = u.shape[-2]
    rows = max(1, STRIP_BYTES * m // u.nbytes)
    return [(a, min(a + rows, m)) for a in range(0, m, rows)]


def _laplacian_rows(u: np.ndarray, a: int, b: int, out: np.ndarray,
                    scale: int) -> None:
    """Rows [a, b) of L u into out, with rows a-1 and b as the halo.

    Per element: 4u, minus the neighbours above, below, left and right in
    that order, times scale = 1/h^2, as in apply_laplacian.
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
    out[..., 1:] -= u[..., a:b, :-1]
    out[..., :-1] -= u[..., a:b, 1:]
    out *= scale


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


def sparse_laplacian(grid: GridSpec):
    """apply_laplacian as a sparse matrix: (I x T + T x I) / h^2, T = tridiag(-1, 2, -1)."""
    from scipy import sparse  # here, not at start-up of every ocmg command
    T = sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(grid.m, grid.m))
    I = sparse.identity(grid.m)
    return (sparse.kron(I, T) + sparse.kron(T, I)) * grid.N**2


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

    def solve(self, b: np.ndarray) -> np.ndarray:  # A^{-1} b, shaped as b
        return self._lu.solve(b.ravel()).reshape(b.shape)


def _saddle_rows(op: SaddleOperator, v: np.ndarray, a: int, b: int,
                 out: np.ndarray) -> None:
    """Rows [a, b) of A v into out, of shape (2, b - a, m), as apply_saddle."""
    _laplacian_rows(v, a, b, out, op.grid.N * op.grid.N)
    p = v[1, a:b]
    out[0] -= (p if op.mask is None else op.mask[a:b] * p) / op.alpha
    out[1] += v[0, a:b]


def apply_saddle(op: SaddleOperator, v: np.ndarray) -> np.ndarray:
    """A v = (L y - (M.p)/alpha, y + L p)."""
    op.grid.check_block(v)
    out = apply_laplacian(v, op.grid)
    out[0] -= (v[1] if op.mask is None else op.mask * v[1]) / op.alpha
    out[1] += v[0]
    return out


def residual(op: SaddleOperator, b: np.ndarray, v: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """b - A v, written into out if given (out must not overlap v)."""
    if v.nbytes <= STRIP_BYTES:
        Av = apply_saddle(op, v)
        return np.subtract(b, Av, out=Av if out is None else out)
    op.grid.check_block(v)
    if out is None:
        out = np.empty_like(v)
    for lo, hi in row_strips(v):
        strip = out[:, lo:hi]
        _saddle_rows(op, v, lo, hi, strip)
        np.subtract(b[:, lo:hi], strip, out=strip)
    return out


def block_norm2(v: np.ndarray) -> float:
    """Euclidean norm over all 2(N-1)^2 entries."""
    return float(np.linalg.norm(v))

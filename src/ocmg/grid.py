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

Operators provided, matrix-free:

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

The direct solves of the saddle system, for the coarsest multigrid level,
are SaddleSine in the sine basis of sine_basis (no mask, or a sparse one
through a capacitance system on its support) and SaddleRowLU, a NumPy
block LU over grid rows (a dense mask); saddle_solver picks one by the
number of the mask's nonzeros.  Masked exact Braess-Sarazin factors its
Schur matrix in smoothers.schur_lu.

Strip policy: every Laplacian, saddle and residual evaluation runs one
row kernel (_laplacian_rows, _saddle_rows) over row ranges [a, b).
residual evaluates a field in row strips of about STRIP_BYTES (512 KiB)
each (row_strips), taken across both components of a block field, so
that its passes over a strip stay in a 2 MiB L2 cache;
smoothers.cjr_apply does the same, and so do multigrid.restrict (both
passes over the coarse rows a strip of fine rows makes),
multigrid.prolong (both passes over the fine rows of a strip) and
add_correction, multigrid.solve's update after a cycle (the residual
update, the add into the iterate and the norm, in the strips of the
float64 iterate).  A field of at most STRIP_BYTES is one strip, and
apply_laplacian takes all rows as one range.  512 KiB
strips measured as fast as 256 KiB ones and faster than 1 MiB ones at
N=1024, and faster than one whole-array pass at N=256.  A strip reads
one halo row on each side and keeps the per-element order of operations,
so any split into strips is bitwise one whole-array pass.

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
from collections.abc import Callable
from dataclasses import dataclass

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
        if not (np.min(self.mask) >= 0 and np.max(self.mask) <= 1):  # NaN fails both
            raise ValueError("mask has a non-finite entry or one outside [0, 1]")


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
    o, f = out.reshape(flat), u.reshape(flat)  # out has C-ordered rows: o is a view
    keep = out[..., 1:, 0].copy()
    op(o[..., 1:], f[..., :-1], out=o[..., 1:])
    out[..., 1:, 0] = keep
    keep = out[..., :-1, -1].copy()
    op(o[..., :-1], f[..., 1:], out=o[..., :-1])
    out[..., :-1, -1] = keep


def _laplacian_rows(u: np.ndarray, a: int, b: int, out: np.ndarray) -> None:
    """Rows [a, b) of L u into out, with rows a-1 and b as the halo.

    Per element: 4u, minus the neighbours above, below, left and right in
    that order, times 1/h^2 = N^2, N - 1 the trailing size of u.
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
    out *= (u.shape[-1] + 1) ** 2


def apply_laplacian(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Five-point Laplacian with zero Dirichlet boundary."""
    grid.check_field(u)
    out = np.empty(u.shape, np.result_type(u, 4.0))  # C order: _east_west views it flat
    _laplacian_rows(u, 0, grid.m, out)
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


def sine_basis(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The type-I sine matrix S[j, k] = sqrt(2/N) sin(pi j k/N), j, k = 1..N-1,
    and the eigenvalue fields it diagonalizes: lam[k, l] = lap[k] + lap[l] of L
    and mass[k, l] = mq[k] mq[l] of Q, from lap[k] = (2 - 2cos(k pi/N))/h^2 of
    the 1-D factor tridiag(-1, 2, -1)/h^2 and mq[k] = (4 + 2cos(k pi/N)) h/6 of
    tridiag(1, 4, 1) h/6.

    S is orthonormal, symmetric and its own inverse, so S u S are the modal
    coefficients of a field u, L u = S ((S u S) lam) S and Q u = S ((S u S) mass) S.
    """
    k = np.arange(1, grid.N)
    c = np.cos(np.pi * k / grid.N)
    # the argument of the sine reduced modulo 2 pi exactly
    sine = np.sqrt(2.0 / grid.N) * np.sin(np.pi * (np.outer(k, k) % (2 * grid.N)) / grid.N)
    lap, mq = (2.0 - 2.0 * c) * grid.N ** 2, (4.0 + 2.0 * c) * grid.h / 6.0
    return sine, lap[:, None] + lap[None, :], np.outer(mq, mq)


class SaddleSine:
    """Direct solve of the saddle system A v = b in the sine basis of L, for no
    mask or a sparse one (see saddle_solver).

    Without a mask every mode (k, l) of A is the 2 x 2 system
    [[lam, -c], [1, lam]], lam the (k, l) entry of sine_basis's lam and c = 1/alpha, whose
    inverse [[lam, c], [-1, lam]] / (lam^2 + c) is stored as three fields.
    Their entries are at most 1/lam, 1 and 1/lam^2 for every alpha, so no
    product with alpha or 1/alpha can overflow.  A solve is four m x m
    products into the sine basis, a pointwise 2 x 2 product, and four out.

    With a mask on the k points P of its support, it is the capacitance-matrix
    method (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8, 1971), the
    Woodbury formula of Hager (SIAM Rev. 31, 1989).  Write z = (M p)/alpha, zero
    off P.  Then L y = b_y + z and L p = b_p - y: the block triangular base
    A_0 = [[L, 0], [I, L]] with the right-hand side (b_y + z, b_p), two
    Poisson solves in the sine basis.  If (y_0, p_0) solves A_0 for b, then
    p = p_0 - L^-2 z, so z = D p_P/alpha, D = mask on P, is the k x k system

        (alpha I + D G) z_P = D p_0P,   G = (L^-2)_PP = W diag(1/lam^2) W^T,

    W the k rows of the 2-D sine basis at P, W[i, (k, l)] = S[r_i, k] S[c_i, l]
    for the point (r_i, c_i), kept only while G is one GEMM.  alpha I + D G is
    nonsingular for every alpha > 0, as G is SPD and D positive; it is never
    divided by alpha.  The factorization stores K = (alpha I + D G)^-1 D; a
    solve is a base solve, z_P = K p_0P and a base solve of (b_y + z, b_p).
    Nothing is factored without a mask, and an all-zero one has k = 0.

    The solve runs in float64 and returns b's shape and dtype.  The backward
    error, max|A x - b| over ||A||_inf max|x| + max|b|, measured at most
    6e-16 for N from 8 to 33, alpha from 1e-300 to 1e300 and masks absent,
    all zero, or sparse binary or fractional.
    """

    def __init__(self, op: SaddleOperator):
        self._sine, self._lam, _ = sine_basis(op.grid)
        if op.mask is None:
            lam, c = self._lam, 1.0 / op.alpha
            det = lam * lam + c
            self._inv = (lam / det, c / det, 1.0 / det)
            return
        self._inv = None
        m = op.grid.m
        self._support = np.flatnonzero(op.mask)
        d = op.mask.astype(np.float64).ravel()[self._support]
        r, c = np.divmod(self._support, m)
        W = (self._sine[r][:, :, None] * self._sine[c][:, None, :]).reshape(-1, m * m)
        W /= self._lam.ravel()
        G = W @ W.T
        del W
        self._K = np.linalg.solve(op.alpha * np.eye(len(d)) + d[:, None] * G, np.diag(d))

    def _base(self, bh: np.ndarray) -> np.ndarray:
        """Modal coefficients of the solution of A_0 v = b from those of b."""
        yh = bh[0] / self._lam
        return np.stack([yh, (bh[1] - yh) / self._lam])

    def solve(self, b: np.ndarray) -> np.ndarray:  # A^{-1} b, shaped as b and of its dtype
        s = self._sine
        bh = s @ b.astype(np.float64) @ s
        if self._inv is not None:
            a, c, g = self._inv
            vh = np.stack([a * bh[0] + c * bh[1], a * bh[1] - g * bh[0]])
        else:
            vh = self._base(bh)
            z = np.zeros(b.shape[1:])
            z.flat[self._support] = self._K @ (s @ vh[1] @ s).flat[self._support]
            bh[0] += s @ z @ s
            vh = self._base(bh)
        return (s @ vh @ s).astype(b.dtype, copy=False)


def saddle_solver(op: SaddleOperator) -> Callable[[np.ndarray], np.ndarray]:
    """The direct solve of op's saddle system, by the number k of the mask's
    nonzeros: SaddleSine without a mask or for k <= 4m, else SaddleRowLU.

    At k = 4m the matrix W that SaddleSine keeps while it builds G holds
    k m^2 = 4 m^3 doubles, as many as SaddleRowLU's row blocks m (2m)^2, so
    the sine solve never holds more.  It is also the faster build there, on
    one Xeon core with single-thread BLAS: at N=32, 1.2 ms for k = 116 and
    1.4 ms for k = 124 = 4m against 3.3-3.5 ms for the row LU, which wins
    above (k = 248: 5.8 against 3.5 ms; k = 514: 32 against 5.6 ms); at
    N=125, 0.12 s for k = 496 = 4m against 0.42 s.  Each sine solve is the
    faster one too: 0.05 against 0.14 ms at N=32.
    """
    if op.mask is None or np.count_nonzero(op.mask) <= 4 * op.grid.m:
        return SaddleSine(op).solve
    return SaddleRowLU(op).solve


class SaddleRowLU:
    """Direct solve of the saddle system A v = b by block LU over grid rows,
    for a mask with more than 4 m nonzeros (see saddle_solver).

    Taken row by row, the unknowns x_j = (y_j, p_j) of grid row j (m = N - 1
    of each) make A block tridiagonal, as the x2-neighbours enter both
    Laplacians with weight -1/h^2 = -N^2:

        D_j x_j - N^2 x_{j-1} - N^2 x_{j+1} = b_j,
        D_j = [[T, -diag(mask_j)/alpha], [I, T]],   T = N^2 tridiag(-1, 4, -1).

    Block Gaussian elimination (Varah, Math. Comp. 26, 1972; Golub & Van
    Loan, Matrix Computations, 4.5) gives the pivot blocks S_0 = D_0 and
    S_j = D_j - N^2 H_{j-1}; the factorization stores H_j = N^2 S_j^{-1},
    m blocks of 2m x 2m in float64.  The solve is a forward sweep
    u_j = H_j (b_j + u_{j-1}) and a back sweep x'_j = u_j + H_j x'_{j+1},
    one 2m x 2m matvec per row each, and x = x' / N^2.

    Why the blocks need no pivoting across rows: S_0, ..., S_j are the
    pivots of the leading 2(j+1)m unknowns, whose matrix is the saddle
    operator [[L_s, -M_s/alpha], [I, L_s]] of the strip of rows 0..j with
    a zero Dirichlet row above it.  Its Laplacian L_s is SPD, and
    eliminating y leaves L_s^{-1} (L_s^2 + M_s/alpha) with L_s^2 + M_s/alpha
    SPD (M_s a diagonal with entries in [0, 1]), so every leading block is
    nonsingular and so is every S_j; each is inverted with partial
    pivoting inside the block.  The backward error, max|A x - b| over
    ||A||_inf max|x| + max|b|, measured at most 3.1e-16 for N from 8 to
    50, alpha from 1e2 to 1e-100 and masks fractional, {0,1} or all zero.

    Cost on one Xeon core: m inversions of 2m x 2m, about 4 ms at N=32
    and 0.5 s at N=125; a solve takes about 0.2 ms at N=32.  H holds
    m (2m)^2 doubles: 0.95 MB at N=32, 61 MB at N=125.
    """

    def __init__(self, op: SaddleOperator):
        m, n2 = op.grid.m, float(op.grid.N**2)
        mask = op.mask.astype(np.float64)
        T = n2 * (4.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))
        D = np.zeros((2 * m, 2 * m))
        D[:m, :m] = D[m:, m:] = T
        D[m:, :m] = np.eye(m)
        i = np.arange(m)
        self._H = np.empty((m, 2 * m, 2 * m))
        for j in range(m):
            D[i, m + i] = -mask[j] / op.alpha
            S = D if j == 0 else D - n2 * self._H[j - 1]
            np.multiply(np.linalg.inv(S), n2, out=self._H[j])

    def solve(self, b: np.ndarray) -> np.ndarray:  # A^{-1} b, shaped as b and of its dtype
        H, m = self._H, b.shape[-1]
        u = np.array(b.transpose(1, 0, 2), np.float64).reshape(m, 2 * m)  # row j: (y_j, p_j)
        u[0] = np.dot(H[0], u[0])
        for j in range(1, m):
            np.dot(H[j], u[j] + u[j - 1], out=u[j])
        for j in range(m - 2, -1, -1):
            u[j] += np.dot(H[j], u[j + 1])
        out = np.empty(b.shape, b.dtype)
        np.divide(u.reshape(m, 2, m).transpose(1, 0, 2), (m + 1) ** 2, out=out,
                  casting="same_kind")
        return out


def _saddle_rows(op: SaddleOperator, v: np.ndarray, a: int, b: int,
                 out: np.ndarray) -> None:
    """Rows [a, b) of A v = (L y - (M.p)/alpha, y + L p) into out, of shape
    (2, b - a, m)."""
    _laplacian_rows(v, a, b, out)
    p = v[1, a:b]
    out[0] -= (p if op.mask is None else op.mask[a:b] * p) / op.alpha
    out[1] += v[0, a:b]


def residual(op: SaddleOperator, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """b - A v."""
    op.grid.check_block(v)
    out = np.empty(v.shape, np.result_type(v, 4.0))
    for lo, hi in row_strips(v):
        strip = out[:, lo:hi]
        _saddle_rows(op, v, lo, hi, strip)
        np.subtract(b[:, lo:hi], strip, out=strip)
    return out


def add_correction(op: SaddleOperator, v: np.ndarray, r: np.ndarray, c: np.ndarray,
                   scale: float) -> float:
    """v += scale c and r -= A c in place, in one pass over v's row strips;
    returns scale ||r||, the norm of the updated r at v's scale.

    Per element r becomes bitwise residual(op, r, c), A c made in c's
    dtype, and v bitwise v + c * float64(scale).  ||r|| is summed in
    float64, so it does not depend on how BLAS orders a float32 sum."""
    op.grid.check_block(c)
    total = 0.0
    for lo, hi in row_strips(v):
        strip = r[:, lo:hi]
        ac = np.empty(strip.shape, np.result_type(c, 4.0))
        _saddle_rows(op, c, lo, hi, ac)
        np.subtract(strip, ac, out=strip)
        v[:, lo:hi] += c[:, lo:hi] * np.float64(scale)
        x = strip.astype(np.float64)
        total += float(np.vdot(x, x))
    return scale * math.sqrt(total)


def block_norm2(v: np.ndarray) -> float:
    """Euclidean norm over all entries; inf, without a warning, if the norm is.

    Squares underflow below 2^-537 and overflow above 2^512 (2^64 in float32),
    so a norm below 2^-400 or of inf is taken again of v 2^600 or v 2^-600 in
    float64, exact, and scaled back: solves stay homogeneous under powers of two."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm < 2.0**-400 or norm == math.inf:
        scale = 2.0**600 if norm < 1.0 else 2.0**-600
        return float(np.linalg.norm(np.multiply(v, scale, dtype=np.float64))) / scale
    return norm

"""Relaxation updates v <- v + omega * B^{-1} r for the saddle system.

Both smoothers are one block elimination, _eliminate, with different
blocks.  Writing r = (r_y, r_p), M for the optional mask (entries in
[0, 1]) and B = [[F^{-1}, -M/alpha], [I, K]], it solves the Schur
system S w_p = r_p - F r_y with S = K + F (M.)/alpha, then sets
w_y = F (r_y + (M.w_p)/alpha):

  scheme   first F             K      Schur solve
  cjr      D^{-1}, D = 4/h^2   D      pointwise, S = D + D^{-1} M/alpha
  bsr      Q (mass)            L      direct (bsr) or truncated CG (ibsr)

The Schur solve is where the two Braess-Sarazin variants differ:

  * BSR_EXACT solves it directly.  Without a mask the type-I discrete
    sine basis diagonalizes both L (eigenvalues (2 - 2cos(k pi/N))/h^2
    summed over the two axes) and Q (eigenvalues (h^2/36) prod(4 +
    2cos(k pi/N))), the matrix-decomposition method of Buzbee, Golub and
    Nielsen (SIAM J. Numer. Anal. 7, 1970).  The sine matrix
    S[j, k] = sqrt(2/N) sin(pi j k/N) is orthonormal, symmetric and its
    own inverse, so one solve is S ((S b S) / eig) S, four matrix
    products with no scipy import (SchurSpectral).  The products cost
    O(n^3) where a fast sine transform costs O(n^2 log n); on one Xeon
    core, single-thread BLAS, a float32 solve takes 1.3 ms at N=256,
    9.6 ms at N=512 and 75 ms at N=1024 (scipy.fft.dstn: 0.8, 4.0 and
    27 ms), and a bsr W-cycle 5.2, 26 and 152 ms (against 4.7, 20 and
    93 ms).  No benchmarked bsr run is above N=256, so there is no
    switch to a transform by size.  With a mask (Q M is not M Q) it is
    schur_lu, a sparse LU of the Schur matrix assembled from its 1-D
    factors, which would be far slower without one (N=256: factor 0.8 s,
    solve 22 ms against 2.6 ms in float64); it is the package's one use
    of scipy.
  * IBSR runs a FIXED number of CG iterations (default 2) with the plain
    diagonal preconditioner diag(S) = 4/h^2 + (16 h^2/36) m / alpha.
    The iteration count is part of the method definition, not a
    tolerance: truncating the inner solve is what is being studied.
    A mask makes the Schur operator nonsymmetric; CG is run unchanged, as
    a smoother needs only a rough solve, and reports loss of positivity.

relaxation(op, spec, q) is the one place a SmootherSpec becomes a
smoother: it takes omega from lfa.closed_form for q and op's h (recomputed
per level for collective Jacobi, as gamma = h^2/(4 sqrt(alpha)) grows on
coarse levels; a per-q constant for Braess-Sarazin), builds the Schur solve
of bsr or ibsr once, and returns the damped correction.  The kernels
cjr_apply and bsr_apply take omega and return a new array, leaving r as is.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import grid as _grid
from .grid import GridSpec, SaddleOperator, apply_laplacian, apply_mass, check_integer
from .lfa import LfaParams, closed_form

SCHEMES = ("cjr", "bsr", "ibsr")


@dataclass(frozen=True)
class SmootherSpec:
    """Scheme kind plus inner-solve policy; the damping is always the closed
    form's, which relaxation takes for the operator it relaxes and the ratio q."""

    kind: str  # one of SCHEMES
    pcg_iters: int = 2  # ibsr only

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.kind!r}")
        check_integer("pcg_iters", self.pcg_iters)
        if self.pcg_iters < 1:
            raise ValueError(f"pcg_iters must be at least 1, got {self.pcg_iters}")


class PcgBreakdownError(RuntimeError):
    """Nonpositive curvature <Ap, p> encountered: operator not SPD."""


def pcg(matvec, b: np.ndarray, iters: int, precond) -> np.ndarray:
    """Preconditioned CG from zero: iters iterations, fewer only if r vanishes."""
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    d = z.copy()
    rz = np.vdot(r, z)
    for k in range(1, iters + 1):
        if rz == 0.0:  # exactly when r = 0, as precond is positive definite
            break
        ad = matvec(d)
        dad = np.vdot(d, ad)
        if dad <= 0.0:
            raise PcgBreakdownError(f"curvature <Ad, d> = {dad:.3e} <= 0")
        step = rz / dad
        x += step * d
        if k == iters:  # what follows only prepares another iteration
            break
        r -= step * ad
        z = precond(r)
        rz_new = np.vdot(r, z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    return x


def _eliminate(r: np.ndarray, m: np.ndarray | float, alpha: float, omega: float,
               first: Callable, schur: Callable, w: np.ndarray) -> None:
    """omega B^{-1} r into w by eliminating the first block row:
    w_p = schur(r_p - first(r_y)), w_y = first(r_y + (m w_p)/alpha)."""
    w_p = schur(r[1] - first(r[0]))
    w[0] = first(r[0] + m * w_p / alpha)
    w[1] = w_p
    w *= omega


def cjr_apply(r: np.ndarray, op: SaddleOperator, omega: float) -> np.ndarray:
    """One collective Jacobi correction omega * B_J^{-1} r: _eliminate with
    first = D^{-1} and the pointwise Schur solve, per row strip.

    The field is processed in the row strips of grid.row_strips, as
    grid.residual is; a field of at most grid.STRIP_BYTES is one strip.
    """
    d = 4.0 * op.grid.N ** 2
    w = np.empty_like(r)
    for a, b in _grid.row_strips(r):
        m = 1.0 if op.mask is None else op.mask[a:b]
        _eliminate(r[:, a:b], m, op.alpha, omega, lambda u: u / d,
                   lambda x: x / (d + m / (op.alpha * d)), w[:, a:b])
    return w


def schur_apply(w: np.ndarray, op: SaddleOperator) -> np.ndarray:
    """L w + Q (M.w)/alpha, the (masked) Braess-Sarazin Schur operator."""
    mw = w if op.mask is None else op.mask * w
    return apply_laplacian(w, op.grid) + apply_mass(mw, op.grid) / op.alpha


def schur_diag(op: SaddleOperator) -> np.ndarray | float:
    """Exact diagonal of the Schur operator, the IBSR preconditioner.

    A field with a mask; without one the diagonal is constant and is
    returned as that constant.
    """
    g = op.grid
    m = 1.0 if op.mask is None else op.mask
    return 4.0 * g.N ** 2 + (16.0 * g.h ** 2 / 36.0) * m / op.alpha


class SchurSpectral:
    """Exact unmasked Schur inverse: the orthonormal, symmetric, self-inverse
    type-I sine matrix of grid.sine_basis on both sides of a division by the
    exact eigenvalues."""

    def __init__(self, grid: GridSpec, alpha: float):
        self.sine, lam, mass = _grid.sine_basis(grid)
        self.eig = lam + mass / alpha

    @cached_property
    def _float32(self) -> tuple[np.ndarray, np.ndarray]:  # cast on the first float32 input
        return self.sine.astype(np.float32), self.eig.astype(np.float32)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """S ((S b S) / eig) S: four matrix products in b's dtype (float32 or float64)."""
        s, eig = self._float32 if b.dtype == np.float32 else (self.sine, self.eig)
        return s @ ((s @ b @ s) / eig) @ s


def schur_lu(op: SaddleOperator) -> Callable[[np.ndarray], np.ndarray]:
    """The solve of a sparse LU of the masked Schur matrix L + Q diag(mask)/alpha.

    The CSC matrix is assembled from the 1-D factors T = tridiag(-1, 2, -1)
    and T4 = tridiag(1, 4, 1): L = (I x T + T x I)/h^2 and Q = (T4 x T4)
    h^2/36, the stencils of apply_laplacian and apply_mass on C-order
    ravelled fields.  The solve runs in float64 and returns b's shape and dtype.
    """
    from scipy import sparse  # here, not at start-up of every ocmg command
    from scipy.sparse.linalg import splu
    m = op.grid.m
    T = sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(m, m))
    T4 = sparse.diags_array([1.0, 4.0, 1.0], offsets=[-1, 0, 1], shape=(m, m))
    I = sparse.identity(m)
    L = (sparse.kron(I, T) + sparse.kron(T, I)) * op.grid.N**2
    Q = sparse.kron(T4, T4) * op.grid.h**2 / 36.0
    qm = Q @ sparse.diags_array(op.mask.astype(np.float64).ravel()) / op.alpha
    lu = splu((L + qm).tocsc())
    return lambda b: lu.solve(b.ravel()).astype(b.dtype, copy=False).reshape(b.shape)


def bsr_apply(r: np.ndarray, op: SaddleOperator, omega: float,
              schur_solve: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """One Braess-Sarazin correction omega * B_m^{-1} r: _eliminate with
    first = Q and schur_solve."""
    w = np.empty_like(r)
    m = 1.0 if op.mask is None else op.mask
    _eliminate(r, m, op.alpha, omega, lambda u: apply_mass(u, op.grid),
               schur_solve, w)
    return w


def relaxation(op: SaddleOperator, spec: SmootherSpec,
               q: int) -> Callable[[np.ndarray], np.ndarray]:
    """r -> omega B^{-1} r for spec on op, omega closed_form's for q and op's h,
    with the Schur solve built once (ibsr: fixed-count CG from rhs / diag); its
    kernels are looked up by name at each call, so rebinding one reaches it."""
    omega = closed_form(spec.kind, LfaParams(q, op.alpha, op.grid.h)).omega
    if spec.kind == "cjr":
        return lambda r: cjr_apply(r, op, omega)
    if spec.kind == "bsr" and op.mask is not None:
        solve = schur_lu(op)
    elif spec.kind == "bsr":
        inv = SchurSpectral(op.grid, op.alpha)
        solve = lambda rhs: inv.solve(rhs)
    else:
        diag = schur_diag(op)
        matvec = lambda w: schur_apply(w, op)

        def solve(rhs: np.ndarray) -> np.ndarray:
            w0 = rhs / diag
            return w0 + pcg(matvec, rhs - matvec(w0), spec.pcg_iters, lambda v: v / diag)
    return lambda r: bsr_apply(r, op, omega, solve)

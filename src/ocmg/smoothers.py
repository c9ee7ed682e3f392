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
    2cos(k pi/N))), so one solve is two DSTs and a pointwise division
    (SchurSpectral).  With a mask (Q M is not M Q) it is a sparse LU of
    schur_matrix, which would be far slower without one (N=256, one Xeon
    core: factor 0.8 s, solve 22 ms against 2.8 ms).
  * IBSR runs a FIXED number of CG iterations (default 2) with the plain
    diagonal preconditioner diag(S) = 4/h^2 + (16 h^2/36) m / alpha.
    The iteration count is part of the method definition, not a
    tolerance: truncating the inner solve is what is being studied.
    A mask makes the Schur operator nonsymmetric; CG is run unchanged, as
    a smoother needs only a rough solve, and reports loss of positivity.

relaxation(op, spec, q) is the one place a SmootherSpec becomes a
smoother: it resolves omega, builds the Schur solve of bsr or ibsr once,
and returns the damped correction.  An unset omega is lfa.closed_form's
for q and op's h: the collective Jacobi damping is recomputed per level
(gamma = h^2/(4 sqrt(alpha)) grows on coarse levels), the Braess-Sarazin
one is the fixed per-q constant.  The kernels cjr_apply and bsr_apply
take those resolved values and write into an optional out array, which
may be r itself: _eliminate reads r_y and r_p before it writes w_y.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import grid as _grid
from .grid import (GridSpec, SaddleOperator, SparseLU, apply_laplacian,
                   apply_mass, check_integer, sparse_laplacian, sparse_mass)
from .lfa import LfaParams, closed_form

SCHEMES = ("cjr", "bsr", "ibsr")


@dataclass(frozen=True)
class SmootherSpec:
    """Scheme kind plus damping and inner-solve policy.

    omega None means the closed-form damping, which relaxation fills in
    from lfa.closed_form for the operator it relaxes and the ratio q.
    """

    kind: str  # one of SCHEMES
    omega: float | None = None
    pcg_iters: int = 2  # ibsr only

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.kind!r}")
        if self.omega is not None and not 0 < self.omega < np.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
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
    """omega B^{-1} r into w, which may be r, by eliminating the first block
    row: w_p = schur(r_p - first(r_y)), w_y = first(r_y + (m w_p)/alpha)."""
    w_p = schur(r[1] - first(r[0]))
    w[0] = first(r[0] + m * w_p / alpha)  # reads r_y before it is overwritten
    w[1] = w_p
    w *= omega


def cjr_apply(r: np.ndarray, op: SaddleOperator, omega: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """One collective Jacobi correction omega * B_J^{-1} r: _eliminate with
    first = D^{-1} and the pointwise Schur solve, per row strip.

    Written into out if given, which may be r.  The field is processed in
    the row strips of grid.row_strips, as grid.residual is; a field of at
    most grid.STRIP_BYTES is one strip.
    """
    d = 4.0 * op.grid.N ** 2
    w = np.empty_like(r) if out is None else out
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


def schur_matrix(op: SaddleOperator):
    """Sparse CSC L + Q diag(mask)/alpha, the matrix of schur_apply."""
    from scipy import sparse  # here, not at start-up of every ocmg command
    mask = np.ones(op.grid.npoints) if op.mask is None else op.mask.ravel()
    qm = sparse_mass(op.grid) @ sparse.diags_array(mask) / op.alpha
    return (sparse_laplacian(op.grid) + qm).tocsc()


class SchurSpectral:
    """Exact unmasked Schur inverse: orthonormal, self-inverse type-I
    discrete sine transforms around a division by the exact eigenvalues."""

    def __init__(self, grid: GridSpec, alpha: float):
        from scipy import fft  # here: only unmasked exact bsr pays for the import
        self._dstn = fft.dstn
        k = np.arange(1, grid.N)
        c = np.cos(np.pi * k / grid.N)
        lap_1d = (2.0 - 2.0 * c) * grid.N ** 2
        mass_1d = (4.0 + 2.0 * c) * grid.h / 6.0
        self.eig = (lap_1d[:, None] + lap_1d[None, :]
                    + np.outer(mass_1d, mass_1d) / alpha)

    @cached_property
    def _eig32(self) -> np.ndarray:  # cast on the first float32 input, which stays float32
        return self.eig.astype(np.float32)

    def solve(self, b: np.ndarray) -> np.ndarray:
        bh = self._dstn(b, type=1, norm="ortho")
        eig = self._eig32 if bh.dtype == np.float32 else self.eig
        return self._dstn(bh / eig, type=1, norm="ortho")


def bsr_apply(r: np.ndarray, op: SaddleOperator, omega: float,
              schur_solve: Callable[[np.ndarray], np.ndarray],
              out: np.ndarray | None = None) -> np.ndarray:
    """One Braess-Sarazin correction omega * B_m^{-1} r: _eliminate with
    first = Q and schur_solve, written into out if given (which may be r)."""
    w = np.empty_like(r) if out is None else out
    m = 1.0 if op.mask is None else op.mask
    _eliminate(r, m, op.alpha, omega, lambda u: apply_mass(u, op.grid),
               schur_solve, w)
    return w


def relaxation(op: SaddleOperator, spec: SmootherSpec, q: int) -> Callable[..., np.ndarray]:
    """r, out=None -> omega B^{-1} r for spec on op (a None omega is closed_form's),
    with the Schur solve built once (ibsr: fixed-count CG from rhs / diag); its
    kernels are looked up by name at each call, so rebinding one reaches it."""
    omega = spec.omega
    if omega is None:
        omega = closed_form(spec.kind, LfaParams(q, op.alpha, op.grid.h)).omega
    if spec.kind == "cjr":
        return lambda r, out=None: cjr_apply(r, op, omega, out)
    if spec.kind == "bsr":
        inv = (SchurSpectral(op.grid, op.alpha) if op.mask is None
               else SparseLU(schur_matrix(op)))
        solve = lambda rhs: inv.solve(rhs)
    else:
        diag = schur_diag(op)
        matvec = lambda w: schur_apply(w, op)

        def solve(rhs: np.ndarray) -> np.ndarray:
            w0 = rhs / diag
            return w0 + pcg(matvec, rhs - matvec(w0), spec.pcg_iters, lambda v: v / diag)
    return lambda r, out=None: bsr_apply(r, op, omega, solve, out)

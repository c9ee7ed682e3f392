"""Relaxation updates v <- v + omega * B^{-1} r for the saddle system.

Both smoothers solve their 2(N-1)^2 block system B w = r by eliminating
the first block row, which leaves one scalar problem in the adjoint
correction w_p followed by a cheap back-substitution for w_y.  Writing
r = (r_y, r_p), M for the optional {0,1} mask and D = diag(L) = 4/h^2:

  collective Jacobi, B = [[D, -M/alpha], [I, D]]:
      w_p = (D + D^{-1} M/alpha)^{-1} (r_p - D^{-1} r_y)     pointwise
      w_y = D^{-1} (r_y + (M.w_p)/alpha)

  mass Braess-Sarazin, B = [[Q^{-1}, -M/alpha], [I, L]]:
      (L + Q (M.))/alpha ... the Schur operator S w_p = r_p - Q r_y
      w_y = Q (r_y + (M.w_p)/alpha)

The Schur solve is where the two Braess-Sarazin variants differ:

  * BSR_EXACT solves it directly (schur_inverse).  Without a mask the
    type-I discrete sine basis diagonalizes both L (eigenvalues (2 -
    2cos(k pi/N))/h^2 summed over the two axes) and Q (eigenvalues
    (h^2/36) prod(4 + 2cos(k pi/N))), so one solve is two DSTs and a
    pointwise division (SchurSpectral).  With a mask (Q M is not M Q) it
    is a sparse LU of schur_matrix, which would be far slower without
    one (N=256, one Xeon core: factor 0.8 s, solve 22 ms against 2.8 ms).
  * IBSR runs a FIXED number of CG iterations (default 2) with the plain
    diagonal preconditioner diag(S) = 4/h^2 + (16 h^2/36) m / alpha.
    The iteration count is part of the method definition, not a
    tolerance: truncating the inner solve is what is being studied.
    A mask makes the Schur operator nonsymmetric; CG is run unchanged, as
    a smoother needs only a rough solve, and reports loss of positivity.

relaxation(op, spec) decides once what a scheme reuses (nothing for cjr,
schur_solver for bsr and ibsr) and returns the damped correction.

cjr_apply and bsr_apply write into an optional out array, which may be r
itself: both read all of r they need before writing the part of out that
overlaps it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import grid as _grid
from .grid import (GridSpec, SaddleOperator, SparseLU, apply_laplacian,
                   apply_mass, sparse_laplacian, sparse_mass)

SCHEMES = ("cjr", "bsr", "ibsr")


@dataclass(frozen=True)
class SmootherSpec:
    """Scheme kind plus damping and inner-solve policy.

    omega None means "resolved later": the multigrid hierarchy fills in
    each smoothing level's lfa.closed_form damping (gamma-dependent for
    cjr, fixed per q for the Braess-Sarazin variants).
    """

    kind: str  # one of SCHEMES
    omega: float | None = None
    pcg_iters: int = 2  # ibsr only

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.kind!r}")
        if self.omega is not None and not 0 < self.omega < np.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if self.pcg_iters < 1:
            raise ValueError(f"pcg_iters must be at least 1, got {self.pcg_iters}")


class PcgBreakdownError(RuntimeError):
    """Nonpositive curvature <Ap, p> encountered: operator not SPD."""


def pcg(matvec, b: np.ndarray, iters: int, precond) -> np.ndarray:
    """Preconditioned CG from zero: iters iterations, fewer only if r vanishes."""
    if np.linalg.norm(b) == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    d = z.copy()
    rz = np.vdot(r, z)
    for k in range(1, iters + 1):
        ad = matvec(d)
        dad = np.vdot(d, ad)
        if dad <= 0.0:
            raise PcgBreakdownError(f"curvature <Ad, d> = {dad:.3e} <= 0")
        step = rz / dad
        x += step * d
        if k == iters:  # what follows only prepares another iteration
            break
        r -= step * ad
        if np.linalg.norm(r) == 0.0:  # exact solve mid-run; continuing would divide by zero
            break
        z = precond(r)
        rz_new = np.vdot(r, z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    return x


def cjr_apply(r: np.ndarray, op: SaddleOperator, omega: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """One collective Jacobi correction omega * B_J^{-1} r (pointwise 2x2 solves).

    Written into out if given, which may be r.  The field is processed in
    the row strips of grid.row_strips, as grid.residual is; a field of at
    most grid.STRIP_BYTES is one strip.
    """
    d = 4.0 * op.grid.N ** 2
    w = np.empty_like(r) if out is None else out
    for a, b in _grid.row_strips(r):
        mask = None if op.mask is None else op.mask[a:b]
        _cjr_rows(r[:, a:b], mask, d, op.alpha, omega, w[:, a:b])
    return w


def _cjr_rows(r: np.ndarray, mask: np.ndarray | None, d: float, alpha: float,
              omega: float, w: np.ndarray) -> None:
    """Collective Jacobi from the rows r into the same rows w, which may be r."""
    m = 1.0 if mask is None else mask
    # w_p = (r_p - r_y/d) / (d + m/(alpha d)),  w_y = (r_y + m w_p/alpha) / d,
    # with one temporary; w_p reads r_p and r_y before it overwrites r_p,
    # and w_y reads r_y before it overwrites r_y
    w_y, w_p = w
    t = r[0] / d
    np.subtract(r[1], t, out=w_p)
    w_p /= d + m / (alpha * d)
    np.multiply(m, w_p, out=t)
    t /= alpha
    np.add(r[0], t, out=w_y)
    w_y /= d
    w *= omega


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

    def solve(self, b: np.ndarray) -> np.ndarray:
        bh = self._dstn(b, type=1, norm="ortho")
        return self._dstn(bh / self.eig, type=1, norm="ortho")


def schur_inverse(op: SaddleOperator) -> SchurSpectral | SparseLU:
    """The exact Schur inverse: DSTs without a mask, a sparse LU with one."""
    return (SchurSpectral(op.grid, op.alpha) if op.mask is None
            else SparseLU(schur_matrix(op)))


def schur_solver(op: SaddleOperator, spec: SmootherSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The exact (bsr) or truncated (ibsr) Schur solve, with what it reuses built
    here; ibsr starts from rhs / diag and runs its fixed-count CG on the residual."""
    if spec.kind == "bsr":
        inv = schur_inverse(op)
        return lambda rhs: inv.solve(rhs)
    assert spec.kind == "ibsr"
    diag = schur_diag(op)
    matvec = lambda w: schur_apply(w, op)

    def truncated(rhs: np.ndarray) -> np.ndarray:
        w0 = rhs / diag
        return w0 + pcg(matvec, rhs - matvec(w0), spec.pcg_iters, lambda v: v / diag)
    return truncated


def bsr_apply(r: np.ndarray, op: SaddleOperator, spec: SmootherSpec,
              schur_solve: Callable[[np.ndarray], np.ndarray] | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """One Braess-Sarazin correction omega * B_m^{-1} r, written into out if given
    (which may be r); schur_solve is schur_solver(op, spec), built here if not given."""
    if spec.omega is None:
        raise ValueError("omega must be resolved before relaxing, got None")
    rhs = r[1] - apply_mass(r[0], op.grid)
    m = 1.0 if op.mask is None else op.mask
    w_p = (schur_solve or schur_solver(op, spec))(rhs)
    w = np.stack([apply_mass(r[0] + m * w_p / op.alpha, op.grid), w_p], out=out)
    w *= spec.omega
    return w


def relaxation(op: SaddleOperator, spec: SmootherSpec) -> Callable[..., np.ndarray]:
    """r, out=None -> omega B^{-1} r for spec on op, with what spec reuses built
    once; its kernels are looked up by name at each call, so rebinding one reaches it."""
    if spec.omega is None:
        raise ValueError("omega must be resolved before relaxing, got None")
    if spec.kind == "cjr":
        return lambda r, out=None: cjr_apply(r, op, spec.omega, out)
    solve = schur_solver(op, spec)
    return lambda r, out=None: bsr_apply(r, op, spec, solve, out)

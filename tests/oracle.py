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
work-equivalence exponent.  Two hierarchy tools follow:
schur_solve, the Schur solve of bsr or ibsr built here from the smoothers'
public pieces, and with_cjr_damping, which relaxes a collective Jacobi
hierarchy with a hand-set damping in place of the closed form's.  Two
solver references close the module: cycle_matrix, the matrix of one cycle
from unit fields (map_matrix), and SparseControl, the objective that
ssn.ssn_solve minimizes, with its own L-BFGS-B minimizer.

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
from scipy.optimize import minimize
from scipy.sparse.linalg import splu

from ocmg import multigrid, smoothers
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


def sparse_laplacian(grid: GridSpec):
    """The five-point Laplacian as a sparse (kron(I, T) + kron(T, I)) N^2, T = tridiag(-1, 2, -1)."""
    T = sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(grid.m, grid.m))
    I = sparse.identity(grid.m)
    return (sparse.kron(I, T) + sparse.kron(T, I)) * grid.N**2


def saddle_matrix(op: SaddleOperator):
    """apply_saddle as a sparse CSC [[L, -diag(mask)/alpha], [I, L]] on v.ravel() = [y; p]."""
    n = op.grid.m ** 2
    mask = np.ones(n) if op.mask is None else op.mask.astype(np.float64).ravel()
    L = sparse_laplacian(op.grid)
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


def map_matrix(f, shape: tuple[int, ...]) -> np.ndarray:
    """The matrix of a linear map on fields of shape: column i is f(e_i), raveled,
    for the float64 unit field e_i."""
    e = np.zeros(shape)
    cols = []
    for i in range(e.size):
        e.flat[i] = 1.0
        cols.append(np.ravel(f(e)).copy())
        e.flat[i] = 0.0
    return np.stack(cols, axis=1)


def cycle_matrix(hier, spec) -> np.ndarray:
    """The matrix C of one cycle on the finest level, b -> multigrid.cycle(hier, 0,
    b, spec), from float64 unit block fields; for a linear smoother, E = I - C A
    propagates the error of one solve iteration.  The cycle follows its input's
    dtype, so C is a float64 matrix also on a float32 hierarchy."""
    m = hier.levels[0].op.grid.m
    return map_matrix(lambda e: multigrid.cycle(hier, 0, e, spec), (2, m, m))


class SparseControl:
    """The reduced objective of the problem ssn.ssn_solve solves,

        j(u) = 1/2 ||y - g||^2 + alpha/2 ||u||^2 + beta ||u||_1,   y = L^-1 (u + f),

    over u in [u0, u1], with plain Euclidean sums.  Its optimality system is
    the one ssn.residual_F measures: the adjoint p = L^-1 (g - y) is minus the
    gradient of the first term, and the minimizer is u = phi(p).  L^-1 is a
    sparse LU of sparse_laplacian, built here, not the package's solvers.

    j is alpha-strongly convex, so for any u and s in its subdifferential,
    ||u - u*|| <= ||s|| / alpha and j(u) - j(u*) <= ||s||^2 / (2 alpha), u* the
    minimizer; subgradient gives the s of least norm.
    """

    def __init__(self, data, cp):
        self.data, self.cp = data, cp
        self._lu = splu(sparse_laplacian(data.grid).tocsc())

    def _solve(self, x: np.ndarray) -> np.ndarray:
        return self._lu.solve(x.ravel()).reshape(x.shape)

    def state(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(y, p) of the control u."""
        y = self._solve(u + self.data.f)
        return y, self._solve(self.data.g - y)

    def objective(self, u: np.ndarray) -> float:
        r = self.state(u)[0] - self.data.g
        return float(0.5 * np.vdot(r, r) + 0.5 * self.cp.alpha * np.vdot(u, u)
                     + self.cp.beta * np.abs(u).sum())

    def subgradient(self, u: np.ndarray) -> np.ndarray:
        """The least-norm element of the subdifferential of j plus the indicator
        of [u0, u1] at u, from the gradient G = alpha u - p of the smooth part."""
        a, b, u0, u1 = self.cp.alpha, self.cp.beta, self.cp.u0, self.cp.u1
        G = a * u - self.state(u)[1]
        s = np.where(u > 0, G + b, G - b)
        s[u == 0] = (np.sign(G) * np.maximum(np.abs(G) - b, 0.0))[u == 0]
        s[u == u1] = np.maximum(G + b, 0.0)[u == u1]  # the normal cone there is [0, inf)
        s[u == u0] = np.minimum(G - b, 0.0)[u == u0]
        return s

    def minimizer(self) -> np.ndarray:
        """u by L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995) on
        the split u = u+ - u-, u+ in [0, u1] and u- in [0, -u0], where j is smooth
        with the gradient (G + beta, beta - G); run until it stops making progress.

        L-BFGS-B stops once a step no longer lowers j in floating point, which
        left subgradients of up to 4e-7 where j is mostly the constant
        1/2 ||y - g||^2.  So each run measures j from where the last one
        stopped, and the runs go on until one no longer moves: two to five
        runs reached subgradients of about 1e-17."""
        n = self.data.f.size
        x = np.zeros(2 * n)
        for _ in range(10):
            x0, x = x, self._descend(x)
            if np.array_equal(x, x0):
                break
        return (x[:n] - x[n:]).reshape(self.data.f.shape)

    def _descend(self, x0: np.ndarray) -> np.ndarray:
        """One L-BFGS-B run from the split x0 on j(u0 + d) - j(u0), u0 = x0's u,
        evaluated without the constant terms that would cancel."""
        cp, shape = self.cp, self.data.f.shape
        n = self.data.f.size
        u0 = (x0[:n] - x0[n:]).reshape(shape)
        y0, p0 = self.state(u0)
        r0 = y0 - self.data.g

        def fun(x):
            d = (x[:n] - x[n:]).reshape(shape) - u0
            w = self._solve(d)  # y(u0 + d) - y(u0)
            G = (cp.alpha * (u0 + d) - p0 + self._solve(w)).ravel()
            value = (np.vdot(r0, w) + 0.5 * np.vdot(w, w) + cp.alpha * np.vdot(u0, d)
                     + 0.5 * cp.alpha * np.vdot(d, d) + cp.beta * (x - x0).sum())
            return value, np.concatenate([G + cp.beta, cp.beta - G])

        return minimize(fun, x0, jac=True, method="L-BFGS-B",
                        bounds=[(0.0, cp.u1)] * n + [(0.0, -cp.u0)] * n,
                        options=dict(maxiter=5000, maxfun=10000, maxcor=20, ftol=0.0,
                                     gtol=0.0)).x

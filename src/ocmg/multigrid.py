"""Geometric multigrid with coarsening by q in {2, 3, 4}.

Hierarchy invariants:

  * every coarse operator is the re-discretization of the saddle system
    with mesh step H = q h (never a Galerkin product);
  * every chain coarsens at least once; after that it coarsens while
    the coarsest grid has more than DIRECT_N = 32 subdivisions, so the
    coarsest level is the first coarse grid with at most 32 subdivisions
    (2 * 31^2 = 1,922 unknowns, where one direct solve costs less than
    the cycle dispatch of the levels below it; grid.saddle_solver gives
    the costs) unless divisibility stops the chain first.  Each step
    needs N divisible by q and N/q >= COARSEST_N = 8, so an odd grid
    stops it early: at 250 -> 125 (q = 2), where a dense mask's row LU
    holds (N-1) (2(N-1))^2 doubles (grid.SaddleRowLU).  The level chains:
    256 -> 128 -> 64 -> 32   (q = 2; N = 128 and N = 1024 also stop at 32)
    243 -> 81 -> 27          (q = 3)
    256 -> 64 -> 16          (q = 4)
    50 -> 25, 75 -> 25, 100 -> 25 and 16 -> 8;
  * active-set masks are carried down by full-weighting averaging, so a
    coarse Jacobian couples through the local free-set fraction in [0,1]
    rather than through a subsampled {0,1} pattern.

Cycles use nu pre-smoothing steps and NO post-smoothing; a W-cycle
recurses twice where a V-cycle recurses once.  Each level holds one
solve, its relax: smoothers.relaxation's damped relaxation on every
level but the coarsest, and there the direct solve (B = A, omega = 1)
that grid.saddle_solver builds once per hierarchy: grid.SaddleSine in
the sine basis of L without a mask or with at most 4 (N-1) nonzeros, and
grid.SaddleRowLU, a NumPy block LU over grid rows, for a denser mask.
Each relax returns a new array and leaves r as it was (the W-cycle
reads rc again).
Fields are stacked (2, m, m) block fields (see grid); the transfers act
on the trailing (m, m) axes, so a cycle restricts its residual and
prolongs its coarse correction in one call each.  As the direct solve
is exact, a W-cycle visits the coarsest level once, not twice.

Precision: solve keeps the iterate v in float64 and adds to it the
correction a cycle from zero computes for the residual r = b - A v in
the hierarchy's dtype (iterative refinement: it need only be
accurate next to rho): float32, also for the masks, unless alpha,
1/alpha or d = 4N^2 reach sqrt(float32 max), beyond which a product of
two of them overflows, or alpha d^2 falls below float32's eps (2^-23).
The second bound comes from the smoothers' y-update
w_y = F (r_y + M w_p/alpha) (smoothers._eliminate).  For a residual led
by r_y, as a random start's is by its p/alpha term, the two terms cancel
to about alpha d^2 of their size, so the float32 rounding of w_p, scaled
by 1/alpha, leaves w_y a relative error of about eps/(alpha d^2).  Past
the bound a float32 first cycle leaves a y-error the second one barely
contracts: cjr took 3 cycles at alpha = 1e-19, N = 16 and 64, where
float64 cycles take 1; the bsr and ibsr counts did not differ.  The
cycle reads r_low = 2^-s r, one field of the hierarchy's dtype, 2^s the
binary exponent of ||r|| at the last refresh, and its correction c is
scaled back by 2^s in float64; powers of two are exact, so scaling b by
one scales v exactly.  Kernels follow their input's dtype; the direct
solves (the coarsest level's sine-basis solve or row-block LU, and
masked exact bsr's sparse LU) run in float64.

Between refreshes r is carried in the hierarchy's dtype (Carson & Higham,
SIAM J. Sci. Comput. 40, 2018; McCormick, Benzaken & Tamstorf, SIAM J.
Sci. Comput. 43, 2021): after each cycle one strip pass,
grid.add_correction, adds 2^s c into v and makes r_low <- r_low - A c,
and 2^s ||r_low|| is the iteration's estimate of ||r||.  A refresh makes
b - A v in float64 and scales it into r_low again.  It happens for the
start, once the estimate has fallen by eps^(1/4) of the hierarchy's dtype
since the last refresh, and where the estimate would end the solve (at
most tol, above 1e8 or not finite relative to ||r_0||, or the last
iteration), so converged, rho and the first and last history entries are
float64 norms.  Each carried update rounds at about eps of the norm of
the last refresh, so the ratio bounds the estimate's drift: refreshing
at sqrt(eps) moved the recorded six-cycle histories (REFERENCE in
tests/test_multigrid.py) by up to 1.6e-5 relative, eps^(1/3) by 2.3e-6
and eps^(1/4) by 8.6e-7.  A float64 hierarchy takes the same path with
float64's eps.  At N = 1024 (cjr, q = 2) the pass took a median of
14.3-14.7 ms on one Xeon core, where the float64 residual, its norm, the
scale into r_low and the add into v that it replaces took 23.8-24.6 ms
(three runs of 15 interleaved calls each), and the solve of 45 cycles
makes 7 float64 residuals, not 46.

Transfers are tensor products of 1D stencils of 2q - 1 taps, applied
with NumPy strided slices: full weighting R1, weights (q - |k|)/q^2 for
k = -(q-1)..(q-1), and linear interpolation P1 = q R1^T, boundary values
zero.  Then restrict(f) = R1 f R1^T and prolong(c) = P1 c P1^T are
adjoint up to the fixed factor q^2: <prolong(c), f> = q^2 <c, restrict(f)>.
restrict sums over rows first and then over columns, prolong interpolates
columns first and then rows, each adding its terms one product at a time
in increasing index order with the weights cast to the field's dtype;
a product two taps share (equal weights on one fine line: restrict's
0.25 f on even lines at q = 2 and 2/16 tap at q = 4, prolong's products
of a coarse line) is made once.
That is the order in which the sparse CSR products R1 f R1^T and
P1 c P1^T add them, so both transfers are bitwise those products (the
tests keep the sparse matrices as the reference, tests/oracle.py).  Both
work in the row strips of grid.row_strips: restrict makes the coarse rows
of one strip of fine rows at a time, prolong the fine rows of one strip
from the coarse rows around it, so the passes over a strip stay in cache.
No scipy module is imported on their path.

The convergence factor of a solve stopped at iteration k is
rho = (||r_k|| / ||r_0||)^(1/k), measured from a seeded uniform(0,1)
random initial guess, matching the benchmark protocol reproduced here.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import frexp, inf

import numpy as np

from .grid import (GridSpec, SaddleOperator, add_correction, block_norm2, check_alpha,
                   check_integer, check_q, residual, row_strips, saddle_solver)
from .smoothers import SmootherSpec, relaxation

CYCLES = ("V", "W")
COARSEST_N = 8  # no coarse grid has fewer subdivisions
DIRECT_N = 32  # a coarse grid this small is solved directly, not coarsened


@dataclass(frozen=True)
class CycleSpec:
    cycle: str = "W"
    nu_pre: int = 1
    tol: float = 1e-10
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.cycle not in CYCLES:
            raise ValueError(f"cycle must be 'V' or 'W', got {self.cycle!r}")
        check_integer("nu", self.nu_pre)
        check_integer("max_iters", self.max_iters)
        check_integer("seed", self.seed)
        if self.nu_pre < 1:
            raise ValueError(f"nu must be at least 1, got {self.nu_pre}")
        if not 0 < self.tol < inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class Level:
    op: SaddleOperator
    relax: Callable[[np.ndarray], np.ndarray]  # a relaxation; the coarsest: its direct solve


@dataclass
class Hierarchy:
    levels: list[Level]
    q: int
    dtype: type  # of the cycle's fields: np.float32 in range, np.float64 outside


@dataclass
class MgResult:
    v: np.ndarray  # (2, m, m) block field
    iters: int
    rho: float
    # ||r_k||: float64 norms at refreshes, the first and the last entry always;
    # between refreshes the estimates carried in the hierarchy's dtype (see Precision)
    history: list[float]
    converged: bool

    @property
    def failure(self) -> str | None:
        """Why an unconverged solve stopped; None for a converged one."""
        return None if self.converged else (
            "did not reach tolerance" if np.isfinite(self.history[-1])
            else "residual norm is not finite")


def level_sizes(N: int, q: int) -> list[int]:
    """Subdivision counts per level under the coarsening rule.

    Coarsen once, then while the coarsest grid has more than DIRECT_N
    subdivisions; each step needs N divisible by q and N/q >= COARSEST_N.
    A q outside {2, 3, 4}, or an N that gives no coarse level, is an error.
    """
    check_q(q)
    check_integer("N", N)
    sizes = [N]
    while (sizes[-1] % q == 0 and sizes[-1] // q >= COARSEST_N
           and (len(sizes) == 1 or sizes[-1] > DIRECT_N)):
        sizes.append(sizes[-1] // q)
    if len(sizes) < 2:
        raise ValueError(
            f"N={N} cannot be coarsened by q={q} (needs N divisible by q with "
            f"N/q >= {COARSEST_N})")
    return sizes


def build_hierarchy(N: int, q: int, alpha: float, smoother: SmootherSpec,
                    mask: np.ndarray | None = None) -> Hierarchy:
    """Re-discretized level chain; smoother relaxes all but the coarsest, a direct solve."""
    sizes = level_sizes(N, q)
    check_alpha(alpha)
    f32 = np.finfo(np.float32)
    big = float(f32.max) ** 0.5  # a product of two numbers below big is finite
    d = 4.0 * N * N
    # the y-update r_y + M w_p/alpha of the smoothers cancels to alpha d^2 of its
    # terms (see Precision): below float32's eps, no digit of it is left
    in_range = max(alpha, 1.0 / alpha, d) < big and alpha * d * d >= float(f32.eps)
    dtype = np.float32 if in_range else np.float64
    ops = []
    for n in sizes:
        if ops and mask is not None:
            # homogenized coarse coupling: full-weighting average of the
            # mask field; a subsampled {0,1} mask misrepresents thin
            # active-set boundaries and the 1/alpha-weighted correction
            # then amplifies instead of contracting
            mask = restrict(mask, q)
        ops.append(SaddleOperator(GridSpec(n), alpha,
                                  None if mask is None else np.asarray(mask, dtype)))
    levels = [Level(op, relaxation(op, smoother, q)) for op in ops[:-1]]
    levels.append(Level(ops[-1], saddle_solver(ops[-1])))
    return Hierarchy(levels=levels, q=q, dtype=dtype)


# ---------------------------------------------------------------- transfers

def _weights(q: int) -> np.ndarray:
    """Full-weighting taps (q - |k|)/q^2 for k = -(q-1)..(q-1), in float64."""
    return (q - np.abs(np.arange(1 - q, q))) / q**2


def _check_transfer(x: np.ndarray, N: int, q: int) -> None:
    """x ends in square (m, m) axes, and its fine grid of N subdivisions coarsens by q."""
    check_q(q)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"field shape {x.shape} does not end in square (m, m) axes")
    if N % q != 0 or N < 2 * q:
        raise ValueError(f"N={N} cannot be coarsened by q={q}")


def _fold(x: np.ndarray, q: int, w: np.ndarray, out: np.ndarray, axis: int) -> None:
    """Full weighting along axis (-2 or -1): line j of out is the sum over t of
    w[t] times line q j + t of x, the 2q - 1 products added left to right.

    Taps t and t + q read lines one coarse line apart, and for even q the
    tap s = q/2 - 1 has the weight of tap s + q (0.25 at q = 2, 2/16 at
    q = 4), so one product over n + 1 lines serves both."""
    n = out.shape[axis]
    tail = (slice(None),) * (-1 - axis)
    shared = {}
    if q % 2 == 0:
        s = q // 2 - 1
        both = np.multiply(x[(Ellipsis, slice(s, q * n + s + 1, q)) + tail], w[s])
        shared = {s: both[(Ellipsis, slice(None, -1)) + tail],
                  s + q: both[(Ellipsis, slice(1, None)) + tail]}
    tmp = np.empty_like(out) if q > 2 else None  # q = 2 makes one product, into out

    def product(t, dst):
        if t in shared:
            return shared[t]
        return np.multiply(x[(Ellipsis, slice(t, q * (n - 1) + t + 1, q)) + tail], w[t], out=dst)
    lead = 1 if 0 in shared else 0  # made into out; the first two terms commute
    product(lead, out)
    out += product(1 - lead, tmp)
    for t in range(2, 2 * q - 1):
        out += product(t, tmp)


def _interpolate(xp: np.ndarray, q: int, pw: np.ndarray, out: np.ndarray, axis: int) -> None:
    """Linear interpolation along axis (-1 or -2) from the coarse lines xp to the fine
    lines out: line q j + s lies between xp[j] and xp[j + 1] for s < q - 1, at
    distances s + 1 and q - 1 - s, and on xp[j + 1] for s = q - 1."""
    def at(x, sl):
        return x[(Ellipsis, sl) + (slice(None),) * (-1 - axis)]
    near = {d: xp * pw[q - 1 + d] for d in range(1, q)}  # the weights at distance d
    for s in range(q - 1):
        np.add(at(near[s + 1], slice(None, -1)), at(near[q - 1 - s], slice(1, None)),
               out=at(out, slice(s, None, q)))
    on = at(out, slice(q - 1, None, q))
    # on a coarse line the weight pw[q - 1] = q (q/q^2) rounds to 1 for q = 2, 3, 4
    on[...] = at(xp, slice(1, on.shape[axis] + 1))


def restrict(fine: np.ndarray, q: int) -> np.ndarray:
    """Full weighting R1 f R1^T onto the q-times-coarser grid, over the trailing
    (m, m) axes: a block field is restricted in one call."""
    m = fine.shape[-1]
    _check_transfer(fine, m + 1, q)
    mc = (m + 1) // q - 1
    dtype = np.result_type(fine, 1.0)
    w = _weights(q).astype(dtype)
    out = np.empty(fine.shape[:-2] + (mc, mc), dtype)
    for lo, hi in row_strips(fine):  # fine rows; a strip makes coarse rows [a, b)
        a, b = lo // q, hi // q
        if a < b:
            rows = np.empty(fine.shape[:-2] + (b - a, m), dtype)
            _fold(fine[..., q * a:, :], q, w, rows, -2)
            _fold(rows, q, w, out[..., a:b, :], -1)
    return out


def prolong(coarse: np.ndarray, q: int) -> np.ndarray:
    """Linear interpolation P1 c P1^T onto the q-times-finer grid, over the
    trailing (m, m) axes: a block field is prolonged in one call."""
    mc = coarse.shape[-1]
    m = q * (mc + 1) - 1
    _check_transfer(coarse, m + 1, q)
    lead = coarse.shape[:-2]
    dtype = np.result_type(coarse, 1.0)
    pw = (q * _weights(q)).astype(dtype)
    cp = np.zeros(lead + (mc + 2, mc + 2), dtype)  # the coarse values inside their zero boundary
    cp[..., 1:-1, 1:-1] = coarse
    out = np.empty(lead + (m, m), dtype)
    for lo, hi in row_strips(out):  # fine rows; a strip makes fine rows [q a, q b)
        a, b = -(-lo // q), -(-hi // q)
        if a < b:
            cols = np.empty(lead + (b + 1 - a, m), dtype)  # rows a..b of cp, interpolated
            _interpolate(cp[..., a:b + 1, :], q, pw, cols, -1)
            _interpolate(cols, q, pw, out[..., q * a:q * b, :], -2)
    return out


# ---------------------------------------------------------------- cycling

def cycle(hier: Hierarchy, level: int, b: np.ndarray, spec: CycleSpec) -> np.ndarray:
    """One recursive cycle for A e = b from e = 0 on the given level: a new
    e of b's dtype (solve hands over the hierarchy's); b is never modified."""
    last = len(hier.levels) - 1
    lev, q = hier.levels[level], hier.q
    e = lev.relax(b)  # from zero: the residual of the zero iterate is b itself
    if level == last:
        return e
    r = residual(lev.op, b, e)
    for _ in range(spec.nu_pre - 1):
        e += lev.relax(r)
        r = residual(lev.op, b, e)
    rc = restrict(r, q)
    del r  # unused below; freeing it lowers the peak memory of the cycle
    ec = cycle(hier, level + 1, rc, spec)
    # the coarsest level's direct solve is exact: a second visit would correct nothing
    if spec.cycle == "W" and level + 1 < last:
        ec += cycle(hier, level + 1, residual(hier.levels[level + 1].op, rc, ec), spec)
    e += prolong(ec, q)
    return e


def solve(hier: Hierarchy, b: np.ndarray, spec: CycleSpec,
          v0: np.ndarray | None = None) -> MgResult:
    """Cycle to tolerance from a seeded uniform(0,1) random initial guess.

    An explicit v0 overrides the random guess; correction equations are
    best started from zero so the relative tolerance is measured against
    the right-hand side rather than against random-iterate noise.  v is
    float64 whatever b and v0 are; each step adds 2^s cycle(2^-s r) and
    carries r in the hierarchy's dtype, refreshed in float64 by the rule of
    Precision, which also decides every stop.  A non-finite b raises
    ValueError; a non-finite residual norm ends the solve unconverged before
    it can reach the coarse direct solve.
    """
    op = hier.levels[0].op
    g = op.grid
    g.check_block(b)
    if not np.isfinite(b).all():
        raise ValueError("right-hand side contains non-finite values")
    v = (np.random.default_rng(spec.seed).uniform(0.0, 1.0, (2, g.m, g.m)) if v0 is None
         else v0.astype(np.float64))
    r = residual(op, b, v)
    r0 = block_norm2(r)
    history = [r0]
    if r0 == 0.0:
        return MgResult(v, 0, 0.0, history, True)
    if not np.isfinite(r0):
        return MgResult(v, 0, float("nan"), history, False)

    def ends(norm: float) -> bool:  # converged, diverging or NaN
        return not spec.tol < norm / r0 <= 1e8

    r_low = np.empty(r.shape, hier.dtype)
    drop = float(np.finfo(hier.dtype).eps) ** 0.25  # refresh once the estimate falls this far
    for k in range(1, spec.max_iters + 1):  # CycleSpec: max_iters >= 1
        if r is not None:  # refreshed: carry 2^-s r, ||2^-s r|| in [1/2, 1)
            refreshed = history[-1]
            s = min(max(frexp(refreshed)[1], -1023), 1023)  # 2^±1024 is not a float
            np.multiply(r, 2.0 ** -s, out=r_low, casting="same_kind")
            r = None  # freed while the cycle runs: the peak memory stays the float64 solver's
        c = cycle(hier, 0, r_low, spec)
        est = add_correction(op, v, r_low, c, 2.0 ** s)
        del c
        if k == spec.max_iters or est <= drop * refreshed or ends(est):
            r = residual(op, b, v)
            est = block_norm2(r)
        history.append(est)
        if ends(est):
            break
    rel = history[-1] / r0
    return MgResult(v, k, rel ** (1.0 / k), history, rel <= spec.tol)

"""Property tests: the matrix-free saddle operator, the smoothers, the
coarse direct solves (row-block LU and sine basis), the oracle's sparse
saddle matrix and the masked Schur matrix that smoothers.schur_lu factors
against the dense oracle.

A block field's C-order ravel is the oracle's [y; p] vector, so every
matrix-free result is compared with the dense matrix acting on v.ravel().
Grids, alphas and masks are drawn at random: N <= 24 (the oracle's size
guard), alpha log-uniform in [1e-12, 1], and masks that are absent, {0,1}
or fractional.  Both coarse direct solves are checked on the coarsest
grids too (N up to 33), through the oracle's sparse saddle matrix, which
equals the dense one entry by entry; the sine solve also at alpha = 1e-300
and 1e300 and for right-hand sides up to 1e8.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from ocmg.grid import GridSpec, SaddleOperator, SaddleRowLU, SaddleSine
from ocmg.lfa import bsr_damping
from ocmg.smoothers import SmootherSpec, cjr_apply, relaxation, schur_lu

import oracle

RTOL = 1e-11


@st.composite
def cases(draw, masks=("none", "binary", "fractional")):
    grid = GridSpec(draw(st.integers(2, oracle.MAX_N), label="N"))
    alpha = 10.0 ** draw(st.floats(-12.0, 0.0), label="log10 alpha")
    kind = draw(st.sampled_from(masks), label="mask")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    shape = (grid.m, grid.m)
    mask = {"none": None,
            "binary": (rng.random(shape) < 0.5).astype(float),
            "fractional": rng.random(shape)}[kind]
    v = rng.standard_normal((2, grid.m, grid.m))
    return grid, alpha, mask, v


def _assert_close(got, want):
    assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)


@settings(max_examples=40, deadline=None)
@given(cases())
def test_saddle_operator_matches_dense(case):
    grid, alpha, mask, v = case
    A = oracle.assemble("saddle", grid, alpha=alpha, mask=mask)
    got = oracle.apply_saddle(SaddleOperator(grid, alpha, mask), v)
    _assert_close(got.ravel(), A @ v.ravel())


@settings(max_examples=40, deadline=None)
@given(cases())
def test_coarse_solve_matrix_equals_dense_entry_by_entry(case):
    # the sparse saddle matrix stands in for the dense one on grids above N=24
    grid, alpha, mask, _ = case
    A = oracle.saddle_matrix(SaddleOperator(grid, alpha, mask))
    assert np.array_equal(A.toarray(),
                          oracle.assemble("saddle", grid, alpha=alpha, mask=mask))


@settings(max_examples=40, deadline=None)
@given(N=st.integers(8, 33),
       log_alpha=st.one_of(st.just(-40.0), st.floats(-12.0, 2.0)),
       kind=st.sampled_from(["fractional", "binary", "zero"]),
       seed=st.integers(0, 2**32 - 1))
@example(N=27, log_alpha=-6.0, kind="fractional", seed=0)
@example(N=33, log_alpha=-40.0, kind="binary", seed=1)
def test_row_block_lu_solves_the_oracle_saddle_system(N, log_alpha, kind, seed):
    # the backward-error bound of the coarse-level test in test_multigrid:
    # 1e-14 relative to an upper bound of the infinity norm of A; the row LU
    # always has a mask (saddle_solver hands it only dense ones)
    grid, alpha = GridSpec(N), 10.0 ** log_alpha
    rng = np.random.default_rng(seed)
    shape = (grid.m, grid.m)
    mask = {"fractional": rng.random(shape),
            "binary": (rng.random(shape) < 0.5).astype(float),
            "zero": np.zeros(shape)}[kind]
    op = SaddleOperator(grid, alpha, mask)
    b = rng.standard_normal((2, grid.m, grid.m))
    x = SaddleRowLU(op).solve(b)
    assert x.shape == b.shape and x.dtype == b.dtype
    norm_a = 8.0 / grid.h**2 + max(1.0, mask.max() / alpha)
    err = np.abs(oracle.saddle_matrix(op) @ x.ravel() - b.ravel()).max()
    assert err <= 1e-14 * (norm_a * np.abs(x).max() + np.abs(b).max())


@settings(max_examples=60, deadline=None)
@given(N=st.integers(8, 33),
       log_alpha=st.one_of(st.sampled_from([-40.0, -300.0, 300.0]), st.floats(-12.0, 2.0)),
       kind=st.sampled_from(["none", "fractional", "binary", "zero"]),
       log_scale=st.floats(0.0, 8.0),
       seed=st.integers(0, 2**32 - 1))
@example(N=32, log_alpha=-300.0, kind="fractional", log_scale=8.0, seed=0)
@example(N=33, log_alpha=300.0, kind="binary", log_scale=8.0, seed=1)
@example(N=8, log_alpha=-40.0, kind="none", log_scale=8.0, seed=2)
def test_sine_solve_solves_the_oracle_saddle_system(N, log_alpha, kind, log_scale, seed):
    # the bound of test_row_block_lu_solves_the_oracle_saddle_system, divided
    # by norm_a so that it stays finite at alpha = 1e-300; the masks are
    # sparse, k <= 4m nonzeros, or all zero, as saddle_solver hands them over
    grid, alpha = GridSpec(N), 10.0 ** log_alpha
    rng = np.random.default_rng(seed)
    mask = None
    if kind != "none":
        mask = np.zeros((grid.m, grid.m))
        k = 0 if kind == "zero" else int(rng.integers(1, 4 * grid.m + 1))
        at = rng.choice(mask.size, k, replace=False)
        mask.flat[at] = rng.random(k) if kind == "fractional" else 1.0
    op = SaddleOperator(grid, alpha, mask)
    b = rng.standard_normal((2, grid.m, grid.m)) * 10.0 ** log_scale
    x = SaddleSine(op).solve(b)
    assert x.shape == b.shape and x.dtype == b.dtype
    norm_a = 8.0 / grid.h**2 + max(1.0, (1.0 if mask is None else mask.max()) / alpha)
    err = np.abs(oracle.saddle_matrix(op) @ x.ravel() - b.ravel()).max()
    assert err / norm_a <= 1e-14 * (np.abs(x).max() + np.abs(b).max() / norm_a)


@settings(max_examples=40, deadline=None)
@given(cases(masks=("binary", "fractional")))
def test_schur_matrix_equals_dense_entry_by_entry(case):
    # the matrix schur_lu hands to splu
    grid, alpha, mask, _ = case
    factored = []

    def record(A):
        factored.append(A)
        return splu(A)

    with patch("scipy.sparse.linalg.splu", record):
        schur_lu(SaddleOperator(grid, alpha, mask))
    (S,) = factored
    dense = oracle.assemble("schur", grid, alpha=alpha, mask=mask)
    # relative to the largest entry: L and Q (mask)/alpha may cancel in one
    # entry, and scipy divides a sparse matrix by a scalar as a product
    # with its reciprocal, so such an entry can differ in its last digits
    np.testing.assert_allclose(S.toarray(), dense, rtol=0.0,
                               atol=1e-14 * np.abs(dense).max())


@settings(max_examples=40, deadline=None)
@given(cases())
def test_collective_jacobi_matches_dense_inverse(case):
    grid, alpha, mask, r = case
    B = oracle.assemble("B_J", grid, alpha=alpha, mask=mask)
    got = cjr_apply(r, SaddleOperator(grid, alpha, mask), 1.0)
    _assert_close(got.ravel(), np.linalg.solve(B, r.ravel()))


@settings(max_examples=40, deadline=None)
@given(cases())
def test_exact_braess_sarazin_matches_dense_inverse(case):
    grid, alpha, mask, r = case
    B = oracle.assemble("B_m", grid, alpha=alpha, mask=mask)
    got = relaxation(SaddleOperator(grid, alpha, mask), SmootherSpec("bsr"), 2)(r)
    _assert_close(got.ravel(), bsr_damping(2)[0] * np.linalg.solve(B, r.ravel()))

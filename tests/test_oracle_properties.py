"""Property tests: the matrix-free saddle operator, the smoothers and the
sparse coarse-solve and Schur matrices against the dense oracle.

A block field's C-order ravel is the oracle's [y; p] vector, so every
matrix-free result is compared with the dense matrix acting on v.ravel().
Grids, alphas and masks are drawn at random: N <= 24 (the oracle's size
guard), alpha log-uniform in [1e-12, 1], and masks that are absent, {0,1}
or fractional.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ocmg.grid import GridSpec, SaddleOperator, apply_saddle, saddle_matrix, schur_matrix
from ocmg.smoothers import SmootherSpec, cjr_apply, relaxation

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
    got = apply_saddle(SaddleOperator(grid, alpha, mask), v)
    _assert_close(got.ravel(), A @ v.ravel())


@settings(max_examples=40, deadline=None)
@given(cases())
def test_coarse_solve_matrix_equals_dense_entry_by_entry(case):
    grid, alpha, mask, _ = case
    A = saddle_matrix(SaddleOperator(grid, alpha, mask))
    assert np.array_equal(A.toarray(),
                          oracle.assemble("saddle", grid, alpha=alpha, mask=mask))


@settings(max_examples=40, deadline=None)
@given(cases())
def test_schur_matrix_equals_dense_entry_by_entry(case):
    grid, alpha, mask, _ = case
    S = schur_matrix(SaddleOperator(grid, alpha, mask))
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
    got = relaxation(SaddleOperator(grid, alpha, mask), SmootherSpec("bsr", omega=1.0), 2)(r)
    _assert_close(got.ravel(), np.linalg.solve(B, r.ravel()))

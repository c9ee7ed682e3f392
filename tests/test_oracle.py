"""Dense assembly sanity: hand values, solve guard, cross-checks."""

import numpy as np
import pytest

from ocmg.grid import GridSpec

import oracle


def test_laplacian_n2_is_16():
    A = oracle.assemble("laplacian", GridSpec(2))
    assert A.shape == (1, 1)
    assert A[0, 0] == pytest.approx(16.0)


def test_saddle_n2_alpha1():
    A = oracle.assemble("saddle", GridSpec(2), alpha=1.0)
    assert np.allclose(A, [[16.0, -1.0], [1.0, 16.0]])


def test_b_m_n2_alpha1():
    # C = Q^{-1} = 9 at the single interior point of the h=1/2 grid
    B = oracle.assemble("B_m", GridSpec(2), alpha=1.0)
    assert np.allclose(B, [[9.0, -1.0], [1.0, 16.0]])


def test_schur_n2():
    S = oracle.assemble("schur", GridSpec(2), alpha=1.0)
    assert S[0, 0] == pytest.approx(16.0 + 1.0 / 9.0)


def test_laplacian_row_structure():
    # interior row of the N=4 grid: diagonal 4/h^2, four neighbors -1/h^2
    g = GridSpec(4)
    A = oracle.assemble("laplacian", g)
    # center point (i=2, j=2) flattens to index 4 on the 3x3 interior
    row = A[4]
    assert row[4] == pytest.approx(4 * 16.0)
    for k in (1, 3, 5, 7):
        assert row[k] == pytest.approx(-16.0)
    assert row[0] == row[2] == row[6] == row[8] == 0.0


def test_size_guard():
    with pytest.raises(ValueError):
        oracle.assemble("laplacian", GridSpec(32))


def test_unknown_kind():
    with pytest.raises(ValueError):
        oracle.assemble("bogus", GridSpec(4), alpha=1.0)


def test_dense_solve_identity():
    b = np.arange(5.0)
    assert np.allclose(oracle.dense_solve(np.eye(5), b), b)


def test_dense_solve_hand_2x2():
    x = oracle.dense_solve(np.array([[16.0, -1.0], [1.0, 16.0]]), np.array([1.0, 0.0]))
    assert np.allclose(x, [16.0 / 257.0, -1.0 / 257.0], rtol=1e-14)


def test_dense_solve_singular_raises():
    M = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        oracle.dense_solve(M, np.ones(3))

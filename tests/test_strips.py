"""Strip-mined and flat-pass kernels against column-sliced references, bitwise.

residual, add_correction and cjr_apply process every field in the row
strips of grid.row_strips; a field of at most grid.STRIP_BYTES is one
strip.  The strip size is patched here so that the small random grids
(N <= 24) split into several strips, down to one row each; the default
size keeps them in one strip, a single pass over all rows.

apply_laplacian and residual both run the row kernel
grid._laplacian_rows, and it and apply_mass make their east-west
neighbour updates as flat passes over the trailing (rows, m) axes
(grid._east_west).  The references below are the column-sliced updates
those passes replace; each run patches them into grid, with one strip,
as the reference every kernel must reproduce exactly.  That reference
is checked against the dense oracle (tests/oracle.py) in
test_oracle_properties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocmg import grid
from ocmg.grid import GridSpec, SaddleOperator, block_norm2, residual
from ocmg.smoothers import cjr_apply

WHOLE = 1 << 62  # no field is this large: every kernel takes one pass


def ref_laplacian(u, g):
    out = 4.0 * u
    out[..., 1:, :] -= u[..., :-1, :]
    out[..., :-1, :] -= u[..., 1:, :]
    out[..., 1:] -= u[..., :-1]
    out[..., :-1] -= u[..., 1:]
    out *= g.N * g.N
    return out


def ref_mass(u, g):
    tmp = 4.0 * u
    tmp[..., 1:, :] += u[..., :-1, :]
    tmp[..., :-1, :] += u[..., 1:, :]
    out = 4.0 * tmp
    out[..., 1:] += tmp[..., :-1]
    out[..., :-1] += tmp[..., 1:]
    out *= g.h * g.h / 36.0
    return out


def ref_laplacian_rows(u, a, b, out):
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
    out *= (u.shape[-1] + 1) ** 2


REFERENCE = {"apply_laplacian": ref_laplacian, "apply_mass": ref_mass,
             "_laplacian_rows": ref_laplacian_rows}


def _corrected(op, v, b):
    """v and a float32 residual after add_correction of a float32 correction,
    as one new array: the kernel updates both in place."""
    vv, r = v.copy(), b.astype(np.float32)
    grid.add_correction(op, vv, r, v.astype(np.float32), 2.0**-3)
    return np.stack([vv, r])


def _kernels(op, v, b):
    """Every strip-mined kernel on one case, each returning a new array."""
    return {
        "residual": lambda: residual(op, b, v),
        "add_correction": lambda: _corrected(op, v, b),
        "cjr": lambda: cjr_apply(v, op, 0.7),
        "apply_laplacian": lambda: grid.apply_laplacian(v, op.grid),
        "apply_mass": lambda: grid.apply_mass(v, op.grid),
    }


def _run(fn, strip_bytes, kernels=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "STRIP_BYTES", strip_bytes)
        for name, kernel in (kernels or {}).items():
            mp.setattr(grid, name, kernel)
        return fn()


def _assert_strips_bitwise(op, v, b, strip_bytes):
    for name, fn in _kernels(op, v, b).items():
        assert np.array_equal(_run(fn, strip_bytes),
                              _run(fn, WHOLE, REFERENCE)), name


@st.composite
def cases(draw):
    g = GridSpec(draw(st.integers(3, 24), label="N"))
    alpha = 10.0 ** draw(st.floats(-12.0, 0.0), label="log10 alpha")
    kind = draw(st.sampled_from(("none", "binary", "fractional")), label="mask")
    rows = draw(st.integers(1, g.m - 1), label="rows per block strip")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    mask = {"none": None,
            "binary": (rng.random((g.m, g.m)) < 0.5).astype(float),
            "fractional": rng.random((g.m, g.m))}[kind]
    v, b = rng.standard_normal((2, 2, g.m, g.m))
    # a block field row (both components) is 16 m bytes
    return SaddleOperator(g, alpha, mask), v, b, rows * 16 * g.m


@settings(max_examples=60, deadline=None)
@given(cases())
def test_strips_are_bitwise_equal_to_the_whole_array_pass(case):
    _assert_strips_bitwise(*case)


def test_row_strips_cover_the_rows_once():
    u = np.zeros((2, 50, 50))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "STRIP_BYTES", 7 * u[..., 0, :].nbytes)
        strips = grid.row_strips(u)
    assert strips[0][0] == 0 and strips[-1][1] == 50
    assert all(b == a for (_, b), (a, _) in zip(strips, strips[1:]))
    assert [b - a for a, b in strips] == [7] * 7 + [1]


def test_strips_at_the_finest_benchmark_grid():
    # N=1024: a block field is 16.7 MB, far above the default strip size
    g = GridSpec(1024)
    rng = np.random.default_rng(3)
    mask = (rng.random((g.m, g.m)) < 0.5).astype(float)
    v, b = rng.standard_normal((2, 2, g.m, g.m))
    op = SaddleOperator(g, 1e-6, mask)
    assert v.nbytes > grid.STRIP_BYTES
    _assert_strips_bitwise(op, v, b, grid.STRIP_BYTES)


@st.composite
def fields(draw):
    """A scalar or stacked field on N in 2..40 (N=2 is one interior point)."""
    g = GridSpec(draw(st.integers(2, 40), label="N"))
    lead = draw(st.sampled_from(((), (1,), (2,), (3,))), label="stack")
    rows = draw(st.integers(1, g.m), label="rows per strip")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    return g, rng.standard_normal(lead + (g.m, g.m)), rows


def _strips_into_view(rows_kernel, u, rows):
    """Every strip of rows_kernel written into a strip view of one NaN array."""
    out = np.full(u.shape, np.nan)
    m = u.shape[-1]
    for a in range(0, m, rows):
        rows_kernel(u, a, min(a + rows, m), out[..., a:a + rows, :])
    return out


@settings(max_examples=150, deadline=None)
@given(fields())
def test_flat_passes_equal_the_column_sliced_kernels(case):
    g, u, rows = case
    ut = np.ascontiguousarray(np.swapaxes(u, -1, -2))
    strided = np.swapaxes(ut, -1, -2)  # u's values, not C-contiguous when m > 1
    for x in (u, strided):
        assert np.array_equal(grid.apply_laplacian(x, g), ref_laplacian(u, g))
        assert np.array_equal(grid.apply_mass(x, g), ref_mass(u, g))
        assert np.array_equal(
            _strips_into_view(grid._laplacian_rows, x, rows),
            _strips_into_view(ref_laplacian_rows, u, rows))


def test_strip_writes_land_in_the_callers_view_of_out():
    g = GridSpec(9)
    u = np.random.default_rng(5).standard_normal((2, g.m, g.m))
    out = np.full((2, g.m + 4, g.m), np.nan)
    grid._laplacian_rows(u, 2, 6, out[:, 3:7])
    assert np.array_equal(out[:, 3:7], ref_laplacian(u, g)[:, 2:6])
    assert np.isnan(np.delete(out, np.s_[3:7], axis=1)).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("masked", [False, True])
def test_add_correction_is_the_residual_update_and_the_scaled_add(dtype, masked):
    # r becomes residual(op, r, c) in r's dtype, v becomes v + 2^s c, and the
    # returned estimate is 2^s ||r||; several strips, the mask in the
    # hierarchy's dtype as build_hierarchy stores it
    g = GridSpec(40)
    rng = np.random.default_rng(11)
    mask = (rng.random((g.m, g.m)) < 0.5).astype(dtype) if masked else None
    op = SaddleOperator(g, 1e-4, mask)
    v = rng.standard_normal((2, g.m, g.m))
    r, c = rng.standard_normal((2, 2, g.m, g.m)).astype(dtype)
    scale = 2.0**37
    want_r, want_v = residual(op, r, c), v + c.astype(np.float64) * scale
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "STRIP_BYTES", 5 * 16 * g.m)  # strips of 5 rows of v
        assert len(grid.row_strips(v)) > 1
        est = grid.add_correction(op, v, r, c, scale)
    assert r.dtype == dtype and v.dtype == np.float64
    assert np.array_equal(r, want_r) and np.array_equal(v, want_v)
    assert est == pytest.approx(scale * block_norm2(r.astype(np.float64)), rel=1e-6)

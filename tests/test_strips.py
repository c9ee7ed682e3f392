"""Strip-mined kernels against their one-pass evaluation, bitwise.

residual and cjr_apply process a field larger than grid.STRIP_BYTES in
row strips.  The strip size is patched here so that the small random
grids (N <= 24) split into several strips, down to one row each; the
default size keeps them in one strip, a single pass over all rows that
serves as the reference.  That pass is checked against the dense oracle
in test_oracle_properties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocmg import grid
from ocmg.grid import GridSpec, SaddleOperator, residual
from ocmg.smoothers import cjr_apply

WHOLE = 1 << 62  # no field is this large: every kernel takes one pass


def _kernels(op, v, b):
    """Every strip-mined kernel on one case, each writing a fresh array."""
    def cjr_into_r():
        r = v.copy()
        return cjr_apply(r, op, 0.7, out=r)

    return {
        "residual": lambda: residual(op, b, v),
        "residual out": lambda: residual(op, b, v, out=np.full_like(v, np.nan)),
        "cjr": lambda: cjr_apply(v, op, 0.7),
        "cjr out=r": cjr_into_r,
    }


def _run(fn, strip_bytes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "STRIP_BYTES", strip_bytes)
        return fn()


def _assert_strips_bitwise(op, v, b, strip_bytes):
    for name, fn in _kernels(op, v, b).items():
        assert np.array_equal(_run(fn, strip_bytes), _run(fn, WHOLE)), name


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

"""Benchmark data sets: manufactured consistency, orientation, and field files."""

import re

import numpy as np
import pytest

from ocmg.grid import GridSpec
from ocmg import oracle
from ocmg.problems import (
    ProblemData,
    discrete_norm,
    dump_field,
    example1_fields,
    example2_fields,
    load_field,
)


def test_manufactured_pair_satisfies_dense_system():
    # the dense solve of the first-order system must converge to the
    # exact samples at second order
    alpha = 1e-2
    errs = []
    for N in (8, 16):
        grid = GridSpec(N)
        data, exact = example1_fields(grid, alpha)
        A = oracle.assemble("saddle", grid, alpha=alpha)
        v = oracle.dense_solve(A, np.stack([data.f, data.g]).ravel())
        ey, ep = v.reshape(exact.shape) - exact
        errs.append(np.hypot(discrete_norm(ey, grid), discrete_norm(ep, grid)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_exact_fields_vanish_on_zero_crossings():
    # sin(2 pi x) factors vanish at x = 1/2, so the mid-grid row/column
    # of both fields is zero when N is even
    grid = GridSpec(8)
    _, exact = example1_fields(grid, 1e-2)
    mid = grid.N // 2 - 1
    assert exact.shape == (2, grid.m, grid.m)
    assert np.allclose(exact[0, mid, :], 0.0, atol=1e-14)
    assert np.allclose(exact[0, :, mid], 0.0, atol=1e-14)
    assert np.allclose(exact[1, mid, :], 0.0, atol=1e-14)


def test_example1_orientation_asymmetric_in_p():
    # p carries exp(x1 - x2): swapping axes must change it
    grid = GridSpec(8)
    _, exact = example1_fields(grid, 1e-2)
    assert not np.allclose(exact[1], exact[1].T)
    # y carries exp(x1 + x2) and is symmetric under the swap
    np.testing.assert_allclose(exact[0], exact[0].T, atol=1e-14)


def test_example2_fields():
    grid = GridSpec(16)
    data = example2_fields(grid)
    assert not data.f.any()
    # check one sample against the closed form, both orientations
    i, j = 3, 7
    x1, x2 = i / 16, j / 16
    expect = np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2) * np.exp(2 * x1) / 6
    assert data.g[j - 1, i - 1] == pytest.approx(expect, rel=1e-14)
    assert not np.isclose(data.g[i - 1, j - 1], expect)


def test_problem_data_shape_guard():
    grid = GridSpec(8)
    with pytest.raises(ValueError):
        ProblemData(np.zeros((3, 3)), np.zeros((7, 7)), grid)


@pytest.mark.parametrize("name", ["f", "g"])
def test_problem_data_rejects_a_field_whose_norm_overflows(name):
    grid = GridSpec(8)
    fields = {"f": np.zeros((7, 7)), "g": np.zeros((7, 7))}
    fields[name] = np.full((7, 7), 1e200)  # finite, but its squares overflow
    with pytest.raises(ValueError, match=f"^{name} has no finite norm"):
        ProblemData(fields["f"], fields["g"], grid)


def test_discrete_norm_scaling():
    grid = GridSpec(10)
    e = np.ones((grid.m, grid.m))
    assert discrete_norm(e, grid) == pytest.approx(0.9, rel=1e-14)


def test_field_roundtrip(tmp_path):
    grid = GridSpec(6)
    rng = np.random.default_rng(0)
    field = rng.standard_normal((grid.m, grid.m))
    path = tmp_path / "field.txt"
    dump_field(path, field, grid)
    grid2, back = load_field(path)
    assert grid2.N == 6
    np.testing.assert_array_equal(back, field)  # 17 sig digits round-trip


def test_field_file_layout(tmp_path):
    grid = GridSpec(3)
    field = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "field.txt"
    dump_field(path, field, grid)
    lines = path.read_text().splitlines()
    assert lines[0] == "N 3"
    assert lines[1].split() == ["1", "1", "1"]
    assert lines[2].split() == ["2", "1", "2"]  # i varies fastest
    assert lines[3].split() == ["1", "2", "3"]
    assert len(lines) == 5


def test_load_field_rejects_bad_files(tmp_path):
    p1 = tmp_path / "bad_header.txt"
    p1.write_text("M 3\n")
    with pytest.raises(ValueError):
        load_field(p1)
    p2 = tmp_path / "incomplete.txt"
    p2.write_text("N 3\n1 1 1.0\n")
    with pytest.raises(ValueError):
        load_field(p2)


def _dump_lines(tmp_path, N=4):
    grid = GridSpec(N)
    path = tmp_path / "field.txt"
    dump_field(path, np.arange(1.0, grid.m ** 2 + 1).reshape(grid.m, grid.m),
               grid)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (4, 1), (1, 4), (-1, 2)])
def test_load_field_rejects_points_off_the_interior(tmp_path, i, j):
    # index 0 used to wrap to the last column and load silently
    path, lines = _dump_lines(tmp_path)
    assert lines[3].split()[:2] == ["3", "1"]
    lines[3] = f"{i} {j} 3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="interior node"):
        load_field(path)


def test_load_field_rejects_duplicate_points(tmp_path):
    # a duplicate line can hide a missing point when only lines are counted
    path, lines = _dump_lines(tmp_path)
    lines[3] = lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_field(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_field_rejects_non_finite_values(tmp_path, value):
    path, lines = _dump_lines(tmp_path)
    lines[5] = lines[5].rsplit(" ", 1)[0] + " " + value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_field(path)


@pytest.mark.parametrize("lineno, text", [
    (1, "N abc"), (1, "N"), (1, "N 1"), (3, "1 2"), (3, "1 x 2.0"), (3, "1 2 3 4"),
])
def test_load_field_names_file_and_line_of_malformed_input(tmp_path, lineno, text):
    path, lines = _dump_lines(tmp_path)
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: "):
        load_field(path)

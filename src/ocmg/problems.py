"""Benchmark problem data and plain-text field serialization.

Two stock data sets are provided.  The first is a manufactured pair

    y(x) = sin(2 pi x1) sin(2 pi x2) exp(x1 + x2)
    p(x) = sin(2 pi x1) sin(2 pi x2) exp(x1 - x2)

with the sources f, g chosen so that (y, p) solves the unconstrained
first-order system exactly; both factors are separable, so the analytic
Laplacians come from 1D second derivatives.  The second is a sparsity
benchmark with f = 0, an oscillatory target state, and box bounds -30/30.

Field files are line-oriented text: a header "N <value>" followed by one
"i j value" line per interior node, i the x1 index varying fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, block_norm2


@dataclass(frozen=True)
class ProblemData:
    f: np.ndarray  # state-equation source
    g: np.ndarray  # target state
    grid: GridSpec

    def __post_init__(self):
        for name, field in (("f", self.f), ("g", self.g)):
            self.grid.check_field(field)
            if not np.isfinite(block_norm2(field)):
                raise ValueError(f"{name} has no finite norm (its values are too large)")


def _sep(grid: GridSpec, fac1, fac2) -> np.ndarray:
    # field[j-1, i-1] = fac1(i h) * fac2(j h); axis 0 runs along x2
    t = np.arange(1, grid.N) * grid.h
    return np.outer(fac2(t), fac1(t))


def _u(t):
    return np.sin(2 * np.pi * t) * np.exp(t)


def _upp(t):
    return ((1 - 4 * np.pi**2) * np.sin(2 * np.pi * t)
            + 4 * np.pi * np.cos(2 * np.pi * t)) * np.exp(t)


def _v(t):
    return np.sin(2 * np.pi * t) * np.exp(-t)


def _vpp(t):
    return ((1 - 4 * np.pi**2) * np.sin(2 * np.pi * t)
            - 4 * np.pi * np.cos(2 * np.pi * t)) * np.exp(-t)


def example1_fields(grid: GridSpec, alpha: float) -> tuple[ProblemData, np.ndarray]:
    """Manufactured sources and the exact solution samples as a block field."""
    exact = np.stack([_sep(grid, _u, _u), _sep(grid, _u, _v)])
    ystar, pstar = exact
    lap_y = _sep(grid, _upp, _u) + _sep(grid, _u, _upp)
    lap_p = _sep(grid, _upp, _v) + _sep(grid, _u, _vpp)
    f = -lap_y - pstar / alpha
    g = -lap_p + ystar
    return ProblemData(f, g, grid), exact


def example2_fields(grid: GridSpec) -> ProblemData:
    """Sparsity benchmark: zero source, oscillatory target state."""
    f = np.zeros((grid.m, grid.m))
    g = _sep(grid,
             lambda t: np.sin(2 * np.pi * t) * np.exp(2 * t),
             lambda t: np.sin(2 * np.pi * t)) / 6.0
    return ProblemData(f, g, grid)


def discrete_norm(e: np.ndarray, grid: GridSpec) -> float:
    """Mesh-scaled 2-norm h*||e||_2, the discrete L2 norm on the grid."""
    return grid.h * block_norm2(e)


def dump_field(path, field: np.ndarray, grid: GridSpec) -> None:
    grid.check_field(field)
    with open(path, "w") as fh:
        fh.write(f"N {grid.N}\n")
        for j in range(1, grid.N):
            for i in range(1, grid.N):
                fh.write(f"{i} {j} {field[j - 1, i - 1]:.17g}\n")


def load_field(path, grid: GridSpec) -> np.ndarray:
    """Read a field file whose header names grid's N (checked before allocating);
    every interior point must appear exactly once."""
    with open(path) as fh:
        lineno, line = 1, fh.readline()
        try:
            key, n = line.split()
            if key != "N" or int(n) != grid.N:
                raise ValueError(f"expected the header 'N {grid.N}'")
            out = np.full((grid.m, grid.m), np.nan)  # NaN marks a missing point
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                i_s, j_s, val = line.split()  # exactly "i j value"
                i, j, x = int(i_s), int(j_s), float(val)
                if not (1 <= i <= grid.m and 1 <= j <= grid.m):
                    raise ValueError(f"point ({i}, {j}) is not an interior node of N={grid.N}")
                if not math.isfinite(x):
                    raise ValueError("non-finite value")
                if not math.isnan(out[j - 1, i - 1]):
                    raise ValueError(f"duplicate point ({i}, {j})")
                out[j - 1, i - 1] = x
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}: {line.strip()!r}") from None
    if np.isnan(out).any():
        raise ValueError(f"field file {path} does not cover the grid")
    return out

"""Benchmark problem data and plain-text field serialization.

Two stock data sets are provided.  The first is a manufactured pair

    y(x) = sin(2 pi x1) sin(2 pi x2) exp(x1 + x2)
    p(x) = sin(2 pi x1) sin(2 pi x2) exp(x1 - x2)

with the sources f, g chosen so that (y, p) solves the unconstrained
first-order system exactly; both are separable, so the analytic
Laplacians come from 1D second derivatives.  The second is a sparsity
benchmark with f = 0, an oscillatory target state, and box bounds -30/30.
Every 1D factor of both is sin(2 pi t) exp(s t), s = 1, -1, 2 or 0.

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


def _wave(t: np.ndarray, s: float) -> np.ndarray:
    """The factor sin(2 pi t) exp(s t) of both examples' fields."""
    return np.sin(2 * np.pi * t) * np.exp(s * t)


def _wave_pp(t: np.ndarray, s: float) -> np.ndarray:
    """Its second derivative ((s^2 - 4 pi^2) sin(2 pi t) + 4 pi s cos(2 pi t)) exp(s t)."""
    return ((s * s - 4 * np.pi**2) * np.sin(2 * np.pi * t)
            + 4 * np.pi * s * np.cos(2 * np.pi * t)) * np.exp(s * t)


def example1_fields(grid: GridSpec, alpha: float) -> tuple[ProblemData, np.ndarray]:
    """Manufactured sources and the exact solution samples as a block field."""
    # field[j-1, i-1] = a(j h) b(i h) is np.outer(a, b): axis 0 runs along x2
    t = np.arange(1, grid.N) * grid.h
    u, upp, v, vpp = _wave(t, 1), _wave_pp(t, 1), _wave(t, -1), _wave_pp(t, -1)
    exact = np.stack([np.outer(u, u), np.outer(v, u)])
    ystar, pstar = exact
    lap_y = np.outer(u, upp) + np.outer(upp, u)
    lap_p = np.outer(v, upp) + np.outer(vpp, u)
    f = -lap_y - pstar / alpha
    g = -lap_p + ystar
    return ProblemData(f, g, grid), exact


def example2_fields(grid: GridSpec) -> ProblemData:
    """Sparsity benchmark: zero source, oscillatory target state."""
    t = np.arange(1, grid.N) * grid.h
    f = np.zeros((grid.m, grid.m))
    return ProblemData(f, np.outer(_wave(t, 0), _wave(t, 2)) / 6.0, grid)


def discrete_norm(e: np.ndarray, grid: GridSpec) -> float:
    """Mesh-scaled 2-norm h*||e||_2, the discrete L2 norm on the grid."""
    return grid.h * block_norm2(e)


def dump_field(path, field: np.ndarray, grid: GridSpec) -> None:
    grid.check_field(field)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"N {grid.N}\n")
        for j in range(1, grid.N):
            for i in range(1, grid.N):
                fh.write(f"{i} {j} {field[j - 1, i - 1]:.17g}\n")


def load_field(path, grid: GridSpec) -> np.ndarray:
    """Read a field file whose header names grid's N (checked before allocating);
    every interior point must appear exactly once."""
    with open(path, encoding="utf-8") as fh:
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

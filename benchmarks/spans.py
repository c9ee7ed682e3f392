"""In-memory span tracer that wraps the library's layer functions from outside.

The solver modules import their collaborators by name (``from .grid import
residual``), so a call from ``multigrid`` goes through the binding that
``ocmg.multigrid`` holds, not through ``ocmg.grid``.  ``Tracer.install``
therefore replaces every binding of a target function held by any loaded
``ocmg`` module, plus the attribute on the defining module or class, and
``Tracer.restore`` puts every original back.  A target that cannot be found
(a later change renamed it) is recorded as absent and traced as nothing.

A span is ``(name, start, end, parent, run, level, nbytes)``:

  * ``parent`` is the index of the enclosing span, -1 at top level;
  * ``run`` is the benchmark's identifier of the solve in progress;
  * ``level`` is the multigrid level of the span's input field, found from
    its shape through the current run's level sizes (None when the call
    takes no field or the size is not a level of that run);
  * ``nbytes`` is, for hooks that ask for it, the size of the input field
    plus the size of the returned field: bytes read plus bytes written once,
    computed from array sizes, not measured traffic.

Everything stays in memory until ``write_spans`` is called at the end.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from importlib import import_module

import numpy as np


@dataclass(frozen=True)
class Hook:
    name: str           # span name, "<layer>.<function>"
    module: str         # module that defines the target
    attr: str           # "function" or "Class.method"
    nbytes: bool = False


HOOKS = (
    Hook("grid.apply_laplacian", "ocmg.grid", "apply_laplacian", nbytes=True),
    Hook("grid.apply_mass", "ocmg.grid", "apply_mass"),
    Hook("grid.apply_saddle", "ocmg.grid", "apply_saddle"),
    Hook("grid.residual", "ocmg.grid", "residual"),
    Hook("grid.blockfield", "ocmg.grid", "BlockField.__add__"),
    Hook("grid.blockfield", "ocmg.grid", "BlockField.__sub__"),
    Hook("grid.blockfield", "ocmg.grid", "BlockField.__rmul__"),
    Hook("grid.blockfield", "ocmg.grid", "BlockField.__iadd__"),
    Hook("grid.blockfield", "ocmg.grid", "BlockField.copy"),
    Hook("grid.block_norm2", "ocmg.grid", "block_norm2"),
    Hook("smoothers.cjr_apply", "ocmg.smoothers", "cjr_apply"),
    Hook("smoothers.bsr_apply", "ocmg.smoothers", "bsr_apply"),
    Hook("smoothers.pcg", "ocmg.smoothers", "pcg"),
    Hook("smoothers.schur_apply", "ocmg.smoothers", "schur_apply"),
    Hook("smoothers.schur_spectral", "ocmg.smoothers", "SchurSpectral.solve"),
    Hook("multigrid.build_hierarchy", "ocmg.multigrid", "build_hierarchy"),
    Hook("multigrid.restrict", "ocmg.multigrid", "restrict", nbytes=True),
    Hook("multigrid.prolong", "ocmg.multigrid", "prolong", nbytes=True),
    # the coarsest-level direct solve is multigrid's call into scipy
    Hook("multigrid.coarse_solve", "scipy.linalg", "lu_solve"),
    Hook("multigrid.cycle", "ocmg.multigrid", "cycle"),
    Hook("multigrid.solve", "ocmg.multigrid", "solve"),
    Hook("ssn.ssn_solve", "ocmg.ssn", "ssn_solve"),
    Hook("ssn.residual_F", "ocmg.ssn", "residual_F"),
    Hook("ssn.phi", "ocmg.ssn", "phi"),
    Hook("ssn.dphi_mask", "ocmg.ssn", "dphi_mask"),
    Hook("problems.fields", "ocmg.problems", "example1_fields"),
    Hook("problems.fields", "ocmg.problems", "example2_fields"),
    Hook("lfa.cjr_optimal", "ocmg.lfa", "cjr_optimal"),
    Hook("oracle.assemble", "ocmg.oracle", "assemble"),
)

# top-level spans that make up a workload's timed solve phase
SOLVE_ROOTS = ("multigrid.solve", "ssn.ssn_solve")

NAME, START, END, PARENT, RUN, LEVEL, NBYTES = range(7)


def field_m(x) -> int | None:
    """Interior points per direction of a field argument, or None.

    Accepts an (m, m) array, any array whose last two axes are (m, m), an
    object with an array attribute ``y`` (a block field), and the flat
    2 m^2 vector that the coarse direct solve takes.
    """
    y = getattr(x, "y", None)
    if isinstance(y, np.ndarray):
        x = y
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        return None
    if x.ndim == 1:
        m = math.isqrt(x.size // 2)
        return m if m > 0 and 2 * m * m == x.size else None
    return x.shape[-1] if x.shape[-1] == x.shape[-2] else None


def field_nbytes(x) -> int:
    if isinstance(x, np.ndarray):
        return x.nbytes
    y, p = getattr(x, "y", None), getattr(x, "p", None)
    if isinstance(y, np.ndarray) and isinstance(p, np.ndarray):
        return y.nbytes + p.nbytes
    return 0


class Tracer:
    """Records spans for the hooked functions between install and restore."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.run = -1
        self._levels: dict[int, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ runs

    def begin_run(self, run: int, sizes: list[int]) -> None:
        """Start solve ``run`` on a hierarchy with subdivisions ``sizes``."""
        self.run = run
        self._levels = {n - 1: k for k, n in enumerate(sizes)}

    def level_of(self, args) -> int | None:
        for a in args:
            m = field_m(a)
            if m is not None:
                return self._levels.get(m)
        return None

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        for hook in self.hooks:
            try:
                owner, attr, original = _resolve(hook)
            except (ImportError, AttributeError):
                self.absent.append(f"{hook.module}.{hook.attr}")
                continue
            wrapper = self._wrap(hook, original)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue  # class attributes have one binding
            for mod in _ocmg_modules():
                if mod is not owner and mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every binding ever patched holds its original again."""
        return all(owner.__dict__.get(attr) is original
                   for owner, attr, original in self._originals)

    def _patch(self, owner, attr, wrapper) -> None:
        entry = (owner, attr, owner.__dict__[attr])
        self._patched.append(entry)
        self._originals.append(entry)
        setattr(owner, attr, wrapper)

    def _wrap(self, hook: Hook, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, want_bytes = hook.name, hook.nbytes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run,
                   self.level_of(args), 0]
            spans.append(rec)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                rec[START] = start
                stack.pop()
            if want_bytes and args:
                rec[NBYTES] = field_nbytes(args[0]) + field_nbytes(out)
            return out

        return wrapper


def _resolve(hook: Hook):
    """(owner, attribute, original) for a hook; raises if it is missing."""
    owner = import_module(hook.module)
    *path, attr = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in owner.__dict__:
        raise AttributeError(hook.attr)
    return owner, attr, owner.__dict__[attr]


def _ocmg_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "ocmg" or n.startswith("ocmg."))]


# ---------------------------------------------------------------- analysis

def self_times(spans) -> list[float]:
    """Duration minus the time covered by child spans.

    Spans come from one thread, so the children of a span run one after
    another inside it and never overlap; their durations add up to the
    time they cover.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def roots(spans) -> list[int]:
    """Index of each span's top-level ancestor (parents precede children)."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[PARENT] < 0 else out[s[PARENT]])
    return out


def summarize(spans, n_levels: int = 8) -> dict:
    """Per-name and per-level aggregates of a traced workload."""
    own = self_times(spans)
    root = roots(spans)
    names: dict[str, dict] = {}
    busy = [0.0] * n_levels
    solve_total = 0.0
    for i, s in enumerate(spans):
        agg = names.setdefault(s[NAME], {"calls": 0, "self_s": 0.0,
                                         "total_s": 0.0, "nbytes": 0})
        dur = s[END] - s[START]
        agg["calls"] += 1
        agg["self_s"] += own[i]
        agg["total_s"] += dur
        agg["nbytes"] += s[NBYTES]
        in_solve = spans[root[i]][NAME] in SOLVE_ROOTS
        if in_solve and s[LEVEL] is not None and s[LEVEL] < n_levels:
            busy[s[LEVEL]] += own[i]
        if root[i] == i and in_solve:
            solve_total += dur
    return {"names": names, "busy": busy, "solve_total_s": solve_total,
            "self": own, "root": root}


def median_duration(spans, name: str, level: int) -> dict[int, float]:
    """Median duration of ``name`` spans at ``level``, per run."""
    per_run: dict[int, list[float]] = {}
    for s in spans:
        if s[NAME] == name and s[LEVEL] == level:
            per_run.setdefault(s[RUN], []).append(s[END] - s[START])
    return {run: statistics.median(d) for run, d in per_run.items()}


def write_spans(path, spans) -> None:
    """One JSON array per line: name, start, end, parent, run, level, nbytes."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")

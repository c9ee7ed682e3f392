"""Tests of the benchmark's tracer: self time, level attribution, restoring.

    python3 -m pytest benchmarks/tests
"""

import sys

import numpy as np
import pytest
import scipy.linalg

import spans
from ocmg import grid, multigrid, problems, ssn
from ocmg.smoothers import SmootherSpec


def _span(name, start, end, parent=-1, level=None, run=0):
    return [name, start, end, parent, run, level, 0]


def _bindings():
    """Every attribute of every ocmg module and class, plus scipy's lu_solve."""
    snap = {("scipy.linalg", "lu_solve"): scipy.linalg.lu_solve}
    for name, mod in list(sys.modules.items()):
        if name == "ocmg" or name.startswith("ocmg."):
            for attr, val in vars(mod).items():
                snap[(name, attr)] = val
                if isinstance(val, type):
                    for cattr, cval in vars(val).items():
                        snap[(name, f"{attr}.{cattr}")] = cval
    return snap


def test_self_time_subtracts_child_spans():
    sp = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0),
        _span("c", 1.5, 2.0, parent=1),
        _span("d", 5.0, 6.0, parent=0),
        _span("e", 11.0, 12.0),
    ]
    assert spans.self_times(sp) == pytest.approx([6.0, 2.5, 0.5, 1.0, 1.0])
    assert spans.roots(sp) == [0, 0, 0, 0, 4]


def test_level_busy_counts_only_spans_under_a_solve_root():
    sp = [
        _span("multigrid.build_hierarchy", 0.0, 1.0, level=0),
        _span("multigrid.solve", 2.0, 10.0, level=0),
        _span("multigrid.cycle", 3.0, 9.0, parent=1, level=0),
        _span("multigrid.restrict", 4.0, 5.0, parent=2, level=0),
        _span("multigrid.cycle", 5.0, 8.0, parent=2, level=1),
        _span("multigrid.coarse_solve", 6.0, 7.0, parent=4, level=None),
    ]
    summ = spans.summarize(sp, n_levels=3)
    # solve self 2, cycle(L0) self 6-1-3 = 2, restrict 1, cycle(L1) self 2
    assert summ["busy"] == pytest.approx([5.0, 2.0, 0.0])
    assert summ["solve_total_s"] == pytest.approx(8.0)
    assert summ["names"]["multigrid.cycle"]["calls"] == 2
    assert summ["names"]["multigrid.cycle"]["self_s"] == pytest.approx(4.0)


def test_field_m_reads_the_shape_of_every_field_layout():
    m = 7
    a = np.zeros((m, m))
    assert spans.field_m(a) == m
    assert spans.field_m(np.zeros((2, m, m))) == m
    assert spans.field_m(grid.BlockField(a, a.copy())) == m
    assert spans.field_m(np.zeros(2 * m * m)) == m
    assert spans.field_m(np.zeros(2 * m * m + 1)) is None
    assert spans.field_m(np.zeros((m, m + 1))) is None
    assert spans.field_m(np.float64(1.0)) is None
    assert spans.field_m((a, a)) is None
    assert spans.field_m(3) is None


def test_level_follows_the_sizes_of_the_current_run():
    tracer = spans.Tracer(hooks=())
    field = np.zeros((63, 63))
    tracer.begin_run(0, multigrid.level_sizes(256, 4))   # 256, 64, 16
    assert tracer.level_of((None, field)) == 1
    tracer.begin_run(1, multigrid.level_sizes(256, 2))   # 256, 128, 64, ...
    assert tracer.level_of((None, field)) == 2
    assert tracer.level_of((np.zeros((80, 80)),)) is None
    assert tracer.level_of((1, "x")) is None


def test_traced_solve_attributes_levels_by_input_shape():
    N, q = 32, 2
    data, _ = problems.example1_fields(grid.GridSpec(N), 1e-2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        hier = multigrid.build_hierarchy(N, q, 1e-2, SmootherSpec("cjr"))
        tracer.begin_run(0, multigrid.level_sizes(N, q))   # 32, 16, 8
        multigrid.solve(hier, grid.BlockField(data.f, data.g),
                        multigrid.CycleSpec(max_iters=2))
    finally:
        tracer.restore()
    sp = tracer.spans
    levels = {}
    for s in sp:
        levels.setdefault(s[spans.NAME], set()).add(s[spans.LEVEL])
    assert levels["multigrid.restrict"] == {0, 1}      # fine side of each pair
    assert levels["multigrid.prolong"] == {1, 2}       # coarse side
    assert levels["multigrid.coarse_solve"] == {2}     # flat 2 m^2 vector
    assert levels["smoothers.cjr_apply"] == {0, 1}
    assert levels["lfa.cjr_optimal"] == {None}         # set-up, no field
    assert all(s[spans.NBYTES] > 0 for s in sp
               if s[spans.NAME] in ("multigrid.restrict", "multigrid.prolong",
                                    "grid.apply_laplacian"))
    summ = spans.summarize(sp, n_levels=3)
    solve = [s for s in sp if s[spans.NAME] == "multigrid.solve"]
    assert len(solve) == 1
    total = solve[0][spans.END] - solve[0][spans.START]
    assert summ["solve_total_s"] == pytest.approx(total)
    # every span under the solve takes a field, so the levels split it exactly
    assert sum(summ["busy"]) == pytest.approx(total, rel=1e-9)


def test_restore_puts_back_every_patched_binding():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert multigrid.residual is not before[("ocmg.multigrid", "residual")]
        assert ssn.solve is not before[("ocmg.ssn", "solve")]
        assert scipy.linalg.lu_solve is not before[("scipy.linalg", "lu_solve")]
        data = problems.example2_fields(grid.GridSpec(16))
        cp = ssn.ControlParams(1e-4, 1e-3, -30.0, 30.0)
        tracer.begin_run(0, multigrid.level_sizes(16, 2))
        ssn.ssn_solve(data, cp, 2, SmootherSpec("ibsr"),
                      multigrid.CycleSpec(nu_pre=2))
    finally:
        tracer.restore()
    assert tracer.restored()
    assert not tracer.absent
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"ssn.ssn_solve", "multigrid.solve", "ssn.residual_F",
            "smoothers.pcg", "multigrid.coarse_solve"} <= names
    n = len(tracer.spans)
    multigrid.restrict(np.zeros((15, 15)), 2)
    assert len(tracer.spans) == n


def test_missing_hook_target_is_recorded_as_absent():
    tracer = spans.Tracer(hooks=(
        spans.Hook("grid.gone", "ocmg.grid", "no_such_function"),
        spans.Hook("grid.gone", "ocmg.grid", "BlockField.no_such_method"),
        spans.Hook("nowhere.f", "ocmg.no_such_module", "f"),
        spans.Hook("grid.block_norm2", "ocmg.grid", "block_norm2"),
    ))
    tracer.install()
    try:
        assert tracer.absent == ["ocmg.grid.no_such_function",
                                 "ocmg.grid.BlockField.no_such_method",
                                 "ocmg.no_such_module.f"]
        a = np.ones((3, 3))
        multigrid.block_norm2(grid.BlockField(a, a))
    finally:
        tracer.restore()
    assert [s[spans.NAME] for s in tracer.spans] == ["grid.block_norm2"]
    assert tracer.restored()

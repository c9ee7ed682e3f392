"""One measured process of the ocmg benchmark: set up, solve, check, report.

``run.py`` starts this script in a fresh interpreter for every sample, so
that set-up time and peak memory are those a user of ``ocmg`` pays.  It
prints one JSON line with the raw measurements of one workload.

    python3 benchmarks/workload.py --workload mg-fine --seed 0 --trace 0

The workload drives the calls the ``ocmg mg`` and ``ocmg ssn`` commands make:
``problems.example*_fields``, ``multigrid.build_hierarchy`` and
``multigrid.solve``, and ``ssn.ssn_solve``.  With ``--trace 1`` every layer
function is wrapped by ``spans.Tracer`` for the whole run, and the per-layer
metrics are computed from the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from ocmg import grid, multigrid, problems, ssn
from ocmg.smoothers import SmootherSpec

import spans

ALPHA = 1e-6
N_LEVELS = 8  # levels of the deepest hierarchy, q=2 at N=1024

# Reference W-cycle, nu=1 convergence factors at alpha=1e-6 on the table
# grids and their tolerances, copied from tests/test_acceptance.py
# (REF_CJR at (q, "W", 1), REF_BSR_W, REF_IBSR2_W; tolerance 0.02 for
# criterion 3 and 0.03 for criterion 4).
REF_RHO = {
    "cjr": {2: 0.610, 3: 0.785, 4: 0.870},
    "bsr": {2: 0.258, 3: 0.284, 4: 0.462},
    "ibsr": {2: 0.267, 3: 0.345, 4: 0.502},
}
RHO_TOL = {"cjr": 0.02, "bsr": 0.03, "ibsr": 0.03}
TABLE_SIZES = {2: 256, 3: 243, 4: 256}

# mg-fine discrete error against the manufactured solution.  Measured at
# N=1024, alpha=1e-6: 1.45e-4 for y and 1.87e-8 for p, both discretization
# error (the algebraic error at tol 1e-10 is far below).  The bounds leave
# about 40% headroom; a solve that stops away from the discrete solution
# or a broken operator exceeds them.
FINE_ERR_BOUND = {"y": 2.0e-4, "p": 2.6e-8}

# ssn-sparse: Jacobian cycle counts may differ from the unconstrained seed
# solve by at most this many cycles (criterion 9 of the acceptance suite).
SSN_CYCLE_BAND = 3
SSN_PARAMS = dict(alpha=1e-6, beta=1e-3, u0=-30.0, u1=30.0)


def _block(y, p):
    """A right-hand side in the library's block layout.

    A BlockField today; a stacked (2, m, m) array if that class is gone.
    """
    make = getattr(grid, "BlockField", None)
    return make(y, p) if make is not None else np.stack([y, p])


def _parts(v):
    return (v.y, v.p) if hasattr(v, "y") else (v[0], v[1])


def _complain(msg: str) -> None:
    print(f"check failed: {msg}", file=sys.stderr)


# ---------------------------------------------------------------- mg-*

def _mg_cells(workload: str) -> list[tuple[str, int, int]]:
    if workload == "mg-fine":
        return [("cjr", 2, 1024)]
    return [(s, q, TABLE_SIZES[q]) for s in ("cjr", "bsr", "ibsr")
            for q in (2, 3, 4)]


def run_mg(workload: str, seed: int, tracer, setup_only: bool) -> dict:
    spec = multigrid.CycleSpec(cycle="W", nu_pre=1, tol=1e-10,
                               max_iters=100, seed=seed)
    setups = []
    for scheme, q, N in _mg_cells(workload):
        g = grid.GridSpec(N)
        data, exact = problems.example1_fields(g, ALPHA)
        hier = multigrid.build_hierarchy(N, q, ALPHA, SmootherSpec(scheme))
        setups.append((scheme, q, N, g, data, exact, hier))
    ready = time.monotonic()
    if setup_only:
        return {"ready": ready, "attempted": 0, "failed": 0, "cells": []}

    out = {"ready": ready, "solve_s": 0.0, "fine_cycles": 0, "attempted": 0,
           "failed": 0, "cells": []}
    log_rho = []
    for run, (scheme, q, N, g, data, exact, hier) in enumerate(setups):
        out["attempted"] += 1
        if tracer is not None:
            tracer.begin_run(run, multigrid.level_sizes(N, q))
        cell = {"scheme": scheme, "q": q, "N": N}
        try:
            t0 = time.perf_counter()
            res = multigrid.solve(hier, _block(data.f, data.g), spec)
            dt = time.perf_counter() - t0
        except Exception:  # one failed solve must not hide the others
            traceback.print_exc()
            out["failed"] += 1
            out["cells"].append(dict(cell, ok=False))
            continue
        out["solve_s"] += dt
        out["fine_cycles"] += res.iters
        cell.update(solve_s=dt, iters=res.iters, rho=res.rho,
                    converged=res.converged)
        if workload == "mg-fine":
            ok = _check_fine(res, exact, g, cell)
        else:
            ok = _check_table(res, scheme, q, cell)
        cell["ok"] = ok
        out["failed"] += not ok
        out["cells"].append(cell)
        log_rho.append(math.log(res.rho) if res.rho > 0 else -math.inf)
    out["rho"] = math.exp(sum(log_rho) / len(log_rho)) if log_rho else 0.0
    return out


def _check_fine(res, exact, g, cell) -> bool:
    (y, p), (y_ex, p_ex) = _parts(res.v), _parts(exact)
    err = {"y": problems.discrete_norm(y - y_ex, g),
           "p": problems.discrete_norm(p - p_ex, g)}
    cell["err"] = err
    ok = res.converged
    if not ok:
        _complain(f"mg-fine did not reach 1e-10 in {res.iters} cycles")
    for k, bound in FINE_ERR_BOUND.items():
        if not err[k] <= bound:
            _complain(f"mg-fine discrete error in {k} {err[k]:.3e} > {bound:.1e}")
            ok = False
    return ok


def _check_table(res, scheme, q, cell) -> bool:
    # cjr at q=4 stops at the 100-cycle cap by protocol; judge rho only
    ref, tol = REF_RHO[scheme][q], RHO_TOL[scheme]
    cell["rho_ref"] = ref
    ok = abs(res.rho - ref) <= tol
    if not ok:
        _complain(f"mg-table {scheme} q={q}: rho {res.rho:.4f} not within "
                  f"{tol} of {ref}")
    return ok


# ---------------------------------------------------------------- ssn

def run_ssn(seed: int, tracer, setup_only: bool) -> dict:
    N, q = 128, 2
    data = problems.example2_fields(grid.GridSpec(N))
    cp = ssn.ControlParams(**SSN_PARAMS)
    spec = multigrid.CycleSpec(cycle="W", nu_pre=2, tol=1e-10, seed=seed)
    ready = time.monotonic()
    if setup_only:
        return {"ready": ready, "attempted": 0, "failed": 0, "cells": []}

    out = {"ready": ready, "solve_s": 0.0, "fine_cycles": 0, "rho": 0.0,
           "attempted": 1, "failed": 0, "cells": []}
    if tracer is not None:
        tracer.begin_run(0, multigrid.level_sizes(N, q))
    # count every multigrid solve the Newton loop makes, at the binding
    # ssn calls through, for the cycle-weighted convergence factor
    mg_runs = []
    inner = ssn.solve

    def counted_solve(*args, **kwargs):
        res = inner(*args, **kwargs)
        mg_runs.append((res.iters, res.rho))
        return res

    ssn.solve = counted_solve
    try:
        t0 = time.perf_counter()
        res = ssn.ssn_solve(data, cp, q, SmootherSpec("ibsr"), spec,
                            tol=spec.tol)
        out["solve_s"] = time.perf_counter() - t0
    except Exception:  # reported as a failed solve, not a crash
        traceback.print_exc()
        out["failed"] = 1
        return out
    finally:
        ssn.solve = inner

    k_total = sum(k for k, _ in mg_runs)
    log_rel = sum(k * math.log(r) for k, r in mg_runs if k > 0 and r > 0)
    out["fine_cycles"] = k_total
    out["rho"] = math.exp(log_rel / k_total) if k_total else 0.0
    out["newton_steps"] = res.iters
    out["jacobian_cycles"] = list(res.mg_iters)
    out["baseline_cycles"] = res.baseline_iters
    out["mg_solves"] = len(mg_runs)
    out["failed"] = 0 if _check_ssn(res, cp) else 1
    out["cells"].append({"scheme": "ibsr", "q": q, "N": N,
                         "newton_steps": res.iters, "ok": not out["failed"]})
    return out


def _check_ssn(res, cp) -> bool:
    ok = res.converged
    if not ok:
        _complain("ssn-sparse did not converge")
    bad = [k for k in res.mg_iters if abs(k - res.baseline_iters) > SSN_CYCLE_BAND]
    if bad:
        _complain(f"ssn-sparse Jacobian cycles {bad} outside "
                  f"{res.baseline_iters} +- {SSN_CYCLE_BAND}")
        ok = False
    # phi's arithmetic may overshoot a bound by a few ulps
    slack = 1e-12 * max(abs(cp.u0), abs(cp.u1))
    lo, hi = float(res.u.min()), float(res.u.max())
    if lo < cp.u0 - slack or hi > cp.u1 + slack:
        _complain(f"ssn-sparse control range [{lo}, {hi}] leaves "
                  f"[{cp.u0}, {cp.u1}]")
        ok = False
    return ok


# ---------------------------------------------------------------- layers

def layer_metrics(tracer, out: dict) -> dict:
    """Per-layer metrics of one traced process, keyed as in BENCHMARK.json."""
    sp = tracer.spans
    summ = spans.summarize(sp, N_LEVELS)
    names = summ["names"]
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "nbytes": 0}

    def agg(name):
        return names.get(name, zero)

    m = {}
    for name in ("grid.apply_laplacian", "grid.apply_mass", "grid.residual",
                 "grid.blockfield", "smoothers.cjr_apply",
                 "smoothers.bsr_apply", "smoothers.pcg",
                 "smoothers.schur_apply", "smoothers.schur_spectral",
                 "multigrid.build_hierarchy", "multigrid.restrict",
                 "multigrid.prolong", "multigrid.coarse_solve",
                 "ssn.residual_F", "lfa.cjr_optimal", "oracle.assemble"):
        m[f"{name}.calls"] = agg(name)["calls"]
        m[f"{name}.self_s"] = agg(name)["self_s"]
    for name in ("grid.apply_saddle", "grid.block_norm2", "multigrid.cycle",
                 "ssn.phi", "ssn.dphi_mask", "problems.fields"):
        m[f"{name}.self_s"] = agg(name)["self_s"]
    # bytes read plus bytes written once, from array sizes, over wall time
    for name in ("grid.apply_laplacian", "multigrid.restrict",
                 "multigrid.prolong"):
        a = agg(name)
        m[f"{name}.gbps"] = a["nbytes"] / a["total_s"] / 1e9 if a["total_s"] else 0.0

    wu = spans.median_duration(sp, "grid.residual", 0)
    cyc = spans.median_duration(sp, "multigrid.cycle", 0)
    m["grid.wu_ms"] = 1e3 * statistics.median(wu.values()) if wu else 0.0
    m["multigrid.cycle_ms"] = 1e3 * statistics.median(cyc.values()) if cyc else 0.0
    ratios = [cyc[r] / wu[r] for r in cyc if wu.get(r)]
    m["multigrid.cycle_wu"] = statistics.median(ratios) if ratios else 0.0
    for k, busy in enumerate(summ["busy"]):
        m[f"multigrid.L{k}.busy_s"] = busy

    bsr_calls = agg("smoothers.bsr_apply")["calls"]
    m["smoothers.matvecs_per_apply"] = (
        agg("smoothers.schur_apply")["calls"] / bsr_calls if bsr_calls else 0.0)

    for scheme in REF_RHO:
        for q in (2, 3, 4):
            m[f"multigrid.rho.{scheme}-q{q}"] = 0.0
    for cell in out["cells"]:
        if "rho" in cell:
            m[f"multigrid.rho.{cell['scheme']}-q{cell['q']}"] = cell["rho"]

    # ssn: spans under ssn_solve roots; zero on the mg-* workloads
    root_name = [sp[r][spans.NAME] for r in summ["root"]]
    in_ssn = [n == "ssn.ssn_solve" for n in root_name]
    ssn_total = sum(s[spans.END] - s[spans.START] for i, s in enumerate(sp)
                    if in_ssn[i] and summ["root"][i] == i)
    builds = sum(s[spans.END] - s[spans.START] for i, s in enumerate(sp)
                 if in_ssn[i] and s[spans.NAME] == "multigrid.build_hierarchy")
    m["ssn.mg_solves"] = sum(1 for i, s in enumerate(sp)
                             if in_ssn[i] and s[spans.NAME] == "multigrid.solve")
    steps = out.get("newton_steps", 0)
    trials = agg("ssn.residual_F")["calls"] - agg("ssn.ssn_solve")["calls"]
    m["ssn.linesearch_accept_ratio"] = steps / trials if trials > 0 else 0.0
    jac = out.get("jacobian_cycles", [])
    m["ssn.cycles_per_newton"] = sum(jac) / steps if steps else 0.0
    m["ssn.build_share"] = builds / ssn_total if ssn_total else 0.0

    m["trace.spans"] = len(sp)
    m["trace.busy_sum_s"] = sum(summ["busy"])
    m["trace.solve_span_s"] = summ["solve_total_s"]
    return m


def copy_gbps(nbytes: int = 128 * 2**20, repeats: int = 7) -> float:
    """Bytes read plus bytes written over the median time of a large copy."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def environment() -> dict:
    import scipy

    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS", "OCMG_WORKERS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("mg-fine", "mg-table", "ssn-sparse"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="file for the recorded spans")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the solver is ready to cycle")
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(grid.__file__).resolve().parents:
        print(f"ocmg was imported from {grid.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    try:
        if args.workload == "ssn-sparse":
            out = run_ssn(args.seed, tracer, args.setup_only)
        else:
            out = run_mg(args.workload, args.seed, tracer, args.setup_only)
    finally:
        if tracer is not None:
            tracer.restore()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["env"] = environment()
    if tracer is not None:
        out["absent"] = tracer.absent
        out["restored"] = tracer.restored()
        out["layers"] = layer_metrics(tracer, out)
        out["layers"]["machine.copy_gbps"] = copy_gbps()
        if args.spans_out:
            spans.write_spans(args.spans_out, tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [criterion N] PASS/FAIL line with the measured
margins.  Reference convergence factors are the frozen benchmark values
for the manufactured-data configuration at alpha = 1e-6 on the standard
grids (N = 256 for q in {2,4}, N = 243 for q = 3).
"""

import math
import time

import numpy as np

from ocmg import oracle
from ocmg.grid import (
    GridSpec,
    SaddleOperator,
    apply_laplacian,
    apply_mass,
    apply_saddle,
    block_norm2,
)
from ocmg.lfa import (
    LfaParams,
    bsr_damping,
    cjr_optimal,
    sampled_optimal,
    scalar_range_check,
)
from ocmg.multigrid import CycleSpec, build_hierarchy, eta_ratio, solve
from ocmg.problems import discrete_norm, example1_fields, example2_fields
from ocmg.smoothers import SmootherSpec, bsr_apply, cjr_apply, schur_apply
from ocmg.ssn import ControlParams, sparsity_fractions, ssn_solve

SIZES = {2: 256, 3: 243, 4: 256}
ALPHA = 1e-6

# reference multigrid convergence factors, collective Jacobi smoothing:
# {(q, cycle, nu): rho}
REF_CJR = {
    (2, "W", 1): 0.610, (2, "W", 2): 0.371, (2, "W", 3): 0.227,
    (2, "V", 1): 0.612, (2, "V", 2): 0.388, (2, "V", 3): 0.271,
    (3, "W", 1): 0.785, (3, "W", 2): 0.617, (3, "W", 3): 0.485,
    (3, "V", 1): 0.783, (3, "V", 2): 0.617, (3, "V", 3): 0.484,
    (4, "W", 1): 0.870, (4, "W", 2): 0.757, (4, "W", 3): 0.658,
    (4, "V", 1): 0.870, (4, "V", 2): 0.757, (4, "V", 3): 0.658,
}
# W-cycle, nu=1 references for the mass-based schemes
REF_BSR_W = {2: 0.258, 3: 0.284, 4: 0.462}
REF_IBSR2_W = {2: 0.267, 3: 0.345, 4: 0.502}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _measure(kind: str, q: int, nu: int, cycle: str,
             pcg_iters: int = 2, tol: float = 1e-10,
             max_iters: int = 100) -> float:
    N = SIZES[q]
    grid = GridSpec(N)
    data, _ = example1_fields(grid, ALPHA)
    hier = build_hierarchy(N, q, ALPHA, SmootherSpec(kind, pcg_iters=pcg_iters))
    res = solve(hier, np.stack([data.f, data.g]),
                CycleSpec(cycle=cycle, nu_pre=nu, tol=tol,
                          max_iters=max_iters, seed=0))
    return res.rho


def test_criterion_1_closed_form_matches_sampled_lfa():
    alphas = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12]
    hs = [1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256]
    t0 = time.time()
    worst_mu = worst_om = 0.0
    for q in (2, 3, 4):
        for a in alphas:
            for h in hs:
                params = LfaParams(q=q, alpha=a, h=h)
                closed = cjr_optimal(params)
                sampled = sampled_optimal("cjr", params)
                worst_mu = max(worst_mu, abs(sampled.mu - closed.mu))
                worst_om = max(worst_om, abs(sampled.omega - closed.omega))
    elapsed = time.time() - t0
    ok = worst_mu <= 2e-3 and worst_om <= 5e-3 and elapsed <= 60.0
    _report(1, ok, f"90-cell (q,alpha,h) grid: max|dmu|={worst_mu:.2e} "
                   f"(tol 2e-3), max|domega|={worst_om:.2e} (tol 5e-3), "
                   f"{elapsed:.1f}s (limit 60s)")


def test_criterion_2_scalar_symbol_ranges():
    expected = {
        ("jacobi", 2): (0.5, 2.0),
        ("jacobi", 3): (0.25, 2.0),
        ("jacobi", 4): ((2 - math.sqrt(2)) / 4, 2.0),
        ("mass", 2): (8 / 9, 16 / 9),
        ("mass", 3): (5 / 6, 16 / 9),
        ("mass", 4): ((3 - math.sqrt(2)) / 3, 16 / 9),
    }
    worst = 0.0
    for (kind, q), (lo, hi) in expected.items():
        mn, mx = scalar_range_check(kind, q)
        worst = max(worst, abs(mn - lo), abs(mx - hi))
    ok = worst <= 1e-3
    _report(2, ok, f"six sampled symbol-ratio ranges: max endpoint "
                   f"error={worst:.2e} (tol 1e-3)")


def test_criterion_3_collective_jacobi_benchmark_grid():
    t0 = time.time()
    worst = 0.0
    worst_cell = None
    for (q, cycle, nu), want in sorted(REF_CJR.items()):
        rho = _measure("cjr", q, nu, cycle)
        if abs(rho - want) > worst:
            worst, worst_cell = abs(rho - want), (q, cycle, nu, rho, want)
    elapsed = time.time() - t0
    ok = worst <= 0.02 and elapsed <= 600.0
    q, cycle, nu, rho, want = worst_cell
    _report(3, ok, f"18 cells, worst |rho-ref|={worst:.3f} (tol 0.02) at "
                   f"q={q} {cycle} nu={nu} (rho={rho:.3f} ref={want:.3f}), "
                   f"{elapsed:.0f}s (limit 600s)")


def test_criterion_4_mass_smoother_benchmark_grid():
    worst = 0.0
    bound_ok = True
    for q in (2, 3, 4):
        bound = bsr_damping(q)[1]
        for kind, ref in (("bsr", REF_BSR_W), ("ibsr", REF_IBSR2_W)):
            for cycle in ("W", "V"):
                rho = _measure(kind, q, 1, cycle)
                if cycle == "W":
                    worst = max(worst, abs(rho - ref[q]))
                bound_ok = bound_ok and rho <= bound
    ok = worst <= 0.03 and bound_ok
    _report(4, ok, f"exact and 2-step-truncated Schur smoothers: worst "
                   f"W-cycle |rho-ref|={worst:.3f} (tol 0.03), nu=1 cells "
                   f"{'respect' if bound_ok else 'EXCEED'} the damping bounds")


def test_criterion_5_smoother_ordering_and_iteration_ratio():
    # sharper protocol: the ratio of log-rates needs the asymptotic rho,
    # so run past the default iteration budget at a tighter tolerance
    etas = {}
    ordering_ok = True
    for q in (2, 3, 4):
        rho_j = _measure("cjr", q, 1, "W", tol=1e-12, max_iters=200)
        rho_exact = _measure("bsr", q, 1, "W", tol=1e-12, max_iters=200)
        rho_s = _measure("ibsr", q, 1, "W", tol=1e-12, max_iters=200)
        ordering_ok = ordering_ok and rho_exact < rho_j and rho_s < rho_j
        etas[q] = eta_ratio(rho_s, rho_j)
    band_ok = all(1.5 <= e <= 5.0 for e in etas.values())
    ok = ordering_ok and band_ok
    _report(5, ok, "mass smoother beats collective Jacobi for every q; "
                   "eta = " + ", ".join(f"q={q}: {e:.2f}" for q, e in etas.items())
                   + " (band [1.5, 5])")


def test_criterion_6_damping_advantage_at_large_gamma():
    N, alpha = 64, 1e-14
    grid = GridSpec(N)
    gamma2 = (grid.h ** 2 / (4 * math.sqrt(alpha))) ** 2
    data, _ = example1_fields(grid, alpha)
    b = np.stack([data.f, data.g])
    spec = CycleSpec(cycle="W", nu_pre=1, seed=0)
    rhos = {}
    for label, omega in (("adaptive", None), ("fixed", 0.8)):
        hier = build_hierarchy(N, 2, alpha, SmootherSpec("cjr", omega=omega))
        rhos[label] = solve(hier, b, spec).rho
    ok = gamma2 > 6.0 and rhos["adaptive"] < rhos["fixed"]
    _report(6, ok, f"gamma^2={gamma2:.0f}: rho(omega0)={rhos['adaptive']:.4f} "
                   f"< rho(4/5)={rhos['fixed']:.4f}")


def test_criterion_7_dense_oracle_equivalence():
    rng = np.random.default_rng(7)
    alpha = 1e-2
    worst = 0.0
    for N in (4, 8, 12):
        grid = GridSpec(N)
        mask = (rng.random((grid.m, grid.m)) < 0.5).astype(float)
        op = SaddleOperator(grid, alpha=alpha, mask=mask)
        L = oracle.assemble("laplacian", grid)
        Q = oracle.assemble("mass", grid)
        S = oracle.assemble("schur", grid, alpha=alpha, mask=mask)
        A = oracle.assemble("saddle", grid, alpha=alpha, mask=mask)
        BJ = oracle.assemble("B_J", grid, alpha=alpha, mask=mask)
        Bm = oracle.assemble("B_m", grid, alpha=alpha, mask=mask)
        bsr_spec = SmootherSpec("bsr", omega=0.75)
        for _ in range(100):
            u = rng.standard_normal((grid.m, grid.m))
            v = rng.standard_normal((2, grid.m, grid.m))
            pairs = [
                (apply_laplacian(u, grid).ravel(), L @ u.ravel()),
                (apply_mass(u, grid).ravel(), Q @ u.ravel()),
                (schur_apply(u, op).ravel(), S @ u.ravel()),
                (apply_saddle(op, v).ravel(), A @ v.ravel()),
                (cjr_apply(v, op, 0.8).ravel(),
                 0.8 * np.linalg.solve(BJ, v.ravel())),
                (bsr_apply(v, op, bsr_spec).ravel(),
                 0.75 * np.linalg.solve(Bm, v.ravel())),
            ]
            for got, want in pairs:
                rel = np.linalg.norm(got - want) / np.linalg.norm(want)
                worst = max(worst, rel)

    # whole solver against a dense solve on the smallest usable chain
    grid = GridSpec(16)
    rng_b = np.random.default_rng(8)
    b = rng_b.standard_normal((2, grid.m, grid.m))
    hier = build_hierarchy(16, 2, alpha, SmootherSpec("cjr"))
    res = solve(hier, b, CycleSpec(cycle="W", nu_pre=2, tol=1e-12, seed=0))
    A = oracle.assemble("saddle", grid, alpha=alpha)
    want = oracle.dense_solve(A, b.ravel())
    mg_rel = np.linalg.norm(res.v.ravel() - want) / np.linalg.norm(want)
    ok = worst <= 1e-9 and mg_rel <= 1e-9
    _report(7, ok, f"operators/smoothers vs dense over 100 vectors on "
                   f"N in {{4,8,12}}: worst rel={worst:.1e} (tol 1e-9); "
                   f"multigrid vs dense at N=16: rel={mg_rel:.1e}")


def test_criterion_8_discretization_order():
    alpha = 1e-2
    errs = {}
    for N in (32, 64, 128):
        grid = GridSpec(N)
        data, exact = example1_fields(grid, alpha)
        hier = build_hierarchy(N, 2, alpha, SmootherSpec("ibsr"))
        res = solve(hier, np.stack([data.f, data.g]),
                    CycleSpec(cycle="W", nu_pre=2, tol=1e-11, seed=0))
        errs[N] = (discrete_norm(res.v[0] - exact[0], grid),
                   discrete_norm(res.v[1] - exact[1], grid))
    ratios = [errs[N][i] / errs[2 * N][i] for N in (32, 64) for i in (0, 1)]
    ok = all(4.0 * 0.85 <= r <= 4.0 * 1.15 for r in ratios)
    _report(8, ok, "error ratios under mesh doubling: " +
                   ", ".join(f"{r:.2f}" for r in ratios) + " (target 4 +-15%)")


def test_criterion_9_constrained_solver_robustness():
    grid = GridSpec(128)
    data = example2_fields(grid)
    spec = CycleSpec(cycle="W", nu_pre=2, seed=0)
    notes = []
    ok = True
    for kind in ("ibsr", "cjr"):
        for alpha in (1e-4, 1e-6):
            for beta in (1e-3, 1e-2):
                cp = ControlParams(alpha, beta, -30.0, 30.0)
                res = ssn_solve(data, cp, 2, SmootherSpec(kind), spec)
                base = res.baseline_iters
                if kind == "ibsr":
                    # the recommended scheme holds the +-3 band exactly
                    good = all(abs(k - base) <= 3 for k in res.mg_iters)
                else:
                    # collective Jacobi may only speed up on nearly-dead
                    # masks, so check it never degrades past the band
                    good = all(k <= base + 3 for k in res.mg_iters)
                ok = ok and res.converged and good
                notes.append(f"{kind} a={alpha:g} b={beta:g}: base={base} "
                             f"mg=[{min(res.mg_iters)},{max(res.mg_iters)}]"
                             + ("" if good else " OUT-OF-BAND"))
    cp = ControlParams(1e-4, 10.0, -30.0, 30.0)
    res = ssn_solve(data, cp, 2, SmootherSpec("ibsr"), spec)
    zero, _ = sparsity_fractions(res.u, cp)
    ok = ok and res.converged and zero == 1.0
    _report(9, ok, "; ".join(notes) + f"; beta=10 zero-fraction={zero:.3f}")

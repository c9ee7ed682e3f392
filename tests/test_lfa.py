"""Symbol values, frequency sets, closed forms vs the sampled optimizer."""

from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ocmg.lfa import (
    LfaParams,
    LfaReport,
    bsr_damping,
    cjr_optimal,
    closed_form,
    high_freq_grid,
    psi,
    relax_eigs,
    sampled_optimal,
    symbol_laplacian,
    symbol_mass,
)
from oracle import scalar_range_check


def smoothing_factor_sampled(scheme, params, omega):
    """max over sampled high frequencies of the spectral radius of S~."""
    t1, t2 = high_freq_grid(params.q)
    lam = np.concatenate(relax_eigs(scheme, t1, t2, params.alpha, params.h))
    dev = np.abs(1.0 - omega * lam)
    k = np.argmax(dev) % t1.size
    return LfaReport(mu=float(dev.max()), omega=omega, theta=(float(t1[k]), float(t2[k])))


def params_for_gamma(q, gamma, h=1.0):
    # gamma = h^2/(4 sqrt(alpha))  =>  alpha = (h^2 / (4 gamma))^2
    alpha = (h * h / (4.0 * gamma)) ** 2
    p = LfaParams(q=q, alpha=alpha, h=h)
    assert abs(p.gamma - gamma) < 1e-12 * gamma
    return p


@pytest.mark.parametrize("alpha, h", [(float("nan"), 0.1), (1e-320, 0.1),
                                     (1e-6, float("nan")), (1e-6, 0.0),
                                     (1e-300, 1e5), (1e-6, 1e-80), (1e-6, 1e-200)])
def test_params_reject_nan_and_overflowing_values(alpha, h):
    # (1e-300, 1e5): a finite gamma whose square overflows; h = 1e-80: the
    # symbol term a b ~ 72/h^4 overflows (mu was nan); h = 1e-200: h^2
    # underflows to zero (4/h^2 raised ZeroDivisionError)
    with pytest.raises(ValueError):
        LfaParams(q=2, alpha=alpha, h=h)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.floats(-300.0, 300.0), st.floats(-80.0, 80.0))
def test_every_accepted_params_has_a_finite_sampled_mu(q, log_alpha, log_h):
    try:
        params = LfaParams(q=q, alpha=10.0 ** log_alpha, h=10.0 ** log_h)
    except ValueError:
        return
    for scheme in ("cjr", "bsr"):
        assert np.isfinite(sampled_optimal(scheme, params).mu)


# ---------------------------------------------------------------- symbols

def test_symbol_laplacian_values():
    assert symbol_laplacian(0.0, 0.0, 0.5) == pytest.approx(0.0)
    assert symbol_laplacian(np.pi, np.pi, 1.0) == pytest.approx(8.0)
    assert symbol_laplacian(np.pi / 2, np.pi / 2, 1.0) == pytest.approx(4.0)


def test_symbol_mass_values():
    h = 0.25
    assert symbol_mass(0.0, 0.0, h) == pytest.approx(h * h)
    assert symbol_mass(np.pi, np.pi, h) == pytest.approx(h * h / 9.0)
    assert symbol_mass(np.pi / 2, np.pi / 2, h) == pytest.approx(4 * h * h / 9.0)


@settings(max_examples=200, deadline=None)
@given(t1=st.floats(-10.0, 10.0), t2=st.floats(-10.0, 10.0), h=st.floats(1e-150, 1e150))
@example(t1=3.141592635389793, t2=np.pi, h=1.0)
def test_symbol_mass_is_at_least_its_minimum(t1, t2, h):
    # Q~ = (h^2/9)(2 + cos t1)(2 + cos t2) >= h^2/9, least at (pi, pi); the
    # rounded sum 4 + 2c1 + 2c2 + c1c2 can land half an ulp below 1 near it
    assert symbol_mass(t1, t2, h) >= h * h / 9.0 * (1.0 - 2.0 ** -50)


# ---------------------------------------------------------------- frequency set

@pytest.mark.parametrize("q", [2, 3, 4])
def test_high_freq_grid_membership(q):
    t1, t2 = high_freq_grid(q)
    assert np.all((t1 > -np.pi / 2 - 1e-12) & (t1 <= 3 * np.pi / 2 + 1e-12))
    assert np.all((t2 > -np.pi / 2 - 1e-12) & (t2 <= 3 * np.pi / 2 + 1e-12))
    in_box = lambda x: (x > -np.pi / q) & (x <= np.pi / q + 1e-15)
    assert not np.any(in_box(t1) & in_box(t2))


def test_high_freq_grid_hits_tau_extremes_q2():
    # tau = a/a1 attains 2 at cosines (-1,-1) and 1/2 at (0,1)
    t1, t2 = high_freq_grid(2)
    tau = symbol_laplacian(t1, t2, 1.0) / 4.0
    assert np.max(tau) == pytest.approx(2.0, abs=1e-12)
    assert np.min(tau) == pytest.approx(0.5, abs=1e-12)


def test_high_freq_grid_hits_tau_min_q4():
    t1, t2 = high_freq_grid(4)
    tau = symbol_laplacian(t1, t2, 1.0) / 4.0
    assert np.min(tau) == pytest.approx((2.0 - sqrt(2.0)) / 4.0, abs=1e-3)


def test_high_freq_grid_bad_q():
    with pytest.raises(ValueError):
        high_freq_grid(5)


@pytest.mark.parametrize("q,c_cut", [(3, 0.5), (4, sqrt(2.0) / 2.0)])
def test_cosine_boxes(q, c_cut):
    # every high frequency has (cos t1, cos t2) with c2 <= cut or c1 <= cut
    t1, t2 = high_freq_grid(q)
    c1, c2 = np.cos(t1), np.cos(t2)
    assert np.all((c2 <= c_cut + 1e-9) | (c1 <= c_cut + 1e-9))


# ---------------------------------------------------------------- sampled factor

def test_sampled_cjr_table_value():
    p = LfaParams(q=2, alpha=1e-6, h=1.0 / 256)
    rep = smoothing_factor_sampled("cjr", p, omega=0.8)
    assert rep.mu == pytest.approx(0.600, abs=2e-3)


def test_sampled_bsr_table_value():
    p = LfaParams(q=2, alpha=1e-6, h=1.0 / 256)
    rep = smoothing_factor_sampled("bsr", p, omega=0.75)
    assert rep.mu == pytest.approx(0.333, abs=2e-3)


def test_sampled_bsr_mu_is_exact_where_the_eigenvalues_nearly_coincide():
    # at alpha=1e-12, h=0.25 the bsr eigenvalues 1 and det agree to ~1e-11;
    # a half-trace/determinant discriminant cancels to ~1e-8 there
    p = LfaParams(q=2, alpha=1e-12, h=0.25)
    rep = sampled_optimal("bsr", p)
    t1, t2 = high_freq_grid(2)
    a = symbol_laplacian(t1, t2, p.h)
    b = 1.0 / symbol_mass(t1, t2, p.h)
    det = (1.0 + p.alpha * a * a) / (1.0 + p.alpha * a * b)
    want = max(abs(1.0 - rep.omega), np.max(np.abs(1.0 - rep.omega * det)))
    assert rep.mu == pytest.approx(want, rel=1e-12)


def test_sampled_cjr_collapses_to_scalar_jacobi():
    # gamma ~ 0: eigenvalues approach tau, so mu(omega) is the scalar
    # damped-Jacobi factor max(|1 - omega tau|) over tau in [1/2, 2]
    p = LfaParams(q=2, alpha=1e12, h=1.0)
    for omega in (0.7, 0.8, 1.0):
        rep = smoothing_factor_sampled("cjr", p, omega)
        want = max(abs(1 - omega * 0.5), abs(1 - omega * 2.0))
        assert rep.mu == pytest.approx(want, abs=1e-6)


def test_sampled_bsr_theta_keeps_the_first_of_two_tied_maxima():
    # (-pi/4, 0) and (0, -pi/4) give the same mu; on a tie the first sample of
    # the first eigenvalue branch is reported, and `ocmg lfa` prints it
    rep = sampled_optimal("bsr", LfaParams(q=4, alpha=1e-6, h=1.0 / 256))
    assert rep.theta == (-np.pi / 4, 0.0)


def test_sampled_rejects_bad_scheme():
    with pytest.raises(ValueError):
        relax_eigs("ibsr", np.array([1.0]), np.array([1.0]), 1e-6, 0.1)


# ---------------------------------------------------------------- CJR closed forms

def test_cjr_optimal_gamma_zero_limits():
    want = {2: (4.0 / 5.0, 3.0 / 5.0),
            3: (8.0 / 9.0, 7.0 / 9.0),
            4: (8.0 / (10.0 - sqrt(2.0)), (6.0 + sqrt(2.0)) / (10.0 - sqrt(2.0)))}
    for q, (w, mu) in want.items():
        rep = cjr_optimal(params_for_gamma(q, 1e-7))
        assert rep.omega == pytest.approx(w, abs=1e-12)
        assert rep.mu == pytest.approx(mu, abs=1e-10)


def test_cjr_optimal_gamma_10():
    rep = cjr_optimal(params_for_gamma(2, 10.0))
    assert rep.omega == pytest.approx(51.0 / 52.0)
    assert rep.mu == pytest.approx(sqrt(100.0 / (104.0 * 101.0)))
    # independent numerical confirmation
    samp = sampled_optimal("cjr", params_for_gamma(2, 10.0))
    assert samp.mu == pytest.approx(rep.mu, abs=1e-3)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_cjr_optimal_branch_continuity_at_sqrt6(q):
    # the branches meet at gamma^2 = 4/tau_min - 2: sqrt(6) for q=2, sqrt(14) for q=3
    tau_min = RANGES[("jacobi", q)][0]
    g2 = 4.0 / tau_min - 2.0
    omega = 2.0 / (tau_min + 2.0)  # 4/5 for q=2
    mu = sqrt(g2 / ((4.0 + g2) * (1.0 + g2)))  # sqrt(3/35) for q=2
    rep = cjr_optimal(params_for_gamma(q, sqrt(g2)))
    assert rep.omega == pytest.approx(omega)
    assert rep.mu == pytest.approx(mu)
    for side in (1.0 - 1e-9, 1.0 + 1e-9):  # the fixed branch, then the gamma branch
        near = cjr_optimal(params_for_gamma(q, sqrt(g2) * side))
        assert near.omega == pytest.approx(omega, abs=1e-8)
        assert near.mu == pytest.approx(mu, abs=1e-8)
    # 3% away, the branch taken is the one whose omega gives the smaller sampled mu
    for side in (0.97, 1.03):
        p = params_for_gamma(q, sqrt(g2 * side))
        omega0 = (2.0 + g2 * side) / (4.0 + g2 * side)
        best = min(smoothing_factor_sampled("cjr", p, w).mu for w in (omega, omega0))
        assert cjr_optimal(p).mu == pytest.approx(best, rel=1e-9)


def test_psi_at_omega0_identity():
    for g in (0.1, 1.0, 3.0, 17.5, 400.0):
        g2 = g * g
        omega0 = (2.0 + g2) / (4.0 + g2)
        want = g2 / ((4.0 + g2) * (1.0 + g2))
        assert psi(omega0, g) == pytest.approx(want, rel=1e-12)


def cjr_eigs_analytic(tau, gamma: float):
    """(tau +- i gamma)/(1 +- i gamma), the collective-Jacobi symbol eigenvalues."""
    ig = 1j * gamma
    return (tau + ig) / (1.0 + ig), (tau - ig) / (1.0 - ig)


def test_generic_eigs_match_analytic_cjr():
    alpha, h = 1e-4, 1.0 / 32
    gamma = h * h / (4 * sqrt(alpha))
    t1, t2 = high_freq_grid(2)
    g1, g2 = relax_eigs("cjr", t1, t2, alpha, h)
    tau = symbol_laplacian(t1, t2, h) * h * h / 4.0
    a1, a2 = cjr_eigs_analytic(tau, gamma)
    direct = np.maximum(np.abs(g1 - a1), np.abs(g2 - a2))
    swapped = np.maximum(np.abs(g1 - a2), np.abs(g2 - a1))
    gap = np.minimum(direct, swapped)
    # at tau = 1 the symbol has a double eigenvalue and the sqrt in the
    # quadratic formula can only deliver ~sqrt(eps); full accuracy away from it
    near_double = np.abs(tau - 1.0) < 1e-3
    assert np.max(gap[~near_double]) < 1e-10
    assert np.max(gap) < 5e-8


@pytest.mark.parametrize("q,gamma", [(2, 0.5), (3, 2.0), (4, 40.0), (2, 300.0)])
def test_closed_vs_sampled_spot(q, gamma):
    p = params_for_gamma(q, gamma)
    closed = cjr_optimal(p)
    samp = sampled_optimal("cjr", p)
    assert samp.mu == pytest.approx(closed.mu, abs=2e-3)
    assert samp.omega == pytest.approx(closed.omega, abs=5e-3)


# ---------------------------------------------------------------- BSR facts

def test_bsr_damping_constants():
    w2, mu2 = bsr_damping(2)
    assert (w2, mu2) == (pytest.approx(0.75), pytest.approx(1.0 / 3.0))
    w3, mu3 = bsr_damping(3)
    assert w3 == pytest.approx(36.0 / 47.0)
    assert mu3 == pytest.approx(17.0 / 47.0)
    w4, mu4 = bsr_damping(4)
    assert w4 == pytest.approx(0.86716, abs=1e-5)
    assert mu4 == pytest.approx(0.54163, abs=1e-5)
    with pytest.raises(ValueError):
        bsr_damping(7)


def test_closed_form_maps_each_scheme_to_its_damping_rule():
    p = LfaParams(q=3, alpha=1e-6, h=1.0 / 81)
    assert closed_form("cjr", p) == cjr_optimal(p)
    omega, mu = bsr_damping(3)
    for scheme in ("bsr", "ibsr"):
        assert closed_form(scheme, p) == LfaReport(mu=mu, omega=omega, theta=None)
    with pytest.raises(ValueError, match="scheme"):
        closed_form("sor", p)


@pytest.mark.parametrize("scheme", ["cjr", "bsr"])
def test_sampled_mu_is_finite_where_one_over_alpha_nears_overflow(scheme):
    # 2 (a1 a + 1/alpha) overflowed in the cjr trace, and the bsr trace
    # summed 1/alpha twice: mu was nan
    params = LfaParams(q=2, alpha=1e-308, h=0.5)
    lam = relax_eigs(scheme, *high_freq_grid(2), params.alpha, params.h)
    assert all(np.isfinite(part).all() for part in lam)
    rep = sampled_optimal(scheme, params)
    assert np.isfinite(rep.mu) and rep.mu < 1.0


def lambda2_bsr(theta: tuple[float, float], params: LfaParams) -> float:
    """The non-unit eigenvalue (1 + alpha a^2)/(1 + alpha a b); lambda1 = 1."""
    a = symbol_laplacian(theta[0], theta[1], params.h)
    b = 1.0 / symbol_mass(theta[0], theta[1], params.h)
    return float((1.0 + params.alpha * a * a) / (1.0 + params.alpha * a * b))


def test_lambda2_limits():
    p_big = LfaParams(q=2, alpha=1e12, h=1.0)
    theta = (2.0, 0.7)
    a = symbol_laplacian(*theta, 1.0)
    b = 1.0 / symbol_mass(*theta, 1.0)
    assert lambda2_bsr(theta, p_big) == pytest.approx(a / b, rel=1e-9)
    p_small = LfaParams(q=2, alpha=1e-18, h=1.0)
    assert lambda2_bsr(theta, p_small) == pytest.approx(1.0, rel=1e-9)


def test_lambda2_q2_sweep_strictly_inside():
    p = LfaParams(q=2, alpha=1e-6, h=1.0 / 64)
    t1, t2 = high_freq_grid(2)
    a = symbol_laplacian(t1, t2, p.h)
    b = 1.0 / symbol_mass(t1, t2, p.h)
    lam2 = (1.0 + p.alpha * a * a) / (1.0 + p.alpha * a * b)
    assert np.all(lam2 > 8.0 / 9.0)
    assert np.all(lam2 < 16.0 / 9.0)


@pytest.mark.parametrize("q,alpha,h", [(2, 1e-6, 1 / 64), (3, 1e-8, 1 / 81), (4, 1e-4, 1 / 16)])
def test_bsr_sampled_below_bound(q, alpha, h):
    omega, bound = bsr_damping(q)
    rep = smoothing_factor_sampled("bsr", LfaParams(q=q, alpha=alpha, h=h), omega)
    assert rep.mu <= bound + 1e-3


# ---------------------------------------------------------------- scalar ranges

RANGES = {
    ("jacobi", 2): (0.5, 2.0),
    ("jacobi", 3): (0.25, 2.0),
    ("jacobi", 4): ((2.0 - sqrt(2.0)) / 4.0, 2.0),
    ("mass", 2): (8.0 / 9.0, 16.0 / 9.0),
    ("mass", 3): (5.0 / 6.0, 16.0 / 9.0),
    ("mass", 4): ((3.0 - sqrt(2.0)) / 3.0, 16.0 / 9.0),
}


@pytest.mark.parametrize("kind,q", list(RANGES))
def test_scalar_ranges(kind, q):
    lo, hi = scalar_range_check(kind, q)
    want_lo, want_hi = RANGES[(kind, q)]
    assert lo == pytest.approx(want_lo, abs=1e-3)
    assert hi == pytest.approx(want_hi, abs=1e-3)
    if kind == "mass":  # bsr_damping is the two-endpoint rule on the sampled range
        assert bsr_damping(q) == pytest.approx((2.0 / (lo + hi), (hi - lo) / (hi + lo)),
                                               abs=1e-3)

"""Local Fourier analysis for the saddle-point relaxation schemes.

All analysis happens on the 2x2 matrix symbols of the block operators.
With a = (4 - 2cos t1 - 2cos t2)/h^2 the Laplacian symbol, a1 = 4/h^2 its
diagonal, and b = 1/Q~ the inverse-mass symbol, the operator and smoother
symbols are

    A~   = [[a,  -1/alpha], [1, a ]]
    B~_J = [[a1, -1/alpha], [1, a1]]      (collective Jacobi)
    B~_m = [[b,  -1/alpha], [1, a ]]      (mass-based Braess-Sarazin)

and the relaxation error symbol is S~ = I - omega B~^{-1} A~.  The
smoothing factor mu is the maximum spectral radius of S~ over the high
frequencies, those in (-pi/2, 3pi/2]^2 that the q-times-coarser grid
cannot represent (complement of the low box (-pi/q, pi/q]^2).

Everything reduces to scalar facts about two ratios:

  * collective Jacobi: the eigenvalues of B~_J^{-1} A~ are
    (tau +- i gamma)/(1 +- i gamma) with tau = a/a1 and the single
    parameter gamma = h^2 / (4 sqrt(alpha)).  tau spans [1/2, 2],
    [1/4, 2], [(2-sqrt2)/4, 2] for q = 2, 3, 4, and the optimal damped
    factor has a closed form in gamma (see cjr_optimal).
  * Braess-Sarazin: B~_m^{-1} A~ is triangular with eigenvalues 1 and
    (1 + alpha a^2)/(1 + alpha a b); the latter lies between 1 and a/b,
    and a/b spans [8/9, 16/9], [5/6, 16/9], [(3-sqrt2)/3, 16/9], so a
    single q-dependent damping (bsr_damping) bounds mu independently of
    alpha and h.

The sampled path recomputes everything numerically from the symbols with
a generic trace/determinant 2x2 eigenvalue formula and a golden-section
search in omega, providing an independent check of the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .grid import check_alpha, check_q

SCHEMES = ("cjr", "bsr")

# per-q constants: tau-interval left endpoints and the gamma^2 value where
# the gamma-dependent optimum takes over from the fixed two-point balance
_TAU_MIN = {2: 0.5, 3: 0.25, 4: (2.0 - sqrt(2.0)) / 4.0}
_GAMMA2_SWITCH = {2: 6.0, 3: 14.0, 4: (12.0 + 2.0 * sqrt(2.0)) / (2.0 - sqrt(2.0))}


@dataclass(frozen=True)
class LfaParams:
    q: int
    alpha: float
    h: float

    def __post_init__(self):
        check_q(self.q)
        check_alpha(self.alpha)
        if not (self.h > 0 and isfinite(self.gamma * self.gamma)):
            raise ValueError(f"h must be positive with a finite gamma^2, got h={self.h}")

    @property
    def gamma(self) -> float:
        return self.h * self.h / (4.0 * sqrt(self.alpha))


@dataclass(frozen=True)
class LfaReport:
    mu: float
    omega: float
    theta: tuple[float, float] | None  # maximizing frequency; None for a bound


def symbol_laplacian(theta1, theta2, h: float):
    """a = (4 - 2cos t1 - 2cos t2)/h^2."""
    return (4.0 - 2.0 * np.cos(theta1) - 2.0 * np.cos(theta2)) / (h * h)


def symbol_mass(theta1, theta2, h: float):
    """Q~ = (h^2/9)(4 + 2cos t1 + 2cos t2 + cos t1 cos t2), positive for all t."""
    c1, c2 = np.cos(theta1), np.cos(theta2)
    val = (h * h / 9.0) * (4.0 + 2.0 * c1 + 2.0 * c2 + c1 * c2)
    assert np.all(val >= h * h / 9.0 - 1e-12), "mass symbol dipped below its minimum"
    return val


def high_freq_grid(q: int, samples_per_axis: int = 256):
    """Sampled high-frequency set T^H_q as two flat angle arrays.

    Uniform samples of (-pi/2, 3pi/2]^2 minus the low box (-pi/q, pi/q]^2,
    with extremal angles forced into the 1D sample line so the analytic
    extrema of the symbol ratios are hit exactly.  Note the closed corner
    of the low box swallows points like (pi/2, 0) for q=2; their
    high-frequency aliases (3pi/2 and negative angles) carry the same
    cosines, hence the forced negatives.
    """
    check_q(q)
    lo, hi = -np.pi / 2.0, 3.0 * np.pi / 2.0
    t = lo + np.arange(1, samples_per_axis + 1) * (hi - lo) / samples_per_axis
    forced = np.array([-np.pi / q, -np.pi / 4.0, 0.0, np.pi / 4.0,
                       np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0])
    forced = forced[(forced > lo) & (forced <= hi)]
    t = np.unique(np.concatenate([t, forced]))
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    t1, t2 = T1.ravel(), T2.ravel()
    in_box = lambda x: (x > -np.pi / q) & (x <= np.pi / q)
    keep = ~(in_box(t1) & in_box(t2))
    return t1[keep], t2[keep]


def _eig2(half, disc):
    """half +- sqrt(disc): a 2x2 matrix's eigenvalues from its half-trace and
    disc = half^2 - det, formed without the cancellation of half^2 - det."""
    root = np.sqrt(np.asarray(disc, dtype=complex))
    return half + root, half - root


def relax_eigs(scheme: str, t1, t2, alpha: float, h: float):
    """Eigenvalues of B~^{-1} A~ at the given angles (complex arrays)."""
    a = symbol_laplacian(t1, t2, h)
    ia = 1.0 / alpha
    if scheme == "cjr":
        a1 = 4.0 / (h * h)
        det_b = a1 * a1 + ia
        half = (a1 * a + ia) / det_b
        disc = -ia * ((a1 - a) / det_b) ** 2  # = half^2 - (a^2 + 1/alpha)/det_b
    elif scheme == "bsr":
        b = 1.0 / symbol_mass(t1, t2, h)
        det = (a * a + ia) / (a * b + ia)
        half = (1.0 + det) / 2.0  # triangular: the eigenvalues are 1 and det
        disc = ((1.0 - det) / 2.0) ** 2
    else:
        raise ValueError(f"unknown scheme {scheme!r} (LFA covers {SCHEMES})")
    return _eig2(half, disc)


def cjr_eigs_analytic(tau, gamma: float):
    """(tau +- i gamma)/(1 +- i gamma), the collective-Jacobi symbol eigenvalues."""
    ig = 1j * gamma
    return (tau + ig) / (1.0 + ig), (tau - ig) / (1.0 - ig)


class _SampledSymbol:
    """Precomputed eigenvalues over a sampled high-frequency set.

    The relaxation eigenvalues do not depend on omega, so the omega search
    only re-evaluates max |1 - omega*lambda| over two cached arrays.
    """

    def __init__(self, scheme: str, params: LfaParams):
        self.scheme = scheme
        self.params = params
        self.t1, self.t2 = high_freq_grid(params.q)
        self.lam1, self.lam2 = relax_eigs(scheme, self.t1, self.t2,
                                          params.alpha, params.h)

    def mu(self, omega: float) -> tuple[float, tuple[float, float]]:
        m1 = np.abs(1.0 - omega * self.lam1)
        m2 = np.abs(1.0 - omega * self.lam2)
        k1, k2 = np.argmax(m1), np.argmax(m2)
        if m1[k1] >= m2[k2]:
            k, val = k1, m1[k1]
        else:
            k, val = k2, m2[k2]
        return float(val), (float(self.t1[k]), float(self.t2[k]))


def smoothing_factor_sampled(scheme: str, params: LfaParams, omega: float) -> LfaReport:
    """max over sampled high frequencies of the spectral radius of S~."""
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    mu, theta = _SampledSymbol(scheme, params).mu(omega)
    return LfaReport(mu=mu, omega=omega, theta=theta)


def sampled_optimal(scheme: str, params: LfaParams) -> LfaReport:
    """Golden-section minimizer of the sampled mu over omega in [0.1, 1.5].

    mu(omega) is a max of |1 - omega*lambda| terms, each convex in omega,
    so the objective is convex; the search stops at a bracket of 1e-4.
    """
    sym = _SampledSymbol(scheme, params)
    inv_phi = (sqrt(5.0) - 1.0) / 2.0
    a, b = 0.1, 1.5
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = sym.mu(c)[0], sym.mu(d)[0]
    while b - a > 1e-4:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = sym.mu(c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = sym.mu(d)[0]
    omega = 0.5 * (a + b)
    mu, theta = sym.mu(omega)
    return LfaReport(mu=mu, omega=omega, theta=theta)


def psi(omega: float, gamma: float) -> float:
    """Damped collective-Jacobi factor squared at the tau = 2 endpoint.

    psi(omega) = ((4+g^2) w^2 - (4+2g^2) w + 1 + g^2) / (1+g^2); for the
    balancing omega of each q the tau-interval endpoints give the same
    value, so sqrt(psi) is the smoothing factor below the gamma switch.
    """
    g2 = gamma * gamma
    return ((4.0 + g2) * omega * omega - (4.0 + 2.0 * g2) * omega + 1.0 + g2) / (1.0 + g2)


def cjr_optimal(params: LfaParams) -> LfaReport:
    """Closed-form optimal damping and smoothing factor for collective Jacobi.

    Two regimes in gamma = h^2/(4 sqrt(alpha)):

      * gamma^2 <= switch(q): omega = 2/(tau_min + 2) balances the real
        tau-interval endpoints; mu = sqrt(psi(omega)).
      * gamma^2 >  switch(q): the rotation part dominates; omega0 =
        (2+g^2)/(4+g^2) and mu = sqrt(g^2 / ((4+g^2)(1+g^2))).

    The switch values 6, 14, (12+2sqrt2)/(2-sqrt2) are where the two
    branches coincide.  The maximizing frequency is (pi, pi) (tau = 2) in
    both regimes.
    """
    g2 = params.gamma ** 2
    if g2 > _GAMMA2_SWITCH[params.q]:
        omega = (2.0 + g2) / (4.0 + g2)
        mu = sqrt(g2 / ((4.0 + g2) * (1.0 + g2)))
    else:
        omega = 2.0 / (_TAU_MIN[params.q] + 2.0)
        mu = sqrt(psi(omega, params.gamma))
    return LfaReport(mu=mu, omega=omega, theta=(np.pi, np.pi))


def bsr_damping(q: int) -> tuple[float, float]:
    """Fixed damping and smoothing-factor bound for mass-based Braess-Sarazin.

    omega = 2/(m + M) for the a/b-interval [m, M] of the given q; the
    bound (M - m)/(M + m) holds for every alpha and h.
    """
    check_q(q)
    if q == 2:
        return 3.0 / 4.0, 1.0 / 3.0
    if q == 3:
        return 36.0 / 47.0, 17.0 / 47.0
    return 18.0 / (25.0 - 3.0 * sqrt(2.0)), (7.0 + 3.0 * sqrt(2.0)) / (25.0 - 3.0 * sqrt(2.0))


def closed_form(scheme: str, params: LfaParams) -> LfaReport:
    """The one map from a scheme to its closed-form damping and smoothing factor.

    cjr_optimal for cjr; the per-q bsr_damping bound for bsr and ibsr (theta None).
    """
    if scheme == "cjr":
        return cjr_optimal(params)
    if scheme in ("bsr", "ibsr"):
        omega, mu = bsr_damping(params.q)
        return LfaReport(mu=mu, omega=omega, theta=None)
    raise ValueError(f"unknown scheme {scheme!r} (closed forms cover cjr, bsr, ibsr)")


def lambda2_bsr(theta: tuple[float, float], params: LfaParams) -> float:
    """The non-unit eigenvalue (1 + alpha a^2)/(1 + alpha a b); lambda1 = 1."""
    a = symbol_laplacian(theta[0], theta[1], params.h)
    b = 1.0 / symbol_mass(theta[0], theta[1], params.h)
    return float((1.0 + params.alpha * a * a) / (1.0 + params.alpha * a * b))


def scalar_range_check(kind: str, q: int) -> tuple[float, float]:
    """Sampled (min, max) of a/a1 (kind 'jacobi') or a/b (kind 'mass') over T^H_q."""
    t1, t2 = high_freq_grid(q)
    a = symbol_laplacian(t1, t2, 1.0)
    if kind == "jacobi":
        ratio = a / 4.0
    elif kind == "mass":
        ratio = a * symbol_mass(t1, t2, 1.0)
    else:
        raise ValueError(f"kind must be 'jacobi' or 'mass', got {kind!r}")
    return float(np.min(ratio)), float(np.max(ratio))

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

# per-q left ends of the high-frequency ranges a/a1 in [tau_q, 2] and
# a/b in [m_q, 16/9]; every closed-form constant is derived from them
_TAU_MIN = {2: 0.5, 3: 0.25, 4: (2.0 - sqrt(2.0)) / 4.0}
_MASS_MIN = {2: 8.0 / 9.0, 3: 5.0 / 6.0, 4: (3.0 - sqrt(2.0)) / 3.0}
SAMPLES_PER_AXIS = 256  # uniform angles per axis of the sampled high-frequency set


@dataclass(frozen=True)
class LfaParams:
    q: int
    alpha: float
    h: float

    def __post_init__(self):
        check_q(self.q)
        check_alpha(self.alpha)
        h = self.h  # the largest symbol term is a b <= 72/h^4, plus 1/alpha
        if not (h > 0 and isfinite(self.gamma * self.gamma)
                and isfinite(72.0 / h / h / h / h + 1.0 / self.alpha)):
            raise ValueError(f"h must be positive with finite gamma^2 and symbols, got h={h}")

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
    """Q~ = (h^2/9)(4 + 2cos t1 + 2cos t2 + cos t1 cos t2) = (h^2/9)(2 + cos t1)(2 + cos t2),
    so Q~ >= h^2/9 for all t."""
    c1, c2 = np.cos(theta1), np.cos(theta2)
    return (h * h / 9.0) * (4.0 + 2.0 * c1 + 2.0 * c2 + c1 * c2)


def high_freq_grid(q: int):
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
    t = lo + np.arange(1, SAMPLES_PER_AXIS + 1) * (hi - lo) / SAMPLES_PER_AXIS
    forced = np.array([-np.pi / q, -np.pi / 4.0, 0.0, np.pi / 4.0,
                       np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0])
    forced = forced[(forced > lo) & (forced <= hi)]
    t = np.unique(np.concatenate([t, forced]))
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    t1, t2 = T1.ravel(), T2.ravel()
    in_box = lambda x: (x > -np.pi / q) & (x <= np.pi / q)
    keep = ~(in_box(t1) & in_box(t2))
    return t1[keep], t2[keep]


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
    # half +- sqrt(disc), with disc = half^2 - det formed without that cancellation
    root = np.sqrt(np.asarray(disc, dtype=complex))
    return half + root, half - root


def sampled_optimal(scheme: str, params: LfaParams) -> LfaReport:
    """Golden-section minimizer of the sampled mu over omega in [0.1, 1.5].

    mu(omega) is a max of |1 - omega*lambda| terms, each convex in omega,
    so the objective is convex; the search stops at a bracket of 1e-4.
    Both eigenvalue branches, which do not depend on omega, form one array.
    """
    t1, t2 = high_freq_grid(params.q)
    lam = np.concatenate(relax_eigs(scheme, t1, t2, params.alpha, params.h))
    dev = lambda omega: np.abs(1.0 - omega * lam)
    inv_phi = (sqrt(5.0) - 1.0) / 2.0
    a, b = 0.1, 1.5
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = dev(c).max(), dev(d).max()
    while b - a > 1e-4:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = dev(c).max()
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = dev(d).max()
    omega = 0.5 * (a + b)
    m = dev(omega)
    k = np.argmax(m) % t1.size  # the first maximum: on a tie, the first branch's
    return LfaReport(mu=float(m.max()), omega=omega, theta=(float(t1[k]), float(t2[k])))


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

    The branches coincide at switch(q) = 4/tau_min - 2 (6, 14, 25.31...),
    where omega0 = 2/(tau_min + 2).  The maximizing frequency is (pi, pi)
    (tau = 2) in both regimes.
    """
    g2, tau_min = params.gamma ** 2, _TAU_MIN[params.q]
    if g2 > 4.0 / tau_min - 2.0:
        omega = (2.0 + g2) / (4.0 + g2)
        mu = sqrt(g2 / ((4.0 + g2) * (1.0 + g2)))
    else:
        omega = 2.0 / (tau_min + 2.0)
        mu = sqrt(psi(omega, params.gamma))
    return LfaReport(mu=mu, omega=omega, theta=(np.pi, np.pi))


def bsr_damping(q: int) -> tuple[float, float]:
    """Fixed damping and smoothing-factor bound for mass-based Braess-Sarazin.

    omega = 2/(m + M) on the a/b-interval [m, M] of q (cjr_optimal's rule);
    the bound (M - m)/(M + m) holds for every alpha and h.
    """
    check_q(q)
    lo, hi = _MASS_MIN[q], 16.0 / 9.0
    return 2.0 / (lo + hi), (hi - lo) / (hi + lo)


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

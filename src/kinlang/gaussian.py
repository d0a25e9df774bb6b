"""Exact solution engine for linear (quadratic-potential) kinetic Langevin.

With V(q) = 1/2 q'Aq and constant friction matrix G, phase-space state
x = (q, p) follows the linear SDE

    dx = F x dt + sigma dW,   F = [[0, I], [-A, -G]],  sigma = [[0, 0], [0, sqrt(2G)]]

whose law stays Gaussian.  This module propagates Gaussian moments exactly,
evaluates the chi-square divergence to the Gibbs target in closed form, and
extracts/asserts the asymptotic decay rates -- the ground truth everything
else (simulation, certificates, Lyapunov audits) is judged against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientData,
    NonPositiveValues,
    NotPositiveDefinite,
    UnsupportedFriction,
)
from .friction import FrictionSpec
from .linalg import check_spd, check_symmetric, expm, spd_sqrt

__all__ = [
    "GaussianMoments",
    "LinearDynamics",
    "kinetic_dynamics",
    "propagate",
    "stationary_moments",
    "gaussian_chi2",
    "log_chi2_plus_one",
    "fit_decay_rate",
    "ou_rate_closed_form",
    "diagonal_system_rate",
]


@dataclass(frozen=True)
class GaussianMoments:
    """Mean (2d,) and covariance (2d, 2d) of a phase-space Gaussian,
    q-block first then p-block."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = check_symmetric(self.cov, "cov")
        if cov.shape[0] != mean.size:
            raise ValueError(
                f"mean has size {mean.size} but cov is {cov.shape}"
            )
        w = np.linalg.eigvalsh(cov)
        if w.size and w[0] < -1e-10 * max(1.0, abs(w[-1])):
            raise NotPositiveDefinite(
                f"covariance has eigenvalue {w[0]:.6e} < 0 beyond tolerance"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        """Position-space dimension d (phase space is 2d)."""
        return self.mean.size // 2


@dataclass(frozen=True)
class LinearDynamics:
    """Kinetic drift/noise pair; build via kinetic_dynamics()."""

    a: np.ndarray        # Hessian of the quadratic potential, SPD (d, d)
    gamma_mat: np.ndarray  # friction matrix, SPD (d, d)
    drift: np.ndarray    # F = [[0, I], [-A, -G]], (2d, 2d)
    noise: np.ndarray    # sigma = [[0, 0], [0, sqrt(2G)]], (2d, 2d)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def kinetic_dynamics(a, gamma_mat) -> LinearDynamics:
    """Assemble the phase-space drift and noise for Hessian a and friction
    gamma_mat (both SPD d x d)."""
    a = check_symmetric(a, "a")
    gamma_mat = check_symmetric(gamma_mat, "gamma_mat")
    root_2g = spd_sqrt(2.0 * gamma_mat)
    check_spd(np.linalg.eigvalsh(a), "a")
    d = a.shape[0]
    drift = np.zeros((2 * d, 2 * d))
    drift[:d, d:] = np.eye(d)
    drift[d:, :d] = -a
    drift[d:, d:] = -gamma_mat
    noise = np.zeros((2 * d, 2 * d))
    noise[d:, d:] = root_2g
    return LinearDynamics(a=a, gamma_mat=gamma_mat, drift=drift, noise=noise)


#: the augmented exponential carries entries ~ e^{nu t} (nu the spectral
#: abscissa of -F) against e^{-alpha_min t} from e^{Ft}; their product cancels
#: to O(1) analytically but loses ~ eps * e^{(nu - alpha_min) t} in floating
#: point, so beyond this exponent propagation switches to the algebraically
#: equivalent stationary-anchored form (stable for all large t)
_VAN_LOAN_MAX_SPREAD = 12.0


def _noise_covariance_van_loan(dyn: LinearDynamics, t) -> np.ndarray:
    """integral of e^{F(t-s)} sigma sigma' e^{F'(t-s)} ds over [0, t], via the
    exponential of the augmented matrix [[F, sigma sigma'], [0, -F']]; a
    1-d array of times gives the (K, n, n) stack."""
    n = dyn.drift.shape[0]
    q = dyn.noise @ dyn.noise.T
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = dyn.drift
    aug[:n, n:] = q
    aug[n:, n:] = -dyn.drift.T
    e = expm(aug, t)
    m11 = e[..., :n, :n]
    m12 = e[..., :n, n:]
    g = m12 @ m11.swapaxes(-1, -2)
    return 0.5 * (g + g.swapaxes(-1, -2))


def propagate(dyn: LinearDynamics, init: GaussianMoments, t):
    """Exact moments at time t >= 0 from a Gaussian initial condition.

    mean(t) = e^{Ft} mean(0);
    cov(t)  = e^{Ft} cov(0) e^{F't} + integral_0^t e^{F(t-s)} sigma sigma' e^{F'(t-s)} ds,

    the integral evaluated through the augmented-matrix exponential.  When
    the decay-rate spread times t is large enough that the augmented route
    would cancel catastrophically, the integral is replaced by the
    equivalent stationary-anchored form cov_inf - e^{Ft} cov_inf e^{F't}.

    t is a float, giving one GaussianMoments, or a 1-d array of times,
    giving a list of them in the same order.  Every time is evaluated
    directly (nothing is accumulated along the grid), and entry k is
    bitwise the result for the float ``t[k]``: a float goes through the same
    stacked exponentials with one time.  t = 0 returns ``init`` itself.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(
            f"t must be a float or a 1-d array, got shape {times.shape}")
    scalar = times.ndim == 0
    times = times.reshape(-1)
    if not np.all(times >= 0):
        raise ValueError(f"t must be >= 0, got {t}")
    out = [init] * times.size
    moving = np.flatnonzero(times > 0)
    if moving.size:
        tk = times[moving]
        eft = expm(dyn.drift, tk)
        mean = eft @ init.mean
        decay = -np.real(np.linalg.eigvals(dyn.drift))
        spread = float(decay.max() - decay.min())
        van_loan = spread * tk <= _VAN_LOAN_MAX_SPREAD
        g = np.empty_like(eft)
        if np.any(van_loan):
            g[van_loan] = _noise_covariance_van_loan(dyn, tk[van_loan])
        if not np.all(van_loan):
            cov_inf = stationary_moments(dyn).cov
            far = eft[~van_loan]
            g[~van_loan] = cov_inf - far @ cov_inf @ far.swapaxes(-1, -2)
        cov = eft @ init.cov @ eft.swapaxes(-1, -2) + g
        cov = 0.5 * (cov + cov.swapaxes(-1, -2))
        for k, i in enumerate(moving.tolist()):
            out[i] = GaussianMoments(mean=mean[k], cov=cov[k])
    return out[0] if scalar else out


def stationary_moments(dyn: LinearDynamics) -> GaussianMoments:
    """Gibbs moments of the quadratic system: mean 0, cov blockdiag(A^{-1}, I)."""
    d = dyn.dim
    check_spd(np.linalg.eigvalsh(dyn.a), "A", rtol=0.0)
    cov = np.zeros((2 * d, 2 * d))
    cov[:d, :d] = np.linalg.inv(dyn.a)
    cov[d:, d:] = np.eye(d)
    return GaussianMoments(mean=np.zeros(2 * d), cov=cov)


def _spd_logdet_inv(cov, name):
    """(inverse, logdet) of an SPD covariance, or NotPositiveDefinite."""
    check_spd(np.linalg.eigvalsh(cov), f"{name} covariance",
              rtol=1e-12, atol=1e-12)
    sign, logdet = np.linalg.slogdet(cov)
    return np.linalg.inv(cov), logdet


def _chi2_factors(rho: GaussianMoments, pi: GaussianMoments):
    """(A_rho, A_pi, M, log(chi2 + 1)) for rho against pi, shared by
    log_chi2_plus_one and the Lyapunov functional.

    Completing the square in the integral of rho^2/pi gives, with
    A_rho = cov_rho^{-1}, A_pi = cov_pi^{-1}, M = 2 A_rho - A_pi and
    b = 2 A_rho mu_rho - A_pi mu_pi,

        chi2 + 1 = det(cov_pi)^{1/2} det(cov_rho)^{-1} det(M)^{-1/2}
                   * exp(b'M^{-1}b/2 - mu_rho'A_rho mu_rho + mu_pi'A_pi mu_pi / 2)

    finite exactly when M is positive definite (integrability of rho^2/pi);
    otherwise the log is +inf.  Degenerate covariances raise
    NotPositiveDefinite.
    """
    a1, logdet1 = _spd_logdet_inv(rho.cov, "rho")
    a2, logdet2 = _spd_logdet_inv(pi.cov, "pi")
    m = 2.0 * a1 - a2
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    if w[0] <= 0:
        return a1, a2, m, math.inf
    sign_m, logdet_m = np.linalg.slogdet(m)
    b = 2.0 * a1 @ rho.mean - a2 @ pi.mean
    quad = 0.5 * b @ np.linalg.solve(m, b) \
        - rho.mean @ a1 @ rho.mean + 0.5 * pi.mean @ a2 @ pi.mean
    return a1, a2, m, float(0.5 * logdet2 - logdet1 - 0.5 * logdet_m + quad)


def log_chi2_plus_one(rho: GaussianMoments, pi: GaussianMoments) -> float:
    """log(chi2(rho || pi) + 1); +inf when the defining integral diverges."""
    return _chi2_factors(rho, pi)[3]


def _chi2_from_log(logval: float) -> float:
    """chi2 from log(chi2 + 1); +inf beyond e^700, where expm1 overflows."""
    return float(math.expm1(logval)) if logval < 700 else math.inf


def gaussian_chi2(rho: GaussianMoments, pi: GaussianMoments) -> float:
    """chi-square divergence between Gaussians, in closed form.

    Returns +inf (as a value, not an exception) when rho^2/pi is not
    integrable -- legitimate for aggressive initial conditions at early
    times; callers fitting decay curves should skip to the first finite
    value.  Degenerate covariances raise NotPositiveDefinite.
    """
    return _chi2_from_log(log_chi2_plus_one(rho, pi))


def fit_decay_rate(times, chi2_values, tail_fraction: float = 0.5) -> float:
    """Exponential decay rate from the tail of a chi2-vs-time curve.

    Least-squares slope of log(chi2) against t over the last tail_fraction
    of the samples, negated.  The tail restriction suppresses polynomial
    prefactors (their log contributes slope O(1/t)).

    Raises InsufficientData with fewer than 8 tail samples and
    NonPositiveValues if any chi2 is <= 0 or not finite.
    """
    times = np.asarray(times, dtype=float).ravel()
    vals = np.asarray(chi2_values, dtype=float).ravel()
    if times.shape != vals.shape:
        raise ValueError("times and chi2_values must have equal length")
    if not (0 < tail_fraction <= 1):
        raise ValueError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    n = times.size
    start = n - max(int(math.ceil(tail_fraction * n)), 0)
    t_tail = times[start:]
    v_tail = vals[start:]
    if t_tail.size < 8:
        raise InsufficientData(
            f"need >= 8 samples in the tail window, got {t_tail.size}"
        )
    if np.any(~np.isfinite(v_tail)) or np.any(v_tail <= 0):
        raise NonPositiveValues(
            "chi2 values must be finite and > 0 for a log-linear fit"
        )
    slope = np.polyfit(t_tail, np.log(v_tail), 1)[0]
    return float(-slope)


def ou_rate_closed_form(w: float, lam: float) -> float:
    """Exact chi2 decay rate of the 1d oscillator with constant friction lam.

    lam <= 2w (under/critically damped): rate lam;
    lam >  2w (overdamped):              rate lam - sqrt(lam^2 - 4 w^2).
    The maximum over lam is 2w, attained at critical damping lam = 2w.
    """
    if w <= 0 or lam <= 0:
        raise ValueError(f"need w > 0 and lam > 0, got w={w}, lam={lam}")
    if lam <= 2.0 * w:
        return float(lam)
    return float(lam - math.sqrt(lam * lam - 4.0 * w * w))


def diagonal_system_rate(v, spec: FrictionSpec) -> float:
    """chi2 rate of the diagonal quadratic system V = 1/2 sum v_i^2 q_i^2.

    The system splits into d independent 1d oscillators, and the joint rate
    is the minimum of the coordinate rates:

      * hessian_sqrt(s): coordinate friction s v_i, rate min_i
        ou_rate_closed_form(v_i, s v_i); for s = 2 every coordinate is
        critically damped and the rate is 2 min v_i
      * constant_scalar(lam): min_i ou_rate_closed_form(v_i, lam)

    Other friction kinds are not supported (no closed form).  Computed
    per-coordinate; correlated cross-coordinate initial covariances are
    outside the validated envelope.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(v <= 0):
        raise ValueError(f"frequencies must be > 0, got {v}")
    if spec.kind == "hessian_sqrt":
        return min(ou_rate_closed_form(vi, spec.s * vi) for vi in v)
    if spec.kind == "constant_scalar":
        return min(ou_rate_closed_form(vi, spec.lam) for vi in v)
    raise UnsupportedFriction(
        f"no closed-form diagonal rate for friction kind {spec.kind!r}"
    )

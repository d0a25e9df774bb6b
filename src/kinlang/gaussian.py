"""Exact solution engine for linear (quadratic-potential) kinetic Langevin.

With V(q) = 1/2 q'Aq and constant friction matrix G, phase-space state
x = (q, p) follows the linear SDE

    dx = F x dt + sigma dW,   F = [[0, I], [-A, -G]],  sigma = [[0, 0], [0, sqrt(2G)]]

whose law stays Gaussian and relaxes to the Gibbs law
N(0, blockdiag(A^{-1}, I)).  This module propagates Gaussian moments
exactly, evaluates the chi-square divergence to the Gibbs target in closed
form, and extracts/asserts the asymptotic decay rates -- the ground truth
everything else (simulation, certificates, Lyapunov audits) is judged
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientData,
    NonPositiveValues,
    NotPositiveDefinite,
    UnsupportedFriction,
)
from .friction import FrictionSpec
from .linalg import check_spd, check_symmetric, expm, from_eig

__all__ = [
    "GaussianMoments",
    "LinearDynamics",
    "kinetic_dynamics",
    "propagate",
    "stationary_moments",
    "gaussian_chi2",
    "fit_decay_rate",
    "ou_rate_closed_form",
    "diagonal_system_rate",
]


@dataclass(frozen=True)
class GaussianMoments:
    """Mean (2d,) and covariance (2d, 2d) of a phase-space Gaussian,
    q-block first then p-block.  ``eig`` is the covariance's one
    ``np.linalg.eigh`` (ascending w, v), taken at construction; the PSD
    slack rule, chi2, L and ensemble sampling all read it."""

    mean: np.ndarray
    cov: np.ndarray
    eig: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = check_symmetric(self.cov, "cov")
        if cov.shape[0] != mean.size:
            raise ValueError(
                f"mean has size {mean.size} but cov is {cov.shape}"
            )
        # LAPACK may give zeros, or fail, for a matrix with a NaN entry
        if not np.isfinite(cov).all():
            raise NotPositiveDefinite("covariance has a non-finite entry")
        w, v = np.linalg.eigh(cov)
        if w.size and not w[0] >= -1e-10 * max(1.0, abs(w[-1])):
            raise NotPositiveDefinite(
                f"covariance has eigenvalue {w[0]:.6e} < 0 beyond tolerance"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "eig", (w, v))

    @property
    def dim(self) -> int:
        """Position-space dimension d (phase space is 2d)."""
        return self.mean.size // 2


@dataclass(frozen=True)
class LinearDynamics:
    """Kinetic drift of the linear SDE and its Gibbs law; build via
    kinetic_dynamics(), which ties the noise to sqrt(2 gamma_mat) and builds
    the law once, so ``propagate``, chi2 and the Lyapunov audit read one
    factored target per dynamics."""

    a: np.ndarray        # Hessian of the quadratic potential, SPD (d, d)
    gamma_mat: np.ndarray  # friction matrix, SPD (d, d)
    drift: np.ndarray    # F = [[0, I], [-A, -G]], (2d, 2d)
    stationary: GaussianMoments  # Gibbs law N(0, blockdiag(A^{-1}, I))

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def kinetic_dynamics(a, gamma_mat) -> LinearDynamics:
    """Assemble the phase-space drift for Hessian a and friction gamma_mat
    (both SPD d x d) and its Gibbs law; the noise is sqrt(2 gamma_mat) on
    the momenta.  The one SPD rule on a and A^{-1} = u diag(1/w) u' read the
    same ``eigh`` of a."""
    a = check_symmetric(a, "a")
    gamma_mat = check_symmetric(gamma_mat, "gamma_mat")
    check_spd(np.linalg.eigvalsh(gamma_mat), "gamma_mat")
    w, u = np.linalg.eigh(a)
    check_spd(w, "a")
    d = a.shape[0]
    cov = np.zeros((2 * d, 2 * d))
    cov[:d, :d] = from_eig(u, 1.0 / w)
    cov[d:, d:] = np.eye(d)
    return LinearDynamics(
        a=a, gamma_mat=gamma_mat, drift=_drift(a, gamma_mat),
        stationary=GaussianMoments(mean=np.zeros(2 * d), cov=cov))


def _drift(a, g):
    """The kinetic drift F = [[0, I], [-a, -g]] for d x d blocks a and g,
    with no check on them."""
    d = a.shape[0]
    drift = np.zeros((2 * d, 2 * d))
    drift[:d, d:] = np.eye(d)
    drift[d:, :d] = -a
    drift[d:, d:] = -g
    return drift


def propagate(dyn: LinearDynamics, init: GaussianMoments, t):
    """Exact moments at time t >= 0 from a Gaussian initial condition.

    mean(t) = e^{Ft} mean(0);
    cov(t)  = e^{Ft} cov(0) e^{F't} + (C_inf - e^{Ft} C_inf e^{F't}),

    with C_inf = blockdiag(A^{-1}, I) the covariance of ``dyn.stationary``,
    which kinetic_dynamics built, so nothing here inverts A.  The
    bracket is the noise integral over [0, t] exactly: C_inf solves
    F C + C F' + sigma sigma' = 0 because kinetic_dynamics ties the noise to
    sigma sigma' = blockdiag(0, 2G), so d/ds (e^{Fs} C_inf e^{F's}) is
    -e^{Fs} sigma sigma' e^{F's}.  Its absolute error is about
    eps * ||C_inf|| at every t, and it keeps the relative digits of the
    distance from stationarity that chi2 reads at large t.  The trade is at
    small t: entries far below ||C_inf|| lose relative digits, e.g. the
    q-block of a point initial condition, about (2 lambda / 3) t^3 for
    friction lambda, is 1.7e-5 relative off at t = 1e-4 and 8e-12 at
    t = 1e-2 (about 2e-17 absolute).

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
        eft = expm(dyn.drift, times[moving])
        eft_t = eft.swapaxes(-1, -2)
        mean = eft @ init.mean
        cov_inf = dyn.stationary.cov
        cov = eft @ init.cov @ eft_t + (cov_inf - eft @ cov_inf @ eft_t)
        cov = 0.5 * (cov + cov.swapaxes(-1, -2))
        for k, i in enumerate(moving.tolist()):
            out[i] = GaussianMoments(mean=mean[k], cov=cov[k])
    return out[0] if scalar else out


def stationary_moments(dyn: LinearDynamics) -> GaussianMoments:
    """Gibbs moments of the quadratic system, mean 0 and cov
    blockdiag(A^{-1}, I): the law kinetic_dynamics built, ``dyn.stationary``."""
    return dyn.stationary


def _whitened(rho: GaussianMoments, pi: GaussianMoments):
    """(s, e, wu, chi2) of rho against pi, in pi's whitened frame.

    chi2 is invariant under affine maps, so it is read in the frame
    y = (W u)' (x - mu_pi), with W = cov_pi^{-1/2} and u the eigenvectors of
    W cov_rho W.  There pi = N(0, I) and rho = N(nu, diag(s)) with
    nu = (W u)' (mu_rho - mu_pi), and rho^2/pi factors over coordinates.
    With d = s - 1 and e = nu / (1 - d),

        log(chi2 + 1) = sum_i [nu_i e_i - log1p(-d_i^2) / 2],

    finite exactly when every s_i < 2; otherwise chi2 is +inf and e None.
    Each term is O(d^2 + nu^2) near the target, so nothing cancels.
    Degenerate covariances and roundoff s_i <= 0 raise NotPositiveDefinite.
    Both laws come with their ``eig``, so the one ``eigh`` here is
    W cov_rho W's, and the Gibbs law built once per dynamics is factored once.
    """
    check_spd(rho.eig[0], "rho covariance", rtol=1e-12, atol=1e-12)
    p, v = pi.eig
    check_spd(p, "pi covariance", rtol=1e-12, atol=1e-12)
    w = from_eig(v, 1.0 / np.sqrt(p))
    s, u = np.linalg.eigh(w @ rho.cov @ w)
    wu = w @ u
    if not s[-1] < 2.0:
        return s, None, wu, math.inf
    check_spd(s, "whitened rho covariance", rtol=0.0)
    d = s - 1.0
    nu = wu.T @ (rho.mean - pi.mean)
    e = nu / (1.0 - d)
    log_val = float(nu @ e - 0.5 * np.sum(np.log1p(-d * d)))
    # expm1 overflows beyond e^700
    return s, e, wu, math.expm1(log_val) if log_val < 700 else math.inf


def gaussian_chi2(rho: GaussianMoments, pi: GaussianMoments) -> float:
    """chi-square divergence between Gaussians, in closed form (``_whitened``).

    Returns +inf (as a value, not an exception) when rho^2/pi is not
    integrable -- legitimate for aggressive initial conditions at early
    times; callers fitting decay curves should skip to the first finite
    value.  Degenerate covariances raise NotPositiveDefinite.
    """
    return _whitened(rho, pi)[3]


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
    The maximum over lam is 2w, attained at critical damping lam = 2w.  The
    overdamped rate is evaluated as 4 w^2 / (lam + sqrt(lam^2 - 4 w^2)),
    which does not cancel for lam >> w.
    """
    if w <= 0 or lam <= 0:
        raise ValueError(f"need w > 0 and lam > 0, got w={w}, lam={lam}")
    if lam <= 2.0 * w:
        return float(lam)
    return float(4.0 * w * w / (lam + math.sqrt(lam * lam - 4.0 * w * w)))


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

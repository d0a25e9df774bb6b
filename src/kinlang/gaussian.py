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

When an eigenbasis of A diagonalizes G (scalar friction, s sqrt(A), or any
constant matrix that commutes with A), F splits into d 2 x 2 blocks and
e^{Ft} is taken in closed form per block, accurate to a few ulp from the
underdamped through the critical to the stiff overdamped regime (friction
1e150 included).  Other frictions take ``linalg.expm``, whose error grows
like eps ||F|| t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    InsufficientData,
    NonPositiveValues,
    NotPositiveDefinite,
    UnsupportedFriction,
)
from .friction import FrictionSpec
from .linalg import _check_finite, check_spd, check_symmetric, expm, from_eig

__all__ = [
    "GaussianMoments",
    "LinearDynamics",
    "kinetic_dynamics",
    "propagate",
    "stationary_moments",
    "gaussian_chi2",
    "chi2_along",
    "fit_decay_rate",
    "ou_rate_closed_form",
    "diagonal_system_rate",
]


@dataclass(frozen=True)
class GaussianMoments:
    """Mean (2d,) and covariance (2d, 2d) of a phase-space Gaussian,
    q-block first then p-block.  ``eig`` is the covariance's one
    ``np.linalg.eigh`` (ascending w, v), taken at construction; the PSD
    slack rule, ensemble sampling, and chi2 and L to this law all read it."""

    mean: np.ndarray
    cov: np.ndarray
    eig: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = check_symmetric(self.cov, "covariance")
        if cov.shape[0] != mean.size:
            raise ValueError(
                f"mean has size {mean.size} but cov is {cov.shape}"
            )
        # the slack rule, relative so that it reads no units: smallest
        # eigenvalue >= -1e-10 * |largest|.  A singular covariance is legal;
        # the zero covariance of a point law, all of whose eigenvalues are
        # 0, meets the rule with equality
        w, v = np.linalg.eigh(cov)
        if w.size and not w[0] >= -1e-10 * abs(w[-1]):
            raise NotPositiveDefinite(
                f"covariance has eigenvalue {w[0]:.6e} < 0 beyond tolerance")
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
    # (w, g, u) with A = u diag(w) u' and u' G u = diag(g), when an
    # eigenbasis of A diagonalizes G (kinetic_dynamics); else None
    modes: Optional[tuple] = None

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def kinetic_dynamics(a, gamma_mat) -> LinearDynamics:
    """Assemble the phase-space drift for Hessian a and friction gamma_mat
    (both SPD d x d) and its Gibbs law; the noise is sqrt(2 gamma_mat) on
    the momenta.  The one SPD rule on a, A^{-1} = u diag(1/w) u' and the
    modes read the same ``eigh`` of a.  The modes are recorded when u' G u
    is diagonal to 1e-12 max|G|: always for constant_scalar and
    hessian_sqrt frictions, and for a constant matrix that commutes with a.
    Any basis of a repeated eigenvalue's eigenspace is an eigenbasis of a,
    so within each run of equal eigenvalues w whose block of u' G u is not
    diagonal to that tolerance, u is first rotated by the block's ``eigh``;
    the pairs whose blocks are all diagonal keep the bits of no rotation."""
    a = check_symmetric(a, "a")
    gamma_mat = check_symmetric(gamma_mat, "gamma_mat")
    check_spd(np.linalg.eigvalsh(gamma_mat), "gamma_mat")
    w, u = np.linalg.eigh(a)
    check_spd(w, "a")
    d = a.shape[0]
    cov = np.zeros((2 * d, 2 * d))
    cov[:d, :d] = from_eig(u, 1.0 / w)
    cov[d:, d:] = np.eye(d)
    tol = 1e-12 * np.abs(gamma_mat).max()
    g = u.T @ gamma_mat @ u
    starts = np.flatnonzero(np.r_[True, w[1:] != w[:-1]]).tolist()
    for i, j in zip(starts, starts[1:] + [d]):
        block = g[i:j, i:j]
        if np.abs(block - np.diag(np.diagonal(block))).max() > tol:
            u[:, i:j] = u[:, i:j] @ np.linalg.eigh(block)[1]
            g = u.T @ gamma_mat @ u
    g_diag = np.diagonal(g).copy()
    commute = np.abs(g - np.diag(g_diag)).max() <= tol
    return LinearDynamics(
        a=a, gamma_mat=gamma_mat, drift=_drift(a, gamma_mat),
        stationary=GaussianMoments(mean=np.zeros(2 * d), cov=cov),
        modes=(w, g_diag, u) if commute else None)


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
    mean, cov = _moments(dyn, init, t)
    out = [GaussianMoments(mean=m, cov=c) if tk > 0 else init
           for tk, m, c in zip(np.ravel(t), mean, cov)]
    return out[0] if np.ndim(t) == 0 else out


def _moments(dyn, init, t):
    """``propagate``'s moments stacked: means (K, 2d) and covariances
    (K, 2d, 2d) at the K times of t (a float or a 1-d array), with no law
    built per time.  Rows at t = 0 are copies of init's.  e^{Ft} comes from
    the modes of ``dyn`` in closed form (``_modal_exp``) when it has them,
    else from one ``linalg.expm`` call, which loads SciPy; either way the
    whole grid is one stack and the covariance formula is the same."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(
            f"t must be a float or a 1-d array, got shape {times.shape}")
    times = times.reshape(-1)
    if not np.all(times >= 0):
        raise ValueError(f"t must be >= 0, got {t}")
    mean = np.repeat(init.mean[None], times.size, axis=0)
    cov = np.repeat(init.cov[None], times.size, axis=0)
    moving = np.flatnonzero(times > 0)
    if moving.size:
        eft = (expm(dyn.drift, times[moving]) if dyn.modes is None
               else _modal_exp(*dyn.modes, times[moving]))
        eft_t = eft.swapaxes(-1, -2)
        cov_inf = dyn.stationary.cov
        mean[moving] = eft @ init.mean
        c = eft @ init.cov @ eft_t + (cov_inf - eft @ cov_inf @ eft_t)
        cov[moving] = 0.5 * (c + c.swapaxes(-1, -2))
    return mean, cov


def _modal_exp(w, g, u, t):
    """e^{Ft} at each time of the 1-d array t > 0, shape (K, 2d, 2d), for
    F = [[0, I], [-A, -G]] with A = u diag(w) u' and G = u diag(g) u'.

    In the basis blockdiag(u, u), F splits into the d blocks
    B_i = [[0, 1], [-w_i, -g_i]], so e^{Ft}'s (j, k) block of d x d is
    u diag(m_jk(t)) u' with m_jk the entries of e^{B_i t} (``_block_exp``).
    """
    m = _block_exp(w, g, t[:, None])
    d = w.size
    out = np.empty((t.size, 2 * d, 2 * d))
    for (j, k), mjk in zip(((0, 0), (0, 1), (1, 0), (1, 1)), m):
        out[:, j * d:(j + 1) * d, k * d:(k + 1) * d] = from_eig(u, mjk)
    return out


#: Taylor coefficients of cosh(z) and sinh(z)/z in z^2, highest power first
#: for np.polyval: 1/(2n)! and 1/(2n+1)! for n = 11..0.  At |z^2| < 1 the
#: first omitted terms are below 1e-23.
_COSH = [1.0 / math.factorial(2 * n) for n in range(11, -1, -1)]
_SINHC = [1.0 / math.factorial(2 * n + 1) for n in range(11, -1, -1)]


def _block_exp(w, g, t):
    """(m11, m12, m21, m22), the entries of e^{Bt} for B = [[0, 1], [-w, -g]]
    with w, g > 0 and t > 0, broadcast elementwise.

    With h = g/2 and delta^2 = h^2 - w, (B + h I)^2 = delta^2 I, so

        e^{Bt} = e^{-ht} (cosh(delta t) I + sinh(delta t)/delta (B + h I)),

    an entire function of x = (delta t)^2, which decides the form:

      * |x| < 1 (near critical damping): cosh and sinh(z)/z as series in x,
        so no 1/delta appears;
      * x <= -1 (underdamped, omega = sqrt(-delta^2)): cos(omega t) and
        sin(omega t)/omega;
      * x >= 1 (overdamped): Sylvester's formula over the eigenvalues
        mu_fast = -(h + delta) and mu_slow = w / mu_fast (their product is
        w), so h - delta, which cancels for stiff friction, never appears:

            e^{Bt} = (e^{mu_slow t} [[-mu_fast, 1], [-w, mu_slow]]
                      - e^{mu_fast t} [[-mu_slow, 1], [-w, mu_fast]]) / r

        with r = 2 delta.  There r t >= 2, so in m11 and m12 the fast term
        is at most e^{-2} times the slow one; m22 changes sign once, and
        loses relative digits only near that time.

    m21 = -w m12 in every form.  mu_fast t, and h t in the e^{-ht} that the
    overdamped entries discard, may overflow; their exponentials are then 0.
    """
    w, g, t = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                    for x in (w, g, t)))
    h = 0.5 * g
    dd = h * h - w
    with np.errstate(over="ignore"):
        x = (dd * t) * t
        # cosh(delta t) and sinh(delta t)/delta, left 0 where overdamped
        c, sn = np.zeros(x.shape), np.zeros(x.shape)
        near = np.abs(x) < 1.0
        c[near] = np.polyval(_COSH, x[near])
        sn[near] = t[near] * np.polyval(_SINHC, x[near])
        under = x <= -1.0
        om = np.sqrt(-dd[under])
        c[under] = np.cos(om * t[under])
        sn[under] = np.sin(om * t[under]) / om
        decay = np.exp(-h * t)
        m11, m12, m22 = decay * (c + h * sn), decay * sn, decay * (c - h * sn)

        over = x >= 1.0
        to, delta = t[over], np.sqrt(dd[over])
        fast = -(h[over] + delta)
        slow = w[over] / fast
        es, ef = np.exp(slow * to), np.exp(fast * to)
        r = 2.0 * delta
        m11[over] = (-fast * es + slow * ef) / r
        m12[over] = (es - ef) / r
        m22[over] = (slow * es - fast * ef) / r
    return m11, m12, -w * m12, m22


def stationary_moments(dyn: LinearDynamics) -> GaussianMoments:
    """Gibbs moments of the quadratic system, mean 0 and cov
    blockdiag(A^{-1}, I): the law kinetic_dynamics built, ``dyn.stationary``."""
    return dyn.stationary


def _whitened(mean, cov, pi: GaussianMoments):
    """(s, e, wu, chi2) of each law rho = N(mean, cov) against pi, in pi's
    whitened frame: the one chi2 implementation, for one law (mean (2d,),
    cov (2d, 2d)) or a stack of K (mean (K, 2d), cov (K, 2d, 2d)).

    chi2 is invariant under affine maps, so it is read in the frame
    y = (W u)' (x - mu_pi), with W = cov_pi^{-1/2} and u the eigenvectors of
    W cov_rho W.  There pi = N(0, I) and rho = N(nu, diag(s)) with
    nu = (W u)' (mu_rho - mu_pi), and rho^2/pi factors over coordinates.
    With d = s - 1 and e = nu / (1 - d),

        log(chi2 + 1) = sum_i [nu_i e_i - log1p(-d_i^2) / 2],

    finite exactly when every s_i < 2; otherwise chi2 is +inf and e is not
    defined (it holds nu there).  Each term is O(d^2 + nu^2) near the
    target, so nothing cancels.

    The rules are ones no affine map of both laws changes: finite entries
    in cov, pi's covariance conditioned better than 1e-12 (``check_spd``
    with rtol=1e-12 on its ``eig``), and, where chi2 is finite, diag(s)
    conditioned better than 1e-12 too, so a degenerate rho, or roundoff
    s_i <= 0, raises NotPositiveDefinite rather than giving NaN.  A failing
    law of a stack is named by its index.  The one ``eigh`` is W cov_rho
    W's, batched over the stack; each law gets the bits it gets alone.
    """
    _check_finite(cov, "covariance")
    p, v = pi.eig
    check_spd(p, "pi covariance", rtol=1e-12)
    w = from_eig(v, 1.0 / np.sqrt(p))
    s, u = np.linalg.eigh(w @ cov @ w)
    wu = w @ u
    finite = s[..., -1] < 2.0
    # the rule on the whitened spectrum holds where rho^2/pi is integrable;
    # d = 0 on the other laws keeps their (discarded) terms finite
    check_spd(np.where(finite[..., None], s, 1.0), "whitened rho covariance",
              rtol=1e-12)
    d = np.where(finite[..., None], s - 1.0, 0.0)
    nu = (wu.swapaxes(-1, -2) @ (mean - pi.mean)[..., None])[..., 0]
    e = nu / (1.0 - d)
    log_val = ((nu[..., None, :] @ e[..., None])[..., 0, 0]
               - 0.5 * np.sum(np.log1p(-d * d), axis=-1))
    # math.expm1, whose bits NumPy's vectorized expm1 does not match; expm1
    # overflows beyond e^700
    chi2 = np.reshape([math.expm1(x) if x < 700 else math.inf
                       for x in np.where(finite, log_val, math.inf).flat],
                      finite.shape)
    return s, e, wu, chi2


def gaussian_chi2(rho: GaussianMoments, pi: GaussianMoments) -> float:
    """chi-square divergence between Gaussians, in closed form (``_whitened``).

    Returns +inf (as a value, not an exception) when rho^2/pi is not
    integrable -- legitimate for aggressive initial conditions at early
    times; callers fitting decay curves should skip to the first finite
    value.  A degenerate law, conditioned worse than 1e-12 in pi's whitened
    frame (pi in its own), raises NotPositiveDefinite.
    """
    return float(_whitened(rho.mean, rho.cov, pi)[3])


def chi2_along(dyn: LinearDynamics, init: GaussianMoments, times) -> np.ndarray:
    """chi2 of the exact law against ``dyn.stationary`` at each of a 1-d
    array of times: one stacked ``_whitened`` over ``propagate``'s moments,
    entry k equal to gaussian_chi2(propagate(dyn, init, times[k]), pi)."""
    return _whitened(*_moments(dyn, init, times), dyn.stationary)[3]


def fit_decay_rate(times, chi2_values, tail_fraction: float = 0.5) -> float:
    """Exponential decay rate from the tail of a chi2-vs-time curve.

    Least-squares slope of log(chi2) against t over the last tail_fraction
    of the samples, negated.  The tail restriction suppresses polynomial
    prefactors (their log contributes slope O(1/t)).

    Raises InsufficientData with fewer than 8 tail samples and
    NonPositiveValues, naming the first offending sample, if any chi2 of
    the tail is <= 0 or not finite.
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
    bad = ~(np.isfinite(v_tail) & (v_tail > 0))
    if np.count_nonzero(bad):
        i = int(np.argmax(bad))
        raise NonPositiveValues(
            f"chi2[{start + i}] = {float(v_tail[i])} at t = {float(t_tail[i])}"
            ": chi2 values must be finite and > 0 for a log-linear fit")
    # fit against t / 2^e with 2^e near the largest |t|: exact scaling, so
    # the slope's bits are polyfit's on t itself, and polyfit's sum of t^2
    # cannot overflow at times near 1e155
    e = math.frexp(float(np.max(np.abs(t_tail))))[1]
    slope = np.polyfit(np.ldexp(t_tail, -e), np.log(v_tail), 1)[0]
    return -math.ldexp(float(slope), -e)


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

"""Weighted Lyapunov functional for Gaussian laws and its decay audit.

The functional is

    L(rho) = chi2(rho || pi) + E_pi[ grad(h)^T S grad(h) ],   h = rho/pi,

with S the block weight matrix [[b G^-2, a G^-1], [a G^-1, c I]] built from a
coefficient triple and a constant friction matrix G.  For Gaussian rho and pi
both terms are closed-form: h is the exponential of a quadratic, so the cross
term is a Gaussian expectation of a quadratic form under the same tilted
Gaussian that appears in the chi-square formula.

``decay_audit`` tracks L along exactly propagated trajectories and checks the
exponential decay bound promised by a rate certificate, point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateS, Divergent
from .gaussian import (
    GaussianMoments,
    LinearDynamics,
    _chi2_factors,
    _chi2_from_log,
    propagate,
    stationary_moments,
)
from .linalg import check_spd, check_symmetric

__all__ = [
    "WeightMatrixS",
    "build_s",
    "lyapunov_value_gaussian",
    "decay_audit",
]


@dataclass(frozen=True)
class WeightMatrixS:
    """Assembled 2d x 2d weight matrix with its ingredients."""

    matrix: np.ndarray
    a: float
    b: float
    c: float
    gamma_matrix: np.ndarray
    conjugated_alpha: Optional[float] = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] // 2


def build_s(coeffs, gamma_matrix, original_alpha: Optional[float] = None) -> WeightMatrixS:
    """Assemble S = [[b G^-2, a G^-1], [a G^-1, c I]] for a constant friction G.

    coeffs is anything exposing a, b, c with b c - a^2 > 0 (a balanced
    coefficient triple or a diagonal-quadratic witness).  When
    ``original_alpha`` is given the momentum block is conjugated by
    P = blockdiag(I, sqrt(alpha) I), the change of variables that undoes the
    momentum rescaling; the result is P^T S P.
    """
    a, b, c = float(coeffs.a), float(coeffs.b), float(coeffs.c)
    if b * c - a ** 2 <= 0:
        raise DegenerateS(f"b*c - a^2 = {b * c - a ** 2:.6g} <= 0")
    g = check_symmetric(np.asarray(gamma_matrix, dtype=float), "gamma_matrix")
    check_spd(np.linalg.eigvalsh(g), "gamma_matrix", rtol=0.0)
    d = g.shape[0]
    g_inv = np.linalg.inv(g)
    g_inv = 0.5 * (g_inv + g_inv.T)
    top_left = b * (g_inv @ g_inv)
    off = a * g_inv
    bottom = c * np.eye(d)
    if original_alpha is not None:
        if not original_alpha > 0:
            raise ValueError(f"original_alpha must be > 0, got {original_alpha}")
        root = math.sqrt(original_alpha)
        off = root * off
        bottom = original_alpha * bottom
    matrix = np.block([[top_left, off], [off.T, bottom]])
    matrix = 0.5 * (matrix + matrix.T)
    check_spd(np.linalg.eigvalsh(matrix), "assembled weight matrix", rtol=0.0)
    return WeightMatrixS(matrix=matrix, a=a, b=b, c=c, gamma_matrix=g,
                         conjugated_alpha=original_alpha)


def lyapunov_value_gaussian(rho: GaussianMoments, pi: GaussianMoments,
                            s: WeightMatrixS) -> float:
    """Closed-form L(rho) = chi2 + cross term for Gaussian rho against pi.

    h = rho/pi is exp(quadratic), so grad h = h (W x + u) with
    W = A_pi - A_rho and u = A_rho mu_rho - A_pi mu_pi, and

        cross = (chi2 + 1) * E_{N(mu_t, Sigma_t)}[(W x + u)^T S (W x + u)]

    under the tilted Gaussian with precision M = 2 A_rho - A_pi.  Raises
    Divergent when that integral does not exist (M not positive definite),
    so L is finite wherever chi2 is.  The cross term is >= 0, so L >= chi2
    always.
    """
    if rho.dim != pi.dim or 2 * rho.dim != s.matrix.shape[0]:
        raise ValueError(
            f"dimension mismatch: rho dim {rho.dim}, pi dim {pi.dim}, "
            f"S is {s.matrix.shape[0]}x{s.matrix.shape[0]}"
        )
    a_rho, a_pi, m, logval = _chi2_factors(rho, pi)
    chi2 = _chi2_from_log(logval)
    if math.isinf(chi2):
        raise Divergent(
            "chi-square of rho against pi diverges; L is not finite"
        )
    sigma_t = np.linalg.inv(m)
    sigma_t = 0.5 * (sigma_t + sigma_t.T)
    mu_t = sigma_t @ (2.0 * a_rho @ rho.mean - a_pi @ pi.mean)
    w = a_pi - a_rho
    u = a_rho @ rho.mean - a_pi @ pi.mean
    s_mat = s.matrix
    quad = w @ s_mat @ w
    # E[(W x + u)' S (W x + u)] in closed form; gaussian_quadratic_expectation
    # would apply its 1e-10 floor to sigma_t and so reject an ill-conditioned
    # M whose chi2 is finite
    expectation = float(np.trace(quad @ sigma_t) + mu_t @ quad @ mu_t) \
        + float(u @ s_mat @ u) + float(2.0 * (w @ (s_mat @ u)) @ mu_t)
    return chi2 + (chi2 + 1.0) * expectation


def decay_audit(dyn: LinearDynamics, init: GaussianMoments, s: WeightMatrixS,
                cert, times: Sequence[float], tol: float = 1e-6,
                atol: float = 1e-12) -> dict:
    """Track L along the exact flow and check the certified decay.

    cert: a rate certificate (its ``original_rate`` is audited) or a bare
    positive rate.  Three checks over the time grid:

      (i)   monotone nonincrease of L,
      (ii)  L(t) <= exp(-rate (t - t0)) L(t0) (1 + tol),
      (iii) central-difference dL/dt <= -rate L + slack at interior points,

    where t0 is the first time with finite L -- points where L diverges
    (chi-square not integrable yet) are flagged and excluded, mirroring the
    requirement that the bound starts from a finite initial value.  tol is
    relative; atol absorbs roundoff on near-zero values.  Returns a
    JSON-ready report with per-point values, margins, pass flags and the
    number of divergent points.
    """
    rate = float(getattr(cert, "original_rate", cert))
    ts = [float(t) for t in times]
    if len(ts) < 2:
        raise ValueError("need at least two time points")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("times must be strictly increasing")
    if ts[0] < 0:
        raise ValueError("times must be nonnegative")

    pi = stationary_moments(dyn)
    values: list = []
    divergent = []
    for moments in propagate(dyn, init, np.asarray(ts)):
        try:
            values.append(lyapunov_value_gaussian(moments, pi, s))
            divergent.append(False)
        except Divergent:
            values.append(None)
            divergent.append(True)

    finite = [i for i, v in enumerate(values) if v is not None]
    report = {
        "times": ts,
        "values": values,
        "divergent_flags": divergent,
        "divergent_points": sum(divergent),
        "rate": rate,
        "tol": tol,
    }
    if not finite:
        report.update({
            "initial_value": None,
            "monotone_nonincreasing": False,
            "bound_satisfied": False,
            "bound_margins": [],
            "derivative_satisfied": False,
            "all_passed": False,
            "reason": "L diverges at every requested time",
        })
        return report

    i0 = finite[0]
    t0, l0 = ts[i0], values[i0]
    scale = max(abs(l0), atol)

    monotone = all(
        values[j] <= values[i] * (1.0 + tol) + atol
        for i, j in zip(finite, finite[1:])
    )

    margins = []
    bound_ok = True
    for i in finite:
        envelope = math.exp(-rate * (ts[i] - t0)) * l0 * (1.0 + tol) + atol
        margins.append(envelope - values[i])
        if values[i] > envelope:
            bound_ok = False

    fd_slack = tol * rate * scale + atol
    derivative_ok = True
    for prev, mid, nxt in zip(finite, finite[1:], finite[2:]):
        fd = (values[nxt] - values[prev]) / (ts[nxt] - ts[prev])
        if fd > -rate * values[mid] + fd_slack:
            derivative_ok = False
            break

    report.update({
        "initial_value": l0,
        "initial_time": t0,
        "monotone_nonincreasing": monotone,
        "bound_satisfied": bound_ok,
        "bound_margins": margins,
        "derivative_satisfied": derivative_ok,
        "all_passed": monotone and bound_ok and derivative_ok,
    })
    return report

"""Weighted Lyapunov functional for Gaussian laws and its decay audit.

The functional is

    L(rho) = chi2(rho || pi) + E_pi[ grad(h)^T S grad(h) ],   h = rho/pi,

with S the block weight matrix [[b G^-2, a G^-1], [a G^-1, c I]] built from a
coefficient triple and a constant friction matrix G.  For Gaussian rho and pi
both terms are closed-form in the target's whitened frame, where h is the
exponential of a separable quadratic and the cross term a Gaussian
expectation under the tilted law rho^2/pi, one coordinate at a time.

``decay_audits`` tracks L along exactly propagated trajectories and checks the
exponential decay bound promised by rate certificates, point by point, for
several weights over one propagation; ``decay_audit`` is its one-weight
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateS
from .gaussian import GaussianMoments, LinearDynamics, _moments, _whitened
from .linalg import check_spd, check_symmetric, from_eig

__all__ = [
    "WeightMatrixS",
    "build_s",
    "lyapunov_value_gaussian",
    "decay_audit",
    "decay_audits",
]

#: the audit's absolute slack, beside its relative tol, for L near 0
AUDIT_ATOL = 1e-12


@dataclass(frozen=True)
class WeightMatrixS:
    """Assembled 2d x 2d weight matrix."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] // 2


def build_s(coeffs, gamma_matrix) -> WeightMatrixS:
    """Assemble S = [[b G^-2, a G^-1], [a G^-1, c I]] for a constant friction G.

    coeffs is anything exposing a, b, c with b c - a^2 > 0 (a balanced
    coefficient triple or a diagonal-quadratic witness).  G^-1 and G^-2 come
    from the one ``eigh`` of G that its positivity rule reads.
    """
    a, b, c = float(coeffs.a), float(coeffs.b), float(coeffs.c)
    if b * c - a ** 2 <= 0:
        raise DegenerateS(f"b*c - a^2 = {b * c - a ** 2:.6g} <= 0")
    g = check_symmetric(np.asarray(gamma_matrix, dtype=float), "gamma_matrix")
    w, u = np.linalg.eigh(g)
    check_spd(w, "gamma_matrix", rtol=0.0)
    d = g.shape[0]
    top_left = b * from_eig(u, (1.0 / w) ** 2)
    off = a * from_eig(u, 1.0 / w)
    bottom = c * np.eye(d)
    matrix = np.block([[top_left, off], [off.T, bottom]])
    matrix = 0.5 * (matrix + matrix.T)
    check_spd(np.linalg.eigvalsh(matrix), "assembled weight matrix", rtol=0.0)
    return WeightMatrixS(matrix=matrix)


def lyapunov_value_gaussian(rho: GaussianMoments, pi: GaussianMoments,
                            s: WeightMatrixS) -> float:
    """Closed-form L(rho) = chi2 + cross term for Gaussian rho against pi.

    In gaussian_chi2's whitened frame y (pi = N(0, I), rho = N(nu, diag(s)),
    d = s - 1) the weight is S_bar = (W u)' S (W u) and grad h = h g with
    g = (d y + nu) / s.  Under the tilted law rho^2/pi / (chi2 + 1),
    coordinatewise N(2 nu / (2 - s), s / (2 - s)), g has mean
    e = nu / (1 - d) and covariance diag(d^2 / (s (2 - s))), so

        cross = (chi2 + 1) [sum_i S_bar_ii d_i^2 / (s_i (2 - s_i)) + e' S_bar e].

    Returns +inf, as gaussian_chi2 does, when the tilted law does not exist
    (some s_i >= 2), so L is finite wherever chi2 is.  The cross term is
    >= 0, so L >= chi2 always.
    """
    return float(_values(rho.mean, rho.cov, pi, [s])[0])


def _values(mean, cov, pi: GaussianMoments, weights):
    """L of each law N(mean, cov) against pi, for one law or a stack of
    them as ``_whitened`` takes them, under each weight of the sequence
    weights: a list with one array of chi2's shape per weight.  It is the
    one implementation of lyapunov_value_gaussian's formula, +inf where
    chi2 is.  The laws are whitened once for all the weights, and each
    weight's array is bitwise the one it gets alone."""
    dim = mean.shape[-1]
    for s in weights:
        if dim != pi.mean.size or dim != s.matrix.shape[0]:
            raise ValueError(
                f"dimension mismatch: rho dim {dim // 2}, pi dim {pi.dim}, "
                f"S is {s.matrix.shape[0]}x{s.matrix.shape[0]}"
            )
    s_eig, e, wu, chi2 = _whitened(mean, cov, pi)
    finite = np.isfinite(chi2)
    shape = chi2.shape
    s_eig, e, wu, chi2 = s_eig[finite], e[finite], wu[finite], chi2[finite]
    var = (s_eig - 1.0) ** 2 / (s_eig * (2.0 - s_eig))
    out = []
    for s in weights:
        s_bar = wu.swapaxes(-1, -2) @ s.matrix @ wu
        diag = np.diagonal(s_bar, axis1=-2, axis2=-1)
        cross = ((diag[..., None, :] @ var[..., None])
                 + (e[..., None, :] @ s_bar @ e[..., None]))[..., 0, 0]
        values = np.full(shape, math.inf)
        values[finite] = chi2 + (chi2 + 1.0) * cross
        out.append(values)
    return out


def decay_audit(dyn: LinearDynamics, init: GaussianMoments, s: WeightMatrixS,
                cert, times: Sequence[float], tol: float = 1e-6) -> dict:
    """``decay_audits`` for the one weight s and its certificate cert."""
    return decay_audits(dyn, init, [(s, cert)], times, tol)[0]


def decay_audits(dyn: LinearDynamics, init: GaussianMoments, audits,
                 times: Sequence[float], tol: float = 1e-6) -> list:
    """Track L along the exact flow and check the certified decay, for each
    (weight S, cert) pair of audits, over one propagation of init and one
    whitening of its laws; report k is bitwise decay_audit's for pair k.

    cert: a rate certificate (its ``original_rate`` is audited) or a bare
    positive rate.  Three checks over the time grid:

      (i)   monotone nonincrease of L,
      (ii)  L(t) <= exp(-rate (t - t0)) L(t0) (1 + tol),
      (iii) central-difference dL/dt <= -rate L + slack at interior points,

    where t0 is the first time with finite L -- points where L diverges
    (chi-square not integrable yet) are flagged and excluded, mirroring the
    requirement that the bound starts from a finite initial value.  tol is
    relative; AUDIT_ATOL absorbs roundoff on near-zero values.  Each report
    is JSON-ready, with per-point values, margins, pass flags and the
    number of divergent points.
    """
    ts = [float(t) for t in times]
    if len(ts) < 2:
        raise ValueError("need at least two time points")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("times must be strictly increasing")
    if ts[0] < 0:
        raise ValueError("times must be nonnegative")

    values = _values(*_moments(dyn, init, ts), dyn.stationary,
                     [s for s, _ in audits])
    return [_audit_report(ts, row.tolist(),
                          float(getattr(cert, "original_rate", cert)), tol)
            for row, (_, cert) in zip(values, audits)]


def _audit_report(ts, values, rate, tol):
    """decay_audit's report for the values of L at the times ts."""
    divergent = [math.isinf(v) for v in values]
    values = [None if flag else v for v, flag in zip(values, divergent)]

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
    scale = max(abs(l0), AUDIT_ATOL)

    monotone = all(
        values[j] <= values[i] * (1.0 + tol) + AUDIT_ATOL
        for i, j in zip(finite, finite[1:])
    )

    margins = []
    bound_ok = True
    for i in finite:
        envelope = math.exp(-rate * (ts[i] - t0)) * l0 * (1.0 + tol) + AUDIT_ATOL
        margins.append(envelope - values[i])
        if values[i] > envelope:
            bound_ok = False

    fd_slack = tol * rate * scale + AUDIT_ATOL
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

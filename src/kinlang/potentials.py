"""Potential families: V, its derivatives, and the convexity constants.

A Potential bundles the evaluators every other module needs -- V(q), grad V,
Hess V, and the per-coordinate derivative of sqrt(Hess V) -- together with
the constants (alpha, beta, gamma) describing how convex and how close to
quadratic the potential is:

    alpha I <= Hess V <= beta I,   ||d sqrt(Hess V)/dq_i||_2 <= gamma.

Shipped families: diagonal quadratic, general quadratic, and a diagonal
quadratic with a small smooth per-coordinate perturbation (log-cosh by
default) whose gamma scales linearly in the perturbation size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConvexityLost, NonPositiveFrequency
from .linalg import check_spd, check_symmetric

__all__ = [
    "AssumptionConstants",
    "Potential",
    "ScalarPerturbation",
    "LOG_COSH",
    "COSINE",
    "PERTURBATIONS",
    "quadratic_diagonal",
    "quadratic_general",
    "perturbed_diagonal",
    "estimate_constants",
]


@dataclass(frozen=True)
class AssumptionConstants:
    """Convexity/smoothness constants of a potential.

    alpha: strong-convexity constant (> 0)
    beta: smoothness constant (>= alpha)
    gamma: uniform bound on ||d sqrt(Hess V)/dq_i||_2 over coordinates i
    dim: dimension d
    estimated: True when the constants came from sampling rather than a
        closed form
    gamma_box: interval over which the sup defining gamma was taken, when it
        was computed numerically (None for closed-form gamma)
    """

    alpha: float
    beta: float
    gamma: float
    dim: int
    estimated: bool = False
    gamma_box: Optional[tuple] = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.beta < self.alpha:
            raise ValueError(f"beta={self.beta} < alpha={self.alpha}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")

    @property
    def kappa(self) -> float:
        """Condition number beta/alpha."""
        return self.beta / self.alpha

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "kappa": self.kappa,
            "dim": self.dim,
            "estimated": self.estimated,
            "gamma_box": list(self.gamma_box) if self.gamma_box else None,
        }


@dataclass(frozen=True)
class Potential:
    """A potential V with its derivative evaluators.

    value(q) -> float, grad(q) -> (d,), hess(q) -> (d, d),
    hess_dq(q, i) -> (d, d) the derivative of Hess V along q_i, and
    sqrt_hess_dq(q, i) -> (d, d) the derivative of sqrt(Hess V) along q_i.

    constant_hessian is True when Hess V does not depend on q (quadratic
    families); friction providers use it to decompose once.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    hess_dq: Callable[[np.ndarray, int], np.ndarray]
    sqrt_hess_dq: Callable[[np.ndarray, int], np.ndarray]
    constants: Optional[AssumptionConstants]
    constant_hessian: bool
    family: str
    params: dict = field(default_factory=dict)
    #: vectorized diagonal of Hess V for families whose Hessian is diagonal:
    #: maps (..., d) positions to the (..., d) diagonal entries; None when the
    #: Hessian has off-diagonal structure
    hess_diag: Optional[Callable[[np.ndarray], np.ndarray]] = None


def quadratic_diagonal(v) -> Potential:
    """V(q) = 1/2 sum v_i^2 q_i^2 with v_i > 0.

    Hess V = diag(v_i^2) is constant, gamma = 0, alpha = min v_i^2,
    beta = max v_i^2.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(v <= 0):
        raise NonPositiveFrequency(f"all frequencies must be > 0, got {v}")
    d = v.size
    v2 = v**2
    hess = np.diag(v2)
    zero = np.zeros((d, d))
    consts = AssumptionConstants(
        alpha=float(v2.min()), beta=float(v2.max()), gamma=0.0, dim=d
    )
    return Potential(
        dim=d,
        value=lambda q: 0.5 * float(v2 @ np.asarray(q, dtype=float) ** 2),
        grad=lambda q: v2 * np.asarray(q, dtype=float),
        hess=lambda q: hess,
        hess_dq=lambda q, i: zero,
        sqrt_hess_dq=lambda q, i: zero,
        constants=consts,
        constant_hessian=True,
        family="quadratic_diagonal",
        params={"v": v.tolist()},
        hess_diag=lambda q: np.broadcast_to(v2, np.asarray(q, dtype=float).shape).copy(),
    )


def quadratic_general(a) -> Potential:
    """V(q) = 1/2 q' a q for SPD a; alpha/beta are a's extreme eigenvalues."""
    a = check_symmetric(a)
    w = np.linalg.eigvalsh(a)
    check_spd(w)
    d = a.shape[0]
    zero = np.zeros((d, d))
    consts = AssumptionConstants(
        alpha=float(w[0]), beta=float(w[-1]), gamma=0.0, dim=d
    )
    return Potential(
        dim=d,
        value=lambda q: 0.5 * float(np.asarray(q, dtype=float) @ a @ np.asarray(q, dtype=float)),
        # q @ a == a @ q for symmetric a, and broadcasts over (N, d) batches
        grad=lambda q: np.asarray(q, dtype=float) @ a,
        hess=lambda q: a,
        hess_dq=lambda q, i: zero,
        sqrt_hess_dq=lambda q, i: zero,
        constants=consts,
        constant_hessian=True,
        family="quadratic_general",
        params={"a": a.tolist()},
    )


@dataclass(frozen=True)
class ScalarPerturbation:
    """A scalar function f with bounded second and third derivatives.

    inf_d2/sup_d2 bound f'' globally; they feed the closed-form alpha(eps)
    and beta(eps).  The sup defining gamma(eps) is taken numerically over a
    box (see perturbed_diagonal), so no bound on f''' is required here.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    d3: Callable[[np.ndarray], np.ndarray]
    inf_d2: float
    sup_d2: float


def _log_cosh(x):
    # |x| + log(1 + e^{-2|x|}) - log 2, stable for large |x|
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)


LOG_COSH = ScalarPerturbation(
    name="log_cosh",
    f=_log_cosh,
    d1=np.tanh,
    d2=lambda x: 1.0 - np.tanh(x) ** 2,
    d3=lambda x: -2.0 * np.tanh(x) * (1.0 - np.tanh(x) ** 2),
    inf_d2=0.0,
    sup_d2=1.0,
)

#: cosine perturbation; its f'' dips to -1, so it can destroy convexity --
#: useful as a negative control for the ConvexityLost gate
COSINE = ScalarPerturbation(
    name="cosine",
    f=np.cos,
    d1=lambda x: -np.sin(x),
    d2=lambda x: -np.cos(x),
    d3=np.sin,
    inf_d2=-1.0,
    sup_d2=1.0,
)

#: the perturbations by name, as configs and perturbed_diagonal take them
PERTURBATIONS = {p.name: p for p in (LOG_COSH, COSINE)}

#: default interval for the numeric sup defining gamma(eps); for the shipped
#: perturbations f''' is negligible outside it (sech^2(8) ~ 1e-6)
GAMMA_BOX = (-8.0, 8.0)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo, hi, max_iters=64):
    """Golden-section search (Kiefer 1953) for the maximum of f on [lo, hi].

    f maps one Python float to a float and should be unimodal on the
    bracket.  The search stops after max_iters shrinks or once the bracket
    is narrower than 1e-12, and returns the larger of its two final probe
    values.
    """
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    for _ in range(max_iters):
        if hi - lo < 1e-12:
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    return max(f1, f2)


def _gamma_sup(v2, eps, pert, box, n_grid=4001):
    """sup over the box of eps |f'''(x)| / (2 sqrt(v_i^2 + eps f''(x))), max over i.

    For each distinct v_i^2 an n_grid-point grid finds the best cell, and
    golden-section search (``_golden_max``) refines it over the two grid
    intervals around it; the sup is the larger of the grid and refined
    values.
    """
    if eps == 0.0:
        return 0.0
    xs = np.linspace(box[0], box[1], n_grid)
    best = 0.0
    for vi2 in np.unique(v2):
        def obj(x, vi2=vi2):
            return eps * np.abs(pert.d3(x)) / (2.0 * np.sqrt(vi2 + eps * pert.d2(x)))
        vals = obj(xs)
        k = int(np.argmax(vals))
        lo = float(xs[max(k - 1, 0)])
        hi = float(xs[min(k + 1, n_grid - 1)])
        best = max(best, float(vals[k]), float(_golden_max(obj, lo, hi)))
    return best


def perturbed_diagonal(v, eps, perturbation=LOG_COSH, gamma_box=GAMMA_BOX) -> Potential:
    """V(q) = 1/2 sum v_i^2 q_i^2 + eps sum f(q_i).

    Hess V = diag(v_i^2 + eps f''(q_i)) stays diagonal, so the derivative of
    its square root along q_i has the single nonzero entry

        eps f'''(q_i) / (2 sqrt(v_i^2 + eps f''(q_i)))

    at (i, i).  Constants: alpha(eps) = min_i (v_i^2 + eps inf f''),
    beta(eps) = max_i (v_i^2 + eps sup f''), and gamma(eps) the numeric sup
    of the entry above over gamma_box (recorded on the constants): a
    4001-point grid, refined by golden-section search around its best cell.

    Raises ConvexityLost when alpha(eps) <= 0.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(v <= 0):
        raise NonPositiveFrequency(f"all frequencies must be > 0, got {v}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if isinstance(perturbation, str):
        perturbation = PERTURBATIONS[perturbation]
    d = v.size
    v2 = v**2
    pert = perturbation

    alpha = float(np.min(v2) + eps * pert.inf_d2)
    beta = float(np.max(v2) + eps * pert.sup_d2)
    if alpha <= 0:
        raise ConvexityLost(
            f"alpha(eps) = {alpha:.6g} <= 0 for eps={eps} "
            f"(inf f'' = {pert.inf_d2})"
        )
    gamma = _gamma_sup(v2, eps, pert, gamma_box)
    consts = AssumptionConstants(
        alpha=alpha, beta=beta, gamma=gamma, dim=d,
        gamma_box=tuple(gamma_box) if eps > 0 else None,
    )

    def value(q):
        q = np.asarray(q, dtype=float)
        return 0.5 * float(v2 @ q**2) + eps * float(np.sum(pert.f(q)))

    def grad(q):
        q = np.asarray(q, dtype=float)
        return v2 * q + eps * pert.d1(q)

    def hess(q):
        q = np.asarray(q, dtype=float)
        return np.diag(v2 + eps * pert.d2(q))

    def hess_dq(q, i):
        q = np.asarray(q, dtype=float)
        out = np.zeros((d, d))
        out[i, i] = eps * pert.d3(q[i])
        return out

    def sqrt_hess_dq(q, i):
        q = np.asarray(q, dtype=float)
        out = np.zeros((d, d))
        hi = v2[i] + eps * pert.d2(q[i])
        out[i, i] = eps * pert.d3(q[i]) / (2.0 * np.sqrt(hi))
        return out

    return Potential(
        dim=d,
        value=value,
        grad=grad,
        hess=hess,
        hess_dq=hess_dq,
        sqrt_hess_dq=sqrt_hess_dq,
        constants=consts,
        constant_hessian=(eps == 0.0),
        family="perturbed_diagonal",
        params={"v": v.tolist(), "eps": eps, "perturbation": pert.name},
        hess_diag=lambda q: v2 + eps * pert.d2(np.asarray(q, dtype=float)),
    )


def estimate_constants(p: Potential, sample_box, n_samples: int, seed: int) -> AssumptionConstants:
    """Empirical (alpha, beta, gamma) from Hessians sampled in a box.

    alpha-hat = min over samples of lambda_min(Hess V), beta-hat the matching
    max, gamma-hat = max over samples and coordinates of
    ||d sqrt(Hess V)/dq_i||_2.  Returned constants are flagged estimated and
    record the box.  A single sample is allowed (a one-point estimate).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    lo, hi = sample_box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (p.dim,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (p.dim,))
    rng = np.random.default_rng(seed)
    alpha_hat = np.inf
    beta_hat = -np.inf
    gamma_hat = 0.0
    for _ in range(n_samples):
        q = lo + (hi - lo) * rng.random(p.dim)
        w = np.linalg.eigvalsh(p.hess(q))
        alpha_hat = min(alpha_hat, float(w[0]))
        beta_hat = max(beta_hat, float(w[-1]))
        for i in range(p.dim):
            gamma_hat = max(gamma_hat, float(np.linalg.norm(p.sqrt_hess_dq(q, i), 2)))
    return AssumptionConstants(
        alpha=alpha_hat, beta=beta_hat, gamma=gamma_hat, dim=p.dim,
        estimated=True, gamma_box=(float(lo.min()), float(hi.max())),
    )

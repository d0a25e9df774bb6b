"""Potential families: V, its derivatives, and the convexity constants.

A Potential bundles the evaluators every other module needs -- V(q), grad V
and Hess V -- together with the constants (alpha, beta, gamma) describing
how convex and how close to quadratic the potential is:

    alpha I <= Hess V <= beta I,   ||d sqrt(Hess V)/dq_i||_2 <= gamma.

Shipped families: diagonal quadratic, general quadratic, and a diagonal
quadratic with a small smooth per-coordinate perturbation (log-cosh by
default) whose gamma scales linearly in the perturbation size.  Every
constant is in closed form, gamma included: each perturbation carries the
exact sup that defines it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
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
]


@dataclass(frozen=True)
class AssumptionConstants:
    """Convexity/smoothness constants of a potential.

    alpha: strong-convexity constant (> 0)
    beta: smoothness constant (>= alpha)
    gamma: uniform bound on ||d sqrt(Hess V)/dq_i||_2 over coordinates i
    dim: dimension d
    """

    alpha: float
    beta: float
    gamma: float
    dim: int

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
        return {**asdict(self), "kappa": self.kappa}


@dataclass(frozen=True)
class Potential:
    """A potential V with its derivative evaluators.

    value(q) -> float, grad(q) -> (d,), hess(q) -> (d, d).  grad maps an
    (N, d) batch row by row.  The shipped families' grad also takes an out=
    array, as NumPy ufuncs do; the simulator passes one when grad takes it,
    so that a step allocates no array for the gradient.

    grad_hess_diag, set by perturbed_diagonal, evaluates the gradient and
    hess_diag together: f' and f'' come from one evaluation of the
    perturbation (one tanh for log_cosh), and each value is bitwise grad's
    and hess_diag's.  The simulator's diagonal friction field calls it once
    per step in place of the two.  A ``dataclasses.replace`` that changes
    grad or hess_diag must set it too (None: the general field runs).

    constant_hessian is True when Hess V does not depend on q (quadratic
    families); friction providers use it to decompose once.

    hess_dq(q, i) and sqrt_hess_dq(q, i), the derivatives of Hess V and of
    sqrt(Hess V) along q_i, are None on every shipped family, and kinlang
    reads neither: gamma comes in closed form with the constants.  They
    stay only because perfbench/rotated.py passes them to
    ``dataclasses.replace``, and go together with those arguments.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    constants: Optional[AssumptionConstants]
    constant_hessian: bool
    family: str
    hess_dq: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    sqrt_hess_dq: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    params: dict = field(default_factory=dict)
    #: vectorized diagonal of Hess V for families whose Hessian is diagonal:
    #: maps (..., d) positions to the (..., d) diagonal entries; None when the
    #: Hessian has off-diagonal structure
    hess_diag: Optional[Callable[[np.ndarray], np.ndarray]] = None
    #: (q, grad_out, hess_out, scratch) -> (grad_out, hess_out): grad V(q)
    #: and hess_diag(q) written into the first two arrays of (N, d) positions
    #: q's shape; the third, of the same shape, is overwritten
    grad_hess_diag: Optional[Callable] = None


def _frequencies(v):
    """(v, v^2) as 1-d float arrays, with every v_i > 0 and v_i^2 finite."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    with np.errstate(over="ignore"):
        v2 = v**2
    if not (np.all(v > 0) and np.all(np.isfinite(v2))):
        raise NonPositiveFrequency(
            f"all frequencies must be > 0 with a finite square, got {v}")
    return v, v2


def quadratic_diagonal(v) -> Potential:
    """V(q) = 1/2 sum v_i^2 q_i^2 with v_i > 0.

    Hess V = diag(v_i^2) is constant, gamma = 0, alpha = min v_i^2,
    beta = max v_i^2.
    """
    v, v2 = _frequencies(v)
    d = v.size
    hess = np.diag(v2)
    consts = AssumptionConstants(
        alpha=float(v2.min()), beta=float(v2.max()), gamma=0.0, dim=d
    )
    return Potential(
        dim=d,
        value=lambda q: 0.5 * float(v2 @ np.asarray(q, dtype=float) ** 2),
        grad=lambda q, out=None: np.multiply(v2, np.asarray(q, dtype=float), out=out),
        hess=lambda q: hess,
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
    consts = AssumptionConstants(
        alpha=float(w[0]), beta=float(w[-1]), gamma=0.0, dim=d
    )
    return Potential(
        dim=d,
        value=lambda q: 0.5 * float(np.asarray(q, dtype=float) @ a @ np.asarray(q, dtype=float)),
        # q @ a == a @ q for symmetric a, and broadcasts over (N, d) batches
        grad=lambda q, out=None: np.matmul(np.asarray(q, dtype=float), a, out=out),
        hess=lambda q: a,
        constants=consts,
        constant_hessian=True,
        family="quadratic_general",
        params={"a": a.tolist()},
    )


@dataclass(frozen=True)
class ScalarPerturbation:
    """A scalar function f with bounded second and third derivatives.

    inf_d2/sup_d2 bound f'' globally; they feed the closed-form alpha(eps)
    and beta(eps).  gamma(v2, eps) is the exact sup over x of

        eps |f'''(x)| / (2 sqrt(v2 + eps f''(x)))

    for each entry of the array v2, at an eps > 0 that keeps v2 + eps f''
    positive.  d1_d2(x, d1, d2), the one evaluator of f' and f'', writes
    them into the arrays d1 and d2, from one evaluation where f'' follows
    from f', and returns the pair.  f'' is written last, so d2 may be d1,
    and d1_d2(x, h, h)[1] is f'' alone.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    d1_d2: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]
    gamma: Callable[[np.ndarray, float], np.ndarray]
    inf_d2: float
    sup_d2: float


def _tanh_sech2(x, d1, d2):
    # sech^2 = 1 - tanh^2 from the one tanh; d2 may be d1
    np.tanh(x, d1)
    np.square(d1, d2)
    return d1, np.subtract(1.0, d2, d2)


def _neg_sin_cos(x, d1, d2):
    return np.negative(np.sin(x, d1), d1), np.negative(np.cos(x, d2), d2)


def _log_cosh(x):
    # |x| + log(1 + e^{-2|x|}) - log 2, stable for large |x|
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)


def _log_cosh_gamma(v2, eps):
    # with u = sech^2 x the entry is eps u sqrt(1 - u) / sqrt(v2 + eps u),
    # largest at the root in (1/2, 2/3) of 2 eps u^2 + b u - 2 v2 = 0,
    # b = 3 v2 - eps: 4 v2 / p if b > 0, else p / (4 eps), with p = |b| +
    # sqrt(b^2 + 16 eps v2) > 0, which never cancels (hypot: b^2 overflows)
    b = 3.0 * v2 - eps
    p = np.abs(b) + np.hypot(b, 4.0 * np.sqrt(eps * v2))
    u = np.where(b > 0, 4.0 * v2 / p, p / (4.0 * eps))
    return eps * u * np.sqrt(1.0 - u) / np.sqrt(v2 + eps * u)


def _cosine_gamma(v2, eps):
    # with c = cos x the entry is eps sqrt(1 - c^2) / (2 sqrt(v2 - eps c)),
    # largest at c = eps / (v2 + sqrt(v2^2 - eps^2)), in (0, 1) for v2 > eps
    c = eps / (v2 + np.sqrt(v2 * v2 - eps * eps))
    return eps * np.sqrt(1.0 - c * c) / (2.0 * np.sqrt(v2 - eps * c))


LOG_COSH = ScalarPerturbation(
    name="log_cosh",
    f=_log_cosh,
    d1_d2=_tanh_sech2,
    gamma=_log_cosh_gamma,
    inf_d2=0.0,
    sup_d2=1.0,
)

#: cosine perturbation; its f'' dips to -1, so it can destroy convexity --
#: useful as a negative control for the ConvexityLost gate
COSINE = ScalarPerturbation(
    name="cosine",
    f=np.cos,
    d1_d2=_neg_sin_cos,
    gamma=_cosine_gamma,
    inf_d2=-1.0,
    sup_d2=1.0,
)

#: the perturbations by name, as configs and perturbed_diagonal take them
PERTURBATIONS = {p.name: p for p in (LOG_COSH, COSINE)}


def perturbed_diagonal(v, eps, perturbation=LOG_COSH) -> Potential:
    """V(q) = 1/2 sum v_i^2 q_i^2 + eps sum f(q_i).

    Hess V = diag(v_i^2 + eps f''(q_i)) stays diagonal, so the derivative of
    its square root along q_i has the single nonzero entry

        eps f'''(q_i) / (2 sqrt(v_i^2 + eps f''(q_i)))

    at (i, i).  Constants: alpha(eps) = min_i (v_i^2 + eps inf f''),
    beta(eps) = max_i (v_i^2 + eps sup f''), and gamma(eps) the max over i
    of the perturbation's closed-form sup of that entry, exactly 0 at
    eps = 0.

    Raises ConvexityLost when alpha(eps) <= 0.
    """
    v, v2 = _frequencies(v)
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if isinstance(perturbation, str):
        perturbation = PERTURBATIONS[perturbation]
    d = v.size
    pert = perturbation

    alpha = float(np.min(v2) + eps * pert.inf_d2)
    beta = float(np.max(v2) + eps * pert.sup_d2)
    if alpha <= 0:
        raise ConvexityLost(
            f"alpha(eps) = {alpha:.6g} <= 0 for eps={eps} "
            f"(inf f'' = {pert.inf_d2})"
        )
    # pert.gamma divides by eps in a branch np.where also evaluates
    gamma = float(np.max(pert.gamma(v2, eps))) if eps > 0 else 0.0
    consts = AssumptionConstants(alpha=alpha, beta=beta, gamma=gamma, dim=d)

    def value(q):
        q = np.asarray(q, dtype=float)
        return 0.5 * float(v2 @ q**2) + eps * float(np.sum(pert.f(q)))

    # in place: hess_diag allocates only its result, grad one (2, ...)
    # scratch besides it, and grad_hess_diag nothing; the three read f' and
    # f'' from d1_d2 and combine them alike
    def grad_from(q, kick, out):
        np.multiply(kick, eps, out=kick)
        out = np.multiply(v2, q, out=out)
        return np.add(out, kick, out=out)

    def hess_from(h):
        np.multiply(h, eps, out=h)
        return np.add(h, v2, out=h)

    def grad(q, out=None):
        q = np.asarray(q, dtype=float)
        kick, _ = pert.d1_d2(q, *np.empty((2,) + q.shape))
        return grad_from(q, kick, out)

    def hess_diag(q):
        q = np.asarray(q, dtype=float)
        h = np.empty(np.broadcast(q, v2).shape)
        return hess_from(pert.d1_d2(q, h, h)[1])

    def grad_hess_diag(q, grad_out, hess_out, scratch):
        kick, h = pert.d1_d2(q, scratch, hess_out)
        return grad_from(q, kick, grad_out), hess_from(h)

    def hess(q):
        return np.diag(hess_diag(q))

    return Potential(
        dim=d,
        value=value,
        grad=grad,
        hess=hess,
        constants=consts,
        constant_hessian=(eps == 0.0),
        family="perturbed_diagonal",
        params={"v": v.tolist(), "eps": eps, "perturbation": pert.name},
        hess_diag=hess_diag,
        grad_hess_diag=grad_hess_diag,
    )

"""Closed-form exponential-rate certificates for the kinetic dynamics.

Everything here is exact arithmetic on the assumption constants (alpha, beta,
gamma, d) and a coefficient triple (a, b, c) weighting the Lyapunov matrix

    S = [[b Gamma^-2, a Gamma^-1], [a Gamma^-1, c I]].

All certificate formulas live in the rescaled setting (strong convexity
normalized to 1); ``rescale_rate`` is the single adapter between original and
rescaled time, multiplying rates by sqrt(alpha).  A certificate that fails to
accelerate (rate <= 0) is data, not an error: the validity flag records
whether the hypothesis gamma < sqrt(m1/m2) actually holds.

The baseline being beaten is the best constant scalar friction rate available
through the same hypocoercivity route, ``lambda_dms`` and its supremum
``lambda_dms_sup``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateS,
    InvalidCoefficients,
    NonPositiveDenominator,
    WitnessNotFound,
)
from .potentials import AssumptionConstants, _golden_max

__all__ = [
    "LyapunovCoefficients",
    "RateCertificate",
    "SweepEntry",
    "DiagQuadraticWitness",
    "l_constants",
    "f_of",
    "g_of",
    "certificate",
    "optimal_coefficients",
    "coefficient_family",
    "optimize_m1",
    "lambda_dms",
    "lambda_dms_sup",
    "compare_to_constant_friction",
    "rescale_rate",
    "diag_quadratic_certificate",
]

#: relative tolerance on the balance constraint a + c = b / s^2
COEFF_CONSTRAINT_TOL = 1e-12


@dataclass(frozen=True)
class LyapunovCoefficients:
    """Friction scale s and S-matrix weights (a, b, c).

    Construction enforces positivity of S (b c - a^2 > 0) and the balance
    constraint a + c = b / s^2 that the rate formulas assume.  The remaining
    alpha-dependent strictness condition is checked where alpha is known,
    in ``f_of`` / ``certificate``.
    """

    s: float
    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("s", "a", "b", "c"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.b * self.c - self.a ** 2 <= 0:
            raise DegenerateS(
                f"b*c - a^2 = {self.b * self.c - self.a ** 2:.6g} <= 0; "
                "the weight matrix S is not positive definite"
            )
        residual = self.a + self.c - self.b / self.s ** 2
        if abs(residual) > COEFF_CONSTRAINT_TOL * self.b:
            raise InvalidCoefficients(
                f"balance constraint a + c - b/s^2 = {residual:.6g} exceeds "
                f"tolerance {COEFF_CONSTRAINT_TOL * self.b:.3g}"
            )

    def as_dict(self) -> dict:
        return {"s": self.s, "a": self.a, "b": self.b, "c": self.c}


@dataclass(frozen=True)
class RateCertificate:
    """A machine-checkable exponential decay record.

    ``rescaled_rate`` = m1 - gamma^2 m2 in rescaled time;
    ``original_rate`` = sqrt(alpha) * rescaled_rate; ``valid`` iff the rate is
    positive, equivalently gamma < sqrt(m1/m2).
    """

    constants: AssumptionConstants
    coeffs: LyapunovCoefficients
    L1: float
    L2: float
    m1: float
    m2: float
    rescaled_rate: float
    original_rate: float
    valid: bool

    def as_dict(self) -> dict:
        return {
            "constants": self.constants.as_dict(),
            "coefficients": self.coeffs.as_dict(),
            "L1": self.L1,
            "L2": self.L2,
            "m1": self.m1,
            "m2": self.m2,
            "rescaled_rate": self.rescaled_rate,
            "original_rate": self.original_rate,
            "valid": self.valid,
        }


def _strictness(const: AssumptionConstants, coeffs: LyapunovCoefficients) -> float:
    """alpha^-1 + c - a/s^2, required > 0 by the rate derivation."""
    return 1.0 / const.alpha + coeffs.c - coeffs.a / coeffs.s ** 2


def _check_strictness(const: AssumptionConstants, coeffs: LyapunovCoefficients):
    d0 = _strictness(const, coeffs)
    if d0 <= 0:
        raise InvalidCoefficients(
            f"strictness condition 1/alpha + c - a/s^2 = {d0:.6g} <= 0"
        )
    return d0


def l_constants(const: AssumptionConstants, coeffs: LyapunovCoefficients):
    """The two error constants (L1, L2) entering the perturbation budget.

    Both are linear in the dimension d and independent of gamma.
    """
    s, a, b, c = coeffs.s, coeffs.a, coeffs.b, coeffs.c
    alpha, beta, d = const.alpha, const.beta, const.dim
    det = b * c - a ** 2
    if det <= 0:
        raise DegenerateS(f"b*c - a^2 = {det:.6g} <= 0")
    load = b * d * alpha + c * d * s ** 2 * beta
    l1 = load / (4.0 * det * alpha) * (
        8.0 * b ** 2 * s ** -5 / alpha + a ** 2 * s ** -3 / alpha
    )
    l2 = 0.25 * b * d / (s * alpha) + load / (2.0 * det) * (
        a ** 2 * s ** -3 / alpha ** 2
    )
    return l1, l2


def f_of(x: float, const: AssumptionConstants, coeffs: LyapunovCoefficients) -> float:
    """Rate-side spectral function f(x); m1 is its min over the two endpoints."""
    if not x > 0:
        raise ValueError(f"x must be > 0, got {x}")
    if coeffs.b * coeffs.c - coeffs.a ** 2 <= 0:
        raise DegenerateS("b*c - a^2 <= 0")
    d0 = _check_strictness(const, coeffs)
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    inv_alpha = 1.0 / const.alpha
    num = 2.0 * a * x * d0
    den = (inv_alpha + b * x ** 2) * d0 + (inv_alpha + c) * a * x ** 2
    return num / den


def g_of(x: float, const: AssumptionConstants, coeffs: LyapunovCoefficients) -> float:
    """Error-side spectral function g(x); m2 is its max over the two endpoints."""
    if not x > 0:
        raise ValueError(f"x must be > 0, got {x}")
    l1, l2 = l_constants(const, coeffs)
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    inv_alpha = 1.0 / const.alpha
    den = (inv_alpha + b * x ** 2) * (inv_alpha + c) - a ** 2 * x ** 2
    if den <= 0:
        raise NonPositiveDenominator(
            f"g denominator {den:.6g} <= 0 at x = {x:.6g}"
        )
    num = 2.0 * ((inv_alpha + c) * l1 + (inv_alpha + b * x ** 2) * l2)
    return num / den


def certificate(const: AssumptionConstants, coeffs: LyapunovCoefficients) -> RateCertificate:
    """Evaluate the decay certificate for the given constants and weights.

    f and g are evaluated at the two endpoints x in {1/(s sqrt(kappa)), 1/s};
    m1 is the smaller f value, m2 the larger g value, and the rescaled rate is
    m1 - gamma^2 m2.  Never raises on a non-accelerating input: valid=False
    certificates are legitimate outputs.
    """
    _check_strictness(const, coeffs)
    s = coeffs.s
    x_lo = 1.0 / (s * math.sqrt(const.kappa))
    x_hi = 1.0 / s
    m1 = min(f_of(x_lo, const, coeffs), f_of(x_hi, const, coeffs))
    m2 = max(g_of(x_lo, const, coeffs), g_of(x_hi, const, coeffs))
    l1, l2 = l_constants(const, coeffs)
    rescaled = m1 - const.gamma ** 2 * m2
    return RateCertificate(
        constants=const,
        coeffs=coeffs,
        L1=l1,
        L2=l2,
        m1=m1,
        m2=m2,
        rescaled_rate=rescaled,
        original_rate=math.sqrt(const.alpha) * rescaled,
        valid=rescaled > 0.0,
    )


def coefficient_family(const: AssumptionConstants, s: float, x0: float) -> LyapunovCoefficients:
    """One-parameter weight family at friction scale s.

    c = x0/alpha, a = (s^2/2)(x0+1)/alpha, b = s^2 (a + c), so the balance
    constraint a + c = b/s^2 holds by construction and the strictness margin
    is (x0+1)/(2 alpha) > 0.  Positive definiteness of S requires
    x0 > s / sqrt(s^2 + 4); s = 2 recovers ``optimal_coefficients``.
    """
    if not s > 0:
        raise ValueError(f"s must be > 0, got {s}")
    x_min = s / math.sqrt(s ** 2 + 4.0)
    if not x0 > x_min:
        raise ValueError(
            f"x0 must exceed {x_min:.6g} for s = {s:.6g} to keep S positive "
            f"definite, got {x0}"
        )
    inv_alpha = 1.0 / const.alpha
    c = x0 * inv_alpha
    a = 0.5 * s ** 2 * (x0 + 1.0) * inv_alpha
    b = s ** 2 * (a + c)
    return LyapunovCoefficients(s=s, a=a, b=b, c=c)


def optimal_coefficients(const: AssumptionConstants, x0: float) -> LyapunovCoefficients:
    """The s = 2 weight family: a = (2 x0 + 2)/alpha, b = (12 x0 + 8)/alpha,
    c = x0/alpha.  Requires x0 > 1/sqrt(2); large x0 pushes m1 to 1/2."""
    return coefficient_family(const, 2.0, x0)


@dataclass(frozen=True)
class SweepEntry:
    """One cell of an optimize_m1 sweep; certificate is None if the (s, x0)
    pair cannot form a positive definite S, and error and error_type then
    hold the message and the class name of the exception."""

    s: float
    x0: float
    certificate: Optional[RateCertificate]
    error: Optional[str] = None
    error_type: Optional[str] = None


def optimize_m1(const: AssumptionConstants, s_grid: Sequence[float],
                x0_grid: Sequence[float]):
    """Sweep the constrained weight family over (s, x0); maximize m1.

    Returns (best_certificate, table) where table lists one SweepEntry per
    grid cell in row-major (s outer, x0 inner) order.  Infeasible cells are
    recorded with their error message and skipped in the argmax; ties break
    toward the lowest grid index.  Raises ValueError only for empty grids or
    when no cell at all is feasible.
    """
    s_grid = list(s_grid)
    x0_grid = list(x0_grid)
    if not s_grid or not x0_grid:
        raise ValueError("s_grid and x0_grid must be nonempty")
    table = []
    best = None
    best_m1 = -math.inf
    for s in s_grid:
        for x0 in x0_grid:
            try:
                cert = certificate(const, coefficient_family(const, s, x0))
            except (ValueError, DegenerateS, InvalidCoefficients,
                    NonPositiveDenominator) as exc:
                table.append(SweepEntry(s=s, x0=x0, certificate=None,
                                        error=str(exc),
                                        error_type=type(exc).__name__))
                continue
            table.append(SweepEntry(s=s, x0=x0, certificate=cert))
            if cert.m1 > best_m1:
                best_m1 = cert.m1
                best = cert
    if best is None:
        raise ValueError("no feasible (s, x0) cell in the sweep")
    return best, table


def _check_positive(name, value):
    if not (np.asarray(value) > 0).all():
        raise ValueError(f"{name} must be > 0, got {value}")


def _sqrt2_plus_half_squared(lam: float) -> float:
    """(sqrt(2) + lam/2)^2 for one Python float lam, squared through C pow."""
    return (math.sqrt(2.0) + lam / 2.0) ** 2


def _lambda_dms_formula(lam, alpha, eps, k, sqrt):
    """lambda_dms without checks, for lam and eps both Python floats (with
    ``sqrt=math.sqrt``) or broadcastable arrays (``sqrt=np.sqrt``); k is
    ``_sqrt2_plus_half_squared(lam)``.

    The frozen lambda_dms_sup values in the tests pin how each square
    rounds: ``eps * eps`` is one multiply in both forms, while ``(...) ** 2``
    is a multiply on arrays but C pow on Python floats (as on NumPy
    scalars), which can differ from the multiply in the last bit.
    """
    root = sqrt(
        eps * eps * k
        + (lam - (2.0 * alpha + 1.0) / (alpha + 1.0) * eps) ** 2
    )
    return (lam - eps / (1.0 + alpha) - root) / (2.0 * (1.0 + abs(eps)))


def lambda_dms(lam, alpha, eps):
    """Constant-scalar-friction decay rate for free parameter eps in (-1, 1).

    Vectorized over eps; may be negative (a bad eps certifies nothing).  At
    eps = 0 the value is exactly 0.

    An array eps and a float eps can differ in the last bits, because one
    square rounds differently in the two forms (see ``_lambda_dms_formula``):
    a few in 10^4 uniform eps differ, by up to about 1e-13 relative.
    """
    lam = float(lam)
    alpha = float(alpha)
    _check_positive("lam", lam)
    _check_positive("alpha", alpha)
    eps = np.asarray(eps, dtype=float)
    if np.any(np.abs(eps) >= 1.0):
        raise ValueError("eps must lie in (-1, 1)")
    out = _lambda_dms_formula(lam, alpha, eps, _sqrt2_plus_half_squared(lam),
                              np.sqrt)
    if out.ndim == 0:
        return float(out)
    return out


#: lambdas per grid evaluation in lambda_dms_sup, so that its temporaries
#: stay near 128 KB each however long the lambda grid is
_SUP_ROWS = 64


def lambda_dms_sup(lam, alpha: float, grid_size: int = 256,
                   refine_iters: int = 64):
    """Supremum of lambda_dms over eps, to absolute tolerance 1e-8.

    lam is a float or an array of them: a float gives a float, an array an
    array of its shape.  A dense grid on (0, 1), evaluated for up to
    ``_SUP_ROWS`` lams at once, locates each lam's best cell (the maximizing
    eps is positive); golden-section refinement in float arithmetic then
    polishes each cell.  Each result is clipped at 0, the value at eps = 0,
    and does not depend on the other entries of lam.
    """
    if grid_size < 64:
        raise ValueError(f"grid_size must be >= 64, got {grid_size}")
    lam = np.asarray(lam, dtype=float)
    alpha = float(alpha)
    _check_positive("lam", lam)
    _check_positive("alpha", alpha)
    lams = lam.ravel().tolist()
    ks = [_sqrt2_plus_half_squared(v) for v in lams]
    eps_grid = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    cells, bests = [], []
    for i in range(0, len(lams), _SUP_ROWS):
        rows = slice(i, i + _SUP_ROWS)
        values = _lambda_dms_formula(np.asarray(lams[rows])[:, None], alpha,
                                     eps_grid, np.asarray(ks[rows])[:, None],
                                     np.sqrt)
        j = np.argmax(values, axis=1)
        cells += j.tolist()
        bests += values[np.arange(j.size), j].tolist()
    sups = []
    for v, k, j, best in zip(lams, ks, cells, bests):
        lo = 0.0 if j == 0 else float(eps_grid[j - 1])
        hi = 1.0 if j == grid_size - 1 else float(eps_grid[j + 1])
        refined = _golden_max(
            lambda e: _lambda_dms_formula(v, alpha, e, k, math.sqrt),
            lo, hi, refine_iters)
        sups.append(max(best, refined, 0.0))
    if lam.ndim == 0:
        return sups[0]
    return np.array(sups).reshape(lam.shape)


def compare_to_constant_friction(const: AssumptionConstants,
                                 cert: RateCertificate,
                                 lambda_grid: Sequence[float]) -> dict:
    """Compare a certificate's original-time rate to every constant scalar
    friction baseline on the grid.

    The baseline for friction strength lam is 2 * lambda_dms_sup(lam, alpha).
    Returns a JSON-ready report with per-lambda domination flags, the worst
    margin, and the smallness ratio beta^2 gamma^2 d / alpha^3 that makes the
    matrix-friction rate win.  An invalid certificate yields an inapplicable
    report rather than an error.
    """
    lams = [float(v) for v in lambda_grid]
    if not lams:
        raise ValueError("lambda_grid must be nonempty")
    if any(not v > 0 for v in lams):
        raise ValueError("lambda_grid entries must be > 0")
    ratio = const.beta ** 2 * const.gamma ** 2 * const.dim / const.alpha ** 3
    baselines = (2.0 * lambda_dms_sup(lams, const.alpha)).tolist()
    report = {
        "applicable": bool(cert.valid),
        "constants": const.as_dict(),
        "certificate": cert.as_dict(),
        "lambda_grid": lams,
        "baseline_rates": baselines,
        "sufficient_condition_ratio": ratio,
    }
    if not cert.valid:
        report.update({
            "reason": "certificate is not valid (rate <= 0); comparison "
                      "inapplicable",
            "dominates": None,
            "all_dominated": None,
            "min_margin": None,
        })
        return report
    rate = cert.original_rate
    margins = [rate - b for b in baselines]
    dominates = [m > 0.0 for m in margins]
    report.update({
        "certificate_rate": rate,
        "dominates": dominates,
        "all_dominated": all(dominates),
        "min_margin": min(margins),
    })
    return report


def rescale_rate(original_constants: AssumptionConstants):
    """Map constants to the normalized (strong convexity = 1) setting.

    (alpha, beta, gamma) -> (1, beta/alpha, gamma/sqrt(alpha)); the returned
    multiplier sqrt(alpha) converts rescaled-time rates back to original-time
    rates.
    """
    c = original_constants
    root = math.sqrt(c.alpha)
    rescaled = AssumptionConstants(
        alpha=1.0,
        beta=c.beta / c.alpha,
        gamma=c.gamma / root,
        dim=c.dim,
        estimated=c.estimated,
        gamma_box=c.gamma_box,
    )
    return rescaled, root


@dataclass(frozen=True)
class DiagQuadraticWitness:
    """Search output for the diagonal-quadratic near-optimal rate.

    (a, x, y) determine the S-weights via b = 2(a + x), c = (a - y)/2; this
    triple deliberately lives off the balance-constraint manifold, so it is
    not a LyapunovCoefficients.
    """

    a: float
    x: float
    y: float
    eps_rate: float

    @property
    def b(self) -> float:
        return 2.0 * (self.a + self.x)

    @property
    def c(self) -> float:
        return 0.5 * (self.a - self.y)

    def as_dict(self) -> dict:
        return {"a": self.a, "x": self.x, "y": self.y, "b": self.b,
                "c": self.c, "eps_rate": self.eps_rate}


def diag_witness_conditions(v, witness: DiagQuadraticWitness, eps_rate: float):
    """The three per-coordinate scalar conditions plus positivity of S.

    Returns (g1, g2, g3, det) arrays over the coordinates; feasibility means
    g1 > 0, g3 > 0, g1*g3 - g2^2 > 0 everywhere and (x-y) a - x y > 0.
    """
    v = np.asarray(v, dtype=float)
    k = eps_rate / 2.0
    a, x, y = witness.a, witness.x, witness.y
    omk = 1.0 - k
    g1 = (1.0 / v - omk / v ** 2) * a - omk * (x / v ** 2 + 2.0)
    g2 = (1.0 - omk / v) * a - 0.5 * (x + y)
    g3 = (v - omk) * a - (2.0 * v - omk) * (y - 2.0)
    det = g1 * g3 - g2 ** 2
    return g1, g2, g3, det


#: doubling cap for the witness search scalar a
_WITNESS_A_CAP = 1e12
#: largest (x, y) = (x, x/2) refinement tried after the paper's (1, 1/2)
_WITNESS_X_CAP = 2.0 ** 24


def diag_quadratic_certificate(v, eps_rate: float):
    """Near-optimal rate witness for a diagonal quadratic potential.

    v holds the frequencies of V(q) = sum v_i^2 q_i^2 / 2 in the rescaled
    normalization (min v_i >= 1); eps_rate in (0, 2) is the rate give-up.
    Searches a on a doubling schedule for (x, y) = (1, 1/2) first, then
    doubles (x, y = x/2) -- wide v spreads need larger x - y.  Returns
    (witness, rate) with rate = 2 - eps_rate, or raises WitnessNotFound when
    the caps are exhausted.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.ndim != 1 or v.size == 0:
        raise ValueError("v must be a nonempty 1-d vector")
    if np.min(v) < 1.0 - 1e-12:
        raise ValueError(
            f"min v = {np.min(v):.6g} < 1; rescale the potential so the "
            "smallest frequency is 1"
        )
    if not 0.0 < eps_rate < 2.0:
        raise ValueError(f"eps_rate must be in (0, 2), got {eps_rate}")

    x = 1.0
    while x <= _WITNESS_X_CAP:
        y = 0.5 * x
        a = 1.0
        while a <= _WITNESS_A_CAP:
            w = DiagQuadraticWitness(a=a, x=x, y=y, eps_rate=eps_rate)
            if a > y and (x - y) * a - x * y > 0:
                g1, _, g3, det = diag_witness_conditions(v, w, eps_rate)
                if np.all(g1 > 0) and np.all(g3 > 0) and np.all(det > 0):
                    return w, 2.0 - eps_rate
            a *= 2.0
        x *= 2.0
    raise WitnessNotFound(
        f"no witness with a <= {_WITNESS_A_CAP:g} and x <= {_WITNESS_X_CAP:g}; "
        f"eps_rate = {eps_rate} is too aggressive for frequency spread "
        f"[{v.min():.3g}, {v.max():.3g}]"
    )

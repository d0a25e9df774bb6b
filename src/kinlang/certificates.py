"""Closed-form exponential-rate certificates for the kinetic dynamics.

Everything here is exact arithmetic on the assumption constants (alpha, beta,
gamma, d) and a coefficient triple (a, b, c) weighting the Lyapunov matrix

    S = [[b Gamma^-2, a Gamma^-1], [a Gamma^-1, c I]].

The formulas keep alpha explicit (its 1/alpha terms), so ``certificate``
takes the original constants, gives the rate in rescaled time (strong
convexity normalized to 1) and multiplies it by sqrt(alpha) for the
original-time rate.  A certificate that fails to accelerate (rate <= 0) is
data, not an error: the validity flag records whether the hypothesis
gamma < sqrt(m1/m2) actually holds.

One function judges a cell (s, x0) of the weight family:
``family_certificate`` gives its certificate, or records the failure that
leaves it without one.  ``optimize_m1`` sweeps it over a grid, and the CLI's
single-cell commands read it.  ``check_certifiable`` states the range of
alpha and beta in which the arithmetic stays normal.

The baseline being beaten is the best constant scalar friction rate available
through the same hypocoercivity route, ``lambda_dms`` and its supremum
``lambda_dms_sup``, which is in closed form: the roots of one quadratic in
the free parameter.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateS,
    InvalidCoefficients,
    NonPositiveDenominator,
    WitnessNotFound,
)
from .potentials import AssumptionConstants

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
    "family_certificate",
    "optimize_m1",
    "check_certifiable",
    "lambda_dms",
    "lambda_dms_sup",
    "compare_to_constant_friction",
    "diag_quadratic_certificate",
]

#: relative tolerance on the balance constraint a + c = b / s^2
COEFF_CONSTRAINT_TOL = 1e-12

#: alpha's range and beta's bound within which certificates are taken
#: (``check_certifiable``)
ALPHA_RANGE = (1e-75, 1e75)
BETA_MAX = 1e225


def check_certifiable(const: AssumptionConstants):
    """Raise ValueError unless 1e-75 <= alpha <= 1e75 and beta <= 1e225.

    In that range the weights, S and the certificate arithmetic stay normal
    floats.  The weights a, b, c are 1/alpha times a weight of s and x0, and
    every intermediate of ``certificate`` is alpha^k times a weight of s,
    x0, kappa and d with |k| <= 4; the k = -4 one is l_constants'
    a^2 s^-3 / alpha^2.  So for alpha in the range they lie within 1e+-300
    of their weights, which leaves 8 decades for s in [1, 4] and x0 in
    [1, 1000] at kappa = 1.  beta enters through kappa = beta/alpha alone,
    and beta <= 1e225 keeps kappa <= 1e300.  The endpoint 1/(s sqrt(kappa))
    is then a normal positive number, and S's entries stay normal: the
    smallest, b Gamma^-2 at Hess V's eigenvalue beta, is about
    1/(alpha beta) >= 1e-300.  A large kappa only makes L1, L2, m2 and the
    comparison's ratio grow, up to inf: the certificate is then invalid,
    which is data.  Just outside the alpha range the default grids already
    meet subnormal or infinite intermediates, and from alpha = 1e170 on
    every weight matrix rounds to a degenerate one.
    """
    lo, hi = ALPHA_RANGE
    if not (lo <= const.alpha <= hi and const.beta <= BETA_MAX):
        raise ValueError(
            f"alpha = {const.alpha!r} and beta = {const.beta!r}; a "
            f"certificate needs {lo:g} <= alpha <= {hi:g} and "
            f"beta <= {BETA_MAX:g}")


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
        out = asdict(self)
        out["constants"] = self.constants.as_dict()
        out["coefficients"] = out.pop("coeffs")
        return out


def _check_strictness(const: AssumptionConstants, coeffs: LyapunovCoefficients) -> float:
    """alpha^-1 + c - a/s^2, required > 0 by the rate derivation."""
    d0 = 1.0 / const.alpha + coeffs.c - coeffs.a / coeffs.s ** 2
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
    certificates are legitimate outputs.  Coefficients that break the
    strictness condition raise InvalidCoefficients from f_of.
    """
    s = coeffs.s
    x_lo = 1.0 / (s * math.sqrt(const.kappa))
    x_hi = 1.0 / s
    m1 = min(f_of(x_lo, const, coeffs), f_of(x_hi, const, coeffs))
    m2 = max(g_of(x_lo, const, coeffs), g_of(x_hi, const, coeffs))
    l1, l2 = l_constants(const, coeffs)
    # at gamma = 0 the gamma^2 m2 term is 0 even where m2 is inf
    rescaled = m1 - const.gamma ** 2 * m2 if const.gamma else m1
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
    """One (s, x0) cell of the weight family; certificate is None if the
    pair cannot form a positive definite S or its arithmetic overflows, and
    error and error_type then hold the message and the class name of the
    exception; an overflow's message names the cell's s and x0."""

    s: float
    x0: float
    certificate: Optional[RateCertificate]
    error: Optional[str] = None
    error_type: Optional[str] = None


def family_certificate(const: AssumptionConstants, s: float,
                       x0: float) -> SweepEntry:
    """The weight family's cell at (s, x0), the one judge of a cell for
    ``optimize_m1`` and the CLI: the ``certificate`` of its coefficients, or
    the failure that leaves it without one (x0 too small for s, a degenerate
    S, overflow), which is recorded rather than raised."""
    try:
        cert = certificate(const, coefficient_family(const, s, x0))
    except (ValueError, OverflowError, DegenerateS, InvalidCoefficients,
            NonPositiveDenominator) as exc:
        error = (f"the certificate arithmetic overflows at s = {s!r}, "
                 f"x0 = {x0!r}" if isinstance(exc, OverflowError) else str(exc))
        return SweepEntry(s, x0, None, error, type(exc).__name__)
    return SweepEntry(s, x0, cert)


def optimize_m1(const: AssumptionConstants, s_grid: Sequence[float],
                x0_grid: Sequence[float]):
    """Sweep the constrained weight family over (s, x0); maximize m1.

    Returns (best_certificate, table) where table lists the
    ``family_certificate`` cell of every grid point in row-major (s outer,
    x0 inner) order.  The best is the certificate with the largest m1, the
    first on a tie; a NaN m1 is never chosen.  Raises ValueError only for
    empty grids or when no cell at all has a certificate with m1 > -inf.
    """
    s_grid = list(s_grid)
    x0_grid = list(x0_grid)
    if not s_grid or not x0_grid:
        raise ValueError("s_grid and x0_grid must be nonempty")
    table = [family_certificate(const, s, x0)
             for s in s_grid for x0 in x0_grid]
    # max keeps the first of equal keys; > -inf drops NaN and -inf
    chosen = [e.certificate for e in table
              if e.certificate is not None and e.certificate.m1 > -math.inf]
    if not chosen:
        raise ValueError("no feasible (s, x0) cell in the sweep")
    return max(chosen, key=lambda cert: cert.m1), table


def _finite_square(lam) -> bool:
    # friction strengths are squared; the config's lambda grids share this rule
    return all(v > 0 and math.isfinite(v * v) for v in np.ravel(lam).tolist())


def _check_lambda_alpha(lam, alpha: float):
    """lambda_dms's and lambda_dms_sup's rule on their arguments."""
    if not _finite_square(lam):
        raise ValueError(
            f"lam must be finite and > 0 with a finite square, got {lam}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")


def _lambda_dms_formula(lam, alpha, eps):
    """lambda_dms without checks, for broadcastable lam and eps.

    Rationalized, (lam - c eps - R) = eps (B - eps D) / (lam - c eps + R)
    with R = hypot(h eps, lam - k eps), B = 2 (k - c) lam and
    D = h^2 + k^2 - c^2 = h^2 + 2 (k - c), since k + c = 2: the
    denominator is positive on (-1, 1], so nothing cancels, and the ratio
    (B - eps D) / (lam - c eps + R) is taken first, so nothing underflows at
    small lam.  Arrays and floats take the same NumPy calls, so they round
    alike.
    """
    c = 1.0 / (1.0 + alpha)
    k_minus_c = 2.0 * alpha / (1.0 + alpha)
    h = math.sqrt(2.0) + lam / 2.0
    root = np.hypot(h * eps, lam - (2.0 * alpha + 1.0) / (alpha + 1.0) * eps)
    ratio = ((2.0 * k_minus_c * lam - eps * (h * h + 2.0 * k_minus_c))
             / (lam - c * eps + root))
    return eps * ratio / (2.0 * (1.0 + np.abs(eps)))


def lambda_dms(lam, alpha, eps):
    """Constant-scalar-friction decay rate for free parameter eps in (-1, 1).

    Vectorized over eps, each entry bitwise the float call's result.  It is
    exactly 0 at eps = 0 and negative for every eps < 0 (a bad eps
    certifies nothing).  A lam whose square overflows raises ValueError.
    """
    lam = float(lam)
    alpha = float(alpha)
    _check_lambda_alpha(lam, alpha)
    eps = np.asarray(eps, dtype=float)
    if np.any(np.abs(eps) >= 1.0):
        raise ValueError("eps must lie in (-1, 1)")
    out = _lambda_dms_formula(lam, alpha, eps)
    if out.ndim == 0:
        return float(out)
    return out


def lambda_dms_sup(lam, alpha: float):
    """Supremum of lambda_dms over eps, in closed form.

    lam is a float or an array of them: a float gives a float, an array an
    array of its shape, each entry independent of the others.

    lambda_dms < 0 for eps < 0, so the sup is over [0, 1], where
    lambda_dms = (lam - c eps - R(eps)) / (2 (1 + eps)) with c = 1/(1+alpha),
    k = (2 alpha + 1)/(1 + alpha), h = sqrt(2) + lam/2 and
    R^2 = h^2 eps^2 + (lam - k eps)^2.  Its derivative vanishes where

        lam^2 + lam k - eps (lam k + A) = (lam + c) R(eps),  A = h^2 + k^2.

    With eps = lam eta, squaring and dividing by lam^2 gives
    a2 eta^2 + a1 eta + a0 = 0 with a2 = (lam k + A)^2 - (lam + c)^2 A,
    a1 = 2 (lam + c)^2 k - 2 (lam + k)(lam k + A) and
    a0 = (k - c)(2 lam + 2).  Squaring only adds candidates, so the sup is
    the max of 0 (the value at eps = 0), the value at eps = 1 and the
    values at the real roots in (0, 1).  The condition is homogeneous of
    degree 2 in (lam, k, c, h), so for lam > 1 those four are divided by
    lam first (lam^4 would overflow; then eps = eta), and the roots are
    taken in the form that does not cancel.  Accurate to a few ulp for
    every normal lam; a lam whose square overflows raises ValueError.
    """
    lam = np.asarray(lam, dtype=float)
    alpha = float(alpha)
    _check_lambda_alpha(lam, alpha)
    x = lam.ravel()
    scale = np.maximum(x, 1.0)
    ls = x / scale
    ks = (2.0 * alpha + 1.0) / (1.0 + alpha) / scale
    cs = 1.0 / (1.0 + alpha) / scale
    hs = math.sqrt(2.0) / scale + ls / 2.0
    a = hs * hs + ks * ks
    u = ls * ks + a
    v = (ls + cs) * (ls + cs)
    a2 = u * u - v * a
    a1 = 2.0 * (v * ks - (ls + ks) * u)
    # k - c = 2 alpha / (1 + alpha) and k + c = 2, without cancellation
    a0 = 2.0 * alpha / (1.0 + alpha) / scale * (2.0 * ls + 2.0 / scale)
    # a negative discriminant only adds a spurious candidate
    q = -0.5 * (a1 + np.copysign(np.sqrt(np.maximum(a1 * a1 - 4.0 * a2 * a0,
                                                    0.0)), a1))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.stack([ls * (q / a2), ls * (a0 / q), np.ones_like(x)])
    # eps = 0 stands in for every root outside (0, 1], NaN included
    roots = np.where((roots > 0.0) & (roots <= 1.0), roots, 0.0)
    sups = np.maximum(_lambda_dms_formula(x, alpha, roots).max(axis=0), 0.0)
    if lam.ndim == 0:
        return float(sups[0])
    return sups.reshape(lam.shape)


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
    # products, not powers: float ** overflows to OverflowError, * to inf;
    # no alpha^3, which underflows to 0; 0 at gamma = 0 even if kappa^2 is inf
    kappa, gamma = const.kappa, const.gamma
    ratio = ((kappa * kappa) * (gamma * gamma / const.alpha) * const.dim
             if gamma else 0.0)
    baselines = (2.0 * lambda_dms_sup(lams, const.alpha)).tolist()
    report = {
        "applicable": bool(cert.valid),
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
        return {**asdict(self), "b": self.b, "c": self.c}


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

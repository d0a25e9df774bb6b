import warnings

import numpy as np
import pytest

from kinlang.errors import ConvexityLost, NonPositiveFrequency, NotPositiveDefinite
from kinlang.linalg import spd_sqrt_directional_derivative
from kinlang.potentials import (
    COSINE,
    AssumptionConstants,
    perturbed_diagonal,
    quadratic_diagonal,
    quadratic_general,
)

# frozen from a dense-grid + local-refinement sweep of
# sup_x eps |f'''(x)| / (2 sqrt(1 + eps f''(x))) for f = log cosh on [-8, 8]
GAMMA_LOGCOSH = {0.1: 0.0372739117, 0.01: 0.0038362426, 0.001: 0.0003847720}

# gamma as scipy.optimize's bounded Brent refinement of a grid sup gave it;
# the closed form must stay within 2 ulp of each
GAMMA_BRENT = [
    (([1.0, 2.0], 0.01), 0.00383624259989183),
    (([1.0, 3.0], 0.1), 0.037273911664221004),
    (([1.0], 0.1), 0.037273911664221004),
    (([1.0], 0.3, "cosine"), 0.1517576992825312),
    (([0.5, 1.0, 4.0], 0.2), 0.12500000000000003),
]


def central_diff_grad(p, q, h=1e-5):
    g = np.zeros(p.dim)
    for i in range(p.dim):
        e = np.zeros(p.dim)
        e[i] = h
        g[i] = (p.value(q + e) - p.value(q - e)) / (2 * h)
    return g


def central_diff_hess(p, q, h=1e-5):
    m = np.zeros((p.dim, p.dim))
    for i in range(p.dim):
        e = np.zeros(p.dim)
        e[i] = h
        m[:, i] = (p.grad(q + e) - p.grad(q - e)) / (2 * h)
    return 0.5 * (m + m.T)


class TestQuadraticDiagonal:
    def test_unit_frequencies(self):
        p = quadratic_diagonal([1.0, 1.0])
        q = np.array([1.0, 1.0])
        assert p.value(q) == pytest.approx(1.0)
        assert np.allclose(p.hess(q), np.eye(2))
        assert p.constants.gamma == 0.0

    def test_constants_min_max_squares(self):
        p = quadratic_diagonal([1.0, 2.0])
        assert p.constants.alpha == 1.0
        assert p.constants.beta == 4.0
        assert p.constants.kappa == 4.0

    def test_gibbs_position_variance(self):
        # stationary position variance is 1/w^2 for the 1d oscillator
        w = 1.7
        p = quadratic_diagonal([w])
        assert np.linalg.inv(p.hess(np.zeros(1)))[0, 0] == pytest.approx(1 / w**2)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveFrequency):
            quadratic_diagonal([1.0, 0.0])
        with pytest.raises(NonPositiveFrequency):
            quadratic_diagonal([-2.0])

    @pytest.mark.parametrize("family", ["quadratic_diagonal",
                                        "perturbed_diagonal"])
    @pytest.mark.parametrize("v", [[1.0, 1e200], [np.inf], [np.nan]],
                             ids=["overflow", "inf", "nan"])
    def test_rejects_frequency_without_finite_square(self, family, v):
        # both diagonal families share the rule, and v^2 overflows silently
        build = {"quadratic_diagonal": quadratic_diagonal,
                 "perturbed_diagonal": lambda v: perturbed_diagonal(v, 0.1)}
        with pytest.raises(NonPositiveFrequency, match="finite square"):
            build[family](v)

    def test_hessian_constant_and_bitwise_equal(self):
        p = quadratic_diagonal([1.0, 3.0])
        h1 = p.hess(np.zeros(2))
        h2 = p.hess(np.array([5.0, -7.0]))
        assert np.array_equal(h1, h2)
        assert p.constant_hessian


class TestQuadraticGeneral:
    def test_identity_matches_diagonal(self):
        pg = quadratic_general(np.eye(3))
        pd = quadratic_diagonal([1.0, 1.0, 1.0])
        rng = np.random.default_rng(0)
        for _ in range(5):
            q = rng.standard_normal(3)
            assert pg.value(q) == pytest.approx(pd.value(q), abs=1e-14)
            assert np.allclose(pg.grad(q), pd.grad(q))
            assert np.allclose(pg.hess(q), pd.hess(q))

    def test_rotation_preserves_spectrum(self):
        th = np.pi / 6
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        a = r.T @ np.diag([1.0, 4.0]) @ r
        p = quadratic_general(a)
        assert p.constants.alpha == pytest.approx(1.0, abs=1e-12)
        assert p.constants.beta == pytest.approx(4.0, abs=1e-12)

    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(21)
        b = rng.standard_normal((4, 4))
        p = quadratic_general(b.T @ b + np.eye(4))
        for _ in range(3):
            q = rng.standard_normal(4)
            assert np.allclose(central_diff_grad(p, q), p.grad(q), rtol=1e-5)
            assert np.allclose(central_diff_hess(p, q), p.hess(q), rtol=1e-5)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            quadratic_general(np.diag([1.0, -1.0]))


class TestAssumptionConstants:
    @pytest.mark.parametrize("alpha, beta, gamma, match", [
        (0.0, 1.0, 0.0, "alpha must be > 0"),
        (-1.0, 1.0, 0.0, "alpha must be > 0"),
        (2.0, 1.0, 0.0, "beta=1.0 < alpha=2.0"),
        (1.0, 1.0, -0.1, "gamma must be >= 0"),
    ])
    def test_bad_constants_rejected(self, alpha, beta, gamma, match):
        with pytest.raises(ValueError, match=match):
            AssumptionConstants(alpha, beta, gamma, 1)


class TestPerturbedDiagonal:
    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps must be >= 0"):
            perturbed_diagonal([1.0], -0.1)

    def test_eps_zero_is_quadratic(self):
        p0 = perturbed_diagonal([1.0, 2.0], 0.0)
        pq = quadratic_diagonal([1.0, 2.0])
        rng = np.random.default_rng(2)
        q = rng.standard_normal(2)
        assert p0.value(q) == pytest.approx(pq.value(q), abs=1e-14)
        assert np.allclose(p0.hess(q), pq.hess(q))
        assert p0.constants.gamma == 0.0
        assert p0.constant_hessian

    def test_hessian_formula(self):
        p = perturbed_diagonal([1.0], 0.1)
        h0 = p.hess(np.zeros(1))
        # f''(0) = 1 for log cosh
        assert h0[0, 0] == pytest.approx(1.1, abs=1e-14)

    def test_gamma_values_frozen(self):
        for eps, expected in GAMMA_LOGCOSH.items():
            p = perturbed_diagonal([1.0], eps)
            assert p.constants.gamma == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("args, expected", GAMMA_BRENT)
    def test_gamma_within_2_ulp_of_brent(self, args, expected):
        gamma = perturbed_diagonal(*args).constants.gamma
        assert abs(gamma - expected) <= 2 * np.spacing(expected)

    def test_gamma_over_eps_nearly_constant(self):
        ratios = [perturbed_diagonal([1.0], e).constants.gamma / e
                  for e in (1e-1, 1e-2, 1e-3)]
        assert (max(ratios) - min(ratios)) / min(ratios) < 0.05

    def test_alpha_beta_converge_to_unperturbed(self):
        base = quadratic_diagonal([1.0, 2.0]).constants
        for eps in (1e-2, 1e-4):
            c = perturbed_diagonal([1.0, 2.0], eps).constants
            assert abs(c.alpha - base.alpha) <= eps * 1.0  # sup |f''| = 1
            assert abs(c.beta - base.beta) <= eps * 1.0

    def test_convexity_lost(self):
        # cosine perturbation has inf f'' = -1, so eps >= min v_i^2 breaks it
        with pytest.raises(ConvexityLost):
            perturbed_diagonal([1.0], 1.5, perturbation=COSINE)
        p = perturbed_diagonal([1.0], 0.5, perturbation=COSINE)
        assert p.constants.alpha == pytest.approx(0.5)

    def test_finite_difference_consistency(self):
        p = perturbed_diagonal([1.0, 1.5], 0.1)
        rng = np.random.default_rng(4)
        for _ in range(3):
            q = rng.standard_normal(2)
            assert np.allclose(central_diff_grad(p, q), p.grad(q), rtol=1e-5, atol=1e-8)
            assert np.allclose(central_diff_hess(p, q), p.hess(q), rtol=1e-5, atol=1e-7)

    def test_strong_convexity_on_samples(self):
        p = perturbed_diagonal([1.0, 2.0], 0.05)
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = 4 * rng.standard_normal(2)
            w = np.linalg.eigvalsh(p.hess(q))
            assert w[0] >= p.constants.alpha - 1e-8


#: f'' and f''' of each shipped perturbation, written out here so that the
#: dense-grid reference shares no code with the closed forms
DERIVATIVES = {
    "log_cosh": (lambda x: 1.0 - np.tanh(x) ** 2,
                 lambda x: -2.0 * np.tanh(x) * (1.0 - np.tanh(x) ** 2)),
    "cosine": (lambda x: -np.cos(x), np.sin),
}


#: grad V and hess_diag of each shipped perturbation, written out here in
#: the evaluators' operation order, so that the reference shares no code
#: with them
WRITTEN_OUT = {
    "log_cosh": (lambda q, v2, eps: v2 * q + np.tanh(q) * eps,
                 lambda q, v2, eps: (1.0 - np.square(np.tanh(q))) * eps + v2),
    "cosine": (lambda q, v2, eps: v2 * q + (-np.sin(q)) * eps,
               lambda q, v2, eps: (-np.cos(q)) * eps + v2),
}


class TestGradHessDiag:
    """grad, hess_diag and grad_hess_diag all read f' and f'' from d1_d2,
    and each must give the written-out reference's bits, non-finite inputs
    and overflowing ones included."""

    @pytest.mark.parametrize("perturbation", ["log_cosh", "cosine"])
    @pytest.mark.parametrize("v", [[1.5], [1.0, 2.0, 0.8]], ids=["d1", "d3"])
    def test_bitwise_equal_to_grad_and_hess_diag(self, perturbation, v):
        eps = 0.3
        p = perturbed_diagonal(v, eps, perturbation)
        special = [0.0, -0.0, 1e-300, 0.5, -3.0, 20.0, -1e3, 1e3,
                   np.inf, -np.inf, np.nan]
        column = np.concatenate(
            [special, np.random.default_rng(5).uniform(-1e3, 1e3, 64)])
        q = np.stack([np.roll(column, i) for i in range(len(v))], axis=1)
        grad_out, hess_out, scratch = np.full((3,) + q.shape, 7.0)
        v2 = np.asarray(v) ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # sin(inf)
            got = p.grad_hess_diag(q, grad_out, hess_out, scratch)
            want = [f(q, v2, eps) for f in WRITTEN_OUT[perturbation]]
            separate = (p.grad(q), p.hess_diag(q))
        assert got[0] is grad_out and got[1] is hess_out
        for a, b in [*zip(got, want), *zip(separate, want)]:
            assert np.array_equal(a, b, equal_nan=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))


class TestGammaClosedForm:
    @pytest.mark.parametrize("perturbation", sorted(DERIVATIVES))
    def test_matches_dense_grid(self, perturbation):
        # the sup of eps |f'''| / (2 sqrt(v^2 + eps f'')) over a grid of
        # spacing 2e-5 on [-20, 20] sits just below the closed form
        d2, d3 = DERIVATIVES[perturbation]
        xs = np.linspace(-20.0, 20.0, 2_000_001)
        f2, f3 = d2(xs), np.abs(d3(xs))
        rng = np.random.default_rng(13)
        for k in range(20):
            v2 = rng.uniform(0.1, 4.0)
            if perturbation == "cosine":
                eps = rng.uniform(0.01, 0.999) * v2
            elif k % 2:
                eps = rng.uniform(0.01, 3.0 * v2)  # 3 v^2 > eps
            else:
                eps = rng.uniform(3.0 * v2, 30.0)  # 3 v^2 <= eps
            gamma = perturbed_diagonal([np.sqrt(v2)], eps,
                                       perturbation).constants.gamma
            grid = np.max(eps * f3 / (2.0 * np.sqrt(v2 + eps * f2)))
            assert grid <= gamma * (1.0 + 4.0 * np.finfo(float).eps)
            assert gamma - grid <= 1e-9 * gamma

    @pytest.mark.parametrize("eps, limit", [
        (1e-20, 2.0 / (3.0 * np.sqrt(3.0)) * 1e-20),  # u -> 2/3 as eps -> 0
        (1e20, 0.5 * np.sqrt(1e20)),  # u -> 1/2 as eps -> inf
        (1e160, 0.5 * np.sqrt(1e160)),  # where b^2 overflows
    ])
    def test_log_cosh_limits(self, eps, limit):
        # each form of the root holds where the other would cancel
        gamma = perturbed_diagonal([1.0], eps).constants.gamma
        assert gamma == pytest.approx(limit, rel=1e-9)

    @pytest.mark.parametrize("perturbation", sorted(DERIVATIVES))
    def test_eps_zero_is_exact_zero_without_warning(self, perturbation):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = perturbed_diagonal([0.5, 2.0], 0.0, perturbation)
        assert p.constants.gamma == 0.0


class TestGammaBoundsSqrtHessDerivative:
    # gamma is the sup of a closed-form entry; rebuild that sup from the
    # Sylvester solve on a central difference of Hess V, which shares no
    # code with the closed form, and require it to sit just below gamma
    @pytest.mark.parametrize("perturbation", ["log_cosh", "cosine"])
    @pytest.mark.parametrize("v", [[1.0], [1.0, 1.3]])
    def test_grid_sup_just_below_gamma(self, perturbation, v):
        p = perturbed_diagonal(v, 0.1, perturbation=perturbation)
        h = 1e-5
        sup = 0.0
        for x in np.linspace(-8.0, 8.0, 2001):
            q = np.full(p.dim, x)
            for i in range(p.dim):
                e = np.zeros(p.dim)
                e[i] = h
                dhess = (p.hess(q + e) - p.hess(q - e)) / (2.0 * h)
                dsqrt = spd_sqrt_directional_derivative(p.hess(q), dhess)
                sup = max(sup, np.linalg.norm(dsqrt, 2))
        assert p.constants.gamma - 1e-4 <= sup <= p.constants.gamma

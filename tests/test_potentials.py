import numpy as np
import pytest

from kinlang.errors import ConvexityLost, NonPositiveFrequency, NotPositiveDefinite
from kinlang.linalg import spd_sqrt_directional_derivative
from kinlang.potentials import (
    COSINE,
    LOG_COSH,
    _golden_max,
    estimate_constants,
    perturbed_diagonal,
    quadratic_diagonal,
    quadratic_general,
)

# frozen from a dense-grid + local-refinement sweep of
# sup_x eps |f'''(x)| / (2 sqrt(1 + eps f''(x))) for f = log cosh on [-8, 8]
GAMMA_LOGCOSH = {0.1: 0.0372739117, 0.01: 0.0038362426, 0.001: 0.0003847720}

# gamma as scipy.optimize's bounded Brent refinement gave it; the
# golden-section refinement must stay within 2 ulp of each
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


class TestPerturbedDiagonal:
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


class TestGoldenMax:
    def test_interior_maximum_of_concave_function(self):
        # the top value is 0, so a value within 1e-24 of it puts the best
        # probe within 1e-12 of the maximizer 0.3
        fmax = _golden_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
        assert -1e-24 <= fmax <= 0.0

    @pytest.mark.parametrize("sign, end", [(1.0, 1.0), (-1.0, -0.5)])
    def test_maximum_at_either_end(self, sign, end):
        fmax = _golden_max(lambda x: sign * x, -0.5, 1.0)
        assert abs(fmax - sign * end) <= 1e-12


class TestSqrtHessDerivativeConsistency:
    # analytic d sqrt(Hess)/dq_i must match the Sylvester solve applied to
    # the analytic d Hess/dq_i on every family
    def test_all_families(self):
        rng = np.random.default_rng(8)
        pots = [
            quadratic_diagonal([1.0, 2.0]),
            perturbed_diagonal([1.0, 1.3], 0.1),
            perturbed_diagonal([1.0], 0.02, perturbation=LOG_COSH),
        ]
        for p in pots:
            for _ in range(5):
                q = rng.standard_normal(p.dim)
                for i in range(p.dim):
                    analytic = p.sqrt_hess_dq(q, i)
                    sylvester = spd_sqrt_directional_derivative(
                        p.hess(q), p.hess_dq(q, i)
                    )
                    scale = max(1.0, np.linalg.norm(sylvester))
                    assert np.linalg.norm(analytic - sylvester) <= 1e-8 * scale


class TestEstimateConstants:
    def test_quadratic_exact(self):
        p = quadratic_diagonal([1.0, 2.0])
        c = estimate_constants(p, (-3.0, 3.0), 50, seed=0)
        assert c.alpha == 1.0
        assert c.beta == 4.0
        assert c.gamma == 0.0
        assert c.estimated

    def test_perturbed_close_to_analytic(self):
        p = perturbed_diagonal([1.0], 0.05)
        c = estimate_constants(p, (-5.0, 5.0), 10_000, seed=1)
        # analytic sup-based constants: beta = 1.05, gamma frozen from the
        # dense-grid sweep
        assert abs(c.beta - 1.05) / 1.05 < 0.02
        assert abs(c.gamma - 0.0189328851) / 0.0189328851 < 0.02
        # inf f'' = 0 is approached at +-inf, so the boxed estimate sits just
        # above the analytic alpha = 1
        assert 1.0 <= c.alpha < 1.02

    def test_single_sample(self):
        p = perturbed_diagonal([1.0], 0.1)
        c = estimate_constants(p, (0.0, 0.0), 1, seed=3)
        # at q = 0: Hess = 1 + 0.1 * f''(0) = 1.1, and f'''(0) = 0
        assert c.alpha == pytest.approx(1.1, abs=1e-12)
        assert c.gamma == pytest.approx(0.0, abs=1e-12)

    def test_rejects_no_samples(self):
        p = quadratic_diagonal([1.0])
        with pytest.raises(ValueError):
            estimate_constants(p, (-1.0, 1.0), 0, seed=0)

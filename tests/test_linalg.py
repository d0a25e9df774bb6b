from types import SimpleNamespace

import numpy as np
import pytest

from kinlang.errors import NotPositiveDefinite, NotSymmetric
from kinlang.friction import constant_matrix
from kinlang.gaussian import GaussianMoments, gaussian_chi2, kinetic_dynamics
from kinlang.linalg import (
    check_spd,
    check_symmetric,
    expm,
    gaussian_quadratic_expectation,
    spd_sqrt,
    spd_sqrt_directional_derivative,
)
from kinlang.lyapunov import build_s
from kinlang.potentials import quadratic_general


def random_spd(rng, d):
    b = rng.standard_normal((d, d))
    return b.T @ b + np.eye(d)


def random_sym(rng, d):
    b = rng.standard_normal((d, d))
    return 0.5 * (b + b.T)


class TestCheckSymmetric:
    def test_accepts_and_symmetrizes(self):
        m = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
        out = check_symmetric(m)
        assert np.array_equal(out, out.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            check_symmetric(np.array([[1.0, 2.0], [0.0, 3.0]]))

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12, 1e200])
    def test_slack_is_relative(self, scale):
        # the slack is SYM_TOL * ||M||_F, which reads no units: at 1e-12
        # the asymmetric matrix was accepted and symmetrized, and at 1e200
        # the sum of squares overflows, so the norm is taken without it
        asymmetric = np.array([[1.0, 0.5], [0.0, 1.0]]) * scale
        with pytest.raises(NotSymmetric, match="is not symmetric"):
            check_symmetric(asymmetric)
        # in a stack, beside a matrix of another scale, by its index
        with pytest.raises(NotSymmetric, match=r"^matrix\[1\] is not symmetric"):
            spd_sqrt(np.stack([np.eye(2), asymmetric]))
        roundoff = np.array([[1.0, 0.5], [0.5 * (1 + 1e-14), 1.0]]) * scale
        out = check_symmetric(roundoff)
        assert np.array_equal(out, out.T)

    def test_zero_matrix_accepted(self):
        # the covariance of a point law
        assert np.array_equal(check_symmetric(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_rejects_nonsquare(self):
        with pytest.raises(NotSymmetric):
            check_symmetric(np.ones((2, 3)))
        # a stack is not one matrix; spd_sqrt takes stacks, this does not
        with pytest.raises(NotSymmetric):
            check_symmetric(np.eye(2)[None])


class TestSpdSqrt:
    def test_diagonal(self):
        r = spd_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(r, np.diag([2.0, 3.0]), atol=1e-14)

    def test_identity(self):
        for d in (1, 3, 7):
            assert np.allclose(spd_sqrt(np.eye(d)), np.eye(d), atol=1e-14)

    def test_squaring_residual_seeded(self):
        rng = np.random.default_rng(7)
        for d in (2, 5, 20):
            for _ in range(10):
                a = random_spd(rng, d)
                r = spd_sqrt(a)
                res = np.linalg.norm(r @ r - a) / np.linalg.norm(a)
                assert res < 1e-10

    def test_sqrt_of_square_recovers(self):
        # spd_sqrt(R @ R) == R up to 1e-9 relative Frobenius error
        rng = np.random.default_rng(11)
        for d in (2, 6):
            for _ in range(10):
                r = spd_sqrt(random_spd(rng, d))
                r2 = spd_sqrt(r @ r)
                assert np.linalg.norm(r2 - r) <= 1e-9 * np.linalg.norm(r)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_sqrt(np.diag([1.0, -1.0]))

    def test_rejects_semidefinite_at_default_tol(self):
        with pytest.raises(NotPositiveDefinite):
            spd_sqrt(np.diag([1.0, 0.0]))

    def test_rejects_nan(self):
        # NaN is not above any floor, so the rule rejects it
        with pytest.raises(NotPositiveDefinite, match="^matrix has"):
            check_spd(np.array([np.nan, 1.0]))
        with pytest.raises(NotPositiveDefinite):
            spd_sqrt(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_unconvergeable_nan_named(self):
        # named before eigh, which fails to converge on a 4 x 4 NaN matrix
        with pytest.raises(NotPositiveDefinite,
                           match="^matrix has a non-finite entry$"):
            spd_sqrt(np.full((4, 4), np.nan))

    def test_nan_covariance_rejected(self):
        # named before eigvalsh, which gives [0, -0] for the 2 x 2 matrix
        # and fails to converge on the 4 x 4 one
        for cov in (np.array([[np.nan, 0.0], [0.0, 1.0]]),
                    np.full((4, 4), np.nan)):
            with pytest.raises(NotPositiveDefinite, match="^covariance"):
                GaussianMoments(np.zeros(len(cov)), cov)


class TestSpdSqrtStack:
    def test_single_matrix_bit_identical_to_one_decomposition(self):
        # the (d, d) result is the unbatched formula, bit for bit
        rng = np.random.default_rng(5)
        for d in (1, 2, 5):
            m = random_spd(rng, d)
            w, u = np.linalg.eigh(0.5 * (m + m.T))
            r = (u * np.sqrt(w)) @ u.T
            assert np.array_equal(spd_sqrt(m), 0.5 * (r + r.T))

    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(9)
        stack = np.stack([random_spd(rng, 3) for _ in range(6)])
        out = spd_sqrt(stack)
        assert out.shape == stack.shape
        for i in range(6):
            assert np.array_equal(out[i], spd_sqrt(stack[i]))

    def test_floor_is_per_matrix(self):
        # against a floor shared by the stack, 1e-10 * 1e8, the first
        # matrix would be rejected
        out = spd_sqrt(np.stack([1e-8 * np.eye(2), 1e8 * np.eye(2)]))
        assert np.allclose(out[0], 1e-4 * np.eye(2), rtol=1e-14, atol=0)

    def test_indefinite_member_named_by_index(self):
        stack = np.stack([np.eye(2), 2.0 * np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(NotPositiveDefinite, match=r"matrix\[2\] has eigenvalue"):
            spd_sqrt(stack)

    def test_nan_member_named_by_index(self):
        with pytest.raises(NotPositiveDefinite, match=r"^w\[1\] has"):
            check_spd(np.array([[1.0, 2.0], [np.nan, 1.0], [1.0, 1.0]]), "w")
        stack = np.stack([np.eye(2), np.diag([np.nan, 1.0])])
        with pytest.raises(NotPositiveDefinite, match=r"matrix\[1\] has"):
            spd_sqrt(stack)

    def test_unconvergeable_nan_member_named_by_index(self):
        stack = np.stack([np.eye(4), np.full((4, 4), np.nan), np.eye(4)])
        with pytest.raises(NotPositiveDefinite,
                           match=r"^matrix\[1\] has a non-finite entry$"):
            spd_sqrt(stack)

    def test_asymmetric_member_named_by_index(self):
        # the slack scales with each matrix's own norm: 5e-9 passes at
        # ||M||_F ~ 1e4 and fails at ~ 1
        skewed = np.array([[1.0, 0.0], [5e-9, 1.0]])
        spd_sqrt(np.stack([1e4 * np.eye(2) + skewed, np.eye(2)]))
        stack = np.stack([np.eye(2), skewed])
        with pytest.raises(NotSymmetric, match=r"matrix\[1\] is not symmetric"):
            spd_sqrt(stack)


class TestSqrtDerivative:
    def test_scalar_case(self):
        # d sqrt(x) = dx / (2 sqrt(x)) on each diagonal entry
        x = spd_sqrt_directional_derivative(np.diag([4.0, 9.0]), np.diag([1.0, 0.0]))
        assert np.allclose(x, np.diag([0.25, 0.0]), atol=1e-14)

    def test_zero_direction(self):
        rng = np.random.default_rng(3)
        m = random_spd(rng, 4)
        x = spd_sqrt_directional_derivative(m, np.zeros((4, 4)))
        assert np.allclose(x, 0.0, atol=1e-15)

    def test_sylvester_residual(self):
        # R X + X R - dm small for seeded (m, dm)
        rng = np.random.default_rng(19)
        for d in (2, 5, 20):
            for _ in range(5):
                m = random_spd(rng, d)
                dm = random_sym(rng, d)
                r = spd_sqrt(m)
                x = spd_sqrt_directional_derivative(m, dm)
                res = np.linalg.norm(r @ x + x @ r - dm)
                assert res <= 1e-10 * np.linalg.norm(dm)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(23)
        h = 1e-5
        for d in (2, 5):
            m = random_spd(rng, d)
            dm = random_sym(rng, d)
            x = spd_sqrt_directional_derivative(m, dm)
            fd = (spd_sqrt(m + h * dm) - spd_sqrt(m - h * dm)) / (2 * h)
            assert np.linalg.norm(x - fd) < 1e-6 * np.linalg.norm(x)

    def test_propagates_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_sqrt_directional_derivative(np.diag([1.0, -2.0]), np.eye(2))


class TestExpm:
    def test_t_zero_is_identity(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 5))
        assert np.array_equal(expm(m, 0.0), np.eye(5))

    def test_critically_damped_drift(self):
        # w=1 double eigenvalue: e^{At} = e^{-t} (I + (A + I) t); at t=1
        # this is e^{-1} [[2, 1], [-1, 0]]
        a = np.array([[0.0, 1.0], [-1.0, -2.0]])
        expected = np.exp(-1.0) * np.array([[2.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(expm(a, 1.0), expected, rtol=0, atol=1e-12)

    def test_matches_taylor_series(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4))
        t = 0.3
        acc = np.eye(4)
        term = np.eye(4)
        for k in range(1, 31):
            term = term @ (m * t) / k
            acc = acc + term
        out = expm(m, t)
        assert np.linalg.norm(out - acc) < 1e-9 * np.linalg.norm(acc)

    def test_group_property(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            m = rng.standard_normal((4, 4))
            m *= 1.0 / max(1.0, np.linalg.norm(m, 2))
            s, t = 1.25, 2.5  # ||m|| (s+t) <= 5 by the normalization above
            err = np.linalg.norm(expm(m, s) @ expm(m, t) - expm(m, s + t))
            assert err <= 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((6, 6))
        a = expm(m, 0.7)
        b = expm(m.copy(), 0.7)
        assert np.array_equal(a, b)

    def test_time_grid_stack_equals_single_calls(self):
        rng = np.random.default_rng(17)
        ts = np.array([0.0, 1e-3, 0.25, 0.0, 1.0, 3.5, 20.0])
        for n in (1, 2, 4, 16, 32):
            m = rng.standard_normal((n, n))
            stack = expm(m, ts)
            assert stack.shape == (ts.size, n, n)
            for k, t in enumerate(ts):
                assert np.array_equal(stack[k], expm(m, float(t))), (n, t)
            assert np.array_equal(stack[0], np.eye(n))
            assert np.array_equal(stack[3], np.eye(n))

    def test_empty_time_grid(self):
        assert expm(np.eye(3), np.empty(0)).shape == (0, 3, 3)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            expm(np.ones((2, 3)), 1.0)
        with pytest.raises(ValueError):
            expm(np.ones((2, 3)), np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            expm(np.ones((2, 2, 2)), 1.0)
        with pytest.raises(ValueError):
            expm(np.eye(2), np.ones((2, 2)))


class TestGaussianQuadraticExpectation:
    def test_norm_squared_is_dim(self):
        val = gaussian_quadratic_expectation(np.zeros(3), np.eye(3), np.eye(3))
        assert val == pytest.approx(3.0, abs=1e-14)

    def test_linear_part(self):
        val = gaussian_quadratic_expectation(
            np.array([2.0, 0.0]), np.eye(2), np.zeros((2, 2)),
            lin=np.array([1.0, 0.0]), const=5.0,
        )
        assert val == pytest.approx(7.0, abs=1e-14)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(31)
        d = 3
        mean = rng.standard_normal(d)
        cov = random_spd(rng, d)
        quad = random_sym(rng, d)
        lin = rng.standard_normal(d)
        const = 0.7
        n = 10**6
        x = rng.multivariate_normal(mean, cov, size=n)
        samples = np.einsum("ni,ij,nj->n", x, quad, x) + x @ lin + const
        mc = samples.mean()
        se = samples.std(ddof=1) / np.sqrt(n)
        exact = gaussian_quadratic_expectation(mean, cov, quad, lin, const)
        assert abs(exact - mc) < 4 * se

    def test_rejects_degenerate_cov(self):
        with pytest.raises(NotPositiveDefinite):
            gaussian_quadratic_expectation(
                np.zeros(2), np.diag([1.0, 0.0]), np.eye(2)
            )


def _chi2_rho(cov):
    return gaussian_chi2(GaussianMoments(np.zeros(2), cov),
                         GaussianMoments(np.zeros(2), np.eye(2)))


def _chi2_pi(cov):
    return gaussian_chi2(GaussianMoments(np.zeros(2), np.eye(2)),
                         GaussianMoments(np.zeros(2), cov))


def _build_s(g):
    # a = 0 keeps S = blockdiag(b G^-2, c I) diagonal, so its eigenvalues
    # are exact
    return build_s(SimpleNamespace(a=0.0, b=1.0, c=1.0), g)


#: (site, call, matrix accepted, matrix rejected).  Each pair brackets the
#: site's rule on the smallest eigenvalue: above 1e-10 * max|w| for the square
#: root and its users; above 1e-12 * max|w| for the chi2 covariances (rho's
#: read in pi = N(0, I)'s whitened frame, which is rho's own); above 0 for the
#: rest, where 1e-100 would fail either relative rule.
SPD_RULE_SITES = [
    ("spd_sqrt", spd_sqrt,
     np.diag([4.0, 4.04e-10]), np.diag([4.0, 3.96e-10])),
    ("spd_sqrt_stack", lambda m: spd_sqrt(np.stack([np.eye(2), m])),
     np.diag([4.0, 4.04e-10]), np.diag([4.0, 3.96e-10])),
    ("spd_sqrt_directional_derivative",
     lambda m: spd_sqrt_directional_derivative(m, np.zeros((2, 2))),
     np.diag([4.0, 4.04e-10]), np.diag([4.0, 3.96e-10])),
    ("kinetic_dynamics.a", lambda m: kinetic_dynamics(m, np.eye(2)),
     np.diag([4.0, 4.04e-10]), np.diag([4.0, 3.96e-10])),
    ("kinetic_dynamics.gamma_mat", lambda m: kinetic_dynamics(np.eye(2), m),
     np.diag([4.0, 4.04e-10]), np.diag([4.0, 3.96e-10])),
    ("quadratic_general", quadratic_general,
     np.diag([4.0, 4.04e-10]), np.diag([4.0, 3.96e-10])),
    ("gaussian_quadratic_expectation",
     lambda m: gaussian_quadratic_expectation(np.zeros(2), m, np.eye(2)),
     np.diag([4.0, 4.04e-10]), np.diag([4.0, 3.96e-10])),
    ("gaussian_chi2.rho", _chi2_rho,
     np.diag([0.5, 0.51e-12]), np.diag([0.5, 0.49e-12])),
    ("gaussian_chi2.pi", _chi2_pi,
     np.diag([4.0, 4.04e-12]), np.diag([4.0, 3.96e-12])),
    ("constant_matrix", constant_matrix,
     np.diag([4.0, 1e-100]), np.diag([4.0, 0.0])),
    ("build_s.gamma_matrix", _build_s,
     np.diag([4.0, 1e-100]), np.diag([4.0, 0.0])),
    # G = 1e150 gives the S eigenvalue 1e-300; at 1e200, 1e-400 underflows to 0
    ("build_s.matrix", _build_s,
     np.diag([4.0, 1e150]), np.diag([4.0, 1e200])),
]


@pytest.mark.parametrize("site, call, accepted, rejected", SPD_RULE_SITES,
                         ids=[row[0] for row in SPD_RULE_SITES])
def test_spd_rule_thresholds(site, call, accepted, rejected):
    call(accepted)
    with pytest.raises(NotPositiveDefinite):
        call(rejected)

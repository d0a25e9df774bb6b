"""Tests for the weighted Lyapunov functional and its decay audit."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from kinlang.certificates import (
    LyapunovCoefficients,
    certificate,
    coefficient_family,
    diag_quadratic_certificate,
    optimal_coefficients,
)
from kinlang.config import (
    AuditConfig,
    CertificateConfig,
    FrictionConfig,
    PotentialConfig,
    build_friction,
    build_potential,
)
from kinlang.errors import DegenerateS, NotPositiveDefinite
from kinlang.gaussian import (
    GaussianMoments,
    chi2_along,
    gaussian_chi2,
    kinetic_dynamics,
    propagate,
    stationary_moments,
)
from kinlang.lyapunov import (
    WeightMatrixS,
    build_s,
    decay_audit,
    lyapunov_value_gaussian,
)
from kinlang.potentials import AssumptionConstants

UNIT = AssumptionConstants(alpha=1.0, beta=1.0, gamma=0.0, dim=1)

# frozen closed-form values, matched against 2001^2 tensor quadrature on
# [-10, 10]^2 to ~4e-14 relative when frozen
L_SHRUNK_COV = 0.027956330987
L_SHIFTED = 0.561590759771


def _pi_2d():
    return GaussianMoments(mean=np.zeros(2), cov=np.eye(2))


def _s_131_gamma2():
    return build_s(SimpleNamespace(a=1.0, b=3.0, c=1.0), 2.0 * np.eye(1))


def _quadrature_l(rho, pi, s, n=2001, half_width=10.0):
    """Direct tensor quadrature of chi2 + cross term on a 2-d phase space."""
    xs = np.linspace(-half_width, half_width, n)
    h = xs[1] - xs[0]
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)

    def dens(m, c):
        diff = pts - m
        prec = np.linalg.inv(c)
        expo = np.einsum("ni,ij,nj->n", diff, prec, diff)
        return np.exp(-0.5 * expo) / (2.0 * np.pi * np.sqrt(np.linalg.det(c)))

    p_pi = dens(pi.mean, pi.cov)
    ratio = dens(rho.mean, rho.cov) / p_pi
    a_rho = np.linalg.inv(rho.cov)
    a_pi = np.linalg.inv(pi.cov)
    w = a_pi - a_rho
    u = a_rho @ rho.mean - a_pi @ pi.mean
    vecs = pts @ w.T + u
    quadform = np.einsum("ni,ij,nj->n", vecs, s.matrix, vecs)
    chi2 = np.sum(p_pi * (ratio - 1.0) ** 2) * h * h
    cross = np.sum(p_pi * ratio ** 2 * quadform) * h * h
    return chi2 + cross


class TestBuildS:
    def test_identity_friction(self):
        s = build_s(SimpleNamespace(a=1.0, b=3.0, c=1.0), np.eye(1))
        assert np.array_equal(s.matrix, np.array([[3.0, 1.0], [1.0, 1.0]]))

    def test_friction_scaling(self):
        s = _s_131_gamma2()
        assert np.array_equal(s.matrix, np.array([[0.75, 0.5], [0.5, 1.0]]))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateS):
            build_s(SimpleNamespace(a=2.0, b=3.0, c=1.0), np.eye(1))

    def test_non_spd_friction_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            build_s(SimpleNamespace(a=1.0, b=3.0, c=1.0), -np.eye(1))
        with pytest.raises(NotPositiveDefinite):
            build_s(SimpleNamespace(a=1.0, b=3.0, c=1.0),
                    np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_accepts_balanced_coeffs_and_witness(self):
        coeffs = LyapunovCoefficients(s=math.sqrt(1.5), a=1.0, b=3.0, c=1.0)
        s = build_s(coeffs, 2.0 * np.eye(1))
        assert np.allclose(s.matrix, [[0.75, 0.5], [0.5, 1.0]])
        witness, _ = diag_quadratic_certificate([1.0], 1.0)
        sw = build_s(witness, 2.0 * np.eye(1))
        assert sw.matrix.shape == (2, 2)
        assert np.linalg.eigvalsh(sw.matrix)[0] > 0

    def test_matrix_friction_blocks(self):
        g = np.array([[2.0, 0.3], [0.3, 1.5]])
        s = build_s(SimpleNamespace(a=1.0, b=3.0, c=1.0), g)
        gi = np.linalg.inv(g)
        assert np.allclose(s.matrix[:2, :2], 3.0 * gi @ gi)
        assert np.allclose(s.matrix[:2, 2:], gi)
        assert np.allclose(s.matrix[2:, 2:], np.eye(2))
        assert s.dim == 2


class TestLyapunovValue:
    def test_zero_at_target(self):
        pi = _pi_2d()
        assert lyapunov_value_gaussian(pi, pi, _s_131_gamma2()) == 0.0

    def test_frozen_shrunk_covariance(self):
        rho = GaussianMoments(mean=np.zeros(2), cov=0.9 * np.eye(2))
        val = lyapunov_value_gaussian(rho, _pi_2d(), _s_131_gamma2())
        assert val == pytest.approx(L_SHRUNK_COV, rel=1e-9)

    def test_quadrature_oracle_shrunk(self):
        rho = GaussianMoments(mean=np.zeros(2), cov=0.9 * np.eye(2))
        s = _s_131_gamma2()
        closed = lyapunov_value_gaussian(rho, _pi_2d(), s)
        quad = _quadrature_l(rho, _pi_2d(), s)
        assert closed == pytest.approx(quad, rel=1e-5)

    def test_quadrature_oracle_shifted(self):
        rho = GaussianMoments(
            mean=np.array([0.5, -0.3]),
            cov=np.array([[0.8, 0.1], [0.1, 1.1]]),
        )
        s = _s_131_gamma2()
        closed = lyapunov_value_gaussian(rho, _pi_2d(), s)
        assert closed == pytest.approx(L_SHIFTED, rel=1e-9)
        quad = _quadrature_l(rho, _pi_2d(), s)
        assert closed == pytest.approx(quad, rel=1e-5)

    def test_cross_term_nonnegative_seeded(self):
        # chi2 <= L for any SPD weight: the cross term is an expectation of
        # a nonnegative quadratic form
        rng = np.random.default_rng(17)
        pi = _pi_2d()
        for _ in range(50):
            mean = rng.normal(scale=0.3, size=2)
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            cov = q @ np.diag(rng.uniform(0.6, 1.4, size=2)) @ q.T
            rho = GaussianMoments(mean=mean, cov=0.5 * (cov + cov.T))
            s = build_s(
                coefficient_family(UNIT, float(rng.uniform(1.0, 3.0)),
                                   float(rng.uniform(1.0, 10.0))),
                2.0 * np.eye(1),
            )
            val = lyapunov_value_gaussian(rho, pi, s)
            chi2 = gaussian_chi2(rho, pi)
            assert val >= chi2 - 1e-12

    def test_finite_wherever_chi2_is_finite(self):
        # M = 2 A_rho - A_pi = diag(2e-11, 1) is positive definite, so chi2 is
        # finite; the tilted covariance M^-1 has condition number 5e10
        rho = GaussianMoments(mean=np.zeros(2),
                              cov=np.diag([2.0 / (1.0 + 2e-11), 1.0]))
        s = _s_131_gamma2()
        chi2 = gaussian_chi2(rho, _pi_2d())
        assert math.isfinite(chi2)
        # cross = (chi2 + 1) S_qq w^2 / m with w = A_pi - A_rho = 1/2 - 1e-11
        # and m = 2e-11 in the q coordinate; m carries ~1e-5 relative
        # cancellation error
        expected = chi2 + (chi2 + 1.0) * s.matrix[0, 0] * 0.25 / 2e-11
        val = lyapunov_value_gaussian(rho, _pi_2d(), s)
        assert val == pytest.approx(expected, rel=1e-3)

    def test_divergent_is_inf(self):
        rho = GaussianMoments(mean=np.zeros(2), cov=2.5 * np.eye(2))
        assert lyapunov_value_gaussian(rho, _pi_2d(), _s_131_gamma2()) == math.inf

    def test_dimension_mismatch(self):
        rho4 = GaussianMoments(mean=np.zeros(4), cov=np.eye(4))
        with pytest.raises(ValueError):
            lyapunov_value_gaussian(rho4, rho4, _s_131_gamma2())


class TestNearTarget:
    """rho built in pi's whitened frame, s = 1 + delta and mean nu, then
    mapped with pi by a fixed affine map x -> A x + b."""

    DELTA = np.array([1.3e-6, -0.7e-6, 0.9e-6, -1.1e-6])
    NU = np.array([0.8e-7, -1.2e-7, 0.5e-7, 1.0e-7])
    A = np.array([[1.0, 0.3, -0.2, 0.1],
                  [0.2, 1.5, 0.4, -0.3],
                  [-0.1, 0.2, 0.8, 0.25],
                  [0.3, -0.2, 0.1, 1.2]])  # condition number 4.1
    SHIFT = np.array([0.5, -1.0, 2.0, 0.25])

    def laws(self):
        rho = GaussianMoments(self.A @ self.NU + self.SHIFT,
                              self.A @ np.diag(1.0 + self.DELTA) @ self.A.T)
        return rho, GaussianMoments(self.SHIFT, self.A @ self.A.T)

    def test_chi2_second_order(self):
        # chi2 = sum nu^2 / (1 - delta) - log(1 - delta^2) / 2 to first
        # order in the exponent, so 1/2 sum delta^2 + sum nu^2 is exact to
        # O(delta) relative.  A formula that cancels O(1) log-determinants
        # cannot resolve chi2 ~ 2e-12 to this tolerance.
        expected = 0.5 * np.sum(self.DELTA ** 2) + np.sum(self.NU ** 2)
        assert gaussian_chi2(*self.laws()) == pytest.approx(
            expected, rel=1e-4, abs=0.0)

    def test_lyapunov_affine_invariant(self):
        # grad h pulls back through A^-T, so L(A rho, A pi; A S A') equals
        # L(rho, pi; S).  Rounding the mapped covariances moves d = s - 1 by
        # about 1e-16 against |d| ~ 1e-6, so L agrees to ~2e-10 relative.
        # pytest.approx's default abs=1e-12 would pass anything at L ~ 7e-12.
        s = build_s(SimpleNamespace(a=1.0, b=3.0, c=1.0),
                    np.array([[2.0, 0.3], [0.3, 1.0]]))
        whitened = lyapunov_value_gaussian(
            GaussianMoments(self.NU, np.diag(1.0 + self.DELTA)),
            GaussianMoments(np.zeros(4), np.eye(4)), s)
        mapped = lyapunov_value_gaussian(
            *self.laws(), WeightMatrixS(self.A @ s.matrix @ self.A.T))
        assert mapped == pytest.approx(whitened, rel=1e-9, abs=0.0)


def _default_audit(v):
    """(pi, weights, moments) of the default audit run on the diagonal
    quadratic potential with frequencies v: the main certificate's weight,
    each default witness's weight, and the exact moments on the time grid."""
    p = build_potential(PotentialConfig(v=tuple(v)))
    fric, aud = FrictionConfig(), AuditConfig()
    zero = np.zeros(p.dim)
    dyn = kinetic_dynamics(p.hess(zero), build_friction(fric).gamma(p, zero))
    coeffs = [coefficient_family(p.constants, fric.s, aud.x0)]
    coeffs += [diag_quadratic_certificate(v, eps)[0]
               for eps in CertificateConfig().eps_rates]
    mean = np.concatenate([np.full(p.dim, aud.init_q_mean), np.zeros(p.dim)])
    init = GaussianMoments(mean, aud.init_cov_scale * np.eye(2 * p.dim))
    times = np.linspace(0.0, aud.t_max, aud.n_times)
    return (stationary_moments(dyn),
            [build_s(c, dyn.gamma_mat) for c in coeffs],
            propagate(dyn, init, times))


def _mp_chi2_and_l(rho, pi, weights, mp):
    """chi2 and L for each weight, from the same float inputs, by completing
    the square in the precision matrices: M = 2 A_rho - A_pi,
    b = 2 A_rho mu_rho - A_pi mu_pi, the tilted law N(M^-1 b, M^-1) and
    grad log h = (A_pi - A_rho) x + A_rho mu_rho - A_pi mu_pi.  Its O(1)
    log-determinants cancel, harmlessly at 50 digits.  Both are +inf where
    M is not positive definite."""
    cov_r, cov_p = mp.matrix(rho.cov.tolist()), mp.matrix(pi.cov.tolist())
    mu_r, mu_p = mp.matrix(rho.mean.tolist()), mp.matrix(pi.mean.tolist())
    a_r, a_p = cov_r ** -1, cov_p ** -1
    m = 2 * a_r - a_p
    if min(mp.eigsy(m, eigvals_only=True)) <= 0:
        return math.inf, [math.inf] * len(weights)
    b = 2 * a_r * mu_r - a_p * mu_p
    m_inv = m ** -1
    expo = (b.T * m_inv * b)[0] / 2 - (mu_r.T * a_r * mu_r)[0] \
        + (mu_p.T * a_p * mu_p)[0] / 2
    ratio = mp.sqrt(mp.det(cov_p)) / mp.det(cov_r) / mp.sqrt(mp.det(m)) \
        * mp.exp(expo)
    w = a_p - a_r
    g = w * (m_inv * b) + a_r * mu_r - a_p * mu_p
    values = []
    for weight in weights:
        s = mp.matrix(weight.matrix.tolist())
        quad = w * s * w
        trace = mp.fsum(quad[i, j] * m_inv[j, i]
                        for i in range(quad.rows) for j in range(quad.rows))
        values.append(ratio - 1 + ratio * (trace + (g.T * s * g)[0]))
    return ratio - 1, values


@pytest.mark.parametrize("v", [[1.0], [1.0, 2.0, 3.0]], ids=["d1", "d3"])
def test_default_audit_against_mpmath(v):
    # the d = 1 trajectory is the default audit's; d = 3 swaps in the
    # frequencies 1, 2, 3.  The same formula in floating point is up to
    # 8.1e-9 (chi2) and 6.7e-9 (L) off here.
    mpmath = pytest.importorskip("mpmath")
    pi, weights, moments = _default_audit(v)
    with mpmath.workdps(50):
        for rho in moments:
            chi2_mp, l_mp = _mp_chi2_and_l(rho, pi, weights, mpmath.mp)
            values = [gaussian_chi2(rho, pi)] + [
                lyapunov_value_gaussian(rho, pi, weight) for weight in weights]
            for value, exact in zip(values, [chi2_mp] + l_mp):
                if math.isinf(exact):
                    assert value == math.inf
                else:
                    assert abs(value - exact) <= 1e-13 * exact


def test_grid_matches_single_law_functions():
    # the audit's grid at d = 8: it starts at t = 0, where the 0.95 I start
    # is too wide for rho^2/pi in the stiff coordinates, so the early
    # points diverge.  chi2_along and decay_audit evaluate the grid as one
    # stack; each point must be what the single-law functions give for it
    v = np.round(np.linspace(1.0, 2.0, 8), 10)
    p = build_potential(PotentialConfig(v=tuple(v)))
    fric, aud = FrictionConfig(), AuditConfig()
    zero = np.zeros(p.dim)
    dyn = kinetic_dynamics(p.hess(zero), build_friction(fric).gamma(p, zero))
    weight = build_s(coefficient_family(p.constants, fric.s, aud.x0),
                     dyn.gamma_mat)
    mean = np.concatenate([np.full(p.dim, aud.init_q_mean), np.zeros(p.dim)])
    init = GaussianMoments(mean, aud.init_cov_scale * np.eye(2 * p.dim))
    times = np.linspace(0.0, aud.t_max, 100)
    laws = propagate(dyn, init, times)
    chi2 = [gaussian_chi2(m, dyn.stationary) for m in laws]
    lyap = [lyapunov_value_gaussian(m, dyn.stationary, weight) for m in laws]
    divergent = [math.isinf(c) for c in chi2]
    assert divergent[0] and 0 < sum(divergent) < len(times) // 2
    assert [math.isinf(x) for x in lyap] == divergent

    grid_chi2 = chi2_along(dyn, init, times).tolist()
    grid_lyap = decay_audit(dyn, init, weight, 1.0, times)["values"]
    assert [math.isinf(x) for x in grid_chi2] == divergent
    assert [x is None for x in grid_lyap] == divergent
    for got, ref in zip(grid_chi2 + grid_lyap, chi2 + lyap):
        if not math.isinf(ref):
            assert abs(got - ref) <= 4 * np.spacing(ref)


class TestDecayAudit:
    def setup_method(self):
        self.dyn = kinetic_dynamics(np.array([[1.0]]), np.array([[2.0]]))
        self.coeffs = optimal_coefficients(UNIT, 1.0)  # (a,b,c) = (4,20,1)
        self.cert = certificate(UNIT, self.coeffs)
        self.s = build_s(self.coeffs, 2.0 * np.eye(1))
        self.init = GaussianMoments(mean=np.array([0.5, 0.0]),
                                    cov=0.95 * np.eye(2))
        self.times = np.linspace(0.0, 10.0, 200)

    def test_reference_audit_passes(self):
        rep = decay_audit(self.dyn, self.init, self.s, self.cert, self.times)
        assert rep["monotone_nonincreasing"]
        assert rep["bound_satisfied"]
        assert rep["derivative_satisfied"]
        assert rep["all_passed"]
        assert rep["rate"] == 0.5
        assert rep["initial_value"] == pytest.approx(1.7333262927703261,
                                                     rel=1e-10)
        # the envelope is tightest at t = 0 where the margin is tol * L(0)
        assert min(rep["bound_margins"]) == pytest.approx(
            1e-6 * rep["initial_value"], rel=1e-3
        )

    def test_negative_control_fails(self):
        rep = decay_audit(self.dyn, self.init, self.s,
                          self.cert.original_rate * 1.5, self.times)
        assert not rep["bound_satisfied"]
        assert not rep["all_passed"]

    def test_stationary_init_identically_zero(self):
        rep = decay_audit(self.dyn, stationary_moments(self.dyn), self.s,
                          self.cert, self.times[:50])
        vals = [v for v in rep["values"] if v is not None]
        assert max(abs(v) for v in vals) < 1e-10
        assert rep["all_passed"]

    def test_early_divergence_flagged_and_excluded(self):
        wide = GaussianMoments(mean=np.array([0.5, 0.0]), cov=2.5 * np.eye(2))
        rep = decay_audit(self.dyn, wide, self.s, self.cert, self.times)
        flags = rep["divergent_flags"]
        assert flags[0] is True
        assert sum(flags) == 25
        # flags form a prefix: once L is finite it stays finite here
        first_ok = flags.index(False)
        assert not any(flags[first_ok:])
        assert rep["initial_time"] == pytest.approx(1.2563, abs=1e-3)
        assert rep["all_passed"]

    def test_divergent_at_every_time(self):
        # the early-divergence law, cut off before L first turns finite
        wide = GaussianMoments(mean=np.array([0.5, 0.0]), cov=2.5 * np.eye(2))
        times = np.linspace(0.0, 0.5, 11)
        rep = decay_audit(self.dyn, wide, self.s, self.cert, times)
        assert rep["divergent_points"] == len(times)
        assert rep["initial_value"] is None
        assert rep["all_passed"] is False
        assert rep["reason"] == "L diverges at every requested time"
        text = json.dumps(rep, allow_nan=False)
        assert json.loads(text)["values"] == [None] * len(times)

    def test_witness_rates_certified(self):
        # near-optimal witnesses certify 2 - eps against the same dynamics
        for eps, rate in ((1.0, 1.0), (0.5, 1.5), (0.1, 1.9)):
            witness, r = diag_quadratic_certificate([1.0], eps)
            assert r == rate
            sw = build_s(witness, 2.0 * np.eye(1))
            rep = decay_audit(self.dyn, self.init, sw, r, self.times)
            assert rep["all_passed"], f"eps={eps}"

    def test_time_grid_validation(self):
        with pytest.raises(ValueError):
            decay_audit(self.dyn, self.init, self.s, self.cert, [0.0])
        with pytest.raises(ValueError):
            decay_audit(self.dyn, self.init, self.s, self.cert, [0.0, 0.0])
        with pytest.raises(ValueError):
            decay_audit(self.dyn, self.init, self.s, self.cert, [-1.0, 1.0])

    def test_report_is_json_ready(self):
        rep = decay_audit(self.dyn, self.init, self.s, self.cert,
                          self.times[:20])
        text = json.dumps(rep)
        assert json.loads(text)["rate"] == 0.5

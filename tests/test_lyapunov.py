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
from kinlang.errors import DegenerateS, Divergent, NotPositiveDefinite
from kinlang.gaussian import (
    GaussianMoments,
    gaussian_chi2,
    kinetic_dynamics,
    stationary_moments,
)
from kinlang.lyapunov import build_s, decay_audit, lyapunov_value_gaussian
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

    def test_momentum_conjugation(self):
        s = build_s(SimpleNamespace(a=1.0, b=3.0, c=1.0), np.eye(1),
                    original_alpha=4.0)
        assert np.array_equal(s.matrix, np.array([[3.0, 2.0], [2.0, 4.0]]))
        assert s.conjugated_alpha == 4.0

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

    def test_divergent_raises(self):
        rho = GaussianMoments(mean=np.zeros(2), cov=2.5 * np.eye(2))
        with pytest.raises(Divergent):
            lyapunov_value_gaussian(rho, _pi_2d(), _s_131_gamma2())

    def test_dimension_mismatch(self):
        rho4 = GaussianMoments(mean=np.zeros(4), cov=np.eye(4))
        with pytest.raises(ValueError):
            lyapunov_value_gaussian(rho4, rho4, _s_131_gamma2())


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

import dataclasses
import math

import numpy as np
import pytest

from kinlang.errors import (
    InsufficientData,
    NonPositiveValues,
    NotPositiveDefinite,
    UnsupportedFriction,
)
from kinlang.friction import constant_matrix, constant_scalar, hessian_sqrt
from kinlang.gaussian import (
    GaussianMoments,
    _modal_exp,
    _moments,
    _whitened,
    chi2_along,
    diagonal_system_rate,
    fit_decay_rate,
    gaussian_chi2,
    kinetic_dynamics,
    ou_rate_closed_form,
    propagate,
    stationary_moments,
)
from kinlang.linalg import expm
from kinlang.potentials import quadratic_general
from kinlang.lyapunov import (
    WeightMatrixS,
    decay_audit,
    decay_audits,
    lyapunov_value_gaussian,
)

# frozen: least-squares slope of log((1+t^2) e^{-2t}) over [20, 40];
# the t^2 prefactor biases it below 2 by ~0.068 (within the 2/t <= 0.1
# slope envelope on that window)
POLY_PREFACTOR_FIT = 1.9318455841

# frozen: fitted tail rate for the critically damped oscillator with the
# generic init N((3,0), I); the t^2 prefactor of the defective drift biases
# the [5, 10] window fit well below the asymptotic rate 2
CRITICAL_GENERIC_INIT_FIT = 1.747335


def oscillator(w=1.0, lam=2.0):
    return kinetic_dynamics(np.array([[w**2]]), np.array([[lam]]))


def count_calls(monkeypatch, *names):
    """{name: 0} for the named np.linalg routines, counting their calls from
    here on."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


class TestGaussianMoments:
    def test_eig_is_the_covariance_eigh(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        w, v = GaussianMoments(np.zeros(2), cov).eig
        ref_w, ref_v = np.linalg.eigh(cov)
        assert np.array_equal(w, ref_w) and np.array_equal(v, ref_v)

    def test_replace_recomputes_eig(self):
        base = GaussianMoments(np.zeros(2), np.eye(2))
        moved = dataclasses.replace(base, cov=np.diag([3.0, 2.0]))
        assert np.array_equal(moved.eig[0], [2.0, 3.0])
        assert np.array_equal(base.eig[0], [1.0, 1.0])
        with pytest.raises(NotPositiveDefinite):
            dataclasses.replace(base, cov=np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_slack_is_relative_to_the_largest_eigenvalue(self, scale):
        # the rule reads no units: a law and the same law in other units
        # are judged alike, however small its largest eigenvalue
        with pytest.raises(NotPositiveDefinite):
            GaussianMoments(np.zeros(2), scale * np.diag([1.0, -1e-9]))
        law = GaussianMoments(np.zeros(2), scale * np.diag([1.0, -1e-11]))
        assert law.eig[0][0] == -1e-11 * scale

    def test_zero_covariance_of_a_point_law_is_legal(self):
        # every eigenvalue is 0, so the slack rule holds with equality
        law = GaussianMoments(np.array([1.0, 2.0, 0.0, 0.0]), np.zeros((4, 4)))
        assert np.array_equal(law.eig[0], np.zeros(4))
        with pytest.raises(NotPositiveDefinite):
            GaussianMoments(np.zeros(2), np.diag([-1e-300, 0.0]))


class TestKineticDynamics:
    def test_block_structure(self):
        dyn = kinetic_dynamics(np.diag([1.0, 4.0]), np.diag([2.0, 4.0]))
        f = dyn.drift
        assert np.array_equal(f[:2, :2], np.zeros((2, 2)))
        assert np.array_equal(f[:2, 2:], np.eye(2))
        assert np.allclose(f[2:, :2], -np.diag([1.0, 4.0]))
        assert np.allclose(f[2:, 2:], -np.diag([2.0, 4.0]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            kinetic_dynamics(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(NotPositiveDefinite):
            kinetic_dynamics(np.eye(2), np.diag([1.0, 0.0]))


class TestPropagate:
    def test_t_zero_identity(self):
        dyn = oscillator()
        init = GaussianMoments(np.array([1.0, 2.0]), np.diag([1.0, 3.0]))
        out = propagate(dyn, init, 0.0)
        assert np.array_equal(out.mean, init.mean)
        assert np.array_equal(out.cov, init.cov)

    def test_critical_propagator(self):
        # defective drift at lam = 2w: e^{Ft} = e^{-wt} [[1+wt, t], [-w^2 t, 1-wt]]
        w = 1.0
        dyn = oscillator(w, 2 * w)
        for t in (0.3, 1.0, 2.7):
            expected = np.exp(-w * t) * np.array(
                [[1 + w * t, t], [-(w**2) * t, 1 - w * t]]
            )
            assert np.allclose(expm(dyn.drift, t), expected, atol=1e-11)

    def test_overdamped_covariance_formulas(self):
        # independent oracle: the explicit (p, q, r) integrals for w=1, lam=3
        w, lam = 1.0, 3.0
        a1 = (-lam + math.sqrt(lam**2 - 4 * w**2)) / 2
        a2 = (-lam - math.sqrt(lam**2 - 4 * w**2)) / 2
        pref = 2 * lam / (a1 - a2) ** 2
        dyn = oscillator(w, lam)
        init = GaussianMoments(np.zeros(2), np.zeros((2, 2)))
        for t in (0.5, 1.0, 1.3, 3.0):
            p = (math.exp(2 * a1 * t) - 1) / (2 * a1)
            q = -(math.exp((a1 + a2) * t) - 1) / (a1 + a2)
            r = (math.exp(2 * a2 * t) - 1) / (2 * a2)
            expected = pref * np.array(
                [
                    [p + 2 * q + r, a1 * (p + q) + a2 * (q + r)],
                    [a1 * (p + q) + a2 * (q + r),
                     a1**2 * p + 2 * a1 * a2 * q + a2**2 * r],
                ]
            )
            out = propagate(dyn, init, t)
            assert np.allclose(out.cov, expected, atol=1e-13), t

    def test_critical_covariance_closed_form(self):
        # w = 1, lam = 2 from a point: cov(t) = C_inf + D(t) with
        # D = -e^{-2t} [[1 + 2t + 2t^2, -2t^2], [-2t^2, 1 - 2t + 2t^2]];
        # the error is measured against max|C_inf|, since chi2 reads D
        dyn = oscillator(1.0, 2.0)
        cov_inf = stationary_moments(dyn).cov
        init = GaussianMoments(np.array([1.0, 0.0]), np.zeros((2, 2)))
        for t in (1e-4, 1e-2, 1.0, 3.0, 5.0, 10.0, 15.0):
            d = -math.exp(-2 * t) * np.array(
                [[1 + 2 * t + 2 * t * t, -2 * t * t],
                 [-2 * t * t, 1 - 2 * t + 2 * t * t]])
            cov = propagate(dyn, init, t).cov
            err = np.max(np.abs(cov - cov_inf - d))
            assert err <= 1e-15 * np.max(np.abs(cov_inf)), (t, err)

    def test_large_t_covariance_stays_psd(self):
        # a noise integral that cancels at large t can come out indefinite
        dyn = oscillator(1.0, 3.0)
        init = GaussianMoments(np.array([3.0, -3.0]), np.eye(2))
        out = propagate(dyn, init, 26.0)
        assert np.linalg.eigvalsh(out.cov)[0] > 0

    def test_semigroup(self):
        rng = np.random.default_rng(41)
        for lam in (1.0, 2.0, 3.0):
            dyn = oscillator(1.0, lam)
            b = rng.standard_normal((2, 2))
            init = GaussianMoments(rng.standard_normal(2), b @ b.T + np.eye(2))
            for s, t in ((0.4, 0.9), (1.0, 2.0)):
                one = propagate(dyn, propagate(dyn, init, s), t)
                two = propagate(dyn, init, s + t)
                assert np.allclose(one.mean, two.mean, atol=1e-8)
                assert np.allclose(one.cov, two.cov, atol=1e-8)

    def test_monotone_convergence_to_stationary(self):
        instances = [
            oscillator(1.0, 1.0),
            oscillator(1.0, 2.0),
            oscillator(1.0, 3.0),
            kinetic_dynamics(np.diag([1.0, 4.0, 9.0]), 2 * np.diag([1.0, 2.0, 3.0])),
        ]
        for dyn in instances:
            d = dyn.dim
            pi = stationary_moments(dyn)
            init = GaussianMoments(
                np.r_[3 * np.ones(d), np.zeros(d)], np.eye(2 * d)
            )
            dists = []
            for t in (1, 2, 4, 8, 16):
                m = propagate(dyn, init, t)
                dists.append(
                    np.linalg.norm(m.mean - pi.mean) + np.linalg.norm(m.cov - pi.cov)
                )
            assert all(b < a for a, b in zip(dists, dists[1:]))


def rotated_system(d, s, seed):
    """A = Q diag(v^2) Q', G = s Q diag(v) Q' with v spread over [1, 3]:
    s = 2 damps every mode critically, s = 1 underdamps them."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v = np.linspace(1.0, 3.0, d)
    return kinetic_dynamics(q @ np.diag(v**2) @ q.T, s * q @ np.diag(v) @ q.T)


class TestPropagateGrid:
    TIMES = np.concatenate([[0.0], np.linspace(0.05, 30.0, 37), [0.0, 7.0]])

    def cases(self):
        yield "d1-critical", oscillator(1.0, 2.0)
        yield "d1-underdamped", oscillator(1.0, 1.0)
        yield "d1-overdamped", oscillator(1.0, 3.0)
        for d in (3, 8):
            yield f"d{d}-critical", rotated_system(d, 2.0, d)
            yield f"d{d}-underdamped", rotated_system(d, 1.0, d)

    def test_entries_equal_scalar_calls_bitwise(self):
        rng = np.random.default_rng(3)
        for name, dyn in self.cases():
            n = 2 * dyn.dim
            b = rng.standard_normal((n, n))
            init = GaussianMoments(rng.standard_normal(n), b @ b.T + np.eye(n))
            grid = propagate(dyn, init, self.TIMES)
            assert isinstance(grid, list) and len(grid) == self.TIMES.size
            for t, got in zip(self.TIMES, grid):
                one = propagate(dyn, init, float(t))
                assert np.array_equal(got.mean, one.mean), (name, t)
                assert np.array_equal(got.cov, one.cov), (name, t)
            assert grid[0] is init and grid[-2] is init

    def test_scalar_forms(self):
        dyn = rotated_system(3, 2.0, 0)
        init = stationary_moments(dyn)
        assert isinstance(propagate(dyn, init, 1.5), GaussianMoments)
        assert isinstance(propagate(dyn, init, np.float64(1.5)), GaussianMoments)
        assert propagate(dyn, init, 0.0) is init
        one = propagate(dyn, init, np.array([1.5]))
        assert isinstance(one, list) and len(one) == 1
        assert np.array_equal(one[0].cov, propagate(dyn, init, 1.5).cov)
        assert propagate(dyn, init, np.empty(0)) == []

    def test_rejects_negative_nan_and_2d_times(self):
        dyn = oscillator()
        init = stationary_moments(dyn)
        for bad in (-0.5, np.array([0.0, 1.0, -1e-9]),
                    np.array([1.0, np.nan]), np.ones((2, 2))):
            with pytest.raises(ValueError):
                propagate(dyn, init, bad)


def general_quadratic_dynamics(spec):
    """The dynamics of spec on a non-diagonal quadratic_general potential
    with Hessian eigenvalues 1, 4 and 9."""
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
    p = quadratic_general(q @ np.diag([1.0, 4.0, 9.0]) @ q.T)
    zero = np.zeros(3)
    return kinetic_dynamics(p.hess(zero), spec.gamma(p, zero))


class TestModalExponential:
    #: frictions that put the modes of frequency 1, 2 and 3 under, at, near
    #: and over critical damping, lam = 2w (1 +- 1e-9) included
    SPECS = ([constant_scalar(lam) for lam in (0.3, 2.0, 4.0, 20.0, 100.0)]
             + [constant_scalar(2.0 * w * (1.0 + sign * 1e-9))
                for w in (1.0, 3.0) for sign in (1, -1)]
             + [hessian_sqrt(s) for s in (0.5, 2.0, 2.0 * (1 + 1e-9),
                                           2.0 * (1 - 1e-9), 3.0, 50.0)])

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.lam or s.s!r}")
    def test_agrees_with_expm(self, spec):
        # entrywise, to 1e-13 max(1, |entry|), wherever ||F|| t <= 1e2; the
        # grid also crosses each mode's (delta t)^2 = +-1 form boundaries
        dyn = general_quadratic_dynamics(spec)
        assert dyn.modes is not None
        w, g, _ = dyn.modes
        bounds = 1.0 / np.sqrt(np.abs(0.25 * g * g - w))
        limit = 1e2 / np.linalg.norm(dyn.drift, 2)
        times = np.concatenate([
            np.geomspace(1e-8, limit, 150),
            np.outer(bounds[bounds < limit], [1 - 1e-12, 1.0, 1 + 1e-12]).ravel()])
        modal, ref = _modal_exp(*dyn.modes, times), expm(dyn.drift, times)
        err = np.abs(modal - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 1e-13

    @pytest.mark.parametrize("lam", [1e3, 1e5, 1e9, 1e20, 1e50, 1e100, 1e150])
    def test_overdamped_mean_against_mpmath(self, lam):
        # q(t) = c_s e^{mu_s t} + c_f e^{mu_f t} with c_s + c_f = q0 and
        # mu_s c_s + mu_f c_f = p0, at 50 digits, from the stable roots of
        # mu^2 + lam mu + 1; out to the oracle's fit window t = 20 / rate
        mp = pytest.importorskip("mpmath").mp
        rate = ou_rate_closed_form(1.0, lam)
        times = np.array([1e-3 / lam, 1.0 / lam, 1.0, 1.0 / rate,
                          10.0 / rate, 20.0 / rate])
        init = GaussianMoments([3.0, -3.0], np.eye(2))
        mean, _ = _moments(oscillator(1.0, lam), init, times)
        with mp.workdps(50):
            g = mp.mpf(lam)
            r = mp.sqrt(g * g - 4)
            slow, fast = -2 / (g + r), -(g + r) / 2
            c_s, c_f = (-3 - 3 * fast) / (slow - fast), (3 * slow + 3) / (slow - fast)
            for t, (q, p) in zip(times, mean):
                es, ef = mp.exp(slow * t), mp.exp(fast * t)
                q_mp = c_s * es + c_f * ef
                p_mp = slow * c_s * es + fast * c_f * ef
                assert abs(q - q_mp) <= 1e-14 * abs(q_mp), (t, q, q_mp)
                assert abs(p - p_mp) <= 1e-14 * abs(p_mp), (t, p, p_mp)

    def test_modes_only_for_a_commuting_friction(self):
        a = np.diag([1.0, 4.0])
        assert kinetic_dynamics(a, np.diag([3.0, 0.5])).modes is not None
        assert kinetic_dynamics(a, [[2.0, 0.5], [0.5, 3.0]]).modes is None

    def test_repeated_eigenvalue_takes_the_modes(self):
        # A = I: every basis is an eigenbasis of A, so u turns to Gamma's.
        # expm lost the slow mode of this stiff friction (chi2 read 1.4e219,
        # rising to inf); the modes give the closed-form rate
        dyn = kinetic_dynamics(np.eye(2), 1e9 * np.array([[1.0, 0.5],
                                                          [0.5, 1.0]]))
        assert dyn.modes is not None
        w, g, _ = dyn.modes
        assert np.array_equal(w, [1.0, 1.0])
        assert g == pytest.approx([0.5e9, 1.5e9], rel=1e-15)
        rate = min(ou_rate_closed_form(1.0, lam) for lam in (0.5e9, 1.5e9))
        init = GaussianMoments([3.0, -1.0, 0.5, 0.2], np.eye(4))
        times = np.linspace(10.0 / rate, 20.0 / rate, 51)
        chi2 = chi2_along(dyn, init, times)
        assert abs(fit_decay_rate(times, chi2, tail_fraction=1.0) - rate) < 1e-4 * rate

    def test_diagonal_blocks_keep_their_basis(self):
        # a repeated eigenvalue whose block of u' G u is already diagonal
        # is not rotated: u is eigh(A)'s own
        a = np.diag([2.0, 2.0, 5.0])
        dyn = kinetic_dynamics(a, np.diag([3.0, 0.5, 1.0]))
        assert np.array_equal(dyn.modes[2], np.linalg.eigh(a)[1])
        assert np.array_equal(dyn.modes[1], [3.0, 0.5, 1.0])

    def test_non_commuting_friction_keeps_expm_bits(self):
        # constant_matrix that does not commute with A: the parent's
        # formula, through linalg.expm, bit for bit
        dyn = general_quadratic_dynamics(constant_matrix([[2.0, 0.5, 0.0],
                                                          [0.5, 3.0, 0.2],
                                                          [0.0, 0.2, 1.0]]))
        assert dyn.modes is None
        rng = np.random.default_rng(11)
        b = rng.standard_normal((6, 6))
        init = GaussianMoments(rng.standard_normal(6), b @ b.T + np.eye(6))
        times = np.linspace(0.1, 5.0, 7)
        mean, cov = _moments(dyn, init, times)
        eft = expm(dyn.drift, times)
        eft_t = eft.swapaxes(-1, -2)
        cov_inf = dyn.stationary.cov
        c = eft @ init.cov @ eft_t + (cov_inf - eft @ cov_inf @ eft_t)
        assert np.array_equal(mean, eft @ init.mean)
        assert np.array_equal(cov, 0.5 * (c + c.swapaxes(-1, -2)))


class TestStationaryMoments:
    def test_oscillator(self):
        w = 1.7
        pi = stationary_moments(oscillator(w, 0.9))
        assert np.allclose(pi.cov, np.diag([1 / w**2, 1.0]), atol=1e-14)
        assert np.array_equal(pi.mean, np.zeros(2))

    def test_identity_hessian(self):
        pi = stationary_moments(kinetic_dynamics(np.eye(2), 2 * np.eye(2)))
        assert np.allclose(pi.cov, np.eye(4), atol=1e-14)

    def test_built_once_per_dynamics(self, monkeypatch):
        # kinetic_dynamics builds and factors the Gibbs law; propagating and
        # auditing read it, and neither inverts nor re-checks A
        dyn = kinetic_dynamics(np.diag([1.0, 4.0]), np.diag([2.0, 4.0]))
        assert stationary_moments(dyn) is dyn.stationary
        init = GaussianMoments(np.ones(4), 0.5 * np.eye(4))
        times = np.linspace(0.0, 1.0, 5)
        calls = count_calls(monkeypatch, "inv", "eigvalsh")
        propagate(dyn, init, times)
        decay_audit(dyn, init, WeightMatrixS(np.eye(4)), 0.1, times)
        assert calls == {"inv": 0, "eigvalsh": 0}

    def test_invariance_under_propagation(self):
        for lam in (1.0, 2.0, 3.0):
            dyn = oscillator(1.0, lam)
            pi = stationary_moments(dyn)
            out = propagate(dyn, pi, 1.0)
            assert np.allclose(out.mean, pi.mean, atol=1e-8)
            assert np.allclose(out.cov, pi.cov, atol=1e-8)


def quadrature_chi2(rho, pi, half_width=10.0, nodes=2001):
    """Tensor-grid quadrature of the defining integral, d=1 phase space."""
    xs = np.linspace(-half_width, half_width, nodes)
    h = xs[1] - xs[0]
    x, y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([x.ravel(), y.ravel()], axis=1)

    def density(m):
        inv = np.linalg.inv(m.cov)
        det = np.linalg.det(m.cov)
        diff = pts - m.mean
        e = np.einsum("ni,ij,nj->n", diff, inv, diff)
        return np.exp(-0.5 * e) / (2 * np.pi * np.sqrt(det))

    rho_v = density(rho)
    pi_v = density(pi)
    return float(np.sum((rho_v / pi_v - 1.0) ** 2 * pi_v) * h * h)


class TestGaussianChi2:
    def test_identical_is_zero(self):
        m = GaussianMoments(np.array([0.3, -0.6]), np.array([[2.0, 0.4], [0.4, 1.0]]))
        assert gaussian_chi2(m, m) == pytest.approx(0.0, abs=1e-12)

    def test_shrunk_isotropic_vs_quadrature(self):
        rho = GaussianMoments(np.zeros(2), 0.8 * np.eye(2))
        pi = GaussianMoments(np.zeros(2), np.eye(2))
        closed = gaussian_chi2(rho, pi)
        # exact for this pair: det term only, 1/0.96 - 1
        assert closed == pytest.approx(1 / 0.96 - 1, rel=1e-12)
        assert closed == pytest.approx(quadrature_chi2(rho, pi), rel=1e-6)

    def test_mean_shift_closed_form(self):
        rng = np.random.default_rng(43)
        b = rng.standard_normal((2, 2))
        sigma = b @ b.T + np.eye(2)
        mu = np.array([0.4, -0.2])
        rho = GaussianMoments(mu, sigma)
        pi = GaussianMoments(np.zeros(2), sigma)
        expected = math.exp(mu @ np.linalg.solve(sigma, mu)) - 1
        assert gaussian_chi2(rho, pi) == pytest.approx(expected, rel=1e-12)
        assert gaussian_chi2(rho, pi) == pytest.approx(
            quadrature_chi2(rho, pi), rel=1e-6
        )

    def test_divergent_returns_inf(self):
        # cov 2.5 I against I violates integrability of rho^2/pi
        rho = GaussianMoments(np.zeros(2), 2.5 * np.eye(2))
        pi = GaussianMoments(np.zeros(2), np.eye(2))
        assert gaussian_chi2(rho, pi) == math.inf

    def test_degenerate_raises(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianMoments(np.zeros(2), np.diag([1.0, -1e-3]))
        rho = GaussianMoments(np.zeros(2), np.diag([1.0, 1e-14]))
        pi = GaussianMoments(np.zeros(2), np.eye(2))
        with pytest.raises(NotPositiveDefinite):
            gaussian_chi2(rho, pi)

    def test_divergent_before_whitened_rule(self):
        # rho's large direction gives s_max = q' cov_pi^-1 q ~ 8.7e3 >= 2, so
        # rho^2/pi is not integrable: +inf, even though the whitened rho
        # covariance is only ~2.3e-16 from singular, below its roundoff
        def rot(a):
            return np.array([[math.cos(a), -math.sin(a)],
                             [math.sin(a), math.cos(a)]])
        rho = GaussianMoments(
            np.zeros(2), rot(1.5) @ np.diag([1.0, 2e-12]) @ rot(1.5).T)
        pi = GaussianMoments(
            np.zeros(2), rot(0.3) @ np.diag([1e4, 1e-4]) @ rot(0.3).T)
        assert gaussian_chi2(rho, pi) == math.inf
        assert lyapunov_value_gaussian(
            rho, pi, WeightMatrixS(np.eye(2))) == math.inf

    def test_whitened_rho_covariance_checked(self, monkeypatch):
        # a whitened eigenvalue s <= 0 with s_max < 2 (roundoff) must raise,
        # not give log1p(-1) or NaN; both laws carry their eig, so the only
        # eigh is the whitened one
        rho = GaussianMoments(np.zeros(2), np.eye(2))
        real_eigh = np.linalg.eigh
        calls = []

        def eigh(m):
            w, u = real_eigh(m)
            calls.append(m)
            if len(calls) == 1:
                w = np.array([-1e-17, w[-1]])
            return w, u

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(NotPositiveDefinite,
                           match="^whitened rho covariance"):
            gaussian_chi2(rho, rho)
        assert len(calls) == 1

    @pytest.mark.parametrize("value", [
        gaussian_chi2,
        lambda rho, pi: lyapunov_value_gaussian(rho, pi,
                                                WeightMatrixS(np.eye(4))),
    ], ids=["chi2", "lyapunov"])
    def test_one_decomposition_per_point(self, monkeypatch, value):
        # laws built beforehand carry their eig: only the whitened W cov W
        # is decomposed
        dyn = kinetic_dynamics(np.diag([1.0, 4.0]), np.diag([2.0, 4.0]))
        pi = stationary_moments(dyn)
        rho = propagate(dyn, GaussianMoments(np.ones(4), 0.5 * np.eye(4)), 1.0)
        calls = count_calls(monkeypatch, "eigh", "eigvalsh")
        assert math.isfinite(value(rho, pi))
        assert calls == {"eigh": 1, "eigvalsh": 0}

    @pytest.mark.parametrize("value", [
        chi2_along,
        lambda dyn, init, times: decay_audits(
            dyn, init, [(WeightMatrixS(np.eye(4)), 0.1)] * 2, times),
    ], ids=["chi2_along", "decay_audits"])
    def test_one_decomposition_per_grid(self, monkeypatch, value):
        # the laws of a grid are judged in pi's whitened frame alone: one
        # batched eigh, of W cov W, for the whole grid and every weight
        dyn = kinetic_dynamics(np.diag([1.0, 4.0]), np.diag([2.0, 4.0]))
        init = GaussianMoments(np.ones(4), 0.5 * np.eye(4))
        calls = count_calls(monkeypatch, "eigh", "eigvalsh")
        value(dyn, init, np.linspace(0.0, 2.0, 9))
        assert calls == {"eigh": 1, "eigvalsh": 0}

    @pytest.mark.parametrize("c", [1e-8, 1e8])
    def test_scale_free(self, c):
        # chi2 is invariant under x -> c x applied to both laws, and so are
        # its rules: a non-diagonal rho near pi gives the c = 1 value at
        # every scale.  Replacing the Gibbs law by its image gives the
        # dynamics of c x (noise c sqrt(2G)), whose laws are the images of
        # the c = 1 laws
        dyn = kinetic_dynamics(np.array([[2.0, 0.5], [0.5, 1.0]]),
                               np.array([[1.5, 0.2], [0.2, 0.8]]))
        pi = dyn.stationary
        rng = np.random.default_rng(5)
        b = rng.standard_normal((4, 4))
        mean = 0.1 * rng.standard_normal(4)
        cov = pi.cov + 0.05 * (b @ b.T) - 0.02 * np.eye(4)
        times = np.array([0.0, 0.5, 1.0, 2.0])

        def values(c):
            rho = GaussianMoments(c * mean, c * c * cov)
            target = GaussianMoments(c * pi.mean, c * c * pi.cov)
            return (gaussian_chi2(rho, target),
                    chi2_along(dataclasses.replace(dyn, stationary=target),
                               rho, times))

        (point, grid), (ref_point, ref_grid) = values(c), values(1.0)
        assert point == pytest.approx(ref_point, rel=1e-13)
        np.testing.assert_allclose(grid, ref_grid, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("bad, message", [
        (np.diag([1.0, -1e-3]), r"^whitened rho covariance\[2\] has eigenvalue"),
        (np.diag([1.0, np.nan]), r"^covariance\[2\] has a non-finite entry"),
        (np.diag([1.0, 1e-14]), r"^whitened rho covariance\[2\] has eigenvalue"),
    ], ids=["not-psd", "nan", "degenerate"])
    def test_stack_names_failing_law(self, bad, message):
        # the stacked core applies each law's rules and names the law
        pi = GaussianMoments(np.zeros(2), np.eye(2))
        cov = np.stack([np.eye(2), 0.5 * np.eye(2), bad, np.eye(2)])
        with pytest.raises(NotPositiveDefinite, match=message):
            _whitened(np.zeros((4, 2)), cov, pi)

    def test_zero_iff_equal(self):
        base = GaussianMoments(np.zeros(2), np.eye(2))
        shifted = GaussianMoments(np.array([1e-3, 0.0]), np.eye(2))
        scaled = GaussianMoments(np.zeros(2), (1 + 1e-3) * np.eye(2))
        assert gaussian_chi2(shifted, base) > 0
        assert gaussian_chi2(scaled, base) > 0


class TestFitDecayRate:
    def test_pure_exponential(self):
        ts = np.linspace(0, 5, 64)
        assert fit_decay_rate(ts, np.exp(-3 * ts)) == pytest.approx(3.0, abs=1e-9)

    def test_polynomial_prefactor(self):
        ts = np.linspace(20, 40, 201)
        vals = (1 + ts**2) * np.exp(-2 * ts)
        fit = fit_decay_rate(ts, vals, tail_fraction=1.0)
        assert fit == pytest.approx(POLY_PREFACTOR_FIT, abs=1e-8)
        # the bias sits inside the 2/t <= 0.1 slope envelope of the window
        assert 0 < 2.0 - fit < 0.1

    def test_critical_ou_generic_init(self):
        # generic init at the defective point: the t^2 prefactor biases the
        # [5, 10] fit to ~1.75; an init aligned with the defective
        # eigenvector (and cov = stationary) removes it entirely
        dyn = oscillator(1.0, 2.0)
        pi = stationary_moments(dyn)
        ts = np.linspace(5.0, 10.0, 101)

        def fit_for(mean, cov):
            init = GaussianMoments(np.asarray(mean, float), cov)
            vals = [gaussian_chi2(propagate(dyn, init, t), pi) for t in ts]
            return fit_decay_rate(ts, vals, tail_fraction=1.0)

        biased = fit_for([3.0, 0.0], np.eye(2))
        assert biased == pytest.approx(CRITICAL_GENERIC_INIT_FIT, abs=1e-4)
        clean = fit_for([3.0, -3.0], np.eye(2))
        assert clean == pytest.approx(2.0, rel=5e-3)

    def test_slope_bits_are_polyfit_on_the_times(self):
        # the fit runs on t / 2^e, an exact scaling
        ts = np.linspace(3.7, 41.3, 57)
        vals = (2 + np.sin(ts)) * np.exp(-0.37 * ts)
        slope = np.polyfit(ts, np.log(vals), 1)[0]
        assert fit_decay_rate(ts, vals, tail_fraction=1.0) == -slope

    def test_times_near_1e155(self):
        # polyfit's sum of t^2 would overflow on the times themselves
        ts = np.linspace(5e154, 1e155, 101)
        vals = 9.0 * np.exp(-2e-154 * ts)
        fit = fit_decay_rate(ts, vals, tail_fraction=1.0)
        assert fit == pytest.approx(2e-154, rel=1e-12)

    def test_insufficient_data(self):
        ts = np.linspace(0, 1, 10)
        with pytest.raises(InsufficientData):
            fit_decay_rate(ts, np.exp(-ts), tail_fraction=0.5)

    def test_non_positive_values(self):
        ts = np.linspace(0, 1, 16)
        vals = np.exp(-ts)
        vals[12] = 0.0
        with pytest.raises(NonPositiveValues):
            fit_decay_rate(ts, vals)
        vals[12] = math.inf
        with pytest.raises(NonPositiveValues):
            fit_decay_rate(ts, vals)

    def test_non_positive_names_first_sample(self):
        ts = np.linspace(0.0, 15.0, 16)
        vals = np.exp(-ts)
        vals[[11, 13]] = [-2.0, math.inf]
        with pytest.raises(NonPositiveValues,
                           match=r"^chi2\[11\] = -2\.0 at t = 11\.0: "):
            fit_decay_rate(ts, vals)


class TestOuRateClosedForm:
    def test_cases(self):
        assert ou_rate_closed_form(1.0, 2.0) == 2.0
        assert ou_rate_closed_form(1.0, 3.0) == pytest.approx(3 - math.sqrt(5), abs=1e-15)
        assert ou_rate_closed_form(1.0, 1.0) == 1.0

    def test_overdamped_without_cancellation(self):
        # lam - sqrt(lam^2 - 4 w^2) cancels to 0.0 at lam = 1e9
        assert ou_rate_closed_form(1.0, 1e9) == pytest.approx(2e-9, rel=1e-15)

    def test_maximum_at_critical(self):
        lams = np.linspace(0.1, 10, 200)
        rates = [ou_rate_closed_form(1.0, l) for l in lams]
        assert max(rates) <= 2.0
        assert ou_rate_closed_form(1.0, 2.0) == 2.0

    def test_fit_matches_closed_form_on_grid(self):
        # (w, lam) sweep; the damping-ratio bands keep the prescribed
        # [10/rate, 20/rate] window meaningful: near-critical underdamped
        # ratios (~1.3-2.0 exclusive) have beat periods longer than the
        # window and need longer horizons than the contract prescribes
        ratios = np.r_[np.geomspace(0.2, 1.0, 5), np.geomspace(2.0, 8.0, 5)]
        for w in np.geomspace(0.5, 2.0, 10):
            dyn_cache = {}
            for r in ratios:
                lam = r * w
                dyn = kinetic_dynamics(np.array([[w**2]]), np.array([[lam]]))
                rate = ou_rate_closed_form(w, lam)
                pi = stationary_moments(dyn)
                init = GaussianMoments(np.array([0.5, -0.5 * w]), pi.cov)
                ts = np.linspace(10 / rate, 20 / rate, 51)
                vals = [gaussian_chi2(propagate(dyn, init, t), pi) for t in ts]
                fit = fit_decay_rate(ts, vals, tail_fraction=1.0)
                assert abs(fit - rate) / rate < 0.05, (w, lam)


class TestDiagonalSystemRate:
    def test_hessian_sqrt_two(self):
        assert diagonal_system_rate([1.0, 2.0, 3.0], hessian_sqrt(2.0)) == pytest.approx(2.0)

    def test_constant_scalar_equality_at_twice_min(self):
        assert diagonal_system_rate([1.0, 2.0, 3.0], constant_scalar(2.0)) == pytest.approx(2.0)

    def test_constant_scalar_overdamped(self):
        expected = 5 - math.sqrt(21)
        assert diagonal_system_rate([1.0, 2.0, 3.0], constant_scalar(5.0)) == pytest.approx(expected, abs=1e-12)

    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedFriction):
            diagonal_system_rate([1.0, 2.0], constant_matrix(np.eye(2)))

    def test_acceleration_dominance_seeded(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            v = 0.5 + 2.5 * rng.random(4)
            best = diagonal_system_rate(v, hessian_sqrt(2.0))
            for lam in np.linspace(0.1, 10 * v.max(), 60):
                assert best >= diagonal_system_rate(v, constant_scalar(lam)) - 1e-12

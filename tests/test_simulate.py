"""Tests for the Euler-Maruyama ensemble simulator.

Monte Carlo assertions use frozen seeds whose margins were checked against
the relevant sampling error before freezing; bounds quote those margins.
"""

import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import kinlang
from kinlang import simulate
from kinlang.errors import NumericalBlowup
from kinlang.friction import constant_matrix, constant_scalar, hessian_sqrt
from kinlang.gaussian import (
    GaussianMoments,
    kinetic_dynamics,
    propagate,
    stationary_moments,
)
from kinlang.linalg import expm, spd_sqrt
from kinlang.potentials import (
    perturbed_diagonal,
    quadratic_diagonal,
    quadratic_general,
)
from kinlang.simulate import (
    Ensemble,
    SimConfig,
    TrajectoryPoint,
    attach_chi2_proxies,
    ensemble_at_point,
    ensemble_from_moments,
    philox_normals,
    run,
    step,
    write_trajectory_csv,
)


def _ou_1d(w=1.0, lam=2.0):
    pot = quadratic_diagonal([w])
    spec = constant_scalar(lam)
    dyn = kinetic_dynamics(np.array([[w ** 2]]), np.array([[lam]]))
    return pot, spec, dyn


class TestPhiloxStream:
    def test_deterministic(self):
        a = philox_normals(7, 3, (5, 2))
        b = philox_normals(7, 3, (5, 2))
        assert np.array_equal(a, b)

    def test_distinct_steps_seeds_domains(self):
        base = philox_normals(7, 3, (5, 2))
        assert not np.array_equal(base, philox_normals(7, 4, (5, 2)))
        assert not np.array_equal(base, philox_normals(8, 3, (5, 2)))
        assert not np.array_equal(base, philox_normals(7, 3, (5, 2), domain=0))

    def test_n_extension_prefix(self):
        # enlarging the ensemble must extend, not reshuffle, per-particle noise
        small = philox_normals(11, 5, (100, 3))
        large = philox_normals(11, 5, (1000, 3))
        assert np.array_equal(large[:100], small)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            philox_normals(-1, 0, (2, 2))

    def test_seed_is_one_64_bit_key_word(self):
        # above 2^63 a list key became float64: 2^63 and 2^63 + 1 drew the
        # same noise, 2^64 - 1 warned on the cast and 2^64 overflowed
        top = 2 ** 63
        assert not np.array_equal(philox_normals(top, 0, (4,)),
                                  philox_normals(top + 1, 0, (4,)))
        philox_normals(2 ** 64 - 1, 0, (4,))
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            philox_normals(2 ** 64, 0, (4,))

    @pytest.mark.parametrize("seed", [0, 2 ** 63 - 1])
    def test_draws_below_2_63_unchanged(self, seed):
        # the stream a list key [seed, 0] gives below 2^63
        legacy = np.random.Generator(np.random.Philox(
            counter=[0, 0, 3, 1], key=[seed, 0])).standard_normal((5, 2))
        assert np.array_equal(philox_normals(seed, 3, (5, 2)), legacy)

    @pytest.mark.parametrize("step_index", [0, 3, 2 ** 63 - 1])
    def test_counters_below_2_63_unchanged(self, step_index):
        # the stream a list counter [0, 0, step, domain] gives below 2^63
        legacy = np.random.Generator(np.random.Philox(
            counter=[0, 0, step_index, 1],
            key=np.array([5, 0], dtype=np.uint64))).standard_normal((5, 2))
        assert np.array_equal(philox_normals(5, step_index, (5, 2)), legacy)

    def test_step_index_is_one_64_bit_counter_word(self):
        # a list counter warned on the cast at 2^64 - 1; the uint64 word
        # draws there, and a NumPy integer draws as the int it holds
        top = philox_normals(5, 2 ** 64 - 1, (4,))
        assert not np.array_equal(top, philox_normals(5, 2 ** 64 - 2, (4,)))
        assert np.array_equal(philox_normals(5, np.uint64(3), (4,)),
                              philox_normals(5, 3, (4,)))

    @pytest.mark.parametrize("step_index", [1.5, True, -1, 2 ** 64, np.float64(2.0)],
                             ids=["float", "bool", "negative", "2^64", "np_float"])
    def test_bad_step_index_rejected(self, step_index):
        # 1.5 and True drew step 1's stream, and -1 drew silently
        with pytest.raises(ValueError, match=r"step_index must be an integer "
                                             r"in \[0, 2\^64\), got"):
            philox_normals(5, step_index, (4,))


class TestEnsembleConstruction:
    def test_at_point_tiles(self):
        e = ensemble_at_point([1.0, 2.0], [0.5, -0.5], 4, 0, 0.1)
        assert e.positions.shape == (4, 2)
        assert np.array_equal(e.positions, np.tile([1.0, 2.0], (4, 1)))
        assert np.array_equal(e.momenta, np.tile([0.5, -0.5], (4, 1)))
        assert e.time == 0.0 and e.steps_taken == 0

    def test_from_moments_matches_target(self):
        mom = GaussianMoments(
            mean=np.array([1.0, -2.0]),
            cov=np.array([[2.0, 0.5], [0.5, 1.0]]),
        )
        n = 200_000
        e = ensemble_from_moments(mom, n, seed=4, dt=0.1)
        mean, cov = e.summary()
        se = np.sqrt(np.diag(mom.cov) / n)
        assert np.all(np.abs(mean - mom.mean) < 4 * se)
        assert np.allclose(cov, mom.cov, rtol=0.03, atol=0.01)

    def test_from_moments_deterministic(self):
        mom = GaussianMoments(mean=np.zeros(2), cov=np.eye(2))
        a = ensemble_from_moments(mom, 50, seed=9, dt=0.1)
        b = ensemble_from_moments(mom, 50, seed=9, dt=0.1)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.momenta, b.momenta)

    def test_from_moments_reads_eig(self, monkeypatch):
        # the moments carry their eigh; sampling decomposes nothing again
        mom = GaussianMoments(mean=np.zeros(2),
                              cov=np.array([[2.0, 0.5], [0.5, 1.0]]))
        ref = ensemble_from_moments(mom, 50, seed=9, dt=0.1)

        def refuse(*args, **kwargs):
            raise AssertionError("decomposed again")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        e = ensemble_from_moments(mom, 50, seed=9, dt=0.1)
        assert np.array_equal(e.positions, ref.positions)
        assert np.array_equal(e.momenta, ref.momenta)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(positions=np.zeros((3, 2)), momenta=np.zeros((3, 1)),
                     time=0.0, seed=0, steps_taken=0, dt=0.1)

    @pytest.mark.parametrize("field, value", [
        ("steps_taken", 1.5), ("steps_taken", -1), ("steps_taken", True),
        ("time", math.nan), ("time", math.inf), ("time", "0"),
        ("dt", math.inf), ("dt", math.nan), ("dt", True),
    ])
    def test_bad_field_named(self, field, value):
        # a NaN time ran and recorded NaN times; an infinite dt failed in
        # run with an unnamed LinAlgError, and True ran as dt = 1.0
        fields = dict(time=0.0, steps_taken=0, dt=0.1)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be"):
            Ensemble(positions=np.zeros((3, 1)), momenta=np.zeros((3, 1)),
                     seed=0, **fields)

    def test_no_particle_rejected(self):
        with pytest.raises(ValueError, match="at least one particle"):
            Ensemble(positions=np.zeros((0, 2)), momenta=np.zeros((0, 2)),
                     time=0.0, seed=0, steps_taken=0, dt=0.1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_from_moments_n_extension(self, d):
        # from two rows on the draw is a gemm, whose rows do not depend on
        # the row count; one row would be a gemv (the README's one exception)
        rng = np.random.default_rng(d)
        b = rng.standard_normal((2 * d, 2 * d))
        law = GaussianMoments(mean=rng.standard_normal(2 * d),
                              cov=b @ b.T / (2 * d) + 0.1 * np.eye(2 * d))
        for seed in range(10):
            big = ensemble_from_moments(law, 7, seed, 0.1)
            small = ensemble_from_moments(law, 2, seed, 0.1)
            assert np.array_equal(small.positions, big.positions[:2])
            assert np.array_equal(small.momenta, big.momenta[:2])

    def test_no_coordinate_rejected(self):
        # an (N, 0) ensemble was built, and its summary then divided by zero
        with pytest.raises(ValueError, match="at least one coordinate"):
            Ensemble(positions=np.zeros((3, 0)), momenta=np.zeros((3, 0)),
                     time=0.0, seed=0, steps_taken=0, dt=0.1)

    def test_single_particle_summary_has_nan_cov(self):
        e = ensemble_at_point([1.0], [0.0], 1, 0, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, cov = e.summary()
        assert np.array_equal(mean, [1.0, 0.0])
        assert np.isnan(cov).all()


class TestSimConfigValidation:
    def test_bad_dt(self):
        # an infinite dt failed in run with an unnamed LinAlgError, and
        # True ran as dt = 1.0
        for dt in (0.0, math.inf, math.nan, True):
            with pytest.raises(ValueError,
                               match="^dt must be a finite number > 0"):
                SimConfig(dt=dt, n_steps=1, n_particles=1, seed=0)

    def test_seed_below_2_64(self):
        SimConfig(dt=0.1, n_steps=1, n_particles=1, seed=2 ** 64 - 1)
        with pytest.raises(ValueError, match="seed"):
            SimConfig(dt=0.1, n_steps=1, n_particles=1, seed=2 ** 64)

    @pytest.mark.parametrize("field, value", [
        ("n_steps", 1.5), ("n_steps", -1), ("n_steps", True),
        ("n_particles", 2.0), ("n_particles", 0), ("seed", 1.0),
    ])
    def test_bad_count_named(self, field, value):
        # a float n_steps raised TypeError from range deep in run
        fields = dict(n_steps=1, n_particles=1, seed=0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SimConfig(dt=0.1, **fields)


class TestStepFormula:
    """One-step outputs checked against the update written out by hand."""

    def test_constant_dense_path(self):
        pot = quadratic_diagonal([1.0, 2.0])
        g = np.array([[2.0, 0.3], [0.3, 1.0]])
        spec = constant_matrix(g)
        cfg = SimConfig(dt=0.01, n_steps=1, n_particles=3, seed=5)
        e = ensemble_at_point([1.0, -1.0], [0.5, 0.2], 3, 5, 0.01)
        out = step(e, pot, spec, cfg)
        xi = philox_normals(5, 0, (3, 2))
        sig = spd_sqrt(2.0 * g)
        q, mom = e.positions, e.momenta
        exp_q = q + mom * 0.01
        exp_p = (mom - pot.grad(q) * 0.01 - (mom @ g.T) * 0.01
                 + (xi @ sig.T) * np.sqrt(0.01))
        assert np.allclose(out.positions, exp_q, atol=1e-14)
        assert np.allclose(out.momenta, exp_p, atol=1e-14)
        assert out.steps_taken == 1 and out.time == 0.01

    def test_hessian_sqrt_diagonal_fast_path(self):
        pot = perturbed_diagonal([1.0, 2.0], 0.1)
        spec = hessian_sqrt(2.0)
        cfg = SimConfig(dt=0.005, n_steps=1, n_particles=4, seed=3)
        e = ensemble_at_point([0.3, -0.7], [0.1, 0.4], 4, 3, 0.005)
        out = step(e, pot, spec, cfg)
        xi = philox_normals(3, 0, (4, 2))
        q, mom = e.positions, e.momenta
        gdiag = 2.0 * np.sqrt(pot.hess_diag(q))
        exp_q = q + mom * 0.005
        exp_p = (mom - pot.grad(q) * 0.005 - gdiag * mom * 0.005
                 + np.sqrt(2.0 * gdiag) * xi * np.sqrt(0.005))
        assert np.allclose(out.positions, exp_q, atol=1e-14)
        assert np.allclose(out.momenta, exp_p, atol=1e-14)

    def test_fast_path_agrees_with_generic_loop(self):
        # strip the diagonal-Hessian shortcut to force the per-particle branch
        pot = perturbed_diagonal([1.0, 2.0], 0.1)
        dense = dataclasses.replace(pot, hess_diag=None)
        spec = hessian_sqrt(2.0)
        cfg = SimConfig(dt=0.005, n_steps=1, n_particles=20, seed=3)
        e = ensemble_at_point([0.3, -0.7], [0.1, 0.4], 20, 3, 0.005)
        a = step(e, pot, spec, cfg)
        b = step(e, dense, spec, cfg)
        assert np.allclose(a.positions, b.positions, atol=1e-12)
        assert np.allclose(a.momenta, b.momenta, atol=1e-12)

    def test_diagonal_field_evaluates_tanh_once_per_step(self, monkeypatch):
        # the gradient and the Hessian diagonal share one tanh through
        # grad_hess_diag; the potential's grad and hess_diag are not called
        calls = {"tanh": 0, "grad": 0, "hess_diag": 0}
        tanh = np.tanh

        def counting_tanh(*args, **kwargs):
            calls["tanh"] += 1
            return tanh(*args, **kwargs)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        base = perturbed_diagonal([1.0, 2.0], 0.1)
        pot = dataclasses.replace(base, grad=counted("grad", base.grad),
                                  hess_diag=counted("hess_diag", base.hess_diag))
        cfg = SimConfig(dt=0.005, n_steps=3, n_particles=16, seed=3)
        e = ensemble_at_point([0.3, -0.7], [0.1, 0.4], 16, 3, 0.005)
        monkeypatch.setattr(np, "tanh", counting_tanh)
        for k in range(1, 4):
            e = step(e, pot, hessian_sqrt(2.0), cfg)
            assert calls == {"tanh": k, "grad": 0, "hess_diag": 0}

    def test_pure_noise_kick_from_rest(self):
        # grad V and Gamma p both vanish at the origin with zero momentum
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=0.04, n_steps=1, n_particles=6, seed=2)
        e = ensemble_at_point([0.0], [0.0], 6, 2, 0.04)
        out = step(e, pot, spec, cfg)
        xi = philox_normals(2, 0, (6, 1))
        assert np.array_equal(out.positions, np.zeros((6, 1)))
        assert np.allclose(out.momenta, 2.0 * xi * np.sqrt(0.04), atol=1e-15)


class TestNoiseOverride:
    """step's xi must have the positions' shape: a row or a column would
    broadcast over the ensemble silently."""

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (4, 2, 1)])
    def test_shape_mismatch_rejected(self, shape):
        pot = quadratic_diagonal([1.0, 2.0])
        cfg = SimConfig(dt=0.01, n_steps=1, n_particles=4, seed=0)
        e = ensemble_at_point([1.0, -1.0], [0.0, 0.0], 4, 0, 0.01)
        xi = np.ones(shape)
        with pytest.raises(ValueError, match=r"^xi has shape " + re.escape(
                f"{shape}, but the ensemble's positions have shape (4, 2)")):
            step(e, pot, constant_scalar(1.0), cfg, xi=xi)

    def test_caller_arrays_untouched(self):
        pot = quadratic_diagonal([1.0, 2.0])
        cfg = SimConfig(dt=0.01, n_steps=1, n_particles=4, seed=0)
        e = ensemble_from_moments(
            GaussianMoments(mean=np.zeros(4), cov=np.eye(4)), 4, 0, 0.01)
        xi = philox_normals(9, 0, (4, 2))
        arrays = [a.copy() for a in (e.positions, e.momenta, xi)]
        out = step(e, pot, constant_scalar(1.0), cfg, xi=xi)
        assert not np.array_equal(out.momenta, e.momenta)
        for a, b in zip((e.positions, e.momenta, xi), arrays):
            assert np.array_equal(a, b)


def _rotated_log_cosh(v, eps, angle):
    """V(q) = sum v_i^2 y_i^2 / 2 + eps sum log cosh(y_i) with y = R q and R
    a plane rotation: a Hessian that is neither diagonal nor constant."""
    base = perturbed_diagonal(v, eps)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    v2 = np.asarray(v, dtype=float) ** 2

    def grad(q):
        y = q @ rot.T
        return (v2 * y + eps * np.tanh(y)) @ rot

    def hess(q):
        y = rot @ q
        return (rot.T * (v2 + eps * (1.0 - np.tanh(y) ** 2))) @ rot

    return dataclasses.replace(base, grad=grad, hess=hess, hess_diag=None,
                               constant_hessian=False)


class TestGeneralFrictionField:
    def test_grad_hess_diag_left_in_place_is_not_called(self):
        # as perfbench/rotated.py builds its potential: the base's
        # grad_hess_diag describes the unrotated Hessian, and only
        # hess_diag=None keeps the simulator from calling it
        def refuse(*args):
            raise AssertionError("the general field called grad_hess_diag")

        pot = dataclasses.replace(_rotated_log_cosh([1.0, 3.0], 0.5, 0.6),
                                  grad_hess_diag=refuse)
        assert pot.hess_diag is None and not pot.constant_hessian
        spec = hessian_sqrt(2.0)
        n, dt = simulate.PREFETCH_MIN_ELEMENTS // 2, 0.01   # d = 2: staged
        cfg = SimConfig(dt=dt, n_steps=2, n_particles=n, seed=8)
        init = ensemble_from_moments(
            GaussianMoments(mean=np.zeros(4), cov=np.eye(4)), n, 8, dt)
        assert np.all(np.isfinite(step(init, pot, spec, cfg).momenta))
        points = TestNoisePrefetch._run(init, pot, spec, cfg)
        assert len(points) == 3 and np.all(np.isfinite(points[-1].cov))

    def test_batched_step_matches_per_particle_loop(self):
        pot = _rotated_log_cosh([1.0, 3.0], 0.5, 0.6)
        assert abs(pot.hess(np.array([0.4, -0.2]))[0, 1]) > 0.1
        spec = hessian_sqrt(2.0)
        n, dt = 40, 0.01
        cfg = SimConfig(dt=dt, n_steps=1, n_particles=n, seed=8)
        init = ensemble_from_moments(
            GaussianMoments(mean=np.zeros(4), cov=np.eye(4)), n, 8, dt)
        out = step(init, pot, spec, cfg)
        xi = philox_normals(8, 0, (n, 2))
        q, mom = init.positions, init.momenta
        ref_p = np.empty_like(mom)
        for i in range(n):
            g = spec.gamma(pot, q[i])
            sig = spec.diffusion(pot, q[i])
            ref_p[i] = (mom[i] - pot.grad(q[i]) * dt - (g @ mom[i]) * dt
                        + (sig @ xi[i]) * np.sqrt(dt))
        ref_q = q + mom * dt
        assert np.abs(out.positions - ref_q).max() <= 1e-12 * np.abs(ref_q).max()
        assert np.abs(out.momenta - ref_p).max() <= 1e-12 * np.abs(ref_p).max()


class TestDuplicatedState:
    """Ensemble and SimConfig both carry dt and seed; a mismatch is an error."""

    def test_step_rejects_dt_mismatch(self):
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=0.01, n_steps=1, n_particles=4, seed=0)
        with pytest.raises(ValueError, match="^dt:"):
            step(ensemble_at_point([1.0], [0.0], 4, 0, 0.02), pot, spec, cfg)

    def test_step_rejects_seed_mismatch(self):
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=0.01, n_steps=1, n_particles=4, seed=0)
        with pytest.raises(ValueError, match="^seed:"):
            step(ensemble_at_point([1.0], [0.0], 4, 1, 0.01), pot, spec, cfg)

    def test_run_rejects_particle_count_mismatch(self):
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=0.01, n_steps=1, n_particles=5, seed=0)
        with pytest.raises(ValueError, match="^n_particles:"):
            run(ensemble_at_point([1.0], [0.0], 4, 0, 0.01), pot, spec, cfg)

    def test_step_takes_particle_count_from_ensemble(self):
        # stepping a slice of a larger ensemble draws the slice's own noise
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=0.01, n_steps=1, n_particles=50, seed=0)
        whole = step(ensemble_at_point([1.0], [0.0], 50, 0, 0.01), pot, spec, cfg)
        part = step(ensemble_at_point([1.0], [0.0], 4, 0, 0.01), pot, spec, cfg)
        assert np.array_equal(part.momenta, whole.momenta[:4])


class TestDimensionMismatch:
    """An ensemble, a potential and a friction matrix of different
    dimensions are rejected by name, where a (d,) parameter or a matrix
    broadcast silently or failed unnamed."""

    @staticmethod
    def _call(how, e, pot, spec):
        cfg = SimConfig(dt=0.01, n_steps=2, n_particles=e.n_particles,
                        seed=e.seed)
        return (step if how == "step" else run)(e, pot, spec, cfg)

    @pytest.mark.parametrize("how", ["step", "run"])
    def test_ensemble_dim_not_the_potential_dim(self, how):
        # a 2-d ensemble ran against v = (1,) as if v were (1, 1)
        e = ensemble_at_point([1.0, 0.5], [0.0, 0.0], 4, 0, 0.01)
        with pytest.raises(ValueError,
                           match="^dim: the ensemble has 2, the potential 1$"):
            self._call(how, e, quadratic_diagonal([1.0]), constant_scalar(2.0))

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("how", ["step", "run"])
    def test_friction_matrix_size_not_the_potential_dim(self, how, size):
        # a 1x1 matrix ran on d = 2; a 3x3 one failed in a broadcast
        e = ensemble_at_point([1.0, 0.5], [0.0, 0.0], 4, 0, 0.01)
        spec = constant_matrix(np.eye(size))
        with pytest.raises(ValueError, match=f"^friction matrix is {size}x"
                                             f"{size}, but the potential has dim 2$"):
            self._call(how, e, quadratic_diagonal([1.0, 2.0]), spec)


class TestDeterministicLimits:
    def test_zero_noise_matches_linear_flow(self, monkeypatch):
        # with xi == 0 EM is explicit Euler on the linear ODE; at dt = 1e-4
        # over t = 5 the Euler error stays far below 1e-5.  run looks each
        # step's stream up when called, so patching the module's stream
        # zeroes the noise
        class NoNoise:
            def standard_normal(self, out):
                out.fill(0.0)
                return out

        monkeypatch.setattr(simulate, "_stream", lambda seed, k: NoNoise())
        pot, spec, dyn = _ou_1d()
        cfg = SimConfig(dt=1e-4, n_steps=50_000, n_particles=1, seed=0)
        pts = run(ensemble_at_point([1.0], [0.0], 1, 0, 1e-4), pot, spec, cfg,
                  record_every=50_000)
        exact = expm(dyn.drift, 5.0) @ np.array([1.0, 0.0])
        assert np.abs(pts[-1].mean - exact).max() < 1e-5

    def test_energy_drift_tiny_friction(self):
        # explicit Euler on a harmonic oscillator inflates energy by
        # (1 + w^2 dt^2) per step: about 1e-3 over t = 1 at dt = 1e-3
        pot = quadratic_diagonal([1.0])
        spec = constant_matrix(1e-15 * np.eye(1))
        cfg = SimConfig(dt=1e-3, n_steps=1000, n_particles=1, seed=0)
        e = ensemble_at_point([1.0], [0.0], 1, 0, 1e-3)
        energy0 = pot.value(e.positions[0]) + 0.5 * e.momenta[0] @ e.momenta[0]
        for _ in range(1000):
            e = step(e, pot, spec, cfg)
        energy1 = pot.value(e.positions[0]) + 0.5 * e.momenta[0] @ e.momenta[0]
        rel = (energy1 - energy0) / energy0
        assert 0.0 < rel < 2e-3


class TestMomentAccuracy:
    def test_point_init_moments_match_closed_form(self):
        # N = 1e5, frozen seed 0: mean z-scores 0.62 and 0.43, covariance
        # relative errors <= 0.9% when this was frozen
        pot, spec, dyn = _ou_1d()
        n = 100_000
        cfg = SimConfig(dt=1e-3, n_steps=1000, n_particles=n, seed=0)
        init = ensemble_at_point([1.0], [0.0], n, 0, 1e-3)
        pts = run(init, pot, spec, cfg, record_every=1000)
        exact = propagate(
            dyn,
            GaussianMoments(mean=np.array([1.0, 0.0]), cov=np.zeros((2, 2))),
            1.0,
        )
        mean, cov = pts[-1].mean, pts[-1].cov
        se = np.sqrt(np.diag(exact.cov) / n)
        assert np.all(np.abs(mean - exact.mean) < 3 * se)
        assert np.all(
            np.abs(cov - exact.cov) <= 0.05 * np.abs(exact.cov) + 1e-4
        )

    def test_stationary_init_stays_put(self):
        # start at the stationary law, run t = 5, compare final summaries to
        # the initial draw's own summaries; sqrt(2) accounts for the final
        # state being nearly decorrelated from the initial one.  Frozen
        # seed 6: largest z-score 0.98
        pot, spec, dyn = _ou_1d()
        pi = stationary_moments(dyn)
        n = 20_000
        cfg = SimConfig(dt=1e-3, n_steps=5000, n_particles=n, seed=6)
        e0 = ensemble_from_moments(pi, n, 6, 1e-3)
        mean0, cov0 = e0.summary()
        pts = run(e0, pot, spec, cfg, record_every=5000)
        mean1, cov1 = pts[-1].mean, pts[-1].cov
        se_mean = np.sqrt(np.diag(cov0) / n)
        assert np.all(np.abs(mean1 - mean0) < 3 * np.sqrt(2) * se_mean)
        se_var = np.sqrt(2.0 / n) * np.diag(cov0)
        assert np.all(
            np.abs(np.diag(cov1) - np.diag(cov0)) < 3 * np.sqrt(2) * se_var
        )


class TestWeakOrderOne:
    def test_mean_error_halves_with_dt(self):
        # common random numbers: each coarse step consumes the sum of its
        # fine sub-steps' draws, so the MC noise cancels between grids and
        # mean errors expose the O(dt) weak bias.  Init far from the target
        # (amplitude 50) keeps the bias >> residual noise at N = 1e5; frozen
        # seed 123 gives ratios 2.07 and 2.04
        pot, spec, dyn = _ou_1d()
        n = 100_000
        exact = propagate(
            dyn,
            GaussianMoments(mean=np.array([50.0, 0.0]), cov=np.zeros((2, 2))),
            1.0,
        )
        errs = []
        for nsteps in (10, 20, 40):
            dt = 1.0 / nsteps
            factor = 40 // nsteps
            cfg = SimConfig(dt=dt, n_steps=nsteps, n_particles=n, seed=123)
            e = ensemble_at_point([50.0], [0.0], n, 123, dt)
            for k in range(nsteps):
                xi = np.zeros((n, 1))
                for j in range(k * factor, (k + 1) * factor):
                    xi += philox_normals(123, j, (n, 1))
                xi /= np.sqrt(factor)
                e = step(e, pot, spec, cfg, xi=xi)
            mean, _ = e.summary()
            errs.append(np.abs(mean - exact.mean).max())
        assert 1.5 < errs[0] / errs[1] < 2.5
        assert 1.5 < errs[1] / errs[2] < 2.5


class TestRunBookkeeping:
    def test_deterministic_reruns(self):
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=0.01, n_steps=50, n_particles=100, seed=21)
        init = ensemble_at_point([1.0], [0.0], 100, 21, 0.01)
        a = run(init, pot, spec, cfg, record_every=10)
        b = run(init, pot, spec, cfg, record_every=10)
        assert len(a) == len(b) == 6
        for pa, pb in zip(a, b):
            assert pa.time == pb.time
            assert np.array_equal(pa.mean, pb.mean)
            assert np.array_equal(pa.cov, pb.cov)

    def test_record_schedule(self):
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=0.01, n_steps=25, n_particles=10, seed=0)
        init = ensemble_at_point([1.0], [0.0], 10, 0, 0.01)
        pts = run(init, pot, spec, cfg, record_every=10)
        # initial, steps 10 and 20, plus the final step 25
        assert [round(p.time, 10) for p in pts] == [0.0, 0.1, 0.2, 0.25]

    def test_proxy_attached_to_records(self):
        pot, spec, dyn = _ou_1d()
        pi = stationary_moments(dyn)
        cfg = SimConfig(dt=0.01, n_steps=10, n_particles=500, seed=1)
        init = ensemble_from_moments(pi, 500, 1, 0.01)
        plain = run(init, pot, spec, cfg, record_every=5)
        assert all(p.chi2_proxy is None for p in plain)
        pts = attach_chi2_proxies(plain, pi)
        assert all(p.chi2_proxy is not None for p in pts)
        assert all(np.isfinite(p.chi2_proxy) and p.chi2_proxy >= 0.0
                   for p in pts)
        for a, b in zip(plain, pts):
            assert a.time == b.time
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)

    def test_bad_record_every(self):
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=0.01, n_steps=5, n_particles=2, seed=0)
        init = ensemble_at_point([1.0], [0.0], 2, 0, 0.01)
        with pytest.raises(ValueError):
            run(init, pot, spec, cfg, record_every=0)

    @pytest.mark.parametrize("steps_taken, n_steps, record_every, match", [
        # 1.5 recorded at step 3 only
        (0, 4, 1.5, "record_every must be an integer >= 1"),
        (0, 4, True, "record_every must be an integer >= 1"),
        # from 2^64 - 1, the draw's counter overflowed
        (2 ** 64 - 1, 1, 1, r"steps_taken \+ n_steps = .* below 2\^64"),
        (2 ** 64 - 4, 5, 2, r"steps_taken \+ n_steps = .* below 2\^64"),
    ])
    def test_bad_run_rejected_before_any_thread(self, steps_taken, n_steps,
                                                record_every, match,
                                                monkeypatch):
        # at a size that would take the staged path
        def refuse(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(simulate, "_staged", refuse)
        monkeypatch.setattr(simulate, "_advance", refuse)
        pot, spec, _ = _ou_1d()
        n = simulate.PREFETCH_BATCH_ELEMENTS
        cfg = SimConfig(dt=0.01, n_steps=n_steps, n_particles=n, seed=0)
        init = dataclasses.replace(ensemble_at_point([1.0], [0.0], n, 0, 0.01),
                                   steps_taken=steps_taken)
        with pytest.raises(ValueError, match=match):
            run(init, pot, spec, cfg, record_every=record_every)

    def test_last_step_index_below_2_64_runs(self):
        # the last step's draw takes counter word 2^64 - 2, as step takes it
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=0.01, n_steps=1, n_particles=3, seed=0)
        init = dataclasses.replace(ensemble_at_point([1.0], [0.0], 3, 0, 0.01),
                                   steps_taken=2 ** 64 - 2)
        pts = run(init, pot, spec, cfg)
        mean, cov = step(init, pot, spec, cfg).summary()
        assert _bits(pts[-1].mean, pts[-1].cov) == _bits(mean, cov)


def _proxy(ensemble, pi):
    mean, cov = ensemble.summary()
    point = TrajectoryPoint(time=ensemble.time, mean=mean, cov=cov)
    return attach_chi2_proxies([point], pi)[0].chi2_proxy


class TestChi2Proxy:
    def test_at_target_small(self):
        # exact value is 0; the moment-matched estimate carries an
        # O(dim^2/N) positive bias -- measured 3e-5 to 7e-5 at N = 1e5
        pot, spec, dyn = _ou_1d()
        pi = stationary_moments(dyn)
        e = ensemble_from_moments(pi, 100_000, seed=1, dt=0.01)
        assert 0.0 <= _proxy(e, pi) < 4e-4

    def test_mean_shift_value(self):
        # rho = N((1,0), I) against pi = N(0, I): chi2 = e - 1.  Frozen
        # seed 2 lands within 0.1%
        pot, spec, dyn = _ou_1d()
        pi = stationary_moments(dyn)
        rho = GaussianMoments(mean=np.array([1.0, 0.0]), cov=np.eye(2))
        e = ensemble_from_moments(rho, 100_000, seed=2, dt=0.01)
        val = _proxy(e, pi)
        assert abs(val - (np.e - 1.0)) < 0.05 * (np.e - 1.0)

    def test_degenerate_record_gets_none(self):
        _, _, dyn = _ou_1d()
        pi = stationary_moments(dyn)
        e = ensemble_at_point([1.0], [0.0], 50, 0, 0.01)
        assert _proxy(e, pi) is None

    def test_single_particle_nan_covariance_gets_none(self):
        # one particle's summary covariance is NaN, in d = 1 and d = 2
        _, _, dyn = _ou_1d()
        pi = stationary_moments(dyn)
        assert _proxy(ensemble_at_point([1.0], [0.0], 1, 0, 0.01), pi) is None
        pi2 = GaussianMoments(mean=np.zeros(4), cov=np.eye(4))
        e = ensemble_at_point([1.0, 2.0], [0.0, 0.0], 1, 0, 0.01)
        assert _proxy(e, pi2) is None


class TestStabilityAndBlowup:
    def test_unstable_dt_warns_then_blows_up(self):
        pot, spec, _ = _ou_1d()  # lambda_max(Gamma) = 2
        cfg = SimConfig(dt=3.0, n_steps=200, n_particles=10, seed=0)
        init = ensemble_at_point([1.0], [0.0], 10, 0, 3.0)
        with pytest.warns(RuntimeWarning, match="unstable"):
            with pytest.raises(NumericalBlowup) as excinfo:
                run(init, pot, spec, cfg)
        assert excinfo.value.step_index is not None
        assert 1 <= excinfo.value.step_index <= 200

    def test_stable_dt_silent(self):
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=1e-2, n_steps=5, n_particles=10, seed=0)
        init = ensemble_at_point([1.0], [0.0], 10, 0, 1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(init, pot, spec, cfg)

    # (friction, dt, spectral radius of I + dt F) on V = q^2 / 2; the first
    # two blow up although dt * lambda_max(Gamma) < 2, the third is stable
    # although dt * lambda_max(Gamma) = 3
    EXACT_CRITERION = [
        (constant_scalar(0.1), 0.2, math.sqrt(1.02)),
        (hessian_sqrt(1.0), 1.5, 1.32),
        (hessian_sqrt(2.0), 1.5, 0.5),
    ]

    @pytest.mark.parametrize("spec, dt, radius", EXACT_CRITERION,
                             ids=["weak-friction", "underdamped", "critical"])
    def test_warns_exactly_when_spectral_radius_reaches_one(self, spec, dt,
                                                            radius):
        pot = quadratic_diagonal([1.0])
        cfg = SimConfig(dt=dt, n_steps=5000, n_particles=100, seed=0)
        init = ensemble_at_point([1.0], [0.0], 100, 0, dt)
        if radius < 1:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                points = run(init, pot, spec, cfg, record_every=5000)
            assert points[-1].time == pytest.approx(5000 * dt)
        else:
            with pytest.warns(RuntimeWarning, match=f"{radius:.3g} >= 1"):
                with pytest.raises(NumericalBlowup):
                    run(init, pot, spec, cfg, record_every=5000)

    def test_ill_conditioned_hessian_runs_like_step(self):
        # Hess V = diag(1e-12, 1) fails the SPD rule's 1e10 condition limit;
        # the criterion needs no factorization, so run goes ahead as step does
        pot = quadratic_diagonal([1e-6, 1.0])
        spec = constant_scalar(1.0)
        cfg = SimConfig(dt=0.01, n_steps=3, n_particles=10, seed=0)
        init = ensemble_at_point([1.0, 1.0], [0.0, 0.0], 10, 0, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = run(init, pot, spec, cfg, record_every=3)
        e = init
        for _ in range(3):
            e = step(e, pot, spec, cfg)
        assert np.array_equal(points[-1].mean, e.summary()[0])


class TestFiniteCheck:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e12, -2e12])
    @pytest.mark.parametrize("block", ["positions", "momenta"])
    def test_bad_coordinate_raises_with_step_index(self, bad, block):
        # one bad coordinate of one particle, seven steps into a run
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=0.01, n_steps=1, n_particles=4, seed=0)
        arrays = {"positions": np.ones((4, 1)), "momenta": np.zeros((4, 1))}
        arrays[block][2, 0] = bad
        e = Ensemble(**arrays, time=0.07, seed=0, steps_taken=7, dt=0.01)
        with pytest.raises(NumericalBlowup) as excinfo, np.errstate(invalid="ignore"):
            step(e, pot, spec, cfg, xi=np.zeros((4, 1)))
        assert excinfo.value.step_index == 8

    @pytest.mark.parametrize("block", ["positions", "momenta"])
    def test_large_finite_coordinate_passes(self, block):
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=0.01, n_steps=1, n_particles=4, seed=0)
        arrays = {"positions": np.ones((4, 1)), "momenta": np.zeros((4, 1))}
        arrays[block][2, 0] = -9e11
        e = Ensemble(**arrays, time=0.0, seed=0, steps_taken=0, dt=0.01)
        assert step(e, pot, spec, cfg, xi=np.zeros((4, 1))).steps_taken == 1


class TestSummary:
    def test_matches_np_cov_with_offset_mean(self):
        rng = np.random.default_rng(5)
        n, d = 20_000, 3
        mix = rng.standard_normal((2 * d, 2 * d))
        x = rng.standard_normal((n, 2 * d)) @ mix + 1e4
        e = Ensemble(positions=x[:, :d], momenta=x[:, d:], time=0.0, seed=0,
                     steps_taken=0, dt=0.1)
        mean, cov = e.summary()
        exact_mean = [math.fsum(col) / n for col in x.T]
        assert np.abs(mean - exact_mean).max() <= 1e-13 * np.abs(exact_mean).max()
        ref = np.cov(x, rowvar=False)
        assert np.abs(cov - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(cov, cov.T)

    @staticmethod
    def _one_copy_summary(q, p):
        """The summary from one centered C-ordered (d, N) copy of each
        block, written out as the reference for the blocked summary."""
        def centered_rows(x):
            rows = np.array(x.T, order="C")
            mean = rows.mean(axis=1)
            rows -= mean[:, None]
            return rows, mean

        n, d = q.shape
        qc, q_bar = centered_rows(q)
        pc, p_bar = centered_rows(p)
        cov = np.empty((2 * d, 2 * d))
        cov[:d, :d] = np.einsum("in,jn->ij", qc, qc)
        cov[:d, d:] = np.einsum("in,jn->ij", qc, pc)
        cov[d:, :d] = cov[:d, d:].T
        cov[d:, d:] = np.einsum("in,jn->ij", pc, pc)
        cov /= n - 1
        return np.concatenate([q_bar, p_bar]), cov

    @staticmethod
    def _ensemble(n, d, seed):
        # q and p are strided column views of one (N, 2d) array, as
        # ensemble_from_moments gives them
        rng = np.random.default_rng(seed)
        mix = rng.standard_normal((2 * d, 2 * d))
        x = rng.standard_normal((n, 2 * d)) @ mix + 1e3
        return x, Ensemble(positions=x[:, :d], momenta=x[:, d:], time=0.0,
                           seed=0, steps_taken=0, dt=0.1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_means_bitwise_one_copy(self, d):
        # up to 3 blocks and a tail: a mean is one sum per column
        n = 3 * (simulate.PREFETCH_BATCH_ELEMENTS // d) + 5
        _, e = self._ensemble(n, d, d)
        ref, _ = self._one_copy_summary(e.positions, e.momenta)
        assert _bits(e.summary()[0]) == _bits(ref)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 1000, None],
                             ids=["two", "1000", "one_block"])
    def test_one_block_bitwise_one_copy(self, d, n):
        n = n or simulate.PREFETCH_BATCH_ELEMENTS // d
        assert n * d <= simulate.PREFETCH_BATCH_ELEMENTS
        _, e = self._ensemble(n, d, 10 + d)
        assert _bits(*e.summary()) == _bits(
            *self._one_copy_summary(e.positions, e.momenta))

    def test_blocks_with_one_row_tail_match_fsum_and_np_cov(self):
        d = 2
        rows = simulate.PREFETCH_BATCH_ELEMENTS // d
        n = 2 * rows + 1
        x, e = self._ensemble(n, d, 21)
        mean, cov = e.summary()
        assert np.array_equal(cov, cov.T)
        exact_mean = [math.fsum(col) / n for col in x.T]
        centered = [x[:, i] - exact_mean[i] for i in range(2 * d)]
        ref = np.array([[math.fsum(centered[i] * centered[j]) / (n - 1)
                         for j in range(2 * d)] for i in range(2 * d)])
        scale = np.abs(ref).max()
        assert np.abs(cov - ref).max() <= 1e-13 * scale
        assert np.abs(cov - np.cov(x, rowvar=False)).max() <= 1e-13 * scale

    def test_bits_independent_of_blas_threads(self):
        # the summary calls no BLAS, so its bytes cannot depend on how many
        # threads a BLAS matmul would split its sums over
        script = (
            "import hashlib, numpy as np\n"
            "from kinlang.simulate import Ensemble\n"
            "x = np.random.default_rng(3).standard_normal((100_000, 4)) + 7.0\n"
            "e = Ensemble(positions=x[:, :2], momenta=x[:, 2:], time=0.0,\n"
            "             seed=0, steps_taken=0, dt=0.1)\n"
            "mean, cov = e.summary()\n"
            "print(hashlib.sha256(mean.tobytes() + cov.tobytes()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(kinlang.__file__)))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


def _bounded(fn, timeout=120):
    """fn(caller) on a new thread, caller being that thread; it must return
    within timeout seconds, and its result is returned or its exception
    raised.  The thread is a daemon, and so are the threads it starts, so
    one left waiting does not hold the interpreter at exit either."""
    box = {}

    def target():
        try:
            box["value"] = fn(threading.current_thread())
        except BaseException as exc:   # raised again below
            box["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), "run did not return"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestNoisePrefetch:
    """From PREFETCH_MIN_ELEMENTS coordinates on, run stages its steps: one
    thread draws a step's noise while the other applies the step before;
    nothing observable may change.  Here N * d = 2^16, one stage per step.
    Every run goes through _bounded, so a run that strands a step fails
    the test instead of hanging the suite."""

    N = simulate.PREFETCH_BATCH_ELEMENTS // 2   # d = 1: one stage per step
    N_STEPS = 5

    def _setup(self, dt=1e-3, n_steps=None):
        n = self.N
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=dt, n_steps=n_steps or self.N_STEPS, n_particles=n, seed=4)
        init = ensemble_from_moments(
            GaussianMoments(mean=[1.0, 0.0], cov=np.eye(2)), n, 4, dt)
        return pot, spec, cfg, init

    @staticmethod
    def _run(*args, caller=None, **kwargs):
        """run(*args, **kwargs) under _bounded; the list caller, when
        given, receives the thread applying the steps."""
        def target(thread):
            if caller is not None:
                caller.append(thread)
            return run(*args, **kwargs)

        return _bounded(target)

    @staticmethod
    def _assert_step_loop_records(pts, init, pot, spec, cfg, record_every=1):
        e = init
        ref = [e.summary()]
        for k in range(1, cfg.n_steps + 1):
            e = step(e, pot, spec, cfg)
            if k % record_every == 0 or k == cfg.n_steps:
                ref.append(e.summary())
        assert len(pts) == len(ref)
        for pt, (mean, cov) in zip(pts, ref):
            assert np.array_equal(pt.mean, mean)
            assert np.array_equal(pt.cov, cov)

    def test_records_equal_step_loop(self):
        pot, spec, cfg, init = self._setup()
        pts = self._run(init, pot, spec, cfg)
        assert len(pts) == cfg.n_steps + 1
        self._assert_step_loop_records(pts, init, pot, spec, cfg)

    def test_sparse_records_from_stepped_ensemble_equal_step_loop(self):
        # a run that starts at step 1 and records every 4th step
        pot, spec, cfg, init = self._setup()
        init = step(init, pot, spec, cfg)
        pts = self._run(init, pot, spec, cfg, record_every=4)
        self._assert_step_loop_records(pts, init, pot, spec, cfg, record_every=4)

    def test_reruns_identical(self):
        pot, spec, cfg, init = self._setup()
        a = self._run(init, pot, spec, cfg, record_every=2)
        b = self._run(init, pot, spec, cfg, record_every=2)
        for pa, pb in zip(a, b):
            assert pa.time == pb.time
            assert np.array_equal(pa.mean, pb.mean)
            assert np.array_equal(pa.cov, pb.cov)

    def test_n_extension(self, monkeypatch):
        # the first m particles of a prefetched run follow the same
        # trajectories as a run of m particles on one thread
        m = 1000
        assert m < simulate.PREFETCH_MIN_ELEMENTS
        pot, spec, cfg, init = self._setup()
        seen = []
        advance = simulate._advance

        def spy(*args):
            # run steps its state in buffers it reuses, so each step's new
            # state, the out pair, is copied
            advance(*args)
            seen.append(tuple(x.copy() for x in args[6]))

        monkeypatch.setattr(simulate, "_advance", spy)
        self._run(init, pot, spec, cfg)
        big = list(seen)
        seen.clear()
        part = Ensemble(positions=init.positions[:m], momenta=init.momenta[:m],
                        time=0.0, seed=init.seed, steps_taken=0, dt=init.dt)
        self._run(part, pot, spec, dataclasses.replace(cfg, n_particles=m))
        assert len(big) == len(seen) == cfg.n_steps
        for (qa, pa), (qb, pb) in zip(big, seen):
            assert np.array_equal(qa[:m], qb)
            assert np.array_equal(pa[:m], pb)

    def test_blowup_step_index_matches_inline(self, monkeypatch):
        pot, spec, cfg, init = self._setup(dt=3.0, n_steps=200)
        indices = []
        for threshold in (simulate.PREFETCH_MIN_ELEMENTS, 1 << 62):
            monkeypatch.setattr(simulate, "PREFETCH_MIN_ELEMENTS", threshold)
            with pytest.warns(RuntimeWarning, match="unstable"):
                with pytest.raises(NumericalBlowup) as excinfo:
                    self._run(init, pot, spec, cfg)
            indices.append(excinfo.value.step_index)
        assert indices[0] is not None and 1 <= indices[0] <= 200
        assert indices[0] == indices[1]

    def test_concurrent_runs_with_fast_thread_switching(self):
        # three runs at once, six threads on fewer cores, switching every
        # microsecond: a step applied out of turn would move a record
        pot, spec, cfg, init = self._setup()
        results = [None] * 3

        def target(i):
            results[i] = run(init, pot, spec, cfg)

        def three_at_once(caller):
            threads = [threading.Thread(target=target, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _bounded(three_at_once)
        finally:
            sys.setswitchinterval(interval)
        for pts in results:
            self._assert_step_loop_records(pts, init, pot, spec, cfg)

    def test_no_thread_left_behind(self):
        start = threading.active_count()
        pot, spec, cfg, init = self._setup()
        self._run(init, pot, spec, cfg)
        assert threading.active_count() == start
        pot, spec, cfg, init = self._setup(dt=3.0, n_steps=200)
        with pytest.warns(RuntimeWarning, match="unstable"):
            with pytest.raises(NumericalBlowup):
                self._run(init, pot, spec, cfg)
        assert threading.active_count() == start


class TestBatchedPrefetch(TestNoisePrefetch):
    """The same checks at N * d = 10,000, one stage per step, over a run of
    thirty steps, so that each thread takes many."""

    N = 10_000
    N_STEPS = 30

    def test_sizes_cover_batches(self):
        assert self.N >= simulate.PREFETCH_MIN_ELEMENTS
        assert self.N <= simulate.PREFETCH_BATCH_ELEMENTS   # d = 1: one stage
        assert self.N_STEPS >= 10

    def test_blowup_inside_batch_matches_step_loop(self):
        pot, spec, cfg, init = self._setup(dt=3.0, n_steps=200)
        with pytest.warns(RuntimeWarning, match="unstable"):
            with pytest.raises(NumericalBlowup) as excinfo:
                self._run(init, pot, spec, cfg)
        e = init
        with pytest.raises(NumericalBlowup) as ref:
            for _ in range(cfg.n_steps):
                e = step(e, pot, spec, cfg)
        assert excinfo.value.step_index == ref.value.step_index
        # past the first two steps, so both threads have applied steps
        assert ref.value.step_index > 2


class TestStagedRun:
    """A step of any friction form is drawn and applied one stage of
    PREFETCH_BATCH_ELEMENTS coordinates at a time, by the calling thread
    (the even steps) and one helper (the odd ones); every record must be
    the step loop's.  N leaves a ragged last stage: two stages at d = 1, three
    at d = 2.  Every run goes through _bounded."""

    N = simulate.PREFETCH_BATCH_ELEMENTS + 3
    N_STEPS = 6
    FORMS = {
        "quadratic_scalar": lambda: (quadratic_diagonal([1.0]),
                                     constant_scalar(2.0)),
        "diagonal_field": lambda: (perturbed_diagonal([1.0, 2.0], 0.1),
                                   hessian_sqrt(2.0)),
    }
    #: forms with a matrix product in the step: a matmul gradient, a
    #: matrix Gamma
    MATRIX_FORMS = {
        "general_gradient": lambda: (quadratic_general([[1.0]]),
                                     constant_scalar(2.0)),
        "constant_matrix": lambda: (quadratic_diagonal([1.0, 2.0]),
                                    constant_matrix([[2.0, 0.3], [0.3, 1.0]])),
    }
    ALL_FORMS = [*FORMS, *MATRIX_FORMS]

    def _setup(self, kind, n_steps=None, n=None):
        pot, spec = {
            **self.FORMS, **self.MATRIX_FORMS,
            # one Hessian per particle per step, so only at a smaller N
            "general_field": lambda: (_rotated_log_cosh([1.0, 2.0], 0.1, 0.6),
                                      hessian_sqrt(2.0)),
        }[kind]()
        d, n, dt = pot.dim, n or self.N, 0.01
        cfg = SimConfig(dt=dt, n_steps=n_steps or self.N_STEPS, n_particles=n,
                        seed=8)
        init = ensemble_from_moments(
            GaussianMoments(mean=np.r_[np.full(d, 0.5), np.zeros(d)],
                            cov=np.eye(2 * d)), n, 8, dt)
        return pot, spec, cfg, init

    @staticmethod
    def _stages(d):
        rows = simulate.PREFETCH_BATCH_ELEMENTS // d
        return -(-TestStagedRun.N // rows)

    def test_sizes_leave_a_ragged_stage(self):
        assert self.N > simulate.PREFETCH_BATCH_ELEMENTS // 2
        assert self._stages(1) == 2 and self._stages(2) == 3
        assert self.N % simulate.PREFETCH_BATCH_ELEMENTS == 3

    @pytest.mark.parametrize("stepped", [False, True],
                             ids=["every_step", "stepped_sparse"])
    @pytest.mark.parametrize("kind", ALL_FORMS)
    def test_records_equal_step_loop(self, kind, stepped):
        pot, spec, cfg, init = self._setup(kind)
        record_every = 1
        if stepped:
            # a run that starts at step 1 and records every 4th step
            init, record_every = step(init, pot, spec, cfg), 4
        pts = TestNoisePrefetch._run(init, pot, spec, cfg,
                                     record_every=record_every)
        TestNoisePrefetch._assert_step_loop_records(pts, init, pot, spec, cfg,
                                                    record_every)

    @pytest.mark.parametrize("kind", ALL_FORMS)
    def test_reruns_identical(self, kind):
        pot, spec, cfg, init = self._setup(kind)
        a = TestNoisePrefetch._run(init, pot, spec, cfg, record_every=2)
        b = TestNoisePrefetch._run(init, pot, spec, cfg, record_every=2)
        assert len(a) == len(b) == 4
        for pa, pb in zip(a, b):
            assert pa.time == pb.time
            assert _bits(pa.mean, pa.cov) == _bits(pb.mean, pb.cov)

    @pytest.mark.parametrize("kind", ALL_FORMS)
    def test_n_extension(self, kind, monkeypatch):
        # the first m particles of a staged run, all in its first stage,
        # follow the same trajectories as a run of m particles on one thread
        m = 1000
        assert m < simulate.PREFETCH_MIN_ELEMENTS
        pot, spec, cfg, init = self._setup(kind)
        seen = {}
        advance = simulate._advance

        def spy(*args):
            advance(*args)
            if (args[9] if len(args) > 9 else 0) == 0:
                seen[args[5]] = tuple(x[:m].copy() for x in args[6])

        monkeypatch.setattr(simulate, "_advance", spy)
        TestNoisePrefetch._run(init, pot, spec, cfg)
        big = dict(seen)
        seen.clear()
        part = Ensemble(positions=init.positions[:m], momenta=init.momenta[:m],
                        time=0.0, seed=init.seed, steps_taken=0, dt=init.dt)
        TestNoisePrefetch._run(part, pot, spec,
                               dataclasses.replace(cfg, n_particles=m))
        assert sorted(big) == sorted(seen) == list(range(1, cfg.n_steps + 1))
        for k in seen:
            assert _bits(*big[k]) == _bits(*seen[k])

    @staticmethod
    def _assert_step_loop_states(init, pot, spec, cfg, monkeypatch):
        """Run, and assert that each step's state, put together from the
        stages _advance applied, has the step loop's bits; returns the
        stages, (first row, rows), of step 1."""
        stages = {}
        advance = simulate._advance

        def spy(*args):
            advance(*args)
            stages.setdefault(args[5], []).append(
                (args[9], tuple(x.copy() for x in args[6])))

        monkeypatch.setattr(simulate, "_advance", spy)
        pts = TestNoisePrefetch._run(init, pot, spec, cfg)
        monkeypatch.setattr(simulate, "_advance", advance)
        e = init
        for k in range(1, cfg.n_steps + 1):
            e = step(e, pot, spec, cfg)
            applied = sorted(stages[k], key=lambda stage: stage[0])
            assert _bits(*(np.concatenate(rows) for rows in zip(
                *(qp for _, qp in applied)))) == _bits(e.positions, e.momenta)
        TestNoisePrefetch._assert_step_loop_records(pts, init, pot, spec, cfg)
        return [(lo, len(q)) for lo, (q, _) in sorted(stages[1],
                                                       key=lambda s: s[0])]

    def test_general_field_states_equal_step_loop(self, monkeypatch):
        # the per-particle Gamma and diffusion stacks, staged and blocked:
        # two stages at N * d just above 2^17, the second of three rows
        n = simulate.PREFETCH_BATCH_ELEMENTS // 2 + 3
        pot, spec, cfg, init = self._setup("general_field", n_steps=2, n=n)
        assert self._assert_step_loop_states(init, pot, spec, cfg,
                                             monkeypatch) == [(0, n - 3),
                                                              (n - 3, 3)]

    def test_one_row_tail_joins_the_stage_before(self, monkeypatch):
        # at d = 8 the gradient q @ a of a one-row stage would be a
        # matrix-vector product, whose bits are not those of the step
        # loop's one matrix product over all N rows: the last row joins the
        # stage before, so the stages are 2^14 and 2^14 + 1 rows.  a is
        # large enough that the gradient's last bits reach the momenta
        b = np.random.default_rng(3).standard_normal((8, 8))
        a = 25.0 * (b @ b.T / 8 + np.eye(8))
        pot, spec = quadratic_general(a), constant_scalar(2.0)
        n = 2 * (simulate.PREFETCH_BATCH_ELEMENTS // 8) + 1
        cfg = SimConfig(dt=0.01, n_steps=3, n_particles=n, seed=8)
        init = ensemble_from_moments(
            GaussianMoments(mean=np.r_[np.full(8, 0.5), np.zeros(8)],
                            cov=np.eye(16)), n, 8, 0.01)
        assert self._assert_step_loop_states(init, pot, spec, cfg,
                                             monkeypatch) == [(0, n // 2),
                                                              (n // 2, n // 2 + 1)]

    def test_staged_final_state_equals_step_loop(self):
        # _staged applied to a copy of the state, as run applies it, ends in
        # the step loop's (q, p) bit for bit; N leaves a one-row tail that
        # joins the second of two stages, and 25 times the Hessian lets the
        # gradient's last bits reach the momenta
        b = np.random.default_rng(3).standard_normal((8, 8))
        pot = quadratic_general(25.0 * (b @ b.T / 8 + np.eye(8)))
        spec = constant_scalar(2.0)
        n = 2 * (simulate.PREFETCH_BATCH_ELEMENTS // 8) + 1
        assert len(simulate._row_blocks(
            n, 8, simulate.PREFETCH_BATCH_ELEMENTS)) == 2
        cfg = SimConfig(dt=0.01, n_steps=3, n_particles=n, seed=8)
        init = ensemble_from_moments(
            GaussianMoments(mean=np.r_[np.full(8, 0.5), np.zeros(8)],
                            cov=np.eye(16)), n, 8, 0.01)
        q, mom = init.positions.copy(), init.momenta.copy()
        _bounded(lambda caller: simulate._staged(
            q, mom, spec.resolve(pot), cfg.dt, cfg.seed, 0, cfg.n_steps, {},
            None))
        e = init
        for _ in range(cfg.n_steps):
            e = step(e, pot, spec, cfg)
        assert _bits(q, mom) == _bits(e.positions, e.momenta)

    @pytest.mark.parametrize("failing", ["caller", "helper"])
    def test_draw_failure_raised_and_joined(self, failing, monkeypatch):
        # the first step from the third on that one thread owns fails to
        # draw: run raises the failure with every earlier step applied in
        # all its stages, no later row applied, and no thread left behind
        start = threading.active_count()
        pot, spec, cfg, init = self._setup("diagonal_field")
        stream, advance = simulate._stream, simulate._advance
        caller, applied = [], []

        class DrawFailed(Exception):
            pass

        def failing_stream(seed, step_index, *args):
            mine = threading.current_thread() is caller[0]
            if step_index >= init.steps_taken + 2 and mine == (failing == "caller"):
                raise DrawFailed(step_index)
            return stream(seed, step_index, *args)

        def spy(*args):
            applied.append(args[5])
            advance(*args)

        monkeypatch.setattr(simulate, "_stream", failing_stream)
        monkeypatch.setattr(simulate, "_advance", spy)
        with pytest.raises(DrawFailed) as excinfo:
            TestNoisePrefetch._run(init, pot, spec, cfg, caller=caller)
        failed = excinfo.value.args[0]
        assert sorted(applied) == sorted(list(range(1, failed + 1))
                                         * self._stages(2))
        assert threading.active_count() == start

    def test_concurrent_runs_with_fast_thread_switching(self):
        # three runs at once, six threads on fewer cores, switching every
        # microsecond: a stage applied out of turn would move a record
        pot, spec, cfg, init = self._setup("diagonal_field", n_steps=4)
        start = threading.active_count()
        results = [None] * 3

        def target(i):
            results[i] = run(init, pot, spec, cfg)

        def three_at_once(caller):
            threads = [threading.Thread(target=target, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _bounded(three_at_once)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == start
        for pts in results:
            TestNoisePrefetch._assert_step_loop_records(pts, init, pot, spec, cfg)

    @pytest.mark.parametrize("n", [10_000, N, simulate.PREFETCH_BATCH_ELEMENTS + 1],
                             ids=["up_to_2_16", "above_2_16", "one_row_tail"])
    @pytest.mark.parametrize("kind", ["quadratic_scalar", "diagonal_field",
                                      "general_gradient", "constant_matrix"])
    def test_stage_rows_by_form(self, kind, n, monkeypatch):
        # each _advance call applies one stage of PREFETCH_BATCH_ELEMENTS
        # coordinates (or the rows left) on every form, at N * d from
        # 10,000 to 20,000 (one stage) and above 2^17; a last stage of one
        # row joins the stage before
        pot, spec, cfg, init = self._setup(kind, n_steps=2, n=n)
        rows = simulate.PREFETCH_BATCH_ELEMENTS // pot.dim
        starts = list(range(0, n, rows))
        if n - starts[-1] == 1:
            starts.pop()
        calls = []
        advance = simulate._advance

        def spy(*args):
            calls.append((args[5], args[9], len(args[0])))
            advance(*args)

        monkeypatch.setattr(simulate, "_advance", spy)
        pts = TestNoisePrefetch._run(init, pot, spec, cfg)
        monkeypatch.setattr(simulate, "_advance", advance)
        stages = [(lo, hi - lo) for lo, hi in zip(starts, starts[1:] + [n])]
        assert sorted(calls) == [(k, lo, m) for k in (1, 2) for lo, m in stages]
        TestNoisePrefetch._assert_step_loop_records(pts, init, pot, spec, cfg)

    @pytest.mark.parametrize("n", [simulate.PREFETCH_MIN_ELEMENTS, N],
                             ids=["one_stage", "several_stages"])
    def test_caller_errstate_holds_on_helper(self, n, monkeypatch):
        # under the caller's np.errstate(over="raise"), step 2 overflows in
        # the gradient (v^2 q = 1e308 * 3, q = 0 + 300 dt), as it does in
        # the step loop, and step 1 does not (q = 0).  Step 2 is the
        # helper's, so it is the helper that raises FloatingPointError
        pot, spec = quadratic_diagonal([1e154]), constant_scalar(2.0)
        cfg = SimConfig(dt=0.01, n_steps=3, n_particles=n, seed=5)
        e = ensemble_at_point([0.0], [300.0], n, 5, 0.01)
        with np.errstate(over="raise"):
            e1 = step(e, pot, spec, cfg)
            with pytest.raises(FloatingPointError):
                step(e1, pot, spec, cfg)

        caller, applied, raised = [], [], []
        advance = simulate._advance

        def advance_spy(*args):
            mine = threading.current_thread() is caller[0]
            try:
                advance(*args)
            except FloatingPointError:
                raised.append((args[5], mine))
                raise
            applied.append((args[5], mine))

        monkeypatch.setattr(simulate, "_advance", advance_spy)

        def target(thread):
            caller.append(thread)
            with np.errstate(over="raise"):
                return run(e, pot, spec, cfg)

        with pytest.warns(RuntimeWarning, match="unstable"):
            with pytest.raises(FloatingPointError):
                _bounded(target)
        stages = len(simulate._row_blocks(n, 1, simulate.PREFETCH_BATCH_ELEMENTS))
        assert applied == [(1, True)] * stages
        assert raised == [(2, False)]

    @pytest.mark.parametrize("n", [simulate.PREFETCH_MIN_ELEMENTS, N],
                             ids=["one_stage", "several_stages"])
    def test_steps_owned_by_parity(self, n, monkeypatch):
        # counted from the run's first step, here the ensemble's second,
        # the calling thread applies every stage of the even steps and the
        # helper every stage of the odd ones; the final state is the step
        # loop's bit for bit
        pot, spec, cfg, init = self._setup("diagonal_field", n=n)
        init = step(init, pot, spec, cfg)
        ran = []
        advance = simulate._advance

        def spy(*args):
            ran.append((args[5], threading.current_thread()))
            advance(*args)

        monkeypatch.setattr(simulate, "_advance", spy)
        q, mom = init.positions.copy(), init.momenta.copy()

        def staged(caller):
            simulate._staged(q, mom, spec.resolve(pot), cfg.dt, cfg.seed,
                             init.steps_taken, cfg.n_steps, {}, None)
            return caller

        caller = _bounded(staged)
        stages = len(simulate._row_blocks(n, pot.dim,
                                          simulate.PREFETCH_BATCH_ELEMENTS))
        assert sorted((k, t is caller) for k, t in ran) == [
            (init.steps_taken + 1 + k, k % 2 == 0)
            for k in range(cfg.n_steps) for _ in range(stages)]
        e = init
        for _ in range(cfg.n_steps):
            e = step(e, pot, spec, cfg)
        assert _bits(q, mom) == _bits(e.positions, e.momenta)

    @pytest.mark.parametrize("n, n_steps, helpers", [
        (simulate.PREFETCH_MIN_ELEMENTS - 1, 3, 0),
        (simulate.PREFETCH_MIN_ELEMENTS, 3, 1),
        (simulate.PREFETCH_MIN_ELEMENTS, 0, 0),
        (simulate.PREFETCH_MIN_ELEMENTS, 1, 0),
    ], ids=["below_2_13", "at_2_13", "no_steps", "one_step"])
    def test_helper_starts_from_2_13_coordinates(self, n, n_steps, helpers,
                                                 monkeypatch):
        # the helper thread starts iff N * d >= PREFETCH_MIN_ELEMENTS and
        # it owns a step, the second; the records are the step loop's
        # either way
        started = []

        class Spy(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(simulate, "threading", types.SimpleNamespace(
            **{**vars(threading), "Thread": Spy}))
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=0.01, n_steps=n_steps, n_particles=n, seed=3)
        init = ensemble_from_moments(
            GaussianMoments(mean=[1.0, 0.0], cov=np.eye(2)), n, 3, 0.01)
        pts = TestNoisePrefetch._run(init, pot, spec, cfg)
        assert len(started) == helpers
        TestNoisePrefetch._assert_step_loop_records(pts, init, pot, spec, cfg)

    @pytest.mark.parametrize("late", ["last_stage_of_k", "first_stage_of_k1"])
    def test_blowup_order_across_threads(self, late, monkeypatch):
        # row N - 1, in the last stage, leaves the trusted range at step 9
        # and row 0, in the first stage, at step 10.  Whichever thread
        # raises first, run raises the step loop's error: step 9, row N - 1
        n, k = self.N, 9
        pot, spec = self.FORMS["quadratic_scalar"]()
        cfg = SimConfig(dt=3.0, n_steps=12, n_particles=n, seed=2)
        q = np.zeros((n, 1))
        q[0, 0], q[-1, 0] = 1e8, 2e8
        e = Ensemble(positions=q, momenta=np.zeros((n, 1)), time=0.0, seed=2,
                     steps_taken=0, dt=3.0)

        def step_loop(e):
            with pytest.raises(NumericalBlowup) as ref:
                for _ in range(cfg.n_steps):
                    e = step(e, pot, spec, cfg)
            return ref.value

        ref = step_loop(e)
        assert (ref.step_index, ref.particle) == (k, n - 1)
        calm = step_loop(dataclasses.replace(e, positions=q * (np.arange(n) < n - 1)[:, None]))
        assert (calm.step_index, calm.particle) == (k + 1, 0)

        # the stage held back waits until the other thread has raised
        held = {"last_stage_of_k": (k, simulate.PREFETCH_BATCH_ELEMENTS),
                "first_stage_of_k1": (k + 1, 0)}[late]
        raised = []
        advance = simulate._advance

        def spy(*args):
            if (args[5], args[9]) == held:
                time.sleep(0.2)
            try:
                advance(*args)
            except NumericalBlowup as exc:
                raised.append(exc.step_index)
                raise

        monkeypatch.setattr(simulate, "_advance", spy)
        with pytest.warns(RuntimeWarning, match="unstable"):
            with pytest.raises(NumericalBlowup) as excinfo:
                TestNoisePrefetch._run(e, pot, spec, cfg, record_every=100)
        assert raised == ([k + 1, k] if late == "last_stage_of_k" else [k, k + 1])
        got = excinfo.value
        assert (got.step_index, got.particle, got.coordinate, got.block) == (
            ref.step_index, ref.particle, ref.coordinate, ref.block)
        assert str(got) == str(ref)

    def test_peak_memory_below_state_and_16_mib(self):
        # the state is two (N, d) rows; each thread's buffers are five
        # stages and a record's centered blocks two, so nothing else grows
        # with N.  The bound, 4 rows, has no room for a third state row and
        # a centered copy of the state
        n = 8 * simulate.PREFETCH_BATCH_ELEMENTS    # N * d = 2^20, 8 MiB a row
        pot, spec = self.FORMS["quadratic_scalar"]()
        cfg = SimConfig(dt=0.01, n_steps=3, n_particles=n, seed=1)
        init = ensemble_from_moments(
            GaussianMoments(mean=[0.5, 0.0], cov=np.eye(2)), n, 1, 0.01)

        def traced(caller):
            tracemalloc.start()
            try:
                pts = run(init, pot, spec, cfg)
                return pts, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        pts, peak = _bounded(traced)
        assert len(pts) == cfg.n_steps + 1
        assert peak < 2 * init.positions.nbytes + (16 << 20)


class TestRunBuffers:
    """run steps its own copy of the state in buffers it allocates once."""

    @pytest.mark.parametrize("n", [64, simulate.PREFETCH_MIN_ELEMENTS // 2],
                             ids=["inline", "prefetch"])
    @pytest.mark.parametrize("kind", ["constant_scalar", "constant_matrix",
                                      "diagonal_field", "general_field"])
    def test_init_never_written(self, n, kind):
        # d = 2, so the larger ensemble has N * d = PREFETCH_MIN_ELEMENTS
        pot = perturbed_diagonal([1.0, 2.0], 0.1)
        spec = {"constant_scalar": constant_scalar(1.5),
                "constant_matrix": constant_matrix([[2.0, 0.3], [0.3, 1.0]]),
                }.get(kind, hessian_sqrt(2.0))
        if kind == "general_field":
            pot = _rotated_log_cosh([1.0, 2.0], 0.1, 0.6)
        dt = 0.01
        cfg = SimConfig(dt=dt, n_steps=5, n_particles=n, seed=6)
        init = dataclasses.replace(
            ensemble_from_moments(
                GaussianMoments(mean=[0.5, -0.5, 0.0, 0.0], cov=np.eye(4)),
                n, 6, dt),
            steps_taken=3, time=3 * dt)
        q0, p0 = init.positions.copy(), init.momenta.copy()
        first = run(init, pot, spec, cfg, record_every=2)
        assert np.array_equal(init.positions, q0)
        assert np.array_equal(init.momenta, p0)
        again = run(init, pot, spec, cfg, record_every=2)
        assert len(first) == len(again) == 4
        for a, b in zip(first, again):
            assert a.time == b.time
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)
        assert not np.array_equal(first[-1].mean, first[0].mean)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads minor page faults through getrusage")
    def test_no_page_faults_per_step(self):
        # a step of fresh (N, d) arrays page-faulted 42,700-60,000 times over
        # this run whenever the allocator handed their memory back between
        # steps; the buffers, touched once, take about 1,400
        script = (
            "import resource\n"
            "from kinlang.friction import hessian_sqrt\n"
            "from kinlang.potentials import perturbed_diagonal\n"
            "from kinlang.simulate import SimConfig, ensemble_at_point, run\n"
            "n, dt = 20_000, 0.002\n"
            "pot, spec = perturbed_diagonal([1.0], 0.1), hessian_sqrt(2.0)\n"
            "cfg = SimConfig(dt=dt, n_steps=1000, n_particles=n, seed=3)\n"
            "init = ensemble_at_point([2.0], [0.0], n, 3, dt)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run(init, pot, spec, cfg, record_every=50)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(kinlang.__file__)))
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 10_000


class TestAdvanceBuffers:
    """_advance writes into the buffers its caller passes: one call, with
    every buffer given, allocates less than one (N, d) row, and a call in
    place, out = (q, mom) with the gradient in a row of its own, gives the
    bits of a call into new rows whose momentum row takes the gradient."""

    #: the four resolved forms of Gamma, by the shape resolve gives it
    FORMS = {
        "constant_diagonal": lambda: (quadratic_diagonal([1.0, 2.0]),
                                      constant_scalar(1.5)),
        "diagonal_field": lambda: (perturbed_diagonal([1.0, 2.0], 0.1),
                                   hessian_sqrt(2.0)),
        "constant_matrix": lambda: (quadratic_diagonal([1.0, 2.0]),
                                    constant_matrix([[2.0, 0.3], [0.3, 1.0]])),
        "general_field": lambda: (_rotated_log_cosh([1.0, 2.0], 0.1, 0.6),
                                  hessian_sqrt(2.0)),
    }
    #: d = 2: three row blocks, the last of which takes the one-row tail
    N = 3 * (simulate.BLOCK_ELEMENTS // 2) + 1

    @staticmethod
    def _advance(kind, q, mom, xi, in_place, offset=0):
        """The new (q, p) of one _advance call on copies of q and mom."""
        pot, spec = TestAdvanceBuffers.FORMS[kind]()
        q, mom = q.copy(), mom.copy()
        scratch = np.empty((4,) + q.shape)
        if in_place:
            out, grad = (q, mom), scratch[3]
        else:
            out = np.empty((2,) + q.shape)
            grad = out[1]
        simulate._advance(q, mom, xi, spec.resolve(pot), 0.01, 1, out,
                          scratch[0], scratch[1:3], offset, grad)
        return out

    @pytest.mark.parametrize("kind", FORMS)
    def test_in_place_bitwise_into_new_rows(self, kind):
        q, mom, xi = np.random.default_rng(13).standard_normal((3, self.N, 2))
        pot, spec = self.FORMS[kind]()
        _, g, _ = spec.resolve(pot)(q, np.empty_like(q),
                                    np.empty((2,) + q.shape))
        assert g.shape == {"constant_diagonal": (2,),
                           "diagonal_field": (self.N, 2),
                           "constant_matrix": (1, 2, 2),
                           "general_field": (self.N, 2, 2)}[kind]
        assert _bits(*self._advance(kind, q, mom, xi, True)) == _bits(
            *self._advance(kind, q, mom, xi, False))

    @pytest.mark.parametrize("in_place", [True, False],
                             ids=["in_place", "new_rows"])
    @pytest.mark.parametrize("kind", FORMS)
    def test_blowup_names_the_particle(self, kind, in_place):
        # the last row's second momentum stays out of range after a step;
        # the rows are rows 100, 101, ... of a larger ensemble
        q, mom, xi = np.random.default_rng(14).standard_normal((3, self.N, 2))
        mom[-1, 1] = 2e13
        with pytest.raises(NumericalBlowup) as excinfo:
            self._advance(kind, q, mom, xi, in_place, offset=100)
        got = excinfo.value
        assert (got.step_index, got.particle, got.coordinate, got.block) == (
            1, 100 + self.N - 1, 1, "momenta")

    @pytest.mark.parametrize("kind", ["diagonal_field", "constant_scalar"])
    def test_one_call_allocates_less_than_a_row(self, kind):
        pot, spec = {
            "diagonal_field": (perturbed_diagonal([1.0, 2.0], 0.1),
                               hessian_sqrt(2.0)),
            "constant_scalar": (quadratic_diagonal([1.0, 2.0]),
                                constant_scalar(1.5)),
        }[kind]
        q, mom, xi = np.random.default_rng(12).standard_normal((3, 50_000, 2))
        out, scratch = np.empty((2,) + q.shape), np.empty((3,) + q.shape)
        force = spec.resolve(pot)
        tracemalloc.start()
        try:
            simulate._advance(q, mom, xi, force, 0.01, 1, out, scratch[0],
                              scratch[1:], 0, out[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < q.nbytes
        assert np.all(np.isfinite(out))


def _bits(*arrays):
    return b"".join(np.ascontiguousarray(x).tobytes() for x in arrays)


class TestBlockedUpdate:
    """Above BLOCK_ELEMENTS coordinates, _advance updates and checks the
    ensemble in row blocks of BLOCK_ELEMENTS // d rows on every form, a
    one-row tail joining the last block; every bit must be the one-block
    update's."""

    D = 2
    ROWS = simulate.BLOCK_ELEMENTS // D
    N = 3 * ROWS + 1          # blocks of ROWS, ROWS and ROWS + 1 rows
    FORMS = {
        "constant_scalar": lambda: (quadratic_diagonal([1.0, 2.0]),
                                    constant_scalar(1.5)),
        "diagonal_matrix": lambda: (quadratic_diagonal([1.0, 2.0]),
                                    constant_matrix([[2.0, 0.0], [0.0, 1.0]])),
        "diagonal_field": lambda: (perturbed_diagonal([1.0, 2.0], 0.1),
                                   hessian_sqrt(2.0)),
        "constant_matrix": lambda: (quadratic_diagonal([1.0, 2.0]),
                                    constant_matrix([[2.0, 0.3], [0.3, 1.0]])),
        "general_field": lambda: (_rotated_log_cosh([1.0, 2.0], 0.1, 0.6),
                                  hessian_sqrt(2.0)),
    }

    def _setup(self, kind, n_steps=3):
        pot, spec = self.FORMS[kind]()
        dt = 0.01
        cfg = SimConfig(dt=dt, n_steps=n_steps, n_particles=self.N, seed=9)
        init = dataclasses.replace(
            ensemble_from_moments(
                GaussianMoments(mean=[0.5, -0.5, 0.0, 0.0], cov=np.eye(4)),
                self.N, 9, dt),
            steps_taken=2, time=2 * dt)
        return pot, spec, cfg, init

    def test_sizes_span_blocks(self):
        assert self.N * self.D > simulate.BLOCK_ELEMENTS
        assert self.N // self.ROWS == 3 and self.N % self.ROWS == 1
        assert self.N * self.D >= simulate.PREFETCH_MIN_ELEMENTS

    @pytest.mark.parametrize("kind", FORMS)
    def test_step_bitwise_one_block(self, kind, monkeypatch):
        # step's scratch is a term row of its own, whose first rows every
        # block reuses, as each of run's threads' term is
        pot, spec, cfg, init = self._setup(kind)
        blocked = step(init, pot, spec, cfg)
        monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 1 << 62)
        whole = step(init, pot, spec, cfg)
        assert _bits(blocked.positions, blocked.momenta) == _bits(
            whole.positions, whole.momenta)

    @pytest.mark.parametrize("one_thread", [False, True],
                             ids=["two_threads", "one_thread"])
    @pytest.mark.parametrize("kind", FORMS)
    def test_run_bitwise_one_block(self, kind, one_thread, monkeypatch):
        pot, spec, cfg, init = self._setup(kind)
        if one_thread:
            monkeypatch.setattr(simulate, "PREFETCH_MIN_ELEMENTS", 1 << 62)
        states = []
        advance = simulate._advance

        def spy(*args):
            advance(*args)
            states.append(_bits(*args[6]))

        monkeypatch.setattr(simulate, "_advance", spy)
        blocked = TestNoisePrefetch._run(init, pot, spec, cfg, record_every=2)
        monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 1 << 62)
        whole = TestNoisePrefetch._run(init, pot, spec, cfg, record_every=2)
        assert len(states) == 2 * cfg.n_steps
        assert states[:cfg.n_steps] == states[cfg.n_steps:]
        assert len(blocked) == len(whole) == 3
        for a, b in zip(blocked, whole):
            assert _bits(a.mean, a.cov) == _bits(b.mean, b.cov)

    @pytest.mark.parametrize("kind", ["constant_matrix", "general_field"])
    def test_matrix_form_applied_per_block(self, kind, monkeypatch):
        # a matrix product's rows have the bits of one product over all N
        # rows when no block is one row, so Gamma and the diffusion each
        # take one _apply call per block and step, as the diagonal forms do
        pot, spec, cfg, init = self._setup(kind, n_steps=2)
        rows = []
        apply = simulate._apply

        def spy(m, b, x, out):
            rows.append(len(x))
            return apply(m, b, x, out)

        monkeypatch.setattr(simulate, "_apply", spy)
        TestNoisePrefetch._run(init, pot, spec, cfg)
        assert sorted(rows) == sorted([self.ROWS, self.ROWS, self.ROWS + 1]
                                      * 2 * cfg.n_steps)

    @pytest.mark.parametrize("one_thread", [False, True],
                             ids=["two_threads", "one_thread"])
    @pytest.mark.parametrize("kind", FORMS)
    def test_run_writes_first_block_of_term_only(self, kind, one_thread,
                                                 monkeypatch):
        # the rows of a term buffer past the largest block, the last with
        # its one-row tail, keep a sentinel written before its first use,
        # so their pages are never touched by the update: each thread's
        # stage-sized term (one stage here)
        pot, spec, cfg, init = self._setup(kind)
        if one_thread:
            monkeypatch.setattr(simulate, "PREFETCH_MIN_ELEMENTS", 1 << 62)
        sentinel = -7.25
        steps, terms = [], set()
        advance = simulate._advance

        def spy(*args):
            term = args[7]
            assert term.shape == init.positions.shape
            if term.ctypes.data not in terms:
                terms.add(term.ctypes.data)
                term[self.ROWS + 1:] = sentinel
            advance(*args)
            assert np.all(term[self.ROWS + 1:] == sentinel)
            steps.append(args[5])

        monkeypatch.setattr(simulate, "_advance", spy)
        TestNoisePrefetch._run(init, pot, spec, cfg)
        assert len(steps) == cfg.n_steps


class TestBlowupForensics:
    """NumericalBlowup names the first untrusted entry, in row-major order
    over the particles' (q, p) rows; a blocked check names its row in the
    whole ensemble."""

    N = TestBlockedUpdate.N

    def _planted(self, *entries):
        # (block, row, coordinate) entries set to 2e13, which stays out of
        # range in its own block after one step and leaves the other block
        # in range
        n = self.N
        pot, spec = quadratic_diagonal([1.0, 2.0]), constant_scalar(1.5)
        cfg = SimConfig(dt=0.01, n_steps=2, n_particles=n, seed=0)
        arrays = {"positions": np.ones((n, 2)), "momenta": np.zeros((n, 2))}
        for block, row, coordinate in entries:
            arrays[block][row, coordinate] = 2e13
        e = Ensemble(**arrays, time=0.07, seed=0, steps_taken=7, dt=0.01)
        return pot, spec, cfg, e

    @staticmethod
    def _assert_names(exc, block, particle, coordinate):
        assert (exc.step_index, exc.block, exc.particle, exc.coordinate) == (
            8, block, particle, coordinate)
        assert "at step 8" in str(exc)
        assert f"{block}[{particle}, {coordinate}]" in str(exc)

    @pytest.mark.parametrize("mode", ["step", "two_threads", "one_thread"])
    @pytest.mark.parametrize("block", ["positions", "momenta"])
    def test_bad_entry_in_last_one_row_block(self, block, mode, monkeypatch):
        pot, spec, cfg, e = self._planted((block, self.N - 1, 1))
        if mode == "one_thread":
            monkeypatch.setattr(simulate, "PREFETCH_MIN_ELEMENTS", 1 << 62)
        with pytest.raises(NumericalBlowup) as excinfo:
            if mode == "step":
                step(e, pot, spec, cfg)
            else:
                TestNoisePrefetch._run(e, pot, spec, cfg)
        self._assert_names(excinfo.value, block, self.N - 1, 1)

    @pytest.mark.parametrize("one_block", [False, True])
    @pytest.mark.parametrize("entries, first", [
        # an earlier particle first, whichever block holds it
        ([("positions", -1, 0), ("momenta", TestBlockedUpdate.ROWS + 3, 1)],
         ("momenta", TestBlockedUpdate.ROWS + 3, 1)),
        # within a particle, positions before momenta, then by coordinate
        ([("momenta", 5, 0), ("positions", 5, 1)], ("positions", 5, 1)),
        ([("momenta", 5, 1), ("momenta", 5, 0)], ("momenta", 5, 0)),
    ])
    def test_first_entry_in_row_major_order(self, entries, first, one_block,
                                            monkeypatch):
        if one_block:
            monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 1 << 62)
        entries = [(b, r % self.N, c) for b, r, c in entries]
        pot, spec, cfg, e = self._planted(*entries)
        with pytest.raises(NumericalBlowup) as excinfo:
            step(e, pot, spec, cfg)
        self._assert_names(excinfo.value, *first)


class TestTrajectoryCsv:
    def test_schema_and_rerun_bytes(self, tmp_path):
        pot, spec, dyn = _ou_1d()
        pi = stationary_moments(dyn)
        cfg = SimConfig(dt=0.01, n_steps=10, n_particles=200, seed=3)
        init = ensemble_from_moments(pi, 200, 3, 0.01)
        pts = attach_chi2_proxies(run(init, pot, spec, cfg, record_every=5), pi)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_trajectory_csv(pts, path_a, dim=1)
        write_trajectory_csv(
            attach_chi2_proxies(run(init, pot, spec, cfg, record_every=5), pi),
            path_b, dim=1,
        )
        lines = path_a.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["time", "mean_1", "mean_2",
                          "cov_11", "cov_12", "cov_21", "cov_22",
                          "chi2_proxy"]
        assert len(lines) == 1 + len(pts)
        # byte-identical reruns
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_empty_proxy_column(self, tmp_path):
        pot, spec, _ = _ou_1d()
        cfg = SimConfig(dt=0.01, n_steps=2, n_particles=10, seed=0)
        init = ensemble_at_point([1.0], [0.0], 10, 0, 0.01)
        pts = run(init, pot, spec, cfg)
        path = tmp_path / "t.csv"
        write_trajectory_csv(pts, path, dim=1)
        for line in path.read_text().splitlines()[1:]:
            assert line.endswith(",")

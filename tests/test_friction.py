import dataclasses

import numpy as np
import pytest

from kinlang.errors import NotPositiveDefinite
from kinlang.friction import constant_matrix, constant_scalar, hessian_sqrt
from kinlang.linalg import spd_sqrt
from kinlang.potentials import perturbed_diagonal, quadratic_diagonal, quadratic_general


def _evaluate(force, q):
    """force(q, grad_out, out) from FrictionSpec.resolve, with new buffers."""
    return force(q, np.empty(q.shape), np.empty((2,) + q.shape))


class TestGamma:
    def test_constant_scalar(self):
        spec = constant_scalar(2.0)
        p = quadratic_diagonal([1.0, 1.0, 1.0])
        assert np.array_equal(spec.gamma(p, np.zeros(3)), 2.0 * np.eye(3))

    def test_hessian_sqrt_on_diagonal_quadratic(self):
        # Gamma = 2 sqrt(diag(1, 4)) = diag(2, 4)
        spec = hessian_sqrt(2.0)
        p = quadratic_diagonal([1.0, 2.0])
        assert np.allclose(spec.gamma(p, np.zeros(2)), np.diag([2.0, 4.0]), atol=1e-12)

    def test_hessian_sqrt_on_perturbed(self):
        # sqrt(1 + 0.1 * f''(0)) = sqrt(1.1) for log cosh
        spec = hessian_sqrt(1.0)
        p = perturbed_diagonal([1.0], 0.1)
        g = spec.gamma(p, np.zeros(1))
        assert g[0, 0] == pytest.approx(np.sqrt(1.1), abs=1e-12)

    def test_constant_kinds_bitwise_identical_across_q(self):
        p = quadratic_diagonal([1.0, 2.0])
        for spec in (constant_scalar(1.5), constant_matrix(np.diag([1.0, 2.0]))):
            g1 = spec.gamma(p, np.zeros(2))
            g2 = spec.gamma(p, np.array([3.0, -4.0]))
            assert np.array_equal(g1, g2)

    def test_indefinite_matrix_rejected_at_construction(self):
        with pytest.raises(NotPositiveDefinite):
            constant_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            constant_scalar(0.0)
        with pytest.raises(NotPositiveDefinite):
            hessian_sqrt(-2.0)


class TestDiffusion:
    def test_constant_scalar_original(self):
        # sqrt(2 * 2) = 2
        spec = constant_scalar(2.0)
        p = quadratic_diagonal([1.0])
        assert np.allclose(spec.diffusion(p, np.zeros(1)), 2.0 * np.eye(1))

    def test_hessian_sqrt_original(self):
        # sqrt(2 * 2 * diag(1, 2)) = diag(2, 2 sqrt 2)
        spec = hessian_sqrt(2.0)
        p = quadratic_diagonal([1.0, 2.0])
        out = spec.diffusion(p, np.zeros(2))
        assert np.allclose(out, np.diag([2.0, 2.0 * np.sqrt(2.0)]), atol=1e-12)

    def test_fluctuation_dissipation(self):
        # diffusion @ diffusion == 2 Gamma at every evaluated q
        rng = np.random.default_rng(17)
        p = perturbed_diagonal([1.0, 1.5], 0.1)
        for spec in (constant_scalar(0.7), hessian_sqrt(2.0),
                     constant_matrix(np.array([[2.0, 0.3], [0.3, 1.0]]))):
            for _ in range(20):
                q = rng.standard_normal(2)
                sig = spec.diffusion(p, q)
                g = spec.gamma(p, q)
                assert np.linalg.norm(sig @ sig - 2 * g) <= 1e-10 * np.linalg.norm(2 * g)


class TestEigenvalueSandwich:
    # hessian_sqrt(s): eigenvalues of Gamma(q) within [s sqrt(alpha), s sqrt(beta)]
    def test_on_shipped_families(self):
        rng = np.random.default_rng(29)
        s = 2.0
        spec = hessian_sqrt(s)
        pots = [
            quadratic_diagonal([1.0, 2.0]),
            quadratic_general(np.array([[2.0, 0.5], [0.5, 1.0]])),
            perturbed_diagonal([1.0, 1.5], 0.1),
        ]
        for p in pots:
            c = p.constants
            lo = s * np.sqrt(c.alpha) - 1e-8
            hi = s * np.sqrt(c.beta) + 1e-8
            for _ in range(1000):
                q = 3 * rng.standard_normal(p.dim)
                w = np.linalg.eigvalsh(spec.gamma(p, q))
                assert w[0] >= lo and w[-1] <= hi


class TestResolve:
    """The simulator's friction form: diagonal entries or matrix stacks."""

    def test_constant_form_computed_once(self):
        pd = quadratic_diagonal([1.0, 3.0])
        pg = quadratic_general(np.array([[2.0, 0.5], [0.5, 1.0]]))
        cases = [
            (hessian_sqrt(2.0), pd),
            (hessian_sqrt(2.0), pg),
            (constant_scalar(1.5), pg),
            (constant_matrix(np.array([[1.0, 0.1], [0.1, 1.0]])), pd),
        ]
        for spec, p in cases:
            friction = spec.resolve(p)
            _, g1, sig1 = _evaluate(friction, np.zeros((3, 2)))
            _, g2, sig2 = _evaluate(friction, np.array([[3.0, -4.0]] * 5))
            assert g1 is g2 and sig1 is sig2

    def test_resolved_shapes(self):
        pd = quadratic_diagonal([1.0, 2.0])
        pg = quadratic_general(np.array([[2.0, 0.5], [0.5, 1.0]]))
        pp = perturbed_diagonal([1.0, 2.0], 0.1)
        # the same potential without its diagonal shortcut: a general field
        general = dataclasses.replace(pp, hess_diag=None)
        cases = [
            (constant_scalar(1.0), pg, (2,)),
            (constant_matrix(np.diag([1.0, 2.0])), pg, (2,)),
            (constant_matrix(np.array([[1.0, 0.1], [0.1, 1.0]])), pd, (1, 2, 2)),
            (hessian_sqrt(2.0), pd, (2,)),
            (hessian_sqrt(2.0), pg, (1, 2, 2)),
            (hessian_sqrt(2.0), pp, (5, 2)),
            (hessian_sqrt(2.0), general, (5, 2, 2)),
        ]
        q = np.random.default_rng(41).standard_normal((5, 2))
        for spec, p, shape in cases:
            _, g, sig = _evaluate(spec.resolve(p), q)
            assert g.shape == sig.shape == shape, (spec.kind, p.family)

    def test_general_field_from_one_eigh_matches_two_roots(self):
        # a q-dependent Hessian with off-diagonal entries; the reference is
        # the two batched square roots s sqrt(H) and sqrt(2 Gamma)
        c, s = np.cos(0.6), np.sin(0.6)
        rot = np.array([[c, -s], [s, c]])
        base = perturbed_diagonal([1.0, 3.0], 0.5)
        p = dataclasses.replace(base, hess=lambda q: rot.T @ base.hess(rot @ q) @ rot,
                                hess_diag=None)
        spec = hessian_sqrt(2.0)
        q = np.random.default_rng(43).standard_normal((40, 2))
        _, g, sig = _evaluate(spec.resolve(p), q)
        ref_g = 2.0 * spd_sqrt(np.array([p.hess(q_i) for q_i in q]))
        ref_sig = spd_sqrt(2.0 * ref_g)
        assert np.abs(ref_g[:, 0, 1]).max() > 0.1
        assert np.array_equal(g, ref_g)
        err = np.abs(sig - ref_sig).max(axis=(1, 2)) / np.abs(ref_sig).max(axis=(1, 2))
        assert err.max() <= 8 * np.finfo(float).eps

    def test_diagonal_entries_match_dense(self):
        rng = np.random.default_rng(37)
        qs = rng.standard_normal((50, 2))
        pp = perturbed_diagonal([1.0, 1.4], 0.05)
        pd = quadratic_diagonal([1.0, 1.4])
        cases = [(hessian_sqrt(2.0), pp), (hessian_sqrt(2.0), pd),
                 (constant_scalar(0.7), pp),
                 (constant_matrix(np.diag([2.0, 0.5])), pp)]
        for spec, p in cases:
            _, g, sig = _evaluate(spec.resolve(p), qs)
            g = np.broadcast_to(g, qs.shape)
            sig = np.broadcast_to(sig, qs.shape)
            for n in range(50):
                dense_g = spec.gamma(p, qs[n])
                dense_sig = spec.diffusion(p, qs[n])
                assert np.allclose(np.diag(dense_g), g[n], rtol=0, atol=1e-13)
                assert np.allclose(np.diag(dense_sig), sig[n], rtol=0, atol=1e-13)

    def test_gradient_written_into_caller_buffer(self):
        # every form returns grad V(q), written into grad_out when grad takes
        # out=; the diagonal field from grad_hess_diag gives the bits of the
        # field from grad and gamma_diag, which it takes without it
        pp = perturbed_diagonal([1.0, 1.4], 0.3)
        two_calls = dataclasses.replace(pp, grad_hess_diag=None)
        general = dataclasses.replace(pp, hess_diag=None)
        qs = np.random.default_rng(47).standard_normal((20, 2))
        for spec, p in [(hessian_sqrt(2.0), pp), (hessian_sqrt(2.0), two_calls),
                        (hessian_sqrt(2.0), general), (constant_scalar(0.7), pp)]:
            grad_out = np.empty_like(qs)
            grad, _, _ = spec.resolve(p)(qs, grad_out, np.empty((2,) + qs.shape))
            assert grad is grad_out
            assert np.array_equal(grad, pp.grad(qs))
        fused = _evaluate(hessian_sqrt(2.0).resolve(pp), qs)
        ref = _evaluate(hessian_sqrt(2.0).resolve(two_calls), qs)
        for a, b in zip(fused, ref):
            assert np.array_equal(a, b)
        assert np.array_equal(ref[1], hessian_sqrt(2.0).gamma_diag(pp, qs))

    def test_one_argument_grad_on_general_path(self):
        # as perfbench/rotated.py builds it: grad without out=, no
        # hess_diag, and the base's grad_hess_diag left in place, which the
        # general path must not call
        base = perturbed_diagonal([1.0, 3.0], 0.5)

        def refuse(*args):
            raise AssertionError("the general field called grad_hess_diag")

        p = dataclasses.replace(base, grad=lambda q: base.grad(q),
                                hess_diag=None, grad_hess_diag=refuse)
        qs = np.random.default_rng(53).standard_normal((10, 2))
        grad_out = np.empty_like(qs)
        grad, g, _ = hessian_sqrt(2.0).resolve(p)(qs, grad_out,
                                                  np.empty((2,) + qs.shape))
        assert grad is not grad_out and np.array_equal(grad, base.grad(qs))
        assert g.shape == (10, 2, 2)

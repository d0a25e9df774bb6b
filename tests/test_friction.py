import dataclasses

import numpy as np
import pytest

from kinlang.errors import NotPositiveDefinite
from kinlang.friction import constant_matrix, constant_scalar, hessian_sqrt
from kinlang.potentials import perturbed_diagonal, quadratic_diagonal, quadratic_general


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
            g1, sig1 = friction(np.zeros((3, 2)))
            g2, sig2 = friction(np.array([[3.0, -4.0]] * 5))
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
            g, sig = spec.resolve(p)(q)
            assert g.shape == sig.shape == shape, (spec.kind, p.family)

    def test_diagonal_entries_match_dense(self):
        rng = np.random.default_rng(37)
        qs = rng.standard_normal((50, 2))
        pp = perturbed_diagonal([1.0, 1.4], 0.05)
        pd = quadratic_diagonal([1.0, 1.4])
        cases = [(hessian_sqrt(2.0), pp), (hessian_sqrt(2.0), pd),
                 (constant_scalar(0.7), pp),
                 (constant_matrix(np.diag([2.0, 0.5])), pp)]
        for spec, p in cases:
            g, sig = spec.resolve(p)(qs)
            g = np.broadcast_to(g, qs.shape)
            sig = np.broadcast_to(sig, qs.shape)
            for n in range(50):
                dense_g = spec.gamma(p, qs[n])
                dense_sig = spec.diffusion(p, qs[n])
                assert np.allclose(np.diag(dense_g), g[n], rtol=0, atol=1e-13)
                assert np.allclose(np.diag(dense_sig), sig[n], rtol=0, atol=1e-13)

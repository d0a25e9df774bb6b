"""Tests for the closed-form rate certificates.

Hand-derived frozen values: with alpha = beta = 1, d = 1, s = 2 and
(a, b, c) = (4, 20, 1) the load constant is b*d*alpha + c*d*s^2*beta = 24 and
b*c - a^2 = 4, giving

    L1 = 24/16 * (8*400/32 + 16/8) = 1.5 * 102   = 153
    L2 = 0.25*20*0.5 + 24/8 * 2    = 2.5 + 6     = 8.5
    g(1/2) = 2*(2*153 + 6*8.5) / (6*2 - 16/4)    = 714/8 = 89.25

and f at the balanced s = 2 family equals 1/2 at x = 1/2 for every x0.
"""

import hashlib
import math

import numpy as np
import pytest

from kinlang.certificates import (
    DiagQuadraticWitness,
    LyapunovCoefficients,
    certificate,
    coefficient_family,
    compare_to_constant_friction,
    diag_quadratic_certificate,
    diag_witness_conditions,
    f_of,
    g_of,
    l_constants,
    lambda_dms,
    lambda_dms_sup,
    optimal_coefficients,
    optimize_m1,
    rescale_rate,
)
from kinlang.errors import DegenerateS, InvalidCoefficients, WitnessNotFound
from kinlang.friction import hessian_sqrt
from kinlang.gaussian import diagonal_system_rate
from kinlang.potentials import AssumptionConstants, perturbed_diagonal

UNIT = AssumptionConstants(alpha=1.0, beta=1.0, gamma=0.0, dim=1)
REF_COEFFS = LyapunovCoefficients(s=2.0, a=4.0, b=20.0, c=1.0)

LAMBDA_DMS_SUP_2_1 = 0.0567166513  # frozen from the 1e6-point brute force

# frozen: sha256 of the float64 bytes of lambda_dms_sup over
# round(linspace(0.1, 10, n), 10) at alpha, one scalar call per lambda, as
# computed before the array form existed, with (first, middle, last) values;
# n = 400 and 500 at alpha = 1 are the certify and compare grids of the
# benchmark's CLI session
FROZEN_SUP_GRIDS = {
    (400, 1.0): ("7fe753ec98a29593ede433364a2f04eb0fc655b735c1e481793bc9af6bcb7895",
                 (0.007357651800806804, 0.059015566645378055,
                  0.048257528708692564)),
    (500, 1.0): ("2d9e441d1995da7eef2e081914627f556dc3a91e78c174c8ac5d07fc71ad4f59",
                 (0.007357651800806804, 0.05902012500561158,
                  0.048257528708692564)),
    (500, 0.3): ("02b78e89559cd0071838dd93ff9b21f56eb8f87475bac9cce1a0fb72d47dfe45",
                 (0.001986853954640586, 0.014725195437541421,
                  0.011543807643860126)),
}


class TestLyapunovCoefficients:
    def test_reference_triple_constructs(self):
        assert REF_COEFFS.b * REF_COEFFS.c - REF_COEFFS.a ** 2 == 4.0

    def test_degenerate_s(self):
        # (a, b, c) = (2, 3, 1) at s = 1 balances a + c = b but b*c - a^2 < 0
        with pytest.raises(DegenerateS):
            LyapunovCoefficients(s=1.0, a=2.0, b=3.0, c=1.0)

    def test_balance_constraint_enforced(self):
        with pytest.raises(InvalidCoefficients):
            LyapunovCoefficients(s=2.0, a=4.0, b=20.0, c=2.0)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            LyapunovCoefficients(s=2.0, a=-4.0, b=20.0, c=1.0)


class TestLConstants:
    def test_frozen_reference_values(self):
        l1, l2 = l_constants(UNIT, REF_COEFFS)
        assert l1 == pytest.approx(153.0, abs=1e-12)
        assert l2 == pytest.approx(8.5, abs=1e-12)

    def test_gamma_free(self):
        bumped = AssumptionConstants(alpha=1.0, beta=1.0, gamma=0.7, dim=1)
        assert l_constants(bumped, REF_COEFFS) == l_constants(UNIT, REF_COEFFS)

    def test_linear_in_dimension(self):
        doubled = AssumptionConstants(alpha=1.0, beta=1.0, gamma=0.0, dim=2)
        l1a, l2a = l_constants(UNIT, REF_COEFFS)
        l1b, l2b = l_constants(doubled, REF_COEFFS)
        assert l1b == 2.0 * l1a and l2b == 2.0 * l2a

    def test_always_positive(self):
        # L2 >= b*d/(4*s*alpha) > 0, so the error budget never vanishes
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = float(rng.uniform(0.5, 4.0))
            x0 = float(rng.uniform(1.0, 50.0))
            coeffs = coefficient_family(UNIT, s, x0)
            l1, l2 = l_constants(UNIT, coeffs)
            assert l1 > 0 and l2 > 0


class TestFOf:
    def test_balanced_family_half(self):
        for x0 in (0.71, 1.0, 100.0, 1e3):
            coeffs = optimal_coefficients(UNIT, x0)
            assert f_of(0.5, UNIT, coeffs) == pytest.approx(0.5, abs=1e-14)

    def test_vanishes_at_origin(self):
        coeffs = optimal_coefficients(UNIT, 1.0)
        assert f_of(1e-12, UNIT, coeffs) < 1e-10
        with pytest.raises(ValueError):
            f_of(0.0, UNIT, coeffs)

    def test_condition_endpoint_closed_form(self):
        # f at x = k/2 for the balanced family reduces to
        # 2k(x0+1) / (1 + k^2(4 x0 + 3)) with k = sqrt(alpha/beta)
        const = AssumptionConstants(alpha=1.0, beta=4.0, gamma=0.0, dim=1)
        x0 = 100.0
        coeffs = optimal_coefficients(const, x0)
        k = 0.5
        val = f_of(k / 2.0, const, coeffs)
        closed = 2.0 * k * (x0 + 1.0) / (1.0 + k ** 2 * (4.0 * x0 + 3.0))
        assert val == pytest.approx(closed, rel=1e-14)
        assert val >= 0.5

    def test_strictness_violation_rejected(self):
        # (s, a, b, c) = (1, 3, 5, 2) balances a + c = b and has
        # b*c - a^2 = 1 > 0 but 1/alpha + c - a/s^2 = 0
        coeffs = LyapunovCoefficients(s=1.0, a=3.0, b=5.0, c=2.0)
        with pytest.raises(InvalidCoefficients):
            f_of(0.5, UNIT, coeffs)


class TestGOf:
    def test_frozen_reference_value(self):
        assert g_of(0.5, UNIT, REF_COEFFS) == pytest.approx(89.25, abs=1e-10)

    def test_linear_in_dimension(self):
        doubled = AssumptionConstants(alpha=1.0, beta=1.0, gamma=0.0, dim=2)
        assert g_of(0.5, doubled, REF_COEFFS) == pytest.approx(
            2.0 * g_of(0.5, UNIT, REF_COEFFS), rel=1e-14
        )

    def test_denominator_positive_for_valid_coeffs(self):
        # (1/alpha + b x^2)(1/alpha + c) - a^2 x^2 expands to
        # alpha^-2 + alpha^-1(c + b x^2) + (bc - a^2) x^2 > 0 whenever S is
        # positive definite, so valid inputs can never trip the denominator
        rng = np.random.default_rng(1)
        for _ in range(30):
            s = float(rng.uniform(0.5, 4.0))
            x0 = float(rng.uniform(1.0, 100.0))
            x = float(rng.uniform(1e-3, 10.0))
            coeffs = coefficient_family(UNIT, s, x0)
            assert g_of(x, UNIT, coeffs) > 0


class TestCertificate:
    def test_quadratic_unit_condition_number(self):
        cert = certificate(UNIT, optimal_coefficients(UNIT, 1e3))
        assert cert.m1 == pytest.approx(0.5, abs=1e-14)
        assert cert.rescaled_rate == pytest.approx(0.5, abs=1e-14)
        assert cert.original_rate == cert.rescaled_rate  # alpha = 1
        assert cert.valid

    def test_original_rate_exact_multiple(self):
        const = AssumptionConstants(alpha=4.0, beta=4.0, gamma=0.0, dim=1)
        cert = certificate(const, optimal_coefficients(const, 1e3))
        assert cert.original_rate == 2.0 * cert.rescaled_rate

    def test_large_gamma_invalid_not_raising(self):
        const = AssumptionConstants(alpha=1.0, beta=1.0, gamma=1.0, dim=1)
        cert = certificate(const, optimal_coefficients(const, 1e3))
        assert not cert.valid
        assert cert.rescaled_rate <= 0.0

    def test_m2_is_endpoint_max(self):
        const = AssumptionConstants(alpha=1.0, beta=4.0, gamma=0.01, dim=1)
        coeffs = optimal_coefficients(const, 4.0)
        cert = certificate(const, coeffs)
        x_lo = 0.5 / math.sqrt(const.kappa)
        x_hi = 0.5
        direct = max(g_of(x_lo, const, coeffs), g_of(x_hi, const, coeffs))
        assert cert.m2 == direct
        assert cert.rescaled_rate == pytest.approx(
            cert.m1 - const.gamma ** 2 * direct, rel=1e-14
        )

    def test_m1_never_exceeds_half(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            s = float(rng.uniform(0.5, 4.0))
            x0 = float(rng.uniform(1.0, 1e4))
            kappa = float(rng.uniform(1.0, 20.0))
            const = AssumptionConstants(alpha=1.0, beta=kappa, gamma=0.0, dim=1)
            cert = certificate(const, coefficient_family(const, s, x0))
            assert cert.m1 <= 0.5 + 1e-9

    def test_strictness_propagates(self):
        coeffs = LyapunovCoefficients(s=1.0, a=3.0, b=5.0, c=2.0)
        with pytest.raises(InvalidCoefficients):
            certificate(UNIT, coeffs)

    def test_rescaling_leaves_rescaled_rate_invariant(self):
        # building the alpha-scaled family from the original constants or the
        # unit-alpha family from the rescaled constants gives the same
        # rescaled rate; original-time rates differ by exactly sqrt(alpha)
        for alpha in (4.0, 0.25):
            orig = AssumptionConstants(alpha=alpha, beta=2.0 * alpha,
                                       gamma=0.1 * math.sqrt(alpha), dim=3)
            resc, mult = rescale_rate(orig)
            for x0 in (2.0, 50.0):
                cert_o = certificate(orig, optimal_coefficients(orig, x0))
                cert_r = certificate(resc, optimal_coefficients(resc, x0))
                assert cert_o.rescaled_rate == pytest.approx(
                    cert_r.rescaled_rate, rel=1e-12, abs=1e-15
                )
                assert cert_o.original_rate == pytest.approx(
                    mult * cert_r.rescaled_rate, rel=1e-12, abs=1e-15
                )

    def test_serialization_round_data(self):
        cert = certificate(UNIT, optimal_coefficients(UNIT, 1e3))
        blob = cert.as_dict()
        assert blob["constants"]["estimated"] is False
        assert blob["coefficients"]["s"] == 2.0
        assert blob["valid"] is True
        assert blob["m1"] == cert.m1


class TestCoefficientFamilies:
    def test_reference_point(self):
        coeffs = optimal_coefficients(UNIT, 1.0)
        assert (coeffs.s, coeffs.a, coeffs.b, coeffs.c) == (2.0, 4.0, 20.0, 1.0)

    def test_near_threshold_constructs(self):
        coeffs = optimal_coefficients(UNIT, 1.0 / math.sqrt(2.0) + 1e-9)
        assert coeffs.b * coeffs.c - coeffs.a ** 2 > 0
        assert abs(coeffs.a + coeffs.c - coeffs.b / 4.0) <= 1e-12 * coeffs.b

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            optimal_coefficients(UNIT, 1.0 / math.sqrt(2.0))
        with pytest.raises(ValueError):
            coefficient_family(UNIT, 4.0, 0.8)  # needs x0 > 4/sqrt(20)

    def test_alpha_scaling(self):
        const = AssumptionConstants(alpha=4.0, beta=4.0, gamma=0.0, dim=1)
        quarter = optimal_coefficients(const, 2.0)
        unit = optimal_coefficients(UNIT, 2.0)
        assert quarter.a == unit.a / 4.0
        assert quarter.b == unit.b / 4.0
        assert quarter.c == unit.c / 4.0

    def test_family_reduces_to_optimal_at_s2(self):
        a = coefficient_family(UNIT, 2.0, 7.0)
        b = optimal_coefficients(UNIT, 7.0)
        assert (a.s, a.a, a.b, a.c) == (b.s, b.a, b.b, b.c)


class TestOptimizeM1:
    def test_argmax_at_s_two(self):
        best, table = optimize_m1(UNIT, [1.0, 1.5, 2.0, 3.0, 4.0], [1e3])
        assert best.coeffs.s == 2.0
        assert 0.499 <= best.m1 <= 0.5
        assert len(table) == 5
        for entry in table:
            bound = 2.0 / entry.s / (4.0 / entry.s ** 2 + 1.0)
            assert entry.certificate.m1 <= bound + 1e-9

    def test_tie_breaks_to_lowest_index(self):
        best, table = optimize_m1(UNIT, [2.0, 2.0], [1e3])
        assert best is table[0].certificate

    def test_monotone_in_x0(self):
        const = AssumptionConstants(alpha=1.0, beta=4.0, gamma=0.0, dim=1)
        x0_grid = list(np.geomspace(1.0, 1e4, 12))
        _, table = optimize_m1(const, [2.0], x0_grid)
        m1s = [entry.certificate.m1 for entry in table]
        assert all(b >= a - 1e-13 for a, b in zip(m1s, m1s[1:]))

    def test_infeasible_cells_recorded(self):
        best, table = optimize_m1(UNIT, [4.0], [0.8, 1e3])
        assert table[0].certificate is None and table[0].error
        assert table[1].certificate is not None
        assert best is table[1].certificate

    def test_empty_and_all_infeasible(self):
        with pytest.raises(ValueError):
            optimize_m1(UNIT, [], [1.0])
        with pytest.raises(ValueError):
            optimize_m1(UNIT, [4.0], [0.5])


class TestLambdaDms:
    def test_zero_eps_is_zero(self):
        for lam in (0.1, 1.0, 2.0, 10.0):
            for alpha in (0.1, 1.0, 10.0):
                assert lambda_dms(lam, alpha, 0.0) == 0.0

    def test_hand_evaluated_point(self):
        expected = (
            2.0 - 0.25
            - math.sqrt(0.25 * (math.sqrt(2.0) + 1.0) ** 2 + (2.0 - 0.75) ** 2)
        ) / 3.0
        assert lambda_dms(2.0, 1.0, 0.5) == pytest.approx(expected, rel=1e-15)

    def test_continuous_near_one(self):
        a = lambda_dms(2.0, 1.0, 1.0 - 1e-9)
        b = lambda_dms(2.0, 1.0, 1.0 - 2e-9)
        assert abs(a - b) < 1e-8

    def test_vectorized_matches_scalar(self):
        eps = np.array([-0.5, 0.0, 0.3, 0.9])
        vec = lambda_dms(2.0, 1.0, eps)
        assert vec.shape == (4,)
        for e, v in zip(eps, vec):
            assert v == lambda_dms(2.0, 1.0, float(e))

    def test_array_and_float_eps_agree_to_last_bits(self):
        # a float eps squares through C pow, an array multiplies, so a few
        # results differ in the last bits; pin how far
        rng = np.random.default_rng(0)
        for lam, alpha in ((2.0, 1.0), (0.7, 0.3)):
            eps = rng.uniform(-0.99, 0.99, 20_000)
            vec = lambda_dms(lam, alpha, eps)
            scalar = np.array([lambda_dms(lam, alpha, float(e)) for e in eps])
            assert np.all(np.abs(vec - scalar) <= 1e-13 * np.abs(scalar))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            lambda_dms(2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            lambda_dms(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            lambda_dms(2.0, -1.0, 0.5)


class TestLambdaDmsSup:
    def test_frozen_reference(self):
        assert lambda_dms_sup(2.0, 1.0) == pytest.approx(
            LAMBDA_DMS_SUP_2_1, abs=1e-8
        )

    def test_brute_force_oracle(self):
        grid = np.linspace(0.0, 1.0, 200_002)[1:-1]
        for lam, alpha in ((2.0, 1.0), (0.1, 10.0), (10.0, 0.1), (0.5, 0.3)):
            brute = float(lambda_dms(lam, alpha, grid).max())
            assert lambda_dms_sup(lam, alpha) == pytest.approx(
                max(brute, 0.0), abs=1e-6
            )
            assert lambda_dms_sup(lam, alpha) >= brute - 1e-12

    def test_positive_on_grid(self):
        for lam in (0.1, 1.0, 5.0, 10.0):
            for alpha in (0.1, 1.0, 10.0):
                assert lambda_dms_sup(lam, alpha) > 0.0

    def test_theorem_bound_coarse(self):
        # full 100x100 grid runs in the acceptance suite; spot-check here
        for lam in (0.1, 0.5, 2.0, 10.0):
            for alpha in (0.1, 1.0, 4.0, 10.0):
                assert 2.0 * lambda_dms_sup(lam, alpha) < math.sqrt(alpha) / 2.0

    def test_grid_size_floor(self):
        with pytest.raises(ValueError):
            lambda_dms_sup(2.0, 1.0, grid_size=32)
        with pytest.raises(ValueError):
            lambda_dms_sup(np.array([1.0, 2.0]), 1.0, grid_size=63)


class TestLambdaDmsSupArray:
    def test_array_equals_scalar_calls_bitwise(self):
        rng = np.random.default_rng(11)
        lams = np.concatenate([np.round(np.arange(1, 101) * 0.1, 10),
                               rng.uniform(1e-3, 50.0, 60)])
        for alpha in (0.1, 0.3, 1.0, 4.0, 10.0):
            vec = lambda_dms_sup(lams, alpha)
            assert isinstance(vec, np.ndarray) and vec.shape == lams.shape
            scalar = np.array([lambda_dms_sup(float(v), alpha) for v in lams])
            assert np.array_equal(vec, scalar), alpha

    def test_entries_independent_of_the_rest(self):
        lams = np.array([0.5, 2.0, 7.0])
        whole = lambda_dms_sup(lams, 0.7)
        assert np.array_equal(whole[1:], lambda_dms_sup(lams[1:], 0.7))
        assert np.array_equal(lambda_dms_sup(lams[::-1], 0.7), whole[::-1])

    def test_result_types_and_shapes(self):
        assert type(lambda_dms_sup(2.0, 1.0)) is float
        assert type(lambda_dms_sup(np.float64(2.0), 1.0)) is float
        grid = np.array([[0.5, 1.0], [2.0, 4.0]])
        out = lambda_dms_sup(grid, 1.0)
        assert out.shape == (2, 2)
        assert out[1, 0] == lambda_dms_sup(2.0, 1.0)
        assert lambda_dms_sup([1.0, 2.0], 1.0).shape == (2,)
        assert lambda_dms_sup(np.empty(0), 1.0).shape == (0,)

    def test_nonpositive_lambda_in_array_rejected(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                lambda_dms_sup(np.array([1.0, bad, 2.0]), 1.0)
        with pytest.raises(ValueError):
            lambda_dms_sup(np.array([1.0, 2.0]), 0.0)

    @pytest.mark.parametrize("n, alpha", sorted(FROZEN_SUP_GRIDS))
    def test_frozen_benchmark_grids(self, n, alpha):
        digest, (first, middle, last) = FROZEN_SUP_GRIDS[(n, alpha)]
        grid = np.round(np.linspace(0.1, 10.0, n), 10)
        vals = lambda_dms_sup(grid, alpha)
        assert (vals[0], vals[n // 2], vals[-1]) == (first, middle, last)
        assert hashlib.sha256(vals.tobytes()).hexdigest() == digest


class TestCompareToConstantFriction:
    def test_quadratic_dominates_everywhere(self):
        cert = certificate(UNIT, optimal_coefficients(UNIT, 1e3))
        grid = list(np.linspace(0.1, 10.0, 25))
        report = compare_to_constant_friction(UNIT, cert, grid)
        assert report["applicable"]
        assert report["all_dominated"]
        assert all(report["dominates"])
        assert report["min_margin"] > 0.0
        assert report["sufficient_condition_ratio"] == 0.0
        assert len(report["baseline_rates"]) == 25
        assert report["certificate_rate"] == pytest.approx(0.5, abs=1e-12)

    def test_invalid_certificate_inapplicable(self):
        const = AssumptionConstants(alpha=1.0, beta=1.0, gamma=1.0, dim=1)
        cert = certificate(const, optimal_coefficients(const, 1e3))
        report = compare_to_constant_friction(const, cert, [1.0, 2.0])
        assert report["applicable"] is False
        assert report["dominates"] is None
        assert "inapplicable" in report["reason"]

    def test_perturbed_pipeline_dominates(self):
        pot = perturbed_diagonal([1.0], 0.01)
        const = pot.constants
        resc, _ = rescale_rate(const)
        cert = certificate(resc, optimal_coefficients(resc, 1e3))
        report = compare_to_constant_friction(const, cert, [0.5, 1.0, 2.0, 5.0])
        assert report["applicable"] and report["all_dominated"]
        # gamma = O(eps) makes the smallness ratio O(eps^2)
        assert report["sufficient_condition_ratio"] < 1e-3

    def test_empty_grid_rejected(self):
        cert = certificate(UNIT, optimal_coefficients(UNIT, 1e3))
        with pytest.raises(ValueError):
            compare_to_constant_friction(UNIT, cert, [])


class TestRescaleRate:
    def test_identity_at_unit_alpha(self):
        const = AssumptionConstants(alpha=1.0, beta=3.0, gamma=0.2, dim=2)
        rescaled, mult = rescale_rate(const)
        assert mult == 1.0
        assert (rescaled.alpha, rescaled.beta, rescaled.gamma) == (1.0, 3.0, 0.2)

    def test_reference_map(self):
        const = AssumptionConstants(alpha=4.0, beta=16.0, gamma=0.2, dim=3)
        rescaled, mult = rescale_rate(const)
        assert (rescaled.alpha, rescaled.beta, rescaled.gamma) == (1.0, 4.0, 0.1)
        assert mult == 2.0
        assert rescaled.dim == 3

    def test_round_trip_exact(self):
        const = AssumptionConstants(alpha=4.0, beta=16.0, gamma=0.2, dim=3)
        rescaled, mult = rescale_rate(const)
        assert rescaled.beta * const.alpha == const.beta
        assert rescaled.gamma * mult == const.gamma
        assert mult * mult == const.alpha

    def test_metadata_preserved(self):
        const = AssumptionConstants(alpha=4.0, beta=16.0, gamma=0.2, dim=1,
                                    estimated=True, gamma_box=(-8.0, 8.0))
        rescaled, _ = rescale_rate(const)
        assert rescaled.estimated is True
        assert rescaled.gamma_box == (-8.0, 8.0)


class TestDiagQuadraticWitness:
    def test_frozen_witness_table(self):
        # doubling search from a = 1 with (x, y) = (1, 1/2)
        for eps, expect_a in ((1.0, 4.0), (0.5, 32.0), (0.1, 512.0)):
            witness, rate = diag_quadratic_certificate([1.0], eps)
            assert rate == 2.0 - eps
            assert (witness.a, witness.x, witness.y) == (expect_a, 1.0, 0.5)

    def test_conditions_hold_at_witness(self):
        v = [1.0]
        witness, _ = diag_quadratic_certificate(v, 0.5)
        g1, g2, g3, det = diag_witness_conditions(v, witness, 0.5)
        assert np.all(g1 > 0) and np.all(g3 > 0) and np.all(det > 0)
        assert witness.b == 2.0 * (witness.a + witness.x)
        assert witness.c == 0.5 * (witness.a - witness.y)
        assert witness.b * witness.c - witness.a ** 2 > 0

    def test_spread_needs_larger_xy(self):
        v = [1.0, 2.0, 3.0]
        witness, rate = diag_quadratic_certificate(v, 0.5)
        assert rate == 1.5
        assert witness.x > 1.0  # (1, 1/2) cannot cover v = 3
        g1, _, g3, det = diag_witness_conditions(v, witness, 0.5)
        assert np.all(g1 > 0) and np.all(g3 > 0) and np.all(det > 0)
        assert (witness.x - witness.y) * witness.a - witness.x * witness.y > 0

    def test_weak_rate_needs_small_a(self):
        witness, rate = diag_quadratic_certificate([1.0], 1.98)
        assert rate == pytest.approx(0.02)
        assert witness.a <= 4.0

    def test_rate_below_exact_ou_rate(self):
        # the exact chi^2 rate for these dynamics is 2 * min(v); the witness
        # rate 2 - eps approaches it from below as eps -> 0
        exact = diagonal_system_rate([1.0, 2.0], hessian_sqrt(2.0))
        assert exact == pytest.approx(2.0, abs=1e-12)
        gaps = []
        for eps in (1.0, 0.5, 0.1, 0.01):
            _, rate = diag_quadratic_certificate([1.0, 2.0], eps)
            assert rate <= exact + 1e-12
            gaps.append(exact - rate)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] == pytest.approx(0.01, abs=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            diag_quadratic_certificate([0.5, 2.0], 0.5)  # min v < 1
        with pytest.raises(ValueError):
            diag_quadratic_certificate([1.0], 0.0)
        with pytest.raises(ValueError):
            diag_quadratic_certificate([1.0], 2.0)

    def test_witness_not_found_for_extreme_spread(self):
        with pytest.raises(WitnessNotFound):
            diag_quadratic_certificate([1.0, 1e9], 0.5)

    def test_serialization(self):
        witness = DiagQuadraticWitness(a=4.0, x=1.0, y=0.5, eps_rate=1.0)
        blob = witness.as_dict()
        assert blob["b"] == 10.0 and blob["c"] == 1.75

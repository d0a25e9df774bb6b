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
from types import SimpleNamespace

import numpy as np
import pytest

from kinlang.certificates import (
    DiagQuadraticWitness,
    LyapunovCoefficients,
    certificate,
    check_certifiable,
    coefficient_family,
    compare_to_constant_friction,
    diag_quadratic_certificate,
    diag_witness_conditions,
    f_of,
    family_certificate,
    g_of,
    l_constants,
    lambda_dms,
    lambda_dms_sup,
    optimal_coefficients,
    optimize_m1,
)
from kinlang.errors import (
    DegenerateS,
    InvalidCoefficients,
    NonPositiveDenominator,
    WitnessNotFound,
)
from kinlang.friction import hessian_sqrt
from kinlang.gaussian import diagonal_system_rate
from kinlang.potentials import AssumptionConstants, perturbed_diagonal

UNIT = AssumptionConstants(alpha=1.0, beta=1.0, gamma=0.0, dim=1)
REF_COEFFS = LyapunovCoefficients(s=2.0, a=4.0, b=20.0, c=1.0)

LAMBDA_DMS_SUP_2_1 = 0.0567166513  # frozen from the 1e6-point brute force

# frozen: sha256 of the float64 bytes of lambda_dms_sup over
# round(linspace(0.1, 10, n), 10) at alpha, with (first, middle, last)
# values; n = 400 and 500 at alpha = 1 are the certify and compare grids of
# the benchmark's CLI session.  Frozen again when the sup became a closed
# form: the entries moved by at most 1.1e-13 relative, toward 60-digit
# mpmath (every 25th entry checked: the error fell from <= 8.6e-14 to
# <= 5.1e-16)
FROZEN_SUP_GRIDS = {
    (400, 1.0): ("0bb226508e774636139433e83361188cffb891e7a5ae1981b9e7297087c57498",
                 (0.007357651800806805, 0.0590155666453778,
                  0.048257528708691766)),
    (500, 1.0): ("bc155fb145dd9b1e4b05f9c98fc54f1336c0f5dacb1278eb86a00f360403cd47",
                 (0.007357651800806805, 0.05902012500561136,
                  0.048257528708691766)),
    (500, 0.3): ("2913661bd2b4310cb894b0b488fffed623eda8c4334d36bd4f93cff8f448b892",
                 (0.0019868539546405812, 0.014725195437541192,
                  0.011543807643859266)),
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

    @pytest.mark.parametrize("fn", [f_of, g_of])
    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
    def test_non_positive_x_rejected(self, fn, x):
        with pytest.raises(ValueError, match="x must be > 0"):
            fn(x, UNIT, REF_COEFFS)

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

    def test_non_positive_denominator_raises(self):
        # a duck-typed triple with b c < a^2, which LyapunovCoefficients
        # would reject: (1 + x^2)(1 + 1) - 9 x^2 = -5 at x = 1
        bad = SimpleNamespace(s=1.0, a=3.0, b=1.0, c=1.0)
        with pytest.raises(NonPositiveDenominator,
                           match="g denominator -5 <= 0 at x = 1"):
            g_of(1.0, UNIT, bad)

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

    def test_zero_gamma_rate_is_m1(self):
        # the quadratic v = [1e-25, 1e100] has m2 = inf; at gamma = 0 the
        # gamma^2 m2 term is 0 all the same
        const = AssumptionConstants(alpha=1e-50, beta=1e200, gamma=0.0, dim=2)
        cert = certificate(const, coefficient_family(const, 2.0, 1e3))
        assert cert.m2 == math.inf
        assert cert.rescaled_rate == cert.m1 > 0.0
        assert cert.valid

    def test_strictness_propagates(self):
        coeffs = LyapunovCoefficients(s=1.0, a=3.0, b=5.0, c=2.0)
        with pytest.raises(InvalidCoefficients):
            certificate(UNIT, coeffs)

    def test_rescaling_leaves_rescaled_rate_invariant(self):
        # building the alpha-scaled family from the original constants or the
        # unit-alpha family from the normalized constants (alpha, beta, gamma)
        # -> (1, beta/alpha, gamma/sqrt(alpha)) gives the same rescaled rate;
        # original-time rates differ by exactly sqrt(alpha)
        for alpha in (4.0, 0.25):
            orig = AssumptionConstants(alpha=alpha, beta=2.0 * alpha,
                                       gamma=0.1 * math.sqrt(alpha), dim=3)
            mult = math.sqrt(alpha)
            resc = AssumptionConstants(alpha=1.0, beta=2.0, gamma=0.1, dim=3)
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
        assert blob["constants"] == {"alpha": 1.0, "beta": 1.0, "gamma": 0.0,
                                     "dim": 1, "kappa": 1.0}
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

    @pytest.mark.parametrize("s", [0.0, -2.0, math.nan])
    def test_non_positive_s_rejected(self, s):
        with pytest.raises(ValueError, match="s must be > 0"):
            coefficient_family(UNIT, s, 10.0)

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

    def test_overflowing_cells_recorded(self):
        # s^-5 overflows at s = 1e-100, a^2 at x0 = 1e300
        best, table = optimize_m1(UNIT, [1e-100, 2.0], [1e300, 10.0])
        assert [e.error_type for e in table] == [
            "OverflowError", "OverflowError", "OverflowError", None]
        assert best is table[3].certificate

    def test_overflowing_cell_names_s_and_x0(self):
        _, table = optimize_m1(UNIT, [1e-100, 2.0], [10.0])
        assert table[0].error == ("the certificate arithmetic overflows at "
                                  "s = 1e-100, x0 = 10.0")

    def test_empty_and_all_infeasible(self):
        with pytest.raises(ValueError):
            optimize_m1(UNIT, [], [1.0])
        with pytest.raises(ValueError):
            optimize_m1(UNIT, [4.0], [0.5])


class TestFamilyCertificate:
    def test_is_the_sweep_cell_on_the_cli_session_grid(self):
        # the benchmark's 31 x 31 certify grid on its perturbed potential:
        # every cell bitwise, and each certificate the one certificate()
        # gives for the family's coefficients
        const = perturbed_diagonal([1.0, 2.0], 0.01).constants
        s_grid = np.round(np.linspace(1.0, 4.0, 31), 10).tolist()
        x0_grid = np.round(np.geomspace(1.0, 1000.0, 31), 10).tolist()
        _, table = optimize_m1(const, s_grid, x0_grid)
        cells = [family_certificate(const, s, x0)
                 for s in s_grid for x0 in x0_grid]
        assert [repr(e) for e in table] == [repr(e) for e in cells]
        for e in cells:
            if e.certificate is not None:
                assert repr(e.certificate) == repr(certificate(
                    const, coefficient_family(const, e.s, e.x0)))

    @pytest.mark.parametrize("s, x0, error_type", [
        (4.0, 0.8, "ValueError"),
        (1e-100, 10.0, "OverflowError"),
        (2.0, 0.7071067811865477, "DegenerateS"),
    ])
    def test_failure_is_a_cell(self, s, x0, error_type):
        entry = family_certificate(UNIT, s, x0)
        assert (entry.s, entry.x0, entry.certificate) == (s, x0, None)
        assert entry.error_type == error_type and entry.error

    def test_certified_cell(self):
        entry = family_certificate(UNIT, 2.0, 1e3)
        assert entry.error is None and entry.error_type is None
        assert entry.certificate == certificate(UNIT, optimal_coefficients(UNIT, 1e3))


class TestCheckCertifiable:
    @pytest.mark.parametrize("alpha, beta", [
        (1e-75, 1e-75), (1e75, 1e75), (1.0, 1e160), (1e-75, 1e225)])
    def test_inside(self, alpha, beta):
        check_certifiable(AssumptionConstants(alpha, beta, 0.0, 1))

    @pytest.mark.parametrize("alpha, beta", [
        (1e-76, 1e-76), (1e76, 1e76), (1.0, 1.0001e225), (1e-110, 1e-110)])
    def test_outside(self, alpha, beta):
        with pytest.raises(ValueError, match="a certificate needs"):
            check_certifiable(AssumptionConstants(alpha, beta, 0.0, 1))

    @pytest.mark.parametrize("e", range(-75, 76, 15))
    def test_weights_stay_in_scale(self, e):
        # m1 is scale-free and alpha m2 too at kappa = 1, so across the
        # range they keep their alpha = 1 values to rounding
        const = AssumptionConstants(10.0 ** e, 10.0 ** e, 0.0, 1)
        for s in (1.0, 2.0, 4.0):
            for x0 in (1.0, 10.0, 1000.0):
                ref = certificate(UNIT, coefficient_family(UNIT, s, x0))
                cert = certificate(const, coefficient_family(const, s, x0))
                assert cert.m1 == pytest.approx(ref.m1, rel=1e-13)
                assert cert.m2 * const.alpha == pytest.approx(ref.m2, rel=1e-13)


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
        # every square is a multiply in both forms, so they agree exactly
        rng = np.random.default_rng(0)
        for lam, alpha in ((2.0, 1.0), (0.7, 0.3)):
            eps = rng.uniform(-0.99, 0.99, 20_000)
            vec = lambda_dms(lam, alpha, eps)
            scalar = np.array([lambda_dms(lam, alpha, float(e)) for e in eps])
            assert np.array_equal(vec, scalar)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            lambda_dms(2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            lambda_dms(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            lambda_dms(2.0, -1.0, 0.5)

    def test_negative_eps_certifies_nothing(self):
        eps = -np.concatenate([np.logspace(-300, -1, 2000),
                               np.linspace(1e-3, 1.0 - 1e-12, 2000)])
        for lam in (1e-150, 1e-6, 0.5, 2.0, 1e8, 1e150):
            for alpha in (1e-3, 0.3, 1.0, 1e3):
                assert (lambda_dms(lam, alpha, eps) <= 0.0).all(), (lam, alpha)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0])
    def test_non_finite_strengths_rejected(self, bad):
        with pytest.raises(ValueError, match="^lam must be finite"):
            lambda_dms(bad, 1.0, 0.5)
        with pytest.raises(ValueError, match="^alpha must be finite"):
            lambda_dms(2.0, bad, 0.5)
        with pytest.raises(ValueError, match="^lam must be finite"):
            lambda_dms_sup(bad, 1.0)
        with pytest.raises(ValueError, match="^lam must be finite"):
            lambda_dms_sup(np.array([1.0, bad]), 1.0)
        with pytest.raises(ValueError, match="^alpha must be finite"):
            lambda_dms_sup(2.0, bad)


    @pytest.mark.parametrize("lam", [1e155, 1e200, np.finfo(float).max])
    def test_overflowing_square_rejected(self, lam):
        # the config's lambda-grid rule: lam is squared, so lam^2 must be
        # finite; 1e154 still passes
        with pytest.raises(ValueError, match="finite square"):
            lambda_dms(lam, 1.0, 0.5)
        with pytest.raises(ValueError, match="finite square"):
            lambda_dms_sup(lam, 1.0)
        with pytest.raises(ValueError, match="finite square"):
            lambda_dms_sup(np.array([2.0, lam]), 1.0)
        assert lambda_dms_sup(1e154, 1.0) > 0.0


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

    @pytest.mark.parametrize("lam", [1e8, 1e12, 1e50, 1e150])
    @pytest.mark.parametrize("alpha", [0.01, 1.0, 100.0])
    def test_large_friction_asymptote(self, lam, alpha):
        # near the maximizer eps ~ 1/lam the denominator tends to 4 lam,
        # B = 4 alpha lam / (1 + alpha) and D ~ lam^2 / 4, so the sup tends
        # to max eps (B - eps D) / (4 lam) = B^2 / (16 D lam)
        asymptote = 4.0 * alpha * alpha / ((1.0 + alpha) * (1.0 + alpha))
        assert lam * lambda_dms_sup(lam, alpha) == pytest.approx(
            asymptote, rel=1e-6)

    @pytest.mark.parametrize("lam", [1e-300, 1e-20, 1e-6])
    @pytest.mark.parametrize("alpha", [0.01, 1.0, 100.0])
    def test_small_friction_log_grid(self, lam, alpha):
        # the maximizer is near eps ~ lam, far below a linear grid's first
        # cell: a log grid over 320 decades finds its cell, and a 1e5-point
        # log grid across the two neighbouring cells polishes it
        coarse = np.logspace(-320.0, 0.0, 32_001)[:-1]
        j = int(np.argmax(lambda_dms(lam, alpha, coarse)))
        fine = np.geomspace(coarse[j - 1], coarse[j + 1], 100_001)
        brute = float(lambda_dms(lam, alpha, fine).max())
        sup = lambda_dms_sup(lam, alpha)
        assert sup >= brute
        assert sup == pytest.approx(brute, rel=1e-12)

    def test_positive_on_grid(self):
        for lam in (0.1, 1.0, 5.0, 10.0):
            for alpha in (0.1, 1.0, 10.0):
                assert lambda_dms_sup(lam, alpha) > 0.0

    def test_theorem_bound_coarse(self):
        # full 100x100 grid runs in the acceptance suite; spot-check here
        for lam in (0.1, 0.5, 2.0, 10.0):
            for alpha in (0.1, 1.0, 4.0, 10.0):
                assert 2.0 * lambda_dms_sup(lam, alpha) < math.sqrt(alpha) / 2.0


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
        resc = AssumptionConstants(
            alpha=1.0, beta=const.beta / const.alpha,
            gamma=const.gamma / math.sqrt(const.alpha), dim=const.dim)
        cert = certificate(resc, optimal_coefficients(resc, 1e3))
        report = compare_to_constant_friction(const, cert, [0.5, 1.0, 2.0, 5.0])
        assert report["applicable"] and report["all_dominated"]
        # gamma = O(eps) makes the smallness ratio O(eps^2)
        assert report["sufficient_condition_ratio"] < 1e-3

    @pytest.mark.parametrize("beta, gamma", [
        (1.0, 0.0), (4.0, 0.3), (1e150, 1e-3), (1e160, 1e80)])
    def test_ratio_bits_at_unit_alpha(self, beta, gamma):
        const = AssumptionConstants(1.0, beta, gamma, 3)
        cert = certificate(UNIT, optimal_coefficients(UNIT, 1e3))
        report = compare_to_constant_friction(const, cert, [1.0])
        old = (beta * beta) * (gamma * gamma) * 3 / (1.0 * 1.0 * 1.0)
        assert repr(report["sufficient_condition_ratio"]) == repr(old)

    @pytest.mark.parametrize("alpha, beta", [(1e-50, 1e200), (1.0, 1e160)])
    def test_zero_gamma_ratio_is_zero(self, alpha, beta):
        # kappa^2 overflows to inf; gamma = 0 still makes the ratio 0
        const = AssumptionConstants(alpha=alpha, beta=beta, gamma=0.0, dim=2)
        cert = certificate(UNIT, optimal_coefficients(UNIT, 1e3))
        report = compare_to_constant_friction(const, cert, [1.0])
        assert report["sufficient_condition_ratio"] == 0.0

    def test_ratio_without_alpha_cubed(self):
        # alpha^3 underflows to 0 at alpha = 1e-110; kappa^2 gamma^2 / alpha
        # does not
        const = AssumptionConstants(1e-110, 4e-110, 1e-56, 2)
        cert = certificate(UNIT, optimal_coefficients(UNIT, 1e3))
        report = compare_to_constant_friction(const, cert, [1.0])
        assert report["sufficient_condition_ratio"] == pytest.approx(
            16.0 * 1e-112 / 1e-110 * 2, rel=1e-14)

    def test_empty_grid_rejected(self):
        cert = certificate(UNIT, optimal_coefficients(UNIT, 1e3))
        with pytest.raises(ValueError):
            compare_to_constant_friction(UNIT, cert, [])

    @pytest.mark.parametrize("grid", [[1.0, 0.0], [-2.0], [math.nan]])
    def test_non_positive_strength_rejected(self, grid):
        cert = certificate(UNIT, optimal_coefficients(UNIT, 1e3))
        with pytest.raises(ValueError, match="lambda_grid entries must be > 0"):
            compare_to_constant_friction(UNIT, cert, grid)


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

    @pytest.mark.parametrize("v", [[], [[1.0, 2.0]]])
    def test_shape_rule(self, v):
        with pytest.raises(ValueError, match="v must be a nonempty 1-d vector"):
            diag_quadratic_certificate(v, 0.5)

    def test_witness_not_found_for_extreme_spread(self):
        with pytest.raises(WitnessNotFound):
            diag_quadratic_certificate([1.0, 1e9], 0.5)

    def test_serialization(self):
        witness = DiagQuadraticWitness(a=4.0, x=1.0, y=0.5, eps_rate=1.0)
        blob = witness.as_dict()
        assert blob["b"] == 10.0 and blob["c"] == 1.75

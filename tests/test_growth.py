"""Growth-order tests: exact classification by Gaussian rate, log-domain
regression estimates, and pointwise bound checks."""

import math
import random
from fractions import Fraction as F

import pytest

from l2transform import (
    Convention, EXP_HALF, GExpr, NonPositiveSampleError, algebra, check_bound,
    classify_exact, estimate_rate, lpoly, solve_family_c,
)

from support import linspace, log_abs_envelope, rand_fraction

SAMPLES = linspace(2.0, 6.0, 17)


class TestClassifyExact:
    def test_gaussian_half(self):
        r = classify_exact(EXP_HALF)
        assert r.exact_rate == F(1, 2)
        assert r.is_exp_squared_order is True
        assert r.is_exponential_order is False

    def test_polynomial(self):
        e = algebra.constant(1) + algebra.monomial(1, 2)
        r = classify_exact(e)
        assert r.is_exponential_order is True
        assert r.is_exp_squared_order is True

    def test_decaying(self):
        r = classify_exact(algebra.gaussian(-1, c=3))
        assert r.is_exponential_order is True
        assert r.is_exp_squared_order is True

    def test_rate_one_boundary_is_not_exp_squared(self):
        r = classify_exact(algebra.gaussian(1))
        assert r.is_exp_squared_order is False
        assert r.is_exponential_order is False

    def test_zero_expression(self):
        r = classify_exact(GExpr())
        assert r.exact_rate == 0
        assert r.is_exponential_order is True


class TestEstimateRate:
    def test_gaussian_half(self):
        r = estimate_rate(EXP_HALF, SAMPLES)
        assert r.estimated_rate == pytest.approx(0.5, abs=0.01)
        assert r.is_exponential_order is False
        assert r.is_exp_squared_order is True

    def test_fewer_than_three_samples_past_the_midpoint_fit_the_last_three(self):
        # only x = 10 lies past the midpoint 5.5, so the fit takes 1.5, 1.6
        # and 10; a fourth sample, x = 1.4, would bend the second function's fit
        xs = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 10.0]
        for f in (algebra.gaussian(F(1, 2)), lambda x: math.exp(x * x / 2) if x >= 1.5 else 1.0):
            r = estimate_rate(f, xs)
            assert r.estimated_rate == pytest.approx(0.5, abs=1e-12)
            assert r.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        r = estimate_rate(lambda x: 5.0, SAMPLES)
        assert r.estimated_rate == pytest.approx(0.0, abs=0.01)
        assert r.is_exponential_order is True

    def test_series_solution_rate_window(self):
        sol = solve_family_c(lpoly({0: 1}), 60, Convention.PAPER_LITERAL)
        r = estimate_rate(lambda x: sol.value(x, 1.0), SAMPLES)
        assert 0.5 < r.estimated_rate <= 0.75
        assert r.is_exponential_order is False
        assert r.is_exp_squared_order is True

    def test_nonpositive_sample_rejected(self):
        with pytest.raises(NonPositiveSampleError):
            estimate_rate(lambda x: x - 4.0, SAMPLES)

    def test_sampling_contract(self):
        with pytest.raises(ValueError):
            estimate_rate(lambda x: 1.0, [1, 2, 3])
        with pytest.raises(ValueError):
            estimate_rate(lambda x: 1.0, [1, 2, 3, 4, 5, 6, 7, 7])

    def test_poor_fit_returns_unknown(self):
        wiggly = lambda x: math.exp(x * x / 2) * (2.0 + math.sin(7 * x))
        r = estimate_rate(wiggly, SAMPLES)
        assert r.r_squared < 0.999
        assert r.is_exponential_order is None
        assert r.is_exp_squared_order is None

    def test_agrees_with_exact_on_pure_gaussian_sums(self):
        # exact rates in [-1, 3/4]; positive coefficients keep f > 0
        rng = random.Random(314)
        for _ in range(25):
            terms = []
            for _ in range(rng.randint(1, 3)):
                c = rand_fraction(rng, 1, 4, nonzero=True)
                a = rand_fraction(rng, -1, 0) + F(rng.choice([0, 1, 3]), 4)
                terms.append(algebra.gaussian(a, c=c))
            e = terms[0]
            for t in terms[1:]:
                e = e + t
            exact = float(e.max_rate())
            got = estimate_rate(e, SAMPLES).estimated_rate
            assert abs(got - exact) <= 0.02


class TestCheckBound:
    XS = linspace(0.5, 4.0, 40)

    def test_solution_upper_bound(self):
        sol = solve_family_c(lpoly({0: 1}), 60, Convention.PAPER_LITERAL)
        u_minus_1 = lambda x: sol.value(x, 1.0) - 1.0
        e34 = algebra.gaussian("3/4")
        assert check_bound(u_minus_1, e34, self.XS) is True

    def test_solution_lower_bound(self):
        sol = solve_family_c(lpoly({0: 1}), 60, Convention.PAPER_LITERAL)
        u_minus_1 = lambda x: sol.value(x, 1.0) - 1.0
        assert check_bound(EXP_HALF, u_minus_1, self.XS) is True

    def test_strict_violation(self):
        assert check_bound(algebra.gaussian(1), algebra.gaussian("3/4"), self.XS) is False

    def test_equality_tolerated(self):
        assert check_bound(EXP_HALF, EXP_HALF, self.XS) is True

    @pytest.mark.parametrize("f", [
        algebra.constant(-1),
        algebra.gaussian(-1, c=-1),
        algebra.constant(1) - algebra.monomial(F(1, 4), 1),  # changes sign at x = 2
        lambda x: math.sin(3 * x) * math.exp(x * x),
    ])
    def test_equality_tolerated_for_every_sign(self, f):
        assert check_bound(f, f, self.XS) is True

    def test_negative_bound_slack_is_relative(self):
        minus_one = algebra.constant(-1)
        assert check_bound(lambda x: -1 + 0.5e-12, minus_one, self.XS) is True
        assert check_bound(lambda x: -1 + 2e-12, minus_one, self.XS) is False


class TestDefinitionFidelity:
    def test_exp_squared_limit_in_log_domain(self):
        # anything classified exponential-squared decays under e^(-x^2):
        # at x = 30 the envelope is far below 1e-50 (checked in logs)
        rng = random.Random(2718)
        for _ in range(20):
            terms = [algebra.gaussian(rand_fraction(rng, -2, 0) + F(3, 4),
                                      c=rand_fraction(rng, -4, 4, nonzero=True),
                                      k=rng.randint(0, 3))]
            e = terms[0]
            assert classify_exact(e).is_exp_squared_order is True
            log_value = log_abs_envelope(e, 30.0) - 30.0 ** 2
            assert log_value < math.log(1e-50)

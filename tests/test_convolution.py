"""Convolution tests: symbolic results against direct integration, the
product theorem both exactly and through quadrature, star powers, and the
algebraic laws as property tests."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2transform import (
    EXP_HALF, GExpr, GTerm, algebra, convolve_numeric, convolve_symbolic,
    evaluate, forward, l2_quadrature, star_power,
)

from support import rand_gexpr

ONE = algebra.constant(1)
X2 = algebra.monomial(1, 1)


class TestSymbolic:
    def test_unit_with_itself(self):
        # direct integration of x dx over [0, t] gives t^2/2
        assert convolve_symbolic(ONE, ONE) == algebra.monomial(F(1, 2), 1)

    def test_gaussian_half_square(self):
        assert convolve_symbolic(EXP_HALF, EXP_HALF) == algebra.gaussian("1/2", c=F(1, 2), k=1)

    def test_unit_with_x_squared(self):
        got = convolve_symbolic(ONE, X2)
        assert got == algebra.monomial(F(1, 4), 2)
        for t in (0.5, 1.0, 2.0):
            assert abs(convolve_numeric(ONE, X2, t) - evaluate(got, t)) <= 1e-9


class TestNumeric:
    def test_units_at_two(self):
        assert convolve_numeric(ONE, ONE, 2.0) == pytest.approx(2.0, rel=1e-10)

    def test_gaussians_at_one(self):
        expected = evaluate(algebra.gaussian("1/2", c=F(1, 2), k=1), 1.0)
        assert expected == pytest.approx(math.exp(0.5) / 2, rel=1e-14)
        assert convolve_numeric(EXP_HALF, EXP_HALF, 1.0) == pytest.approx(expected, rel=1e-10)

    def test_empty_interval(self):
        assert convolve_numeric(ONE, ONE, 0.0) == 0.0

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_negative_argument_rejected(self, t):
        with pytest.raises(ValueError):
            convolve_numeric(ONE, ONE, t)

    def test_unit_with_x_squared_at_one(self):
        got = convolve_numeric(ONE, X2, 1.0)
        assert got == pytest.approx(0.25, rel=1e-10)


class TestStarPower:
    def test_identity_case(self):
        assert star_power(EXP_HALF, 1) == EXP_HALF

    def test_closed_form(self):
        for n in range(1, 7):
            expected = GExpr((GTerm(
                F(1, 2 ** (n - 1) * math.factorial(n - 1)), n - 1, F(1, 2)),))
            assert star_power(EXP_HALF, n) == expected

    def test_cube(self):
        assert star_power(EXP_HALF, 3) == algebra.gaussian("1/2", c=F(1, 8), k=2)

    def test_unit_square(self):
        assert star_power(ONE, 2) == convolve_symbolic(ONE, ONE)

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            star_power(ONE, 0)

    @pytest.mark.parametrize("n", [-1, 1.5, 2.0, True])
    def test_power_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError):
            star_power(EXP_HALF, n)


small_gexpr = st.lists(
    st.builds(
        GTerm,
        c=st.fractions(min_value=-3, max_value=3, max_denominator=4),
        k=st.integers(min_value=0, max_value=2),
        a=st.sampled_from([F(0), F(1, 4), F(-1, 2), F(1, 2)]),
    ),
    min_size=1, max_size=2,
).map(lambda ts: GExpr(tuple(ts)))


@given(small_gexpr, small_gexpr)
@settings(max_examples=40, deadline=None)
def test_commutativity(f, g):
    assert convolve_symbolic(f, g) == convolve_symbolic(g, f)


@given(small_gexpr, small_gexpr, small_gexpr)
@settings(max_examples=25, deadline=None)
def test_associativity(f, g, h):
    assert convolve_symbolic(convolve_symbolic(f, g), h) \
        == convolve_symbolic(f, convolve_symbolic(g, h))


def test_product_theorem_exact():
    rng = random.Random(88)
    for _ in range(30):
        f = rand_gexpr(rng, max_terms=3, max_k=2)
        g = rand_gexpr(rng, max_terms=3, max_k=2)
        assert forward(convolve_symbolic(f, g)) == forward(f) * forward(g)


def test_product_theorem_through_quadrature():
    rng = random.Random(89)
    for _ in range(8):
        f = rand_gexpr(rng, max_terms=2, max_k=2, rate_lo=-1, rate_hi=0, coeff_hi=3)
        g = rand_gexpr(rng, max_terms=2, max_k=2, rate_lo=-1, rate_hi=0, coeff_hi=3)
        conv = convolve_symbolic(f, g)
        for sigma in (1.0, 2.0):
            s = math.sqrt(sigma)
            lhs = l2_quadrature(conv, s)
            rhs = l2_quadrature(f, s) * l2_quadrature(g, s)
            assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))


def test_pointwise_agreement():
    rng = random.Random(90)
    for _ in range(10):
        f = rand_gexpr(rng, max_terms=2, max_k=2, rate_lo=-1, rate_hi=0, coeff_hi=3)
        g = rand_gexpr(rng, max_terms=2, max_k=2, rate_lo=-1, rate_hi=0, coeff_hi=3)
        conv = convolve_symbolic(f, g)
        for t in (0.5, 1.0, 2.0):
            num = convolve_numeric(f, g, t)
            sym = evaluate(conv, t)
            assert abs(num - sym) <= 1e-8 * max(1.0, abs(sym))

"""Transform tests: the forward/inverse pair rules, the two operator
identities, sigma arithmetic, products, and partial fractions, all checked
exactly; recombination goes through the independent polynomial oracle."""

import functools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l2transform import (
    GExpr, GTerm, ImpulseContentError, algebra, delta_s, delta_x, forward,
    inverse, limit_at_zero, mul_sigma, partial_fractions,
)
from l2transform import transform as tf

from support import (
    equals_product, evaluate_at, rand_fraction, rand_gexpr, rational_equal, recombines_to_one,
    reference_product,
)


class TestForward:
    def test_unit(self):
        assert forward(algebra.constant(1)) == tf.pole(F(1, 2), 0, 1)

    def test_x_squared(self):
        assert forward(algebra.monomial(1, 1)) == tf.pole(F(1, 2), 0, 2)

    def test_even_monomials(self):
        for n in range(11):
            expected = tf.pole(F(math.factorial(n), 2), 0, n + 1)
            assert forward(algebra.monomial(1, n)) == expected

    def test_gaussian_half(self):
        # 1/(2 sigma - 1) written at the pole 1/2
        assert forward(algebra.gaussian("1/2")) == tf.pole(F(1, 2), F(1, 2), 1)

    def test_random_gaussian_rates(self):
        rng = random.Random(11)
        for _ in range(20):
            a = rand_fraction(rng, -3, 3)
            assert forward(algebra.gaussian(a)) == tf.pole(F(1, 2), a, 1)


class TestInverse:
    def test_power_pole(self):
        # (1/2) sigma^-(n+1)  ->  x^(2n)/n!, here n = 3
        got = inverse(tf.pole(F(1, 2), 0, 4))
        assert got == algebra.monomial(F(1, 6), 3)

    def test_gaussian_pole(self):
        assert inverse(tf.pole(F(1, 2), F(1, 2), 1)) == algebra.gaussian("1/2")

    def test_double_pole_roundtrips(self):
        s = tf.pole(1, F(1, 2), 2)
        e = inverse(s)
        assert e == algebra.gaussian("1/2", c=2, k=1)
        assert forward(e) == s

    def test_impulse_content_rejected(self):
        with pytest.raises(ImpulseContentError):
            inverse(tf.constant(F(1, 2)))

    def test_zero(self):
        assert inverse(tf.SExpr()) == GExpr()


class TestDeltaS:
    def test_basic_pole(self):
        assert delta_s(tf.pole(F(1, 2), 0, 1)) == tf.pole(-1, 0, 2)

    def test_matches_even_monomial_shift(self):
        # n = 1 instance of the x^(2n) multiplier identity with f = 1
        lhs = tf.scale(delta_s(forward(algebra.constant(1))), F(-1, 2))
        assert lhs == forward(algebra.monomial(1, 1))

    def test_constant_maps_to_zero(self):
        assert delta_s(tf.constant(3)).terms == ()


class TestMulSigma:
    def test_simple_pole_gives_constant(self):
        assert mul_sigma(tf.pole(F(1, 2), 0, 1)) == tf.constant(F(1, 2))

    def test_shifted_double_pole(self):
        got = mul_sigma(tf.pole(1, F(1, 2), 2))
        assert got == tf.pole(1, F(1, 2), 1) + tf.pole(F(1, 2), F(1, 2), 2)

    def test_derivation_identity_for_x_squared(self):
        x2 = algebra.monomial(1, 1)
        lhs = forward(delta_x(x2))
        rhs = tf.scale(mul_sigma(forward(x2)), 2)
        assert lhs == rhs == tf.pole(1, 0, 1)

    def test_rejects_constant_content(self):
        with pytest.raises(ValueError):
            mul_sigma(tf.constant(1))


class TestOperatorIdentities:
    def test_derivation_identity_battery(self):
        # forward(delta_x e) = 2 sigma forward(e) - e(0+), constants included
        rng = random.Random(42)
        for _ in range(50):
            e = rand_gexpr(rng)
            lhs = forward(delta_x(e))
            rhs = tf.scale(mul_sigma(forward(e)), 2) - tf.constant(limit_at_zero(e))
            assert lhs == rhs

    def test_even_multiplier_identity_battery(self):
        # forward(x^(2n) e) = (-1)^n / 2^n * delta_s^n forward(e)
        rng = random.Random(43)
        for _ in range(50):
            e = rand_gexpr(rng)
            for n in range(5):
                lhs = forward(algebra.monomial(1, n) * e)
                rhs = forward(e)
                for _ in range(n):
                    rhs = delta_s(rhs)
                rhs = tf.scale(rhs, F((-1) ** n, 2 ** n))
                assert lhs == rhs


class TestMultiply:
    def test_same_pole(self):
        s = tf.pole(F(1, 2), 0, 1)
        assert s * s == tf.pole(F(1, 4), 0, 2)

    def test_textbook_split(self):
        got = tf.pole(1, 0, 1) * tf.pole(1, 1, 1)
        expected = tf.pole(1, 1, 1) + tf.pole(-1, 0, 1)
        assert got == expected
        assert rational_equal(got, expected)

    def test_constant_factor(self):
        s = tf.pole(3, F(1, 2), 2)
        assert tf.constant(F(2, 3)) * s == tf.pole(2, F(1, 2), 2)

    @pytest.mark.parametrize("m", [1, 3])
    def test_one_term_factor_against_a_sum_sharing_its_pole(self, m):
        one = tf.pole(F(-3, 7), F(1, 2), m)
        several = tf.pole(2, F(1, 2), 2) + tf.pole(F(5, 3), F(-1, 59), 1) + tf.constant(F(1, 4))
        for got in (one * several, several * one):
            assert equals_product(got, [one, several])

    def test_random_products_recombine(self):
        rng = random.Random(44)
        for _ in range(40):
            s1 = forward(rand_gexpr(rng, max_terms=3, max_k=2))
            s2 = forward(rand_gexpr(rng, max_terms=3, max_k=2))
            prod = s1 * s2
            n1, d1 = _as_rational(s1)
            n2, d2 = _as_rational(s2)
            np_, dp = _as_rational(prod)
            from support import poly_mul
            assert poly_mul(poly_mul(np_, d1), d2) == poly_mul(poly_mul(n1, n2), dp)


# e^(x^2/2) + 2 x^2 e^(-x^2/3) + x^4: three poles, multiplicities 1, 2, 3.
DEEP_F = GExpr((GTerm(1, 0, F(1, 2)), GTerm(2, 1, F(-1, 3)), GTerm(1, 2, 0)))


class TestOperators:
    def test_empty_sum_is_false(self):
        assert not tf.SExpr()
        assert tf.constant(1)

    def test_negation_and_difference(self):
        assert -tf.pole(1, 0, 1) == tf.pole(-1, 0, 1)
        assert tf.pole(1, 0, 1) - tf.pole(1, 0, 1) == tf.SExpr()
        assert tf.pole(1, 0, 1) + tf.constant(2) - tf.constant(2) == tf.pole(1, 0, 1)


class TestPower:
    @pytest.mark.parametrize("n", [*range(2, 7), 12, 16])
    @pytest.mark.parametrize("shift", [0, 1, F(-2, 3)])
    def test_multi_pole_powers_match_the_oracle(self, n, shift):
        s = forward(DEEP_F) + tf.constant(shift)
        got = tf.power(s, n)
        assert equals_product(got, [s] * n)
        assert got.is_proper() == (shift == 0)

    def test_first_power_is_identity(self):
        s = forward(DEEP_F) + tf.constant(1)
        assert tf.power(s, 1) == s


class TestBooleansAreNotCounts:
    def test_multiplicity(self):
        with pytest.raises(ValueError):
            tf.pole(1, 0, True)

    def test_partial_fraction_multiplicity(self):
        with pytest.raises(ValueError):
            partial_fractions([(0, True)])


sexpr_strategy = st.builds(
    tf.SExpr,
    st.lists(
        st.builds(
            tf.STerm,
            c=st.fractions(min_value=-3, max_value=3, max_denominator=5),
            a=st.sampled_from([F(0), F(1), F(-1, 2), F(1, 3), F(2)]),
            m=st.integers(min_value=0, max_value=3),
        ),
        max_size=4,
    ).map(tuple),
)


@given(sexpr_strategy, sexpr_strategy)
@settings(max_examples=150, deadline=None)
def test_multiply_matches_the_oracle_property(s1, s2):
    got = tf.multiply(s1, s2)
    assert equals_product(got, [s1, s2])
    assert got == tf.multiply(s2, s1)


@given(sexpr_strategy, st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_power_is_repeated_multiplication_property(s, n):
    assert tf.power(s, n) == tf.multiply(tf.power(s, n - 1), s)


@given(st.builds(tf.SExpr, st.lists(st.builds(
    tf.STerm,
    c=st.fractions(min_value=-3, max_value=3, max_denominator=7),
    a=st.fractions(min_value=-2, max_value=2, max_denominator=7),
    m=st.integers(min_value=0, max_value=3),
), max_size=4).map(tuple)), st.integers(min_value=1, max_value=16))
@settings(max_examples=100, deadline=None)
def test_power_is_a_left_fold_of_multiply_property(s, n):
    # power raises its base's series by the power recurrence; multiply builds
    # each product from two separate factors, by the exponent-1 path
    got, folded = tf.power(s, n), functools.reduce(tf.multiply, [s] * n)
    assert got == folded


@given(st.integers(min_value=-40, max_value=40).filter(bool),
       st.lists(st.sampled_from([0, 0, 1, -1, 7, -12, 30]) | st.integers(-10**6, 10**6),
                max_size=14),
       st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=20))
@example(-3, [0, 5, 0, 0, -2], 6, 20)
@example(5, [0, 0, 1], 1, 2)
@settings(max_examples=200, deadline=None)
def test_series_power_is_a_fold_of_truncated_products_property(v0, rest, den, e):
    # the slow path it replaced: e - 1 truncated products of the same series
    series = ([v0, *rest], den)
    assert tf._series_power(series, e) == functools.reduce(tf._truncated_product, [series] * e)


# one to four distinct poles with denominators up to 60, for drawing factors
# that share poles
pole_pools = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=60),
                      min_size=1, max_size=4, unique=True)


@st.composite
def mixed_factors(draw):
    """One to three factors on one pool of poles: single terms and sums of
    several, sigma-constants included."""
    term = st.builds(tf.STerm, c=st.fractions(min_value=-3, max_value=3, max_denominator=60),
                     a=st.sampled_from(draw(pole_pools)), m=st.integers(min_value=0, max_value=3))
    factor = st.lists(term, min_size=1, max_size=1) | st.lists(term, min_size=2, max_size=4)
    return draw(st.lists(factor.map(lambda terms: tf.SExpr(tuple(terms))), min_size=1, max_size=3))


# several factors raised together to small exponents, or one base, the
# shape `power` passes, to exponents up to 20: a pole's series is as long as
# the factors' multiplicities there times the exponent, and costs its square
@given(st.tuples(mixed_factors(), st.integers(min_value=1, max_value=3))
       | st.tuples(mixed_factors().map(lambda factors: factors[:1]),
                   st.integers(min_value=1, max_value=20)))
@example(([tf.pole(F(3, 7), F(1, 2), 2),
           tf.pole(1, F(1, 2), 1) + tf.pole(-2, F(1, 59), 3) + tf.constant(5)], 1))
@example(([tf.pole(1, 1, 1) + tf.pole(1, -1, 1), tf.pole(1, 0, 2)], 2))  # 0 at the pole 0
@settings(max_examples=200, deadline=None)
def test_product_matches_the_fraction_reference_property(product):
    factors, e = product
    # the Fraction path it replaced: every factor's Laurent series, one-term
    # factors included, multiplied, then raised by the power recurrence
    try:
        expected = reference_product(factors, e)
    except ZeroDivisionError:
        # the power recurrence needs a nonzero leading coefficient, and a
        # factor with no pole at a may vanish there; both paths refuse alike
        with pytest.raises(ZeroDivisionError):
            tf._product(factors, e)
        return
    assert tf._product(factors, e) == expected


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_partial_fractions_match_the_fraction_reference_property(data):
    pool = data.draw(pole_pools)
    factors = data.draw(st.lists(st.tuples(st.sampled_from(pool),
                                           st.integers(min_value=1, max_value=20)), max_size=5))
    expected = reference_product([tf.pole(1, a, m) for a, m in factors])
    assert partial_fractions(factors) == expected


def _assert_canonical(r):
    """r is a fixed point of its public constructor, in the same term order,
    and every rational field is a Fraction."""
    if isinstance(r, GExpr):
        assert GExpr(r.terms).terms == r.terms
        assert all(type(t.c) is F and type(t.a) is F and type(t.k) is int for t in r.terms)
    else:
        assert tf.SExpr(r.terms).terms == r.terms
        assert all(type(t.c) is F and type(t.a) is F and type(t.m) is int for t in r.terms)


@given(st.lists(sexpr_strategy, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_products_are_canonical_property(factors):
    s, n = factors[0], len(factors)
    products = [(tf._product(factors), factors), (tf.power(s, n), [s] * n)]
    if n == 2:
        products.append((tf.multiply(*factors), factors))
    for got, used in products:
        _assert_canonical(got)
        assert equals_product(got, used)


@given(st.lists(st.tuples(st.sampled_from([F(0), F(1), F(-1, 2), F(1, 3), F(-5, 4)]),
                          st.integers(min_value=1, max_value=3)), max_size=4))
@settings(max_examples=100, deadline=None)
def test_partial_fractions_are_canonical_property(factors):
    got = partial_fractions(factors)
    _assert_canonical(got)
    assert equals_product(got, [tf.pole(1, a, m) for a, m in factors])


def test_empty_product_is_the_fraction_one():
    _assert_canonical(partial_fractions([]))
    assert partial_fractions([]).terms == (tf.STerm(F(1), F(0), 0),)


def _as_rational(s):
    from support import sexpr_as_rational
    return sexpr_as_rational(s)


LADDER_POOL = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(1, 3), F(-2, 3),
               F(3, 2), F(-3, 4), F(5, 4), F(-5, 3)]


class TestPartialFractions:
    def test_partial_fractions_refuse_a_float_pole(self):
        with pytest.raises(TypeError):
            partial_fractions([(0.5, 1)])

    def test_two_simple_poles(self):
        got = partial_fractions([(0, 1), (1, 1)])
        assert got == tf.pole(1, 1, 1) + tf.pole(-1, 0, 1)

    def test_half_pole(self):
        got = partial_fractions([(0, 1), (F(1, 2), 1)])
        assert got == tf.pole(2, F(1, 2), 1) + tf.pole(-2, 0, 1)
        assert recombines_to_one(got, [(F(0), 1), (F(1, 2), 1)])

    def test_repeated_pole(self):
        got = partial_fractions([(0, 2), (1, 1)])
        expected = tf.pole(1, 1, 1) + tf.pole(-1, 0, 1) + tf.pole(-1, 0, 2)
        assert got == expected
        assert recombines_to_one(got, [(F(0), 2), (F(1), 1)])

    def test_single_factor_passthrough(self):
        assert partial_fractions([(F(1, 3), 2)]) == tf.pole(1, F(1, 3), 2)

    def test_empty_product_is_one(self):
        assert partial_fractions([]) == tf.constant(1)

    def test_duplicate_factors_group(self):
        assert partial_fractions([(0, 1), (0, 2)]) == tf.pole(1, 0, 3)

    @pytest.mark.parametrize("total", range(6, 19))
    def test_six_pole_ladder_recombines(self, total):
        # six poles from a fixed pool, multiplicities at most 3 adding up to
        # total: the partial-fraction shapes of perfbench's exact-deep
        rng = random.Random(total)
        mults = [1 + (i < total - 6) + (i < total - 12) for i in range(6)]
        factors = list(zip(rng.sample(LADDER_POOL, 6), rng.sample(mults, 6)))
        assert recombines_to_one(partial_fractions(factors), factors)

    @pytest.mark.parametrize("factors", [
        [(F(1, 2), 8), (F(-1), 1), (F(1, 3), 2)],
        [(F(1, 59), 2), (F(-1, 61), 3)],
        [(F(1, 59), 1), (F(-1, 61), 2), (F(1, 60), 3), (F(-1, 59), 1)],
    ], ids=["multiplicity-8", "difference-over-3599", "four-near-poles"])
    def test_high_order_and_close_poles_recombine(self, factors):
        assert recombines_to_one(partial_fractions(factors), factors)

    def test_random_recombination(self):
        rng = random.Random(45)
        for _ in range(60):
            poles = rng.sample([F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(1, 3)],
                               rng.randint(1, 4))
            factors = [(a, rng.randint(1, 3)) for a in poles]
            assert recombines_to_one(partial_fractions(factors), factors)


gexpr_strategy = st.lists(
    st.builds(
        GTerm,
        c=st.fractions(min_value=-4, max_value=4, max_denominator=6),
        k=st.integers(min_value=0, max_value=3),
        a=st.fractions(min_value=-2, max_value=1, max_denominator=6),
    ),
    min_size=0, max_size=5,
).map(lambda ts: GExpr(tuple(ts)))


@given(gexpr_strategy)
@settings(max_examples=120)
def test_round_trip_property(e):
    assert inverse(forward(e)) == e


@given(gexpr_strategy)
@settings(max_examples=60)
def test_derivation_identity_property(e):
    lhs = forward(delta_x(e))
    rhs = tf.scale(mul_sigma(forward(e)), 2) - tf.constant(limit_at_zero(e))
    assert lhs == rhs


@given(gexpr_strategy, sexpr_strategy)
@settings(max_examples=100, deadline=None)
def test_transforms_are_canonical_property(e, s):
    proper = tf.SExpr(tuple(t for t in s.terms if t.m))
    for got in (forward(e), inverse(forward(e)), inverse(proper), delta_s(s), delta_s(forward(e))):
        _assert_canonical(got)


def test_quadrature_agreement_with_forward():
    from l2transform import l2_quadrature
    rng = random.Random(46)
    for _ in range(10):
        e = rand_gexpr(rng, rate_lo=-2, rate_hi=0, max_k=3)
        if not e.terms:
            continue
        e = e + algebra.gaussian("1/2", c=1)  # ensure max rate 1/2
        for sigma in (1.0, 2.0, 4.0):
            exact = evaluate_at(forward(e), sigma)
            num = l2_quadrature(e, math.sqrt(sigma))
            assert abs(num - exact) <= 1e-8

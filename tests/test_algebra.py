"""Function-algebra tests: canonical form, evaluation, arithmetic, the
(1/x) d/dx derivation, and the x -> 0+ limit."""

import copy
import math
import pickle
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l2transform import GExpr, GTerm, delta_x, evaluate, limit_at_zero
from l2transform import algebra
from l2transform import transform as tf

from support import direct_term_sum, rand_gexpr


def gterm(c, k, a) -> GTerm:
    return GTerm(F(c), k, F(a))


class TestCanonicalize:
    def test_merges_like_terms(self):
        e = GExpr((gterm(1, 0, 0), gterm(2, 0, 0)))
        assert e == GExpr((gterm(3, 0, 0),))

    def test_cancellation_gives_zero_expression(self):
        e = GExpr((gterm(1, 1, 0), gterm(-1, 1, 0)))
        assert e.terms == ()
        assert not e

    # the second input's tuple order (c first) is not its (a, k) order
    @pytest.mark.parametrize("terms", [
        [(2, 3, "1/2"), (1, 0, -1), (5, 3, "1/2")],
        [(1, 0, 1), (2, 0, -1)],
    ])
    def test_sorted_unique_no_zero_coefficients(self, terms):
        e = GExpr(tuple(gterm(*t) for t in terms))
        keys = [(t.a, t.k) for t in e.terms]
        assert keys == sorted(keys) == list(dict.fromkeys(keys))
        assert all(t.c != 0 for t in e.terms)

    def test_random_inputs_preserve_pointwise_value(self):
        rng = random.Random(20260811)
        for _ in range(25):
            raw = [
                GTerm(F(rng.randint(-8, 8), rng.randint(1, 5)),
                      rng.randint(0, 4),
                      F(rng.randint(-4, 2), rng.randint(1, 4)))
                for _ in range(10)
            ]
            e = GExpr(tuple(raw))
            for i in range(20):
                x = 4.0 * i / 19
                oracle = direct_term_sum(raw, x)
                scale = max(1.0, sum(abs(float(t.c)) * x ** (2 * t.k)
                                     * math.exp(float(t.a) * x * x) for t in raw))
                assert abs(evaluate(e, x) - oracle) <= 1e-12 * scale

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(20):
            e = rand_gexpr(rng)
            assert GExpr(e.terms) == e

    # c is checked before k, so a float c wins over a bad k
    @pytest.mark.parametrize("args", [(0.5, 0, F(0)), (0.5, -1, 0)])
    def test_rejects_float_coefficients(self, args):
        with pytest.raises(TypeError):
            GTerm(*args)

    def test_rejects_negative_half_degree(self):
        with pytest.raises(ValueError):
            GTerm(F(1), -1, F(0))

    def test_rejects_boolean_half_degree(self):
        with pytest.raises(ValueError):
            GTerm(1, True, 0)

    def test_as_rational_keeps_fractions_and_rejects_floats(self):
        q = F(-3, 7)
        assert algebra.as_rational(q) is q
        assert algebra.as_rational("3/4") == F(3, 4) and algebra.as_rational(2) == F(2)
        with pytest.raises(TypeError):
            algebra.as_rational(0.5)


class TestEvaluate:
    def test_constant(self):
        assert evaluate(GExpr((gterm(1, 0, 0),)), 7.0) == 1.0

    def test_decaying_gaussian(self):
        e = GExpr((gterm(1, 1, -1),))  # x^2 e^(-x^2)
        assert evaluate(e, 1.0) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_growing_gaussian(self):
        e = GExpr((gterm(1, 0, "1/2"),))  # e^(x^2/2)
        assert evaluate(e, 2.0) == pytest.approx(math.e ** 2, rel=1e-14)

    def test_zero_expression(self):
        assert evaluate(GExpr(), 3.0) == 0.0

    def test_at_origin(self):
        e = algebra.constant(2) + algebra.gaussian(1, c=1, k=2)
        assert evaluate(e, 0.0) == 2.0

    def test_overflow_is_reported(self):
        e = GExpr((gterm(1, 0, 1),))
        with pytest.raises(OverflowError):
            evaluate(e, 1e3)

    def test_no_false_overflow(self):
        # x^400 overflows a double at x = 1e3, the product with e^(-x^2)
        # underflows to 0
        assert evaluate(GExpr((gterm(1, 200, -1),)), 1e3) == 0.0
        # x^100 * 1e10 overflows silently to inf, times e^(-x^2) = 0 gives nan
        assert evaluate(GExpr((gterm(10 ** 10, 50, -1),)), 1e3) == 0.0
        # an enormous coefficient at the origin is a true overflow
        with pytest.raises(OverflowError):
            evaluate(algebra.constant(10 ** 400), 0.0)

    @pytest.mark.parametrize("terms, x", [
        ([(1, 200, -1)], 25.0),                       # ~5.5e287
        ([(3, 200, -1), (-2, 199, -1)], 25.0),        # two such terms, opposite signs
        ([(F(1, 7), 150, F(-1, 2)), (5, 0, 0)], 40.0),
    ])
    def test_log_space_sum_matches_decimal(self, terms, x):
        e = GExpr(tuple(gterm(c, k, a) for c, k, a in terms))
        with pytest.raises(OverflowError):  # the plain float loop overflows here
            sum(float(t.c) * x ** (2 * t.k) for t in e.terms)
        assert evaluate(e, x) == pytest.approx(decimal_value(e, x), rel=1e-11)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            evaluate(GExpr((gterm(1, 0, 0),)), -0.5)

    def test_cached_floats_give_the_per_term_float_sum_bit_for_bit(self):
        rng = random.Random(11)
        for _ in range(40):
            e = rand_gexpr(rng)
            for x in (0.0, 0.3, 1.0, 1.7, 2.5, 6.0):
                total = 0.0
                for t in e.terms:
                    total += float(t.c) * x ** (2 * t.k) * math.exp(float(t.a) * x * x)
                if sys.float_info.min <= abs(total) < math.inf:
                    # the public and the trusted constructor's expression
                    assert evaluate(e, x) == total
                    assert evaluate(tf.inverse(tf.forward(e)), x) == total


def decimal_value(e: GExpr, x: float) -> float:
    """e(x) summed in 60-digit decimal arithmetic from the exact term data."""
    with localcontext() as ctx:
        ctx.prec = 60
        xd = Decimal(x)
        return float(sum((Decimal(t.c.numerator) / t.c.denominator
                          * (xd ** (2 * t.k) if t.k else 1)
                          * (Decimal(t.a.numerator) / t.a.denominator * xd * xd).exp()
                          for t in e.terms), Decimal(0)))


def _terms():
    """One term of each type from the public constructors, the canonical
    rebuild and the trusted path."""
    return [
        GTerm(F(1, 2), 1, F(-1)),
        tf.STerm(F(1, 2), F(-1), 2),
        GExpr((gterm(1, 0, 0), gterm(2, 0, 0))).terms[0],
        tf.pole(1, F(1, 3), 2).terms[0],
        GExpr._trusted([(F(3), 2, F(1, 2))]).terms[0],
        tf.forward(algebra.gaussian("1/2")).terms[0],
    ]


class TestTermType:
    @pytest.mark.parametrize("term", _terms())
    def test_terms_have_no_instance_dict(self, term):
        assert not hasattr(term, "__dict__")

    @pytest.mark.parametrize("term", _terms())
    def test_fields_cannot_be_assigned(self, term):
        with pytest.raises(AttributeError):
            term.c = F(7)

    def test_trusted_and_public_terms_are_equal_and_of_one_type(self):
        pairs = [
            (GExpr._trusted([(F(3), 2, F(1, 2))]).terms[0], GTerm(3, 2, "1/2")),
            (tf.inverse(tf.pole(1, F(1, 2), 3)).terms[0], GTerm(1, 2, "1/2")),
            (tf.forward(algebra.gaussian("1/2")).terms[0], tf.STerm(F(1, 2), F(1, 2), 1)),
            (tf.partial_fractions([(F(1, 3), 2)]).terms[0], tf.STerm(1, F(1, 3), 2)),
        ]
        for trusted, public in pairs:
            assert trusted == public and type(trusted) is type(public)

    def test_expressions_of_equal_triples_differ_by_type(self):
        # terms are tuples, so GTerm(1, 1, 1) == STerm(1, 1, 1) == (1, 1, 1)
        g = GExpr((GTerm(1, 1, 1),))
        s = tf.SExpr((tf.STerm(1, 1, 1),))
        assert g != s and s != g
        assert GExpr._trusted([(F(1), 1, F(1))]) != tf.SExpr._trusted([(F(1), F(1), 1)])
        # both share one base, whose operations keep each operand's type
        assert isinstance(g, algebra._CanonicalSum) and isinstance(s, algebra._CanonicalSum)
        assert GExpr() != tf.SExpr()
        for op in (lambda e: e + e, lambda e: -e, lambda e: e - e, lambda e: algebra.scale(e, 2)):
            assert type(op(g)) is GExpr and type(op(s)) is tf.SExpr and op(g) != op(s)

    @pytest.mark.parametrize("cls, count", [(GTerm, "k"), (tf.STerm, "m")])
    def test_make_and_replace_validate(self, cls, count):
        term = cls(1, 0, 0)
        with pytest.raises(ValueError):
            term._replace(**{count: -1})
        with pytest.raises(TypeError):
            cls._make((0.5, 0, 0))
        replaced = term._replace(c="1/2")
        assert replaced == cls(F(1, 2), 0, 0) and type(replaced) is cls
        assert type(cls._make((1, 0, 0))) is cls

    @pytest.mark.parametrize("term", _terms())
    def test_pickle_and_deepcopy_round_trip(self, term):
        for copied in (pickle.loads(pickle.dumps(term)), copy.deepcopy(term)):
            assert copied == term and type(copied) is type(term)


class TestCanonicalSum:
    G = GExpr((GTerm(F(1, 2), 1, -1),))
    S = tf.SExpr((tf.STerm(-3, 5, 0), tf.STerm(F(1, 2), F(-1, 3), 2)))

    def test_repr_is_the_dataclass_repr(self):
        assert repr(self.G) == "GExpr(terms=(GTerm(c=Fraction(1, 2), k=1, a=Fraction(-1, 1)),))"
        assert repr(self.S) == ("SExpr(terms=(STerm(c=Fraction(1, 2), a=Fraction(-1, 3), m=2), "
                                "STerm(c=Fraction(-3, 1), a=Fraction(0, 1), m=0)))")

    @pytest.mark.parametrize("e", [G, S, GExpr(), tf.SExpr()])
    def test_hash_is_the_dataclass_hash(self, e):
        assert hash(e) == hash((e.terms,))
        assert hash(type(e)(e.terms)) == hash(e)

    @pytest.mark.parametrize("e", [G, S])
    def test_instances_are_frozen(self, e):
        with pytest.raises(AttributeError):
            e.terms = ()
        with pytest.raises(AttributeError):
            e.extra = 1
        assert e.terms and not hasattr(e, "extra")


class TestArithmetic:
    def test_multiply_adds_degrees(self):
        x2 = algebra.monomial(1, 1)
        gh = algebra.gaussian("1/2")
        assert x2 * gh == algebra.gaussian("1/2", c=1, k=1)

    def test_additive_inverse(self):
        rng = random.Random(3)
        e = rand_gexpr(rng)
        assert (e + algebra.scale(e, -1)).terms == ()

    def test_gaussian_rates_add(self):
        a = algebra.gaussian("1/3")
        b = algebra.gaussian("1/6")
        assert a * b == algebra.gaussian("1/2")

    def test_scale(self):
        e = algebra.monomial(3, 2)
        assert algebra.scale(e, F(1, 3)) == algebra.monomial(1, 2)


gterm_strategy = st.builds(
    GTerm,
    c=st.fractions(min_value=-4, max_value=4, max_denominator=6),
    k=st.integers(min_value=0, max_value=3),
    a=st.fractions(min_value=-2, max_value=1, max_denominator=6),
)
gexpr_strategy = st.lists(gterm_strategy, min_size=0, max_size=5).map(
    lambda ts: GExpr(tuple(ts))
)


sexpr_strategy = st.lists(
    st.builds(tf.STerm, c=st.fractions(min_value=-4, max_value=4, max_denominator=6),
              a=st.fractions(min_value=-2, max_value=1, max_denominator=6),
              m=st.integers(min_value=0, max_value=3)),  # m = 0: a sigma-constant, any a
    min_size=0, max_size=5).map(lambda ts: tf.SExpr(tuple(ts)))
scalars = st.one_of(st.sampled_from([0, 1, -1]),
                    st.fractions(min_value=-4, max_value=4, max_denominator=9))


def _structure(e):
    return type(e), [(t, type(t), tuple(map(type, t))) for t in e.terms]


@given(st.one_of(gexpr_strategy, sexpr_strategy), scalars)
@example(GExpr(), F(3))
@example(tf.SExpr(), 0)
@example(algebra.gaussian(1, c=2, k=1), 0)
@example(tf.constant(F(-2, 3)) + tf.pole(1, -1, 2), -1)
def test_scale_is_the_public_rebuild_property(e, c):
    # scale packs its terms unchecked; the public constructors re-merge them
    public = type(e)(tuple(t._replace(c=t.c * F(c)) for t in e.terms))
    assert _structure(algebra.scale(e, c)) == _structure(public)
    assert _structure(-e) == _structure(type(e)(tuple(t._replace(c=-t.c) for t in e.terms)))


@given(st.one_of(gexpr_strategy, sexpr_strategy))
def test_difference_with_itself_is_the_empty_sum_property(e):
    assert (e - e).terms == () and not e - e and e - e == type(e)()


@given(gexpr_strategy)
def test_canonicalize_idempotence_property(e):
    assert GExpr(e.terms) == e


@given(gexpr_strategy, gexpr_strategy, st.floats(min_value=0.0, max_value=4.0))
@settings(max_examples=80)
def test_pointwise_soundness_of_arithmetic(e1, e2, x):
    envelope = 1.0 + sum(
        abs(float(t.c)) * x ** (2 * t.k) * math.exp(float(t.a) * x * x)
        for t in e1.terms + e2.terms
    )
    assert abs(evaluate(e1 + e2, x) - (evaluate(e1, x) + evaluate(e2, x))) \
        <= 1e-12 * envelope
    prod_envelope = 1.0 + sum(
        abs(float(s.c) * float(t.c)) * x ** (2 * (s.k + t.k))
        * math.exp(float(s.a + t.a) * x * x)
        for s in e1.terms for t in e2.terms
    )
    assert abs(evaluate(e1 * e2, x) - evaluate(e1, x) * evaluate(e2, x)) \
        <= 1e-12 * prod_envelope


@given(gexpr_strategy, st.floats(min_value=0.0, max_value=4.0))
@settings(max_examples=150)
def test_evaluate_matches_decimal_property(e, x):
    # the bound evaluate documents: 1e-12 times the term-wise envelope
    envelope = sum(abs(float(t.c)) * x ** (2 * t.k) * math.exp(float(t.a) * x * x)
                   for t in e.terms)
    assert abs(evaluate(e, x) - decimal_value(e, x)) <= 1e-12 * envelope


class TestDeltaX:
    def test_monomial(self):
        assert delta_x(algebra.monomial(1, 1)) == algebra.constant(2)

    def test_constant_maps_to_zero(self):
        assert delta_x(algebra.constant(1)).terms == ()

    def test_gaussian_fixed_point(self):
        gh = algebra.gaussian("1/2")
        assert delta_x(gh) == gh

    def test_matches_finite_differences(self):
        # restricted battery keeps function values small enough that the
        # h = 1e-5 central difference is accurate to the 1e-6 tolerance
        rng = random.Random(99)
        h = 1e-5
        for _ in range(20):
            e = rand_gexpr(rng, max_terms=3, max_k=2, rate_lo=-1, rate_hi=0, coeff_hi=2)
            de = delta_x(e)
            for x in (0.5, 1.0, 2.0):
                fd = (evaluate(e, x + h) - evaluate(e, x - h)) / (2 * h * x)
                assert abs(evaluate(de, x) - fd) <= 1e-6

    def test_half_rate_battery(self):
        e = algebra.gaussian("1/2", c=2, k=1)
        h = 1e-5
        for x in (0.5, 1.0, 2.0):
            fd = (evaluate(e, x + h) - evaluate(e, x - h)) / (2 * h * x)
            assert abs(evaluate(delta_x(e), x) - fd) <= 1e-6


class TestLimitAtZero:
    def test_polynomial(self):
        e = algebra.constant(1) + algebra.monomial(1, 1)
        assert limit_at_zero(e) == 1

    def test_vanishing_term(self):
        assert limit_at_zero(algebra.gaussian(1, c=1, k=2)) == 0

    def test_mixed(self):
        e = algebra.gaussian(-1, c=3) + algebra.constant(2)
        assert limit_at_zero(e) == 5

    def test_agrees_with_small_argument_evaluation(self):
        rng = random.Random(5)
        for _ in range(30):
            e = rand_gexpr(rng, rate_lo=-2, rate_hi=2, coeff_hi=4)
            assert all(abs(t.a) <= 10 for t in e.terms)
            assert abs(float(limit_at_zero(e)) - evaluate(e, 1e-8)) <= 1e-7

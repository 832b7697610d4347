"""Exact arithmetic on the closed function algebra spanned by terms

    c * x**(2k) * exp(a * x**2)        (c, a rational, k a nonnegative integer)

on the half line [0, inf).  The class is closed under addition,
multiplication, the ring derivation delta_x = (1/x) d/dx, the transform,
and its convolution, which is what makes every identity in this package
checkable with exact rationals.  `LPoly` holds the PDE layer's exact
polynomials in t.

Scalars are `fractions.Fraction` throughout; floating point enters only in
:func:`evaluate`, `LPoly`'s float evaluations and the numeric oracle module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Union

RationalLike = Union[Fraction, int, str]

_NORMAL_MIN = sys.float_info.min  # the smallest positive normal double
_ZERO = Fraction(0)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints and strings like "3/4" to Fraction; a Fraction is returned as is.

    Floats are rejected: silently converting binary floats would smuggle
    rounding error into an algebra whose whole point is exactness.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("refusing to coerce float to exact rational; pass a Fraction, int, or 'p/q' string")
    return Fraction(value)


def _is_count(value, minimum: int) -> bool:
    """True for an int of at least `minimum`; a bool is not a count, though
    Python makes it an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


class GTerm(NamedTuple("GTermFields", [("c", Fraction), ("k", int), ("a", Fraction)])):
    """One term c * x**(2k) * exp(a * x**2) as the tuple (c, k, a): the
    constructor coerces c, then a, and checks k.  A term equals any tuple of
    its values, so expressions compare by type and sort by an (a, k) key."""

    __slots__ = ()

    def __new__(cls, c: RationalLike, k: int, a: RationalLike):
        c, a = as_rational(c), as_rational(a)
        if not _is_count(k, 0):
            raise ValueError(f"half-degree k must be a nonnegative integer, got {k!r}")
        return tuple.__new__(cls, (c, k, a))

    @classmethod
    def _make(cls, iterable) -> "GTerm":
        """A validated term from (c, k, a); `_replace` builds through this."""
        return cls(*iterable)


@dataclass(frozen=True)
class _CanonicalSum:
    """Canonical finite sum of terms of type `_term`: like terms merged,
    sorted by the key that `_keyed` pairs with each coefficient, zeros
    dropped; `_rebuilt` turns (key, c) pairs back into term fields.  The
    zero is the empty sum.  Instances are immutable and thread-safe."""

    terms: tuple = ()

    def __post_init__(self):
        merged: dict[tuple, Fraction] = {}
        for key, c in self._keyed(self.terms):
            merged[key] = merged.get(key, _ZERO) + c
        term, kept = self._term, self._rebuilt((key, c) for key, c in sorted(merged.items()) if c)
        self.__dict__["terms"] = tuple([tuple.__new__(term, t) for t in kept])

    @classmethod
    def _trusted(cls, terms: Iterable[tuple]):
        """Sum of field triples already as __post_init__ would leave them (c
        a nonzero Fraction, each field of its type, keys strictly ascending,
        a sigma-constant's a = 0), built without its coercion and re-merge."""
        out, term = object.__new__(cls), cls._term
        out.__dict__["terms"] = tuple([tuple.__new__(term, t) for t in terms])
        return out

    def __add__(self, other):
        return type(self)(self.terms + other.terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return scale(self, Fraction(-1))

    def __bool__(self) -> bool:
        return bool(self.terms)


@dataclass(frozen=True)
class GExpr(_CanonicalSum):
    """Canonical finite sum of GTerms, sorted by (a, k)."""

    terms: tuple[GTerm, ...] = ()
    _term = GTerm

    @staticmethod
    def _keyed(terms):
        return [((t.a, t.k), t.c) for t in terms]

    @staticmethod
    def _rebuilt(items):
        return [(c, k, a) for (a, k), c in items]

    def __mul__(self, other: "GExpr") -> "GExpr":
        return multiply(self, other)

    def max_rate(self) -> Fraction:
        """Largest Gaussian rate a; 0 for the zero expression."""
        return max((t.a for t in self.terms), default=Fraction(0))

    @cached_property
    def _float_terms(self) -> tuple[tuple[float, int, float], ...]:
        """(float(c), 2k, float(a)) per term, for evaluate's fast path."""
        return tuple((float(t.c), 2 * t.k, float(t.a)) for t in self.terms)


def constant(c: RationalLike) -> GExpr:
    return GExpr((GTerm(c, 0, 0),))


def monomial(c: RationalLike, k: int) -> GExpr:
    """c * x**(2k)."""
    return GExpr((GTerm(c, k, 0),))


def gaussian(a: RationalLike, c: RationalLike = 1, k: int = 0) -> GExpr:
    """c * x**(2k) * exp(a x**2)."""
    return GExpr((GTerm(c, k, a),))


def scale(e: _CanonicalSum, c: RationalLike) -> _CanonicalSum:
    """c times e, of e's type; nonzero c keeps e's terms canonical."""
    c = as_rational(c)
    return e._trusted([(tc * c, x, y) for tc, x, y in e.terms] if c else ())


def multiply(e1: GExpr, e2: GExpr) -> GExpr:
    """Exact product; degrees and Gaussian rates add term by term."""
    out = []
    for s in e1.terms:
        for t in e2.terms:
            out.append(GTerm(s.c * t.c, s.k + t.k, s.a + t.a))
    return GExpr(tuple(out))


def evaluate(e: GExpr, x: float) -> float:
    """Floating-point value of e at x >= 0, within 1e-12 times the term-wise
    envelope sum(|c| x^(2k) e^(a x^2)) of the exact value.

    The plain float sum runs first.  Only when one of its terms leaves the
    double range (an OverflowError, or a sum that is not finite) is the sum
    redone term-wise in log space, sign * exp(log|c| + 2k log x + a x^2),
    so that OverflowError, the documented overflow report, is raised only
    when the value itself leaves the double range.  A sum below the normal
    range, where doubles lose relative precision, is redone exactly from the
    terms' float exponentials and rounded once.
    """
    if x < 0:
        raise ValueError("the algebra lives on [0, inf)")
    try:
        total = 0.0
        for c, k2, a in e._float_terms:
            total += c * x ** k2 * math.exp(a * x * x)
        if _NORMAL_MIN <= abs(total) < math.inf:
            return total
        if abs(total) < _NORMAL_MIN:
            return float(sum((t.c * Fraction(x) ** (2 * t.k) * Fraction(math.exp(float(t.a) * x * x))
                              for t in e.terms), Fraction(0)))
    except OverflowError:
        pass
    if x == 0:
        return float(limit_at_zero(e))
    return signed_exp_sum(zip((1 if t.c > 0 else -1 for t in e.terms), _term_logs(e, x)))


def signed_exp_sum(terms: Iterable[tuple[float, float]]) -> float:
    """sum(sign * exp(log)) over (sign, log) pairs, summed with fsum after
    scaling by the largest log, so that terms beyond the double range may
    cancel and OverflowError is raised only when the sum itself leaves it."""
    terms = list(terms)
    top = max(v for _, v in terms)
    scaled = math.fsum(sign * math.exp(v - top) for sign, v in terms)
    return math.copysign(math.exp(math.log(abs(scaled)) + top), scaled) if scaled else 0.0


def delta_x(e: GExpr) -> GExpr:
    """Image under (1/x) d/dx.

    Term rule: c x**(2k) e^(a x^2)  ->  2k c x**(2k-2) e^(a x^2)
                                        + 2a c x**(2k) e^(a x^2).
    The algebra is closed: the k = 0 part of the first piece vanishes.
    """
    out = []
    for t in e.terms:
        if t.k >= 1:
            out.append(GTerm(2 * t.k * t.c, t.k - 1, t.a))
        if t.a != 0:
            out.append(GTerm(2 * t.a * t.c, t.k, t.a))
    return GExpr(tuple(out))


def limit_at_zero(e: GExpr) -> Fraction:
    """lim_{x -> 0+} e(x); only k = 0 terms survive."""
    return sum((t.c for t in e.terms if t.k == 0), Fraction(0))


def _term_logs(e: GExpr, x: float) -> list[float]:
    """log of |c| x^(2k) e^(a x^2) for every term at x > 0, also where c or
    the term is beyond the double range."""
    return [
        math.log(abs(t.c.numerator)) - math.log(t.c.denominator)
        + 2 * t.k * math.log(x) + float(t.a) * x * x
        for t in e.terms
    ]


@dataclass(frozen=True)
class LPoly:
    """Polynomial in t with rational coefficients, stored sparsely as
    (degree, coefficient) pairs; zero coefficients are never kept."""

    coefficients: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self):
        merged: dict[int, Fraction] = {}
        for deg, c in self.coefficients:
            if not _is_count(deg, 0):
                raise ValueError(f"degree must be a nonnegative integer, got {deg!r}")
            merged[deg] = merged.get(deg, Fraction(0)) + as_rational(c)
        canon = tuple((d, c) for d, c in sorted(merged.items()) if c != 0)
        object.__setattr__(self, "coefficients", canon)

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def antiderivative(self) -> "LPoly":
        """The antiderivative vanishing at t = 0."""
        return LPoly(tuple((d + 1, c / (d + 1)) for d, c in self.coefficients))

    @cached_property
    def _float_coefficients(self) -> tuple[tuple[int, float], ...]:
        return tuple((d, float(c)) for d, c in self.coefficients)

    def evaluate(self, t: float) -> float:
        return sum(c * t ** d for d, c in self._float_coefficients)

    def evaluate_exact(self, t: Fraction) -> Fraction:
        t = as_rational(t)
        return sum((c * t ** d for d, c in self.coefficients), Fraction(0))

    def abs_coeff_bound(self, t_hi: float) -> float:
        """sum |c_d| t_hi**d, a bound for |p(t)| on [0, t_hi] (t_hi >= 0)."""
        return sum(abs(c) * t_hi ** d for d, c in self._float_coefficients)


def lpoly(mapping: Mapping[int, RationalLike]) -> LPoly:
    return LPoly(tuple((d, as_rational(c)) for d, c in mapping.items()))

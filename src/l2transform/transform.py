"""Exact forward and inverse transform between the function algebra and
rational expressions in sigma = s**2.

The transform of c * x**(2k) * exp(a x^2) is c * k!/2 * (sigma - a)**-(k+1),
valid on sigma > a.  Transform-domain expressions are finite sums of terms
c * (sigma - a)**(-m); the m = 0 case is a sigma-constant ("formal unit
impulse" content), which arises from the derivation identity and has no
function-valued inverse.

All arithmetic is exact.  Every product (convolution, star power, partial
fractions) goes through :func:`_product`, which reads the principal part at
each pole off the product of the factors' truncated Laurent series there.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from fractions import Fraction
from typing import Iterable, Optional

from .algebra import GExpr, GTerm, RationalLike, as_rational
from .errors import ImpulseContentError


@dataclass(frozen=True)
class STerm:
    """One term c * (sigma - a)**(-m); m = 0 encodes the constant c."""

    c: Fraction
    a: Fraction
    m: int

    def __post_init__(self):
        object.__setattr__(self, "c", as_rational(self.c))
        object.__setattr__(self, "a", as_rational(self.a))
        if not isinstance(self.m, int) or self.m < 0:
            raise ValueError(f"multiplicity m must be a nonnegative integer, got {self.m!r}")


@dataclass(frozen=True)
class SExpr:
    """Canonical transform-domain expression.

    Terms are sorted by (a, m), like terms merged, zeros dropped.  Constant
    (m = 0) terms have their pole slot normalized to a = 0 so constants
    compare equal regardless of how they were produced.

    `region` records the validity half-line sigma > region for expressions
    produced by the forward transform; arithmetic keeps the max of the
    operands.  It is metadata and excluded from equality.
    """

    terms: tuple[STerm, ...] = ()
    region: Optional[Fraction] = field(default=None, compare=False)

    def __post_init__(self):
        merged: dict[tuple[Fraction, int], Fraction] = {}
        for t in self.terms:
            key = (Fraction(0) if t.m == 0 else t.a, t.m)
            merged[key] = merged.get(key, Fraction(0)) + t.c
        canon = tuple(
            STerm(c, a, m)
            for (a, m), c in sorted(merged.items())
            if c != 0
        )
        object.__setattr__(self, "terms", canon)

    def __add__(self, other: "SExpr") -> "SExpr":
        return add(self, other)

    def __sub__(self, other: "SExpr") -> "SExpr":
        return add(self, scale(other, Fraction(-1)))

    def __neg__(self) -> "SExpr":
        return scale(self, Fraction(-1))

    def __mul__(self, other: "SExpr") -> "SExpr":
        return multiply(self, other)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_proper(self) -> bool:
        """True when every term has m >= 1 (no constant content)."""
        return all(t.m >= 1 for t in self.terms)


def _region(exprs: Iterable[SExpr]) -> Optional[Fraction]:
    """Max of the operands' regions; None when no operand has one."""
    return max((s.region for s in exprs if s.region is not None), default=None)


def constant(c: RationalLike) -> SExpr:
    return SExpr((STerm(as_rational(c), Fraction(0), 0),))


def pole(c: RationalLike, a: RationalLike, m: int) -> SExpr:
    return SExpr((STerm(as_rational(c), as_rational(a), m),))


def add(s1: SExpr, s2: SExpr) -> SExpr:
    return SExpr(s1.terms + s2.terms, region=_region((s1, s2)))


def scale(s: SExpr, c: RationalLike) -> SExpr:
    c = as_rational(c)
    return SExpr(tuple(STerm(t.c * c, t.a, t.m) for t in s.terms), region=s.region)


def forward(e: GExpr) -> SExpr:
    """Transform of a function-algebra element.

    Term rule: c x**(2k) e^(a x^2)  ->  c * k!/2 * (sigma - a)**-(k+1).
    The result is valid on sigma > max a, recorded in `region`.
    """
    terms = tuple(
        STerm(t.c * math.factorial(t.k) / 2, t.a, t.k + 1)
        for t in e.terms
    )
    region = e.max_rate() if e.terms else None
    return SExpr(terms, region=region)


def inverse(s: SExpr) -> GExpr:
    """Function-algebra preimage; exact inverse of :func:`forward`.

    Term rule: c (sigma - a)**(-m)  ->  2c x**(2(m-1)) e^(a x^2) / (m-1)!.
    Constant (m = 0) content has no function inverse and raises.
    """
    bad = [t for t in s.terms if t.m == 0]
    if bad:
        raise ImpulseContentError(
            f"sigma-constant content {bad[0].c} has no function-valued inverse"
        )
    return GExpr(tuple(
        GTerm(2 * t.c / math.factorial(t.m - 1), t.m - 1, t.a)
        for t in s.terms
    ))


def delta_s(s: SExpr) -> SExpr:
    """(1/s) d/ds = 2 d/dsigma; constants map to zero.

    Term rule: c (sigma - a)**(-m)  ->  -2 m c (sigma - a)**-(m+1).
    """
    return SExpr(
        tuple(STerm(-2 * t.m * t.c, t.a, t.m + 1) for t in s.terms if t.m >= 1),
        region=s.region,
    )


def mul_sigma(s: SExpr) -> SExpr:
    """Multiply by sigma, using sigma (sigma-a)^-m = (sigma-a)^-(m-1) + a (sigma-a)^-m.

    Requires a proper input: sigma times a constant would be a positive
    power of sigma, which this representation cannot hold.
    """
    out = []
    for t in s.terms:
        if t.m == 0:
            raise ValueError(
                "sigma * constant leaves the representable class; input must be proper"
            )
        out.append(STerm(t.c, t.a, t.m - 1))
        out.append(STerm(t.a * t.c, t.a, t.m))
    return SExpr(tuple(out), region=s.region)


def _laurent_factor(s: SExpr, a: Fraction, shift: int, n: int) -> list:
    """Taylor coefficients, up to u**(n-1), of u**shift * s(a + u), where
    shift is at least s's highest multiplicity at a; zeros are int 0 (cheaper
    to test and add than Fraction(0)).  Terms at a and sigma-constants shift
    into place; c (sigma - b)**(-m) is c (u + d)**(-m) with d = a - b = p/q,
    whose coefficient j is c (-1)**j C(m+j-1, j) q**(m+j) / p**(m+j).
    """
    series = [0] * n
    for t in s.terms:
        if t.m and t.a != a:
            d = a - t.a
            num, den = t.c.numerator * d.denominator ** t.m, t.c.denominator * d.numerator ** t.m
            for j in range(n - shift):
                v = Fraction(num * math.comb(t.m + j - 1, j), den)
                series[shift + j] = series[shift + j] + v if series[shift + j] else v
                num, den = -num * d.denominator, den * d.numerator
        elif shift - t.m < n:
            k = shift - t.m
            series[k] = series[k] + t.c if series[k] else t.c
    return series


def _truncated_product(p: list, q: list) -> list:
    """Product of two power series to as many terms as p, skipping zeros."""
    out = [0] * len(p)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q[:len(p) - i]):
                if y:
                    v = x * y
                    out[i + j] = out[i + j] + v if out[i + j] else v
    return out


def _product(factors: list[SExpr]) -> SExpr:
    """Exact product of transform-domain expressions in canonical form.

    At each pole a of total order N (the sum of the factors' highest
    multiplicities M there), (sigma - a)**N times the product is the product
    of the factors' series u**M s(a + u), u = sigma - a: its coefficient j is
    that of (sigma - a)**(-(N - j)).  Constants multiply as they are.
    """
    # terms are sorted by (a, m), so the last one at a has the highest m
    orders = [{t.a: t.m for t in s.terms if t.m} for s in factors]
    total: Counter[Fraction] = Counter()
    for order in orders:
        total.update(order)
    const = math.prod(next((t.c for t in s.terms if t.m == 0), 0) for s in factors)
    out = [STerm(const, 0, 0)] if const else []
    for a, n in total.items():
        series = reduce(_truncated_product, (_laurent_factor(s, a, order.get(a, 0), n)
                                             for s, order in zip(factors, orders)))
        out.extend(STerm(c, a, n - j) for j, c in enumerate(series) if c)
    return SExpr(tuple(out), region=_region(factors))


def partial_fractions(factors: Iterable[tuple[RationalLike, int]]) -> SExpr:
    """Partial-fraction form of 1 / prod (sigma - a_i)**(m_i), repeats added."""
    poles = []
    for a, m in factors:
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"factor multiplicity must be a positive integer, got {m!r}")
        poles.append(pole(1, a, m))
    return _product(poles)


def multiply(s1: SExpr, s2: SExpr) -> SExpr:
    """Exact product, re-expressed in canonical partial-fraction form."""
    return _product([s1, s2])


def power(s: SExpr, n: int) -> SExpr:
    """n-th product power, n >= 1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"power expects a positive integer, got {n!r}")
    return _product([s] * n)


def evaluate_at(s: SExpr, sigma: float) -> float:
    """Floating-point value at a sigma off every pole."""
    total = 0.0
    for t in s.terms:
        if t.m == 0:
            total += float(t.c)
        else:
            total += float(t.c) / (sigma - float(t.a)) ** t.m
    return total

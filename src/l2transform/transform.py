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
Each series is kept as integer numerators over one common denominator, so
the series products are integer arithmetic and each emitted coefficient is
a single Fraction (the common-denominator technique of Knuth, TAOCP vol. 2,
4.5.1).  Every term, one-term factors' included, is read once as integers,
and its offset from a pole is an integer cross-multiplication, so no
Fraction is built or compared at a pole.  A power raises its base's series
by the power recurrence (ibid., 4.7), O(L**2) per pole for a series of
length L instead of n - 1 products.

Terms are validated tuples, and the public constructors canonicalize
whatever they are given.  `_trusted`, one classmethod of `SExpr`'s and
`GExpr`'s common base in `algebra`, skips both for output that is
canonical by construction (Fraction fields, nonzero coefficients, keys
strictly ascending): `tuple.__new__` packs each triple, the one unchecked
term path.  Only `_product`, `forward`, `inverse`, `delta_s`,
`partial_fractions`, `scale` (so also unary minus) and
`pde.SeriesSolution`'s profile builder and fold use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from fractions import Fraction
from typing import Iterable, NamedTuple

from .algebra import GExpr, RationalLike, _CanonicalSum, _ZERO, _is_count, as_rational
from .algebra import scale  # noqa: F401  (one scale for both sums)
from .errors import ImpulseContentError


class STerm(NamedTuple("STermFields", [("c", Fraction), ("a", Fraction), ("m", int)])):
    """One term c * (sigma - a)**(-m), a (c, a, m) tuple; m = 0 encodes the
    constant c.  Validated like GTerm: c, then a, then m."""

    __slots__ = ()

    def __new__(cls, c: RationalLike, a: RationalLike, m: int):
        c, a = as_rational(c), as_rational(a)
        if not _is_count(m, 0):
            raise ValueError(f"multiplicity m must be a nonnegative integer, got {m!r}")
        return tuple.__new__(cls, (c, a, m))

    @classmethod
    def _make(cls, iterable) -> "STerm":
        """A validated term from (c, a, m); `_replace` builds through this."""
        return cls(*iterable)


@dataclass(frozen=True)
class SExpr(_CanonicalSum):
    """Canonical transform-domain expression, sorted by (a, m).  Constant
    (m = 0) terms have their pole slot normalized to a = 0 so constants
    compare equal regardless of how they were produced.
    """

    terms: tuple[STerm, ...] = ()
    _term = STerm

    @staticmethod
    def _keyed(terms):
        return [((t.a if t.m else _ZERO, t.m), t.c) for t in terms]

    @staticmethod
    def _rebuilt(items):
        return [(c, a, m) for (a, m), c in items]

    def __mul__(self, other: "SExpr") -> "SExpr":
        return multiply(self, other)

    def is_proper(self) -> bool:
        """True when every term has m >= 1 (no constant content)."""
        return all(t.m >= 1 for t in self.terms)


def constant(c: RationalLike) -> SExpr:
    return SExpr((STerm(c, 0, 0),))


def pole(c: RationalLike, a: RationalLike, m: int) -> SExpr:
    return SExpr((STerm(c, a, m),))


def forward(e: GExpr) -> SExpr:
    """Transform of a function-algebra element.

    Term rule: c x**(2k) e^(a x^2)  ->  c * k!/2 * (sigma - a)**-(k+1).
    The result is valid on sigma > max a.
    """
    return SExpr._trusted((Fraction(c.numerator * math.factorial(k), 2 * c.denominator), a, k + 1)
                          for c, k, a in e.terms)


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
    return GExpr._trusted(
        (Fraction(2 * c.numerator, c.denominator * math.factorial(m - 1)), m - 1, a)
        for c, a, m in s.terms)


def delta_s(s: SExpr) -> SExpr:
    """(1/s) d/ds = 2 d/dsigma; constants map to zero.

    Term rule: c (sigma - a)**(-m)  ->  -2 m c (sigma - a)**-(m+1).
    """
    return SExpr._trusted((-2 * t.m * t.c, t.a, t.m + 1) for t in s.terms if t.m >= 1)


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
    return SExpr(tuple(out))


def _laurent_series(terms: list[tuple[int, int, int, int, int]], an: int, ad: int,
                    n: int) -> tuple[list[int], int]:
    """Taylor coefficients, up to u**(n-1), of u**shift * s(a + u), where
    a = an/ad and shift is s's highest multiplicity at a (0 if a is not a
    pole of s), as integer numerators over one positive common denominator:
    (numerators, denominator).  s is given by its terms read as integers,
    (c numerator, c denominator, b numerator, b denominator, m) for
    c (sigma - b)**(-m); n is at least shift.

    Terms at a and sigma-constants shift into place; c (sigma - b)**(-m) is
    c (u + d)**(-m) with d = a - b = p/q in lowest terms.  Writing
    1/d = g/f with f = |p| > 0, its coefficient j is
    c (g/f)**m C(m+j-1, j) (-g/f)**j, so every one of them sits over c's
    denominator times f**(m + n - shift - 1).
    """
    near, far, shift = [], [], 0
    for cn, cd, bn, bd, m in terms:
        p = an * bd - bn * ad
        if m and p:
            q = ad * bd
            g = math.gcd(p, q)
            far.append((cn, cd, p // g, q // g, m))
        else:
            near.append((cn, cd, m))
            shift = max(shift, m)
    # (denominator, index of the first coefficient, numerators)
    parts = [(cd, shift - m, [cn]) for cn, cd, m in near if shift - m < n]
    length = n - shift
    for cn, cd, p, q, m in far:
        f, g = (p, q) if p > 0 else (-p, -q)
        num, nums = cn * g ** m, []
        for j in range(length):
            nums.append(num * math.comb(m + j - 1, j) * f ** (length - 1 - j))
            num *= -g
        parts.append((cd * f ** (m + length - 1), shift, nums))
    if len(parts) == 1:  # a one-term factor
        den, start, nums = parts[0]
        return [0] * start + nums + [0] * (n - start - len(nums)), den
    den = math.lcm(*[part[0] for part in parts])
    series = [0] * n
    for part_den, start, nums in parts:
        scale = den // part_den
        for k, num in enumerate(nums, start):
            series[k] += num * scale
    return series, den


def _truncated_product(left: tuple[list[int], int],
                       right: tuple[list[int], int]) -> tuple[list[int], int]:
    """Product of two power series given as (integer numerators, denominator),
    to as many terms as the left one, skipping zeros."""
    (p, p_den), (q, q_den) = left, right
    out = [0] * len(p)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q[:len(p) - i], i):
                if y:
                    out[j] += x * y
    return out, p_den * q_den


def _series_power(series: tuple[list[int], int], e: int) -> tuple[list[int], int]:
    """The e-th power of a power series given as (integer numerators V,
    denominator), to as many terms, by the power recurrence (Knuth, TAOCP
    vol. 2, 4.7): W_0 = V_0**e and k V_0 W_k = sum_(j=1..k) ((e+1) j - k)
    V_j W_(k-j).  W is V**e as an integer polynomial, so every division is
    exact, and L terms cost O(L**2) whatever e.  Needs V_0 != 0."""
    v, den = series
    w = [v[0] ** e]
    for k in range(1, len(v)):
        w.append(sum([((e + 1) * j - k) * v[j] * w[k - j] for j in range(1, k + 1) if v[j]])
                 // (k * v[0]))
    return w, den ** e


def _product(factors: list[SExpr], exponent: int = 1) -> SExpr:
    """Exact product of transform-domain expressions in canonical form,
    raised to `exponent`.  A power passes its base alone: its series at each
    of its poles starts with its top term's nonzero coefficient, so
    :func:`_series_power` raises it in O(L**2), not exponent - 1 products.

    At each pole a of total order N (the sum of the factors' highest
    multiplicities M there), (sigma - a)**N times the product is the product
    of the factors' series u**M s(a + u), u = sigma - a: its coefficient j is
    that of (sigma - a)**(-(N - j)).  Every term is read once as integers,
    and each series is integer numerators over one denominator, so all the
    arithmetic at a pole is on integers and every emitted coefficient is one
    Fraction.  Constants multiply as they are.  Terms are emitted in
    canonical order, poles ascending and m ascending within each, the
    constant in its (0, 0) slot.
    """
    total: dict[Fraction, int] = {}
    for s in factors:
        # terms are sorted by (a, m), so the last one at a has the highest m
        for a, m in {t.a: t.m for t in s.terms if t.m}.items():
            total[a] = total.get(a, 0) + exponent * m
    consts = [t.c for s in factors for t in s.terms if not t.m]  # at most one per factor
    const = math.prod(consts, start=Fraction(1)) ** exponent if len(consts) == len(factors) else 0
    terms = [[(c.numerator, c.denominator, b.numerator, b.denominator, m) for c, b, m in s.terms]
             for s in factors]
    out = []
    for a, n in sorted(total.items()):
        if const and a >= 0:
            out.append((const, Fraction(0), 0))
            const = 0
        an, ad = a.numerator, a.denominator
        series = reduce(_truncated_product, [_laurent_series(ts, an, ad, n) for ts in terms])
        series, den = _series_power(series, exponent) if exponent > 1 else series
        out.extend((Fraction(series[j], den), a, n - j) for j in reversed(range(n)) if series[j])
    if const:
        out.append((const, Fraction(0), 0))
    return SExpr._trusted(out)


def partial_fractions(factors: Iterable[tuple[RationalLike, int]]) -> SExpr:
    """Partial-fraction form of 1 / prod (sigma - a_i)**(m_i), repeats added."""
    poles = []
    for a, m in factors:
        if not _is_count(m, 1):
            raise ValueError(f"factor multiplicity must be a positive integer, got {m!r}")
        poles.append(SExpr._trusted(((Fraction(1), as_rational(a), m),)))
    return _product(poles)


def multiply(s1: SExpr, s2: SExpr) -> SExpr:
    """Exact product, re-expressed in canonical partial-fraction form."""
    return _product([s1, s2])


def power(s: SExpr, n: int) -> SExpr:
    """n-th product power, n >= 1."""
    if not _is_count(n, 1):
        raise ValueError(f"power expects a positive integer, got {n!r}")
    return _product([s], n)


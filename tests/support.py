"""Shared test helpers: seeded random expression generators, an
independent dense-polynomial oracle for recombining partial fractions,
float evaluators used only as oracles, a slow finite-difference reference
for the residual harness, the slow transform-domain route to the section-6
profiles with an eager total-order fold, the environment for CLI
subprocesses, and the reference for transform-domain products: every
factor's Laurent series in Fraction arithmetic, multiplied and raised by
the package's own integer series product and power recurrence.

The polynomial helpers deliberately know nothing about the package's
transform module; they manipulate plain coefficient lists of Fractions so
recombination checks stay an independent route.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from pathlib import Path

import l2transform
from l2transform import GExpr, GTerm, algebra, evaluate
from l2transform import transform as tf
from l2transform.algebra import _term_logs
from l2transform.pde import FD_STEP, PDEProblem
from l2transform.transform import SExpr


def child_env() -> dict[str, str]:
    """Environment for a child Python that imports the same l2transform
    package as this test process, whatever the child's working directory:
    the directory holding that package goes first on PYTHONPATH."""
    env = dict(os.environ)
    root = str(Path(l2transform.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def rand_fraction(rng: random.Random, lo: int = -4, hi: int = 4,
                  max_den: int = 8, nonzero: bool = False) -> Fraction:
    while True:
        den = rng.randint(1, max_den)
        num = rng.randint(lo * den, hi * den)
        f = Fraction(num, den)
        if not nonzero or f != 0:
            return f


def rand_gexpr(rng: random.Random, max_terms: int = 4, max_k: int = 3,
               rate_lo: int = -2, rate_hi: int = 1, coeff_hi: int = 4) -> GExpr:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        c = rand_fraction(rng, -coeff_hi, coeff_hi, nonzero=True)
        k = rng.randint(0, max_k)
        a = rand_fraction(rng, rate_lo, rate_hi)
        terms.append(GTerm(c, k, a))
    return GExpr(tuple(terms))


# --- dense polynomials over Fraction, ascending coefficient order ---------


def poly_add(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_pow(p: list[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(n):
        out = poly_mul(out, p)
    return out


def exponential_series_identity(ratio: algebra.LPoly, depth: int) -> bool:
    """Exact check, in rational data only, that the derived transform-domain
    candidates of families B and C satisfy their ODE through order depth N.

    With F the antiderivative of the ratio f and e_n = (-F)^n / n!, both
    reduce to e_(n+1)' + f e_n = 0 for n < N, coefficient by coefficient,
    leaving only the boundary coefficient f e_N = (-1)^N f F^N / N!.  For B
    the candidate is V = sum_n e_n / 2^(n+1) sigma^-(n+1) of
    2 sigma V_t + M V = 0, whose sigma^-(n+1) coefficient is that recursion
    over 2^(n+1); for C it is sum_n e_n w^n, w = (2 sigma - 1)^-1, of
    H u_hat + (2 sigma - 1) u_hat_t = 0, whose w^n coefficient it is."""
    def dense(p: algebra.LPoly) -> list[Fraction]:
        out = [Fraction(0)] * (max((d for d, _ in p.coefficients), default=0) + 1)
        for d, c in p.coefficients:
            out[d] = c
        return out

    f, anti = dense(ratio), dense(ratio.antiderivative())
    e = [[c / math.factorial(n) for c in poly_pow([-c for c in anti], n)] for n in range(depth + 1)]
    for n in range(depth):
        derivative = [d * c for d, c in enumerate(e[n + 1])][1:] or [Fraction(0)]
        if poly_add(poly_mul(f, e[n]), derivative) != [0]:
            return False
    boundary = Fraction((-1) ** depth, math.factorial(depth))
    return poly_mul(f, e[depth]) == [boundary * c for c in poly_mul(f, poly_pow(anti, depth))]


def linear_factor(a: Fraction) -> list[Fraction]:
    """sigma - a."""
    return [-Fraction(a), Fraction(1)]


def sexpr_as_rational(s: SExpr) -> tuple[list[Fraction], list[Fraction]]:
    """(numerator, denominator) of an SExpr as one rational function in
    sigma over prod (sigma - a)**M, M the highest multiplicity at a: the
    terms at a sum by Horner's rule in sigma - a, times the other poles'
    factors.  (Plain fraction addition term by term gives the same function
    over a denominator of degree sum m, too slow for high powers.)"""
    coeffs: dict[Fraction, dict[int, Fraction]] = {}
    for t in s.terms:
        coeffs.setdefault(t.a, {})[t.m] = t.c
    factors = {a: poly_pow(linear_factor(a), max(at)) for a, at in coeffs.items()}
    num, den = [Fraction(0)], [Fraction(1)]
    for a, at in coeffs.items():
        local = [Fraction(0)]
        for m in range(max(at) + 1):
            local = poly_add(poly_mul(local, linear_factor(a)), [at.get(m, Fraction(0))])
        for b, factor in factors.items():
            if b != a:
                local = poly_mul(local, factor)
        num, den = poly_add(num, local), poly_mul(den, factors[a])
    return num, den


def rational_equal(s1: SExpr, s2: SExpr) -> bool:
    """Equality of SExprs as rational functions (cross-multiplication)."""
    n1, d1 = sexpr_as_rational(s1)
    n2, d2 = sexpr_as_rational(s2)
    return poly_mul(n1, d2) == poly_mul(n2, d1)


def equals_product(s: SExpr, factors: list[SExpr]) -> bool:
    """True iff s equals the product of the factors as a rational function
    (cross-multiplication against the product of their numerators and
    denominators)."""
    num, den = [Fraction(1)], [Fraction(1)]
    for f in factors:
        f_num, f_den = sexpr_as_rational(f)
        num, den = poly_mul(num, f_num), poly_mul(den, f_den)
    s_num, s_den = sexpr_as_rational(s)
    return poly_mul(s_num, den) == poly_mul(num, s_den)


def recombines_to_one(s: SExpr, factors: list[tuple[Fraction, int]]) -> bool:
    """True iff s equals 1 / prod (sigma - a)**m as a rational function."""
    num, den = sexpr_as_rational(s)
    common = [Fraction(1)]
    for a, m in factors:
        common = poly_mul(common, poly_pow(linear_factor(Fraction(a)), m))
    return poly_mul(num, common) == den


# --- the product path before terms were read as integers


def laurent_factor(s: SExpr, a: Fraction, n: int) -> tuple[list[int], int]:
    """Taylor coefficients, up to u**(n-1), of u**shift * s(a + u), where
    shift is s's highest multiplicity at a (0 if a is not a pole of s), as
    integer numerators over one positive common denominator: (numerators,
    denominator).  n is at least shift.  Each term's offset a - b is
    computed, compared and split as a Fraction.

    Terms at a and sigma-constants shift into place; c (sigma - b)**(-m) is
    c (u + d)**(-m) with d = a - b = p/q.  Writing 1/d = g/f with f = |p| > 0,
    its coefficient j is c (g/f)**m C(m+j-1, j) (-g/f)**j, so every one of
    them sits over c's denominator times f**(m + n - shift - 1).
    """
    near, far = [], []
    for t in s.terms:
        (far if t.m and t.a != a else near).append(t)
    shift = max((t.m for t in near), default=0)
    # (denominator, index of the first coefficient, numerators)
    parts = [(t.c.denominator, shift - t.m, [t.c.numerator]) for t in near if shift - t.m < n]
    length = n - shift
    for t in far:
        d = a - t.a
        f, g = abs(d.numerator), d.denominator if d.numerator > 0 else -d.denominator
        num, nums = t.c.numerator * g ** t.m, []
        for j in range(length):
            nums.append(num * math.comb(t.m + j - 1, j) * f ** (length - 1 - j))
            num *= -g
        parts.append((t.c.denominator * f ** (t.m + length - 1), shift, nums))
    den = math.lcm(*(part[0] for part in parts))
    series = [0] * n
    for part_den, start, nums in parts:
        scale = den // part_den
        for k, num in enumerate(nums, start):
            series[k] += num * scale
    return series, den


def reference_product(factors: list[SExpr], exponent: int = 1) -> SExpr:
    """The product by one route for every factor: each factor's Laurent
    series at each pole by :func:`laurent_factor`, in Fraction arithmetic,
    their truncated product, raised to the exponent by the power recurrence;
    terms emitted in canonical order like the package's `_product`."""
    total: Counter[Fraction] = Counter()
    for s in factors:
        total.update({t.a: exponent * t.m for t in s.terms if t.m})
    const = math.prod([next((t.c for t in s.terms if t.m == 0), 0) for s in factors] * exponent,
                      start=Fraction(1))
    out = []
    for a, n in sorted(total.items()):
        if const and a >= 0:
            out.append((const, Fraction(0), 0))
            const = 0
        series = reduce(tf._truncated_product, [laurent_factor(s, a, n) for s in factors])
        series, den = tf._series_power(series, exponent) if exponent > 1 else series
        out.extend((Fraction(series[j], den), a, n - j) for j in reversed(range(n)) if series[j])
    if const:
        out.append((const, Fraction(0), 0))
    return SExpr._trusted(out)


def direct_term_sum(terms, x: float) -> float:
    """Evaluate a raw GTerm sequence by direct summation in input order,
    independent of canonicalization."""
    return sum(float(t.c) * x ** (2 * t.k) * math.exp(float(t.a) * x * x) for t in terms)


def evaluate_at(s: SExpr, sigma: float) -> float:
    """Floating-point value of a transform-domain expression at a sigma off
    every pole."""
    total = 0.0
    for t in s.terms:
        if t.m == 0:
            total += float(t.c)
        else:
            total += float(t.c) / (sigma - float(t.a)) ** t.m
    return total


def log_abs_envelope(e: GExpr, x: float) -> float:
    """log of the term-wise absolute-value envelope sum(|c| x^(2k) e^(a x^2))
    at x > 0, computed in log space so x may lie far beyond the overflow
    range of `evaluate`; -inf for the zero expression.  An upper bound for
    log|e(x)|."""
    if not e.terms:
        return -math.inf
    if x <= 0:
        raise ValueError("envelope is defined for x > 0")
    logs = _term_logs(e, x)
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def term_value(sol, n: int, x: float, t: float) -> float:
    """Term n of a series solution, P(t) tau(t)^n X_n(x); 0 past its last
    profile."""
    if n >= len(sol.profiles):
        return 0.0
    tau = sol.problem.tau.value(t)
    return math.exp(-float(sol.prefactor) * tau) * tau ** n * evaluate(sol.profiles[n], x)


def finite_difference_reference(sol, grid) -> tuple[float, ...]:
    """The `finite_difference` column of `residual(sol.problem, sol, grid)`,
    with every value u, the eight stencil values included, read from the
    full jet as sol.at(s)(x)[0]: one collapse per value, the same float
    formulas as the harness."""
    h = FD_STEP
    equation, ratio = sol.problem.row.residual, sol.problem.ratio

    def v(x: float, t: float) -> float:
        return sol.at(t)(x)[0]

    out = []
    for x, t in grid:
        f = None if ratio is None else ratio.evaluate(t)
        ut = (v(x, t + h) - v(x, t - h)) / (2 * h)
        ux = (v(x + h, t) - v(x - h, t)) / (2 * h)
        uxt = (v(x + h, t + h) - v(x + h, t - h)
               - v(x - h, t + h) + v(x - h, t - h)) / (4 * h * h)
        out.append(equation(f, x, t, v(x, t), ut, ux, uxt))
    return tuple(out)


def pole_profiles(problem: PDEProblem, depth: int) -> tuple[GExpr, ...]:
    """The unfolded section-6 profiles X_0..X_depth of a problem's row, the
    slow way: X_n = inverse(pole(sign^n / n! * c0 k1^n, p, m0 + n)) through
    the transform's public constructors, where u_hat_0 = c0 (sigma - p)^-m0
    or the unit; X_0 = 1, and r1 = 0 (k1 = 0) leaves only X_0."""
    k1, p, _ = problem.row.recipe
    (u0,) = problem.row.u0.terms
    return (algebra.constant(1),) + tuple(
        tf.inverse(tf.pole(Fraction(problem.sign ** n, math.factorial(n)) * u0.c * k1 ** n,
                           p, u0.m + n))
        for n in range(1, depth + 1) if k1)


def eager_fold(problem: PDEProblem, profiles: tuple[GExpr, ...]) -> tuple[GExpr, ...]:
    """Profiles of a folded problem with exp(sign (b/d) tau) multiplied in by
    total order, sum_(i+j=q) (sign b/d)^j / j! X_i, each sum canonicalized by
    the public GExpr constructor; the profiles as given when the problem
    does not fold."""
    if not problem.folded:
        return profiles
    rate = problem.sign * problem.row.recipe[2]
    w = [rate ** j / math.factorial(j) for j in range(len(profiles))]
    return tuple(GExpr(tuple(GTerm(t.c * w[q - i], t.k, t.a)
                             for i in range(q + 1) for t in profiles[i].terms))
                 for q in range(len(profiles)))

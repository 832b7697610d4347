"""Transform-method series solvers for four PDE families on x, t > 0,
an exact-coefficient polynomial type for their t-dependent data, and a
residual harness that evaluates each family's defining equation on a grid
with analytic derivatives, cross-checked by finite differences.

Families (u = u(x, t); all written with the ring derivation
delta_x = (1/x) d/dx; coefficient data enters through the polynomial
ratio of the two t-coefficients so antiderivatives stay exact):

    A:  t^3 u_xt + 2 x u = 0
    B:  M(t) u + M(t) delta_x(u) + delta_x(u_t) = 0
    C:  H(t) u - u_t + delta_x(u_t) = 0
    D:  M(t) (u + delta_x(u)) + u_t + delta_x(u_t) = 0

Every candidate is one `SeriesSolution`, the separable series
u(x, t) = P(t) * sum_n tau(t)^n X_n(x) with exact x-profiles X_n, a time
variable tau (MM or HH, the antiderivative of the ratio, or t^-2) and a
prefactor P = exp(-MM) or 1; the family solvers only build that data.

Families B and C each carry two sign conventions for the candidate series:
`derived` (recomputed from the transform-domain ODE from scratch) and
`paper_literal` (the same closed forms with the sign of the exponent data
flipped, retained as the alternative candidate for the harness to grade).
The harness reports residuals, it does not assume any candidate actually
solves its equation; family C's retained unit term, for instance,
contributes exactly H(t) to the derived residual.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from . import algebra
from .algebra import GExpr, GTerm, RationalLike, _is_count, as_rational
from .convolution import EXP_HALF, convolve_symbolic
from .errors import GridDomainError

FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# Exact polynomials in t


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

    def __add__(self, other: "LPoly") -> "LPoly":
        return LPoly(self.coefficients + other.coefficients)

    def __mul__(self, other: "LPoly") -> "LPoly":
        out = []
        for d1, c1 in self.coefficients:
            for d2, c2 in other.coefficients:
                out.append((d1 + d2, c1 * c2))
        return LPoly(tuple(out))

    def __pow__(self, n: int) -> "LPoly":
        if not _is_count(n, 0):
            raise ValueError("LPoly powers must be nonnegative integers")
        return math.prod([self] * n, start=LPoly(((0, Fraction(1)),)))

    def scale(self, c: RationalLike) -> "LPoly":
        c = as_rational(c)
        return LPoly(tuple((d, cc * c) for d, cc in self.coefficients))

    def derivative(self) -> "LPoly":
        return LPoly(tuple((d - 1, d * c) for d, c in self.coefficients if d >= 1))

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


# ---------------------------------------------------------------------------
# Problems and solutions


class Family(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"


class Convention(enum.Enum):
    DERIVED = "derived"
    PAPER_LITERAL = "paper"


_EQUATIONS = {
    Family.A: "t^3 u_xt + 2 x u = 0",
    Family.B: "M(t) u + M(t) u_x/x + u_xt/x = 0",
    Family.C: "H(t) u - u_t + u_xt/x = 0",
    Family.D: "M(t) (u + u_x/x) + u_t + u_xt/x = 0",
}


@dataclass(frozen=True)
class PDEProblem:
    """Which equation a residual is computed against.

    `ratio` is the polynomial coefficient ratio (M for families B and D,
    H for family C); family A carries none.  `convention` tags which
    candidate series the problem was posed for (families B and C).
    """

    family: Family
    ratio: Optional[LPoly] = None
    convention: Optional[Convention] = None

    def __post_init__(self):
        if self.family is Family.A and self.ratio is not None:
            raise ValueError("family A carries no coefficient ratio")
        if self.family in (Family.B, Family.C, Family.D) and self.ratio is None:
            raise ValueError(f"family {self.family.value} needs a coefficient ratio")

    def describe(self) -> str:
        return _EQUATIONS[self.family]


class TimeVariable(NamedTuple):
    """tau(t) of a series: float value, float derivative, exact value."""

    value: Callable[[float], float]
    derivative: Callable[[float], float]
    exact: Callable[[Fraction], Fraction]


def _inverse_square(t: Fraction) -> Fraction:
    if t <= 0:
        raise ValueError(f"tau = t^-2 needs t > 0, got t = {t}")
    return 1 / t ** 2


def _horner_jet(low: int, coeffs: tuple[float, ...], z: float) -> tuple[float, float]:
    """z^low p(z) and its derivative, p given from the highest power down:
    Horner with derivative (Knuth, TAOCP vol. 2, 4.6.4)."""
    p = dp = 0.0
    for c in coeffs:
        dp, p = dp * z + p, p * z + c
    zl = z ** low
    return zl * p, zl * dp + (low * z ** (low - 1) * p if low else 0.0)


class _HornerTable:
    """Float form of S = sum_n tau^n X_n(x) for exact profiles X_n: per
    Gaussian rate a, e^(a y) times a polynomial in y = x^2 whose y^k
    coefficient is a polynomial in tau with its lowest power factored out."""

    def __init__(self, profiles: tuple[GExpr, ...]):
        by_rate: dict[float, dict[int, dict[int, float]]] = {}
        for n, profile in enumerate(profiles):
            for term in profile.terms:
                poly = by_rate.setdefault(float(term.a), {}).setdefault(term.k, {})
                poly[n] = poly.get(n, 0.0) + float(term.c)
        # per rate: the y-coefficients from the highest y-power down, each
        # (lowest tau-power, coefficients from the highest tau-power down)
        self.rates = []
        for a, polys in sorted(by_rate.items()):
            table = []
            for k in range(max(polys), -1, -1):
                poly = polys.get(k, {0: 0.0})
                low = min(poly)
                table.append((low, tuple(poly.get(n, 0.0) for n in range(max(poly), low - 1, -1))))
            self.rates.append((a, tuple(table)))

    def collapse(self, tau: float) -> list[tuple[float, tuple[float, ...], tuple[float, ...]]]:
        """Per rate a: the y-coefficients of S at tau and their
        tau-derivatives, each from the highest y-power down."""
        return [(a, *zip(*(_horner_jet(low, coeffs, tau) for low, coeffs in table)))
                for a, table in self.rates]


def _orders(depth: int) -> range:
    """The term orders 0..depth of a valid truncation depth."""
    if not _is_count(depth, 1):
        raise ValueError("truncation depth must be an integer >= 1")
    return range(depth + 1)


class SeriesSolution:
    """Truncated separable series u(x, t) = P(t) * sum_n tau(t)^n * X_n(x).

    `profiles` are the exact X_n (n = 0, 1, ...); `tau` defaults to MM, the
    antiderivative of the problem's ratio M; P(t) = exp(-tau(t)) when
    `prefactor` is set, else 1.  depth N means: term indices n = 0..N for
    families A and B, the unit term plus n = 1..N for family C; family D
    is a single closed form.  `at(t)` evaluates u and its derivatives from
    one float table; no numeric differentiation happens inside a solution.
    """

    def __init__(self, problem: PDEProblem, depth: int, metadata: dict,
                 profiles: Iterable[GExpr], tau: Optional[TimeVariable] = None,
                 prefactor: bool = False):
        _orders(depth)
        self.problem = problem
        self.depth = depth
        self.metadata = metadata
        self.ratio = problem.ratio
        self.anti = None if problem.ratio is None else problem.ratio.antiderivative()
        self.profiles = tuple(profiles)
        self.tau = tau or TimeVariable(
            self.anti.evaluate, self.ratio.evaluate, self.anti.evaluate_exact)
        self.prefactor = prefactor
        self._table = _HornerTable(self.profiles)
        self._latest = (None, None)  # (t, at(t)) of the latest value call

    def at(self, t: float) -> Callable[[float], tuple[float, float, float, float]]:
        """x -> (u, u_t, u_x, u_xt) at time t.  One collapse of tau gives the
        y-coefficient pairs (c, d) of S and S_tau, with P = exp(-tau) folded in
        as (P c, P (d - c)); Horner with derivative in y gives S_y = e^(a y)
        (a p + p') per rate a, then u_x = 2 x S_y and u_t = tau'(t) S_tau."""
        tau, tau_t = self.tau.value(t), self.tau.derivative(t)
        collapsed = self._table.collapse(tau)
        if self.prefactor:
            p = math.exp(-tau)
            collapsed = [(a, [p * c for c in cs], [p * (d - c) for c, d in zip(cs, ds)])
                         for a, cs, ds in collapsed]

        def jet(x: float) -> tuple[float, float, float, float]:
            y = x * x
            s = s_tau = s_y = s_tau_y = 0.0
            for a, cs, ds in collapsed:
                (q, dq), (r, dr) = _horner_jet(0, cs, y), _horner_jet(0, ds, y)
                g = math.exp(a * y) if a else 1.0
                s += g * q
                s_tau += g * r
                s_y += g * (a * q + dq)
                s_tau_y += g * (a * r + dr)
            return s, tau_t * s_tau, 2 * x * s_y, 2 * x * tau_t * s_tau_y

        return jet

    def value(self, x: float, t: float) -> float:
        """u(x, t); points at one t share one collapse.  `_latest` is read and
        replaced as one tuple, so a race costs at most an extra collapse."""
        latest_t, jet = self._latest
        if latest_t != t:
            jet = self.at(t)
            self._latest = (t, jet)
        return jet(x)[0]

    def term_value(self, n: int, x: float, t: float) -> float:
        if n >= len(self.profiles):
            return 0.0
        tau = self.tau.value(t)
        p = math.exp(-tau) if self.prefactor else 1.0
        return p * tau ** n * algebra.evaluate(self.profiles[n], x)

    def star_part(self, n: int) -> GExpr:
        """Family C: the n-th convolution power of e^(x^2/2) (1 <= n <= depth),
        which is profile n without its series weight sign^n / n!."""
        if self.problem.family is not Family.C or not 1 <= n <= self.depth:
            raise ValueError(f"star_part({n}) needs family C and 1 <= n <= depth")
        sign = _C_SIGN[self.problem.convention]
        return algebra.scale(self.profiles[n], sign ** n * math.factorial(n))


_C_SIGN = {Convention.DERIVED: -1, Convention.PAPER_LITERAL: 1}  # family C: HH enters as sign * HH


def solve_family_a(depth: int) -> SeriesSolution:
    """u = sum_n (1/2)^n x^(2n) / (t^(2n) (n!)^2): tau = t^-2, P = 1."""
    profiles = [algebra.monomial(Fraction(1, 2 ** n * math.factorial(n) ** 2), n)
                for n in _orders(depth)]
    meta = {"side_condition": "series value at x -> 0+ is 1, not the stated 0"}
    tau = TimeVariable(lambda t: t ** -2, lambda t: -2 * t ** -3, _inverse_square)
    return SeriesSolution(PDEProblem(Family.A), depth, meta, profiles, tau)


def solve_family_b(ratio: LPoly, depth: int,
                   convention: Convention = Convention.DERIVED) -> SeriesSolution:
    """tau = MM, the antiderivative of the ratio M.

    Derived convention: u = exp(-MM) sum_n (-MM/2)^n x^(2n) / (n!)^2.

    Literal convention: the sign-flipped variant, a product of two series
    stored merged by total order p so truncation increments stay single
    terms:

        u = sum_p MM^p sum_{i<=p} x^(2i) / ((i!)^2 2^i (p-i)!).
    """
    f = math.factorial
    derived = convention is Convention.DERIVED
    if derived:
        profiles = [algebra.monomial(Fraction(-1, 2) ** n / f(n) ** 2, n) for n in _orders(depth)]
    else:
        profiles = [
            GExpr(tuple(GTerm(Fraction(1, f(i) ** 2 * 2 ** i * f(p - i)), i, Fraction(0))
                        for i in range(p + 1)))
            for p in _orders(depth)
        ]
    return SeriesSolution(PDEProblem(Family.B, ratio, convention), depth,
                          {"convention": convention.value}, profiles, prefactor=derived)


def solve_family_c(ratio: LPoly, depth: int,
                   convention: Convention = Convention.DERIVED) -> SeriesSolution:
    """u = 1 + sum_{n>=1} (sign * HH)^n / n! * p_n(x), where p_n is the n-th
    convolution power of e^(x^2/2) (closed form x^(2n-2) e^(x^2/2) /
    (2^(n-1) (n-1)!)) and HH is the antiderivative of the ratio H: tau = HH,
    and profile n is sign^n p_n / n!.

    sign is -1 for the derived convention and +1 for the literal one.  The
    leading 1 is retained formal unit content (see `metadata`), so the
    exact inverse of the transform-domain candidate would not exist.
    """
    meta = {
        "convention": convention.value,
        "has_impulse_content": True,
        "side_condition": "series value at x -> 0+ is 1 + sign*HH(t), not the stated 0",
        "unit_term_note": "the retained unit contributes H(t) to the residual",
    }
    # p_n = p_(n-1) * e^(x^2/2), one same-pole convolution per step, so the
    # series/star-power consistency holds by construction.
    sign = _C_SIGN[convention]
    profiles, part = [algebra.constant(1)], EXP_HALF
    for n in _orders(depth)[1:]:
        if n > 1:
            part = convolve_symbolic(part, EXP_HALF)
        profiles.append(algebra.scale(part, Fraction(sign ** n, math.factorial(n))))
    return SeriesSolution(PDEProblem(Family.C, ratio, convention), depth, meta, profiles)


def solve_family_d(ratio: LPoly, depth: int = 1) -> SeriesSolution:
    """x-free closed form u(t) = exp(-MM(t)), the unit profile under the
    prefactor; it satisfies M u + u_t = 0, hence the family's equation with
    both delta_x terms vanishing.  depth is accepted for interface
    uniformity."""
    return SeriesSolution(PDEProblem(Family.D, ratio), depth, {"x_free": True},
                          [algebra.constant(1)], prefactor=True)


# ---------------------------------------------------------------------------
# Residual harness


GridPoint = tuple[float, float]


@dataclass(frozen=True)
class ResidualReport:
    family: Family
    convention: Optional[Convention]
    depth: int
    points: tuple[GridPoint, ...]
    exact: tuple[float, ...]
    finite_difference: tuple[float, ...]
    max_abs: float
    fd_max_deviation: float
    metadata: dict = field(compare=False)


def default_grid(x_lo: float = 0.1, x_hi: float = 2.0, nx: int = 10,
                 t_lo: float = 0.5, t_hi: float = 2.0, nt: int = 10) -> list[GridPoint]:
    """Log-spaced grid over [x_lo, x_hi] x [t_lo, t_hi], excluding the
    singular axes x = 0 and t = 0: every bound must be > 0 (GridDomainError)
    and both counts >= 1 (ValueError)."""
    if not all(bound > 0 for bound in (x_lo, x_hi, t_lo, t_hi)):  # NaN included
        raise GridDomainError(f"grid bounds must be > 0: [{x_lo}, {x_hi}] x [{t_lo}, {t_hi}]")
    if not (_is_count(nx, 1) and _is_count(nt, 1)):
        raise ValueError(f"grid counts must be >= 1, got nx = {nx}, nt = {nt}")

    def logspace(lo: float, hi: float, n: int) -> list[float]:
        return [lo * (hi / lo) ** (i / max(n - 1, 1)) for i in range(n)]

    return [(x, t) for x in logspace(x_lo, x_hi, nx) for t in logspace(t_lo, t_hi, nt)]


def _equation_residual(problem: PDEProblem, x: float, t: float,
                       u: float, ut: float, ux: float, uxt: float) -> float:
    if problem.family is Family.A:
        return t ** 3 * uxt + 2 * x * u
    m = problem.ratio.evaluate(t)  # H for family C
    if problem.family is Family.B:
        return m * (u + ux / x) + uxt / x
    if problem.family is Family.C:
        return m * u - ut + uxt / x
    return m * (u + ux / x) + ut + uxt / x


def residual(problem: PDEProblem, solution: SeriesSolution,
             grid: Iterable[GridPoint]) -> ResidualReport:
    """Evaluate the family equation on the grid with the solution's exact
    derivatives, then recompute every point with central finite differences
    of the solution values (step FD_STEP) as an independent cross-check.

    Every point needs x > FD_STEP and t > FD_STEP, so that the differences
    stay inside the domain; other points raise GridDomainError."""
    if problem.family is not solution.problem.family:
        raise ValueError(
            f"problem family {problem.family.value} does not match "
            f"solution family {solution.problem.family.value}"
        )
    pts = tuple((float(x), float(t)) for x, t in grid)
    for x, t in pts:
        if x <= FD_STEP or t <= FD_STEP:
            raise GridDomainError(
                f"grid point ({x}, {t}) outside x > {FD_STEP}, t > {FD_STEP}, "
                "where the finite differences stay in the domain")

    h = FD_STEP
    # one tau-collapse per distinct t, the finite-difference times included
    at = {s: solution.at(s) for s in {s for _, t in pts for s in (t - h, t, t + h)}}

    def v(x: float, t: float) -> float:
        return at[t](x)[0]

    exact = []
    fd = []
    for x, t in pts:
        u, *derivatives = at[t](x)
        exact.append(_equation_residual(problem, x, t, u, *derivatives))
        ut = (v(x, t + h) - v(x, t - h)) / (2 * h)
        ux = (v(x + h, t) - v(x - h, t)) / (2 * h)
        uxt = (v(x + h, t + h) - v(x + h, t - h)
               - v(x - h, t + h) + v(x - h, t - h)) / (4 * h * h)
        fd.append(_equation_residual(problem, x, t, u, ut, ux, uxt))

    return ResidualReport(
        family=problem.family,
        convention=solution.problem.convention,
        depth=solution.depth,
        points=pts,
        exact=tuple(exact),
        finite_difference=tuple(fd),
        max_abs=max((abs(r) for r in exact), default=0.0),
        fd_max_deviation=max(
            (abs(a - b) for a, b in zip(exact, fd)), default=0.0
        ),
        metadata=dict(solution.metadata),
    )


# ---------------------------------------------------------------------------
# Tail bounds


def _geometric_tail(term_bound: Callable[[int], float],
                    ratio_bound: Callable[[int], float], start: int) -> float:
    """sum_{n >= start} b_n for a positive majorant sequence whose term
    ratio is bounded by the decreasing ratio_bound: explicit terms until the
    ratio drops below 1/2, then a geometric closure.  Always >= the tail it
    majorizes (up to float rounding)."""
    total = 0.0
    n = start
    while ratio_bound(n) >= 0.5:
        total += term_bound(n)
        n += 1
        if n > start + 100000:
            return math.inf
    return total + term_bound(n) / (1.0 - ratio_bound(n))


def truncation_bound(solution: SeriesSolution, x_max: float,
                     t_range: tuple[float, float]) -> float:
    """Upper bound on the dropped series tail sum_{n > depth} |term_n| over
    the box [0, x_max] x [t_lo, t_hi], by ratio-test majorization.  The box
    needs 0 <= t_lo <= t_hi and x_max >= 0 (t_lo > 0 for family A)."""
    t_lo, t_hi, x_max = float(t_range[0]), float(t_range[1]), float(x_max)
    if not (0 <= t_lo <= t_hi and x_max >= 0):
        raise ValueError(f"need 0 <= t_lo <= t_hi and x_max >= 0, got {t_range}, {x_max}")
    n0 = solution.depth + 1
    fam = solution.problem.family

    if fam is Family.A:
        if t_lo <= 0:
            raise ValueError("family A needs t_lo > 0")
        r = x_max * x_max / (2.0 * t_lo * t_lo)
        return _geometric_tail(
            lambda n: r ** n / float(math.factorial(n)) ** 2,
            lambda n: r / (n + 1) ** 2,
            n0,
        )

    if fam is Family.B:
        mbar = solution.anti.abs_coeff_bound(t_hi)
        if solution.problem.convention is Convention.DERIVED:
            pref = math.exp(mbar)
            r = mbar * x_max * x_max / 2.0
            return _geometric_tail(
                lambda n: pref * r ** n / float(math.factorial(n)) ** 2,
                lambda n: r / (n + 1) ** 2,
                n0,
            )
        # literal form: sum_i y^i/((i!)^2 (p-i)!) <= (1+y)^p / p!  (y = x^2/2)
        r = mbar * (1.0 + x_max * x_max / 2.0)
        return _geometric_tail(
            lambda n: r ** n / float(math.factorial(n)),
            lambda n: r / (n + 1),
            n0,
        )

    if fam is Family.C:
        hbar = solution.anti.abs_coeff_bound(t_hi)
        xm = max(1.0, x_max)
        env = math.exp(x_max * x_max / 2.0)
        return _geometric_tail(
            lambda n: env * hbar ** n * xm ** (2 * n - 2)
            / (float(math.factorial(n)) * 2.0 ** (n - 1) * float(math.factorial(n - 1))),
            lambda n: hbar * xm * xm / (2.0 * (n + 1) * n),
            n0,
        )

    return 0.0  # family D evaluates a closed form; nothing is dropped


# ---------------------------------------------------------------------------
# Exact profiles and transform-domain identities


def profile_gexpr(solution: SeriesSolution, t0: RationalLike) -> GExpr:
    """The x-profile u(., t0) = sum_n tau(t0)^n X_n as an exact algebra
    element.  Solutions with the prefactor exp(-Q(t)) (family B derived,
    family D) have no rational profile and raise ValueError."""
    if solution.prefactor:
        raise ValueError(
            f"family {solution.problem.family.value} has the non-rational "
            "prefactor exp(-MM(t)); no exact profile"
        )
    tau = solution.tau.exact(as_rational(t0))
    return GExpr(tuple(
        GTerm(term.c * tau ** n, term.k, term.a)
        for n, profile in enumerate(solution.profiles) for term in profile.terms
    ))


def family_b_transform_identity(ratio: LPoly, depth: int) -> bool:
    """Exact check, in rational data only, that the derived family-B
    transform-domain candidate satisfies its ODE through order depth.

    With V = sum_{n<=N} (-MM)^n / (n! 2^(n+1)) sigma^-(n+1), the ODE reduces
    to 2 sigma V_t + M V = 0; the truncated series must cancel coefficient
    by coefficient, leaving only the known single boundary term at
    sigma^-(N+1)."""
    anti = ratio.antiderivative()
    c = [
        ((anti.scale(-1)) ** n).scale(Fraction(1, math.factorial(n) * 2 ** (n + 1)))
        for n in range(depth + 1)
    ]
    # coefficient of sigma^(-j) in 2 sigma V_t + M V
    coeff: dict[int, LPoly] = {}
    for n in range(depth + 1):
        coeff[n] = coeff.get(n, LPoly()) + c[n].derivative().scale(2)
        coeff[n + 1] = coeff.get(n + 1, LPoly()) + ratio * c[n]
    expected_boundary = (ratio * anti ** depth).scale(
        Fraction((-1) ** depth, math.factorial(depth) * 2 ** (depth + 1))
    )
    if coeff.pop(depth + 1) != expected_boundary:
        return False
    return all(not p for p in coeff.values())


def family_c_transform_identity(ratio: LPoly, depth: int) -> bool:
    """Exact check that the derived family-C transform-domain candidate
    exp(-HH * tau), tau = (2 sigma - 1)^-1, satisfies H u_hat + (2 sigma - 1)
    u_hat_t = 0 through the truncation order (f = 1, g = H in ratio form);
    only the tau^N boundary coefficient survives."""
    anti = ratio.antiderivative()
    e = [
        ((anti.scale(-1)) ** n).scale(Fraction(1, math.factorial(n)))
        for n in range(depth + 1)
    ]
    for m in range(depth):
        if ratio * e[m] + e[m + 1].derivative():
            return False
    boundary = ratio * e[depth]
    expected = (ratio * anti ** depth).scale(
        Fraction((-1) ** depth, math.factorial(depth))
    )
    return boundary == expected

"""Transform-method series solutions of the PDE class

    f(t) (a u + b delta_x(u)) + c u_t + d delta_x(u_t) = 0,    d != 0,

on x, t > 0 (u = u(x, t), delta_x = (1/x) d/dx the ring derivation), with
the t-dependent data as exact polynomials (`LPoly`, defined in algebra and
re-exported here), and a residual harness that evaluates each equation on a
grid with analytic derivatives, cross-checked by finite differences.

Families A-D are rows of data (`_ROWS`): their (a, b, c, d), time variable,
equation text and residual expression.  The t-coefficient enters through
the polynomial ratio f (M for B and D, H for C) so antiderivatives stay
exact; family A has f = 2 t^-3:

    A  (1, 0,  0, 1):  t^3 u_xt + 2 x u = 0
    B  (1, 1,  0, 1):  M(t) u + M(t) delta_x(u) + delta_x(u_t) = 0
    C  (1, 0, -1, 1):  H(t) u - u_t + delta_x(u_t) = 0
    D  (1, 1,  1, 1):  M(t) (u + delta_x(u)) + u_t + delta_x(u_t) = 0

One builder, `SeriesSolution`, follows section 6 for every row.  With
T{delta_x u} = 2 sigma u_hat - u(0+, t) the equation becomes
(c + 2 sigma d) u_hat_t = -f(t) (a + 2 sigma b) u_hat, so
u_hat = u_hat_0 exp(-F r) with F the antiderivative of f and
r(sigma) = b/d + r1(sigma), r1 = k1 / (sigma - p), k1 = (a - bc/d) / (2d),
p = -c / (2d).  Writing F = -sign * tau for the row's time variable tau,

    u = exp(sign (b/d) tau) sum_n tau^n X_n,
    X_n = sign^n / n! * inverse(u_hat_0 r1^n),

with u_hat_0 = T{1} = 1/(2 sigma), or for family C the formal unit, whose
retained function is 1.  u_hat_0 r1^n is one pole term, so the builder
writes X_n down by inverse's term rule; `solve` only poses the problem.

`truncation_bound` majorizes the dropped terms from the same data: with
u_hat_0 = c0 (sigma - p)^-m0, y = x^2 and tau_bar >= |tau|, term n is at most
b_n = e^(|b/d| tau_bar + max(p, 0) y) 2 |c0| (|k1| tau_bar)^n y^(m0+n-1) / (n! (m0+n-1)!),
and the folded row's term of order q (m0 = 1, p = 0, X_0 = 2 c0 = 1) at
most 2 |c0| (tau_bar (|k1| y + |b/d|))^q / q!, by the binomial theorem.

Families B and C each carry two sign conventions: `derived` (the series
above) and `paper_literal` (the sign of tau flipped; a factor
exp(+(b/d) tau) is multiplied into the series and summed by total order,
exactly on the first read of `SeriesSolution.profiles`, and in the float
table by one product per coefficient).  The harness reports residuals, it
does not assume any candidate actually solves its equation; family C's
retained unit term, for instance, contributes exactly H(t) to the derived
residual.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterable, NamedTuple, Optional

from . import algebra
from . import transform as tf
from .algebra import GExpr, GTerm, LPoly, RationalLike, _is_count, as_rational, lpoly  # noqa: F401
from .errors import GridDomainError
from .transform import SExpr

FD_STEP = 1e-5
_LOG_FLOAT_MAX = math.log(math.nextafter(math.inf, 0))  # the largest argument math.exp takes


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


class TimeVariable(NamedTuple):
    """tau(t) of a series: float value, float derivative, exact value, and
    bound(t_lo, t_hi) >= |tau| on [t_lo, t_hi] (0 <= t_lo <= t_hi)."""

    value: Callable[[float], float]
    derivative: Callable[[float], float]
    exact: Callable[[Fraction], Fraction]
    bound: Callable[[float, float], float]


def _inverse_square(t: Fraction) -> Fraction:
    if t <= 0:
        raise ValueError(f"tau = t^-2 needs t > 0, got t = {t}")
    return 1 / t ** 2


class _Equation(NamedTuple):
    """One row of f(t) (a u + b delta_x u) + c u_t + d delta_x u_t = 0.

    `tau` is the time variable, None for the antiderivative of the
    problem's ratio f; `sign` is the sign of tau in the derived series'
    exponent (F = -sign * tau); `u0` is u_hat_0, which sits at r1's pole or
    is the formal unit.  `residual` maps (f(t), x, t, u, u_t, u_x, u_xt) to
    the equation's left side as `text` prints it.  `l2t solve` lists the
    t-power of order n as `tau_power * n` under `tau_name`.  `conventions`
    tells whether the row carries the derived and paper sign conventions.
    """

    coefficients: tuple[int, int, int, int]
    text: str
    residual: Callable[..., float]
    tau: Optional[TimeVariable]
    sign: int
    u0: SExpr
    conventions: bool
    tau_name: str
    tau_power: int
    metadata: dict

    @property
    def recipe(self) -> tuple[Fraction, Fraction, Fraction]:
        """(k1, p, b/d) of r(sigma) = b/d + k1 / (sigma - p)."""
        return _recipe(self.coefficients)


@cache
def _recipe(coefficients: tuple[int, int, int, int]) -> tuple[Fraction, Fraction, Fraction]:
    a, b, c, d = map(Fraction, coefficients)
    return (a - b * c / d) / (2 * d), -c / (2 * d), b / d


_T_ONE = tf.forward(algebra.constant(1))  # 1 / (2 sigma)

_ROWS = {
    # f = 2 t^-3, so F = -t^-2 = -tau
    Family.A: _Equation(
        (1, 0, 0, 1), "t^3 u_xt + 2 x u = 0",
        lambda f, x, t, u, ut, ux, uxt: t ** 3 * uxt + 2 * x * u,
        tau=TimeVariable(lambda t: t ** -2, lambda t: -2 * t ** -3, _inverse_square,
                         lambda t_lo, t_hi: float(_inverse_square(Fraction(t_lo)))),
        sign=1, u0=_T_ONE, conventions=False, tau_name="t", tau_power=-2,
        metadata={"side_condition": "series value at x -> 0+ is 1, not the stated 0"}),
    Family.B: _Equation(
        (1, 1, 0, 1), "M(t) u + M(t) u_x/x + u_xt/x = 0",
        lambda f, x, t, u, ut, ux, uxt: f * (u + ux / x) + uxt / x,
        tau=None, sign=-1, u0=_T_ONE, conventions=True, tau_name="MM", tau_power=1,
        metadata={}),
    Family.C: _Equation(
        (1, 0, -1, 1), "H(t) u - u_t + u_xt/x = 0",
        lambda f, x, t, u, ut, ux, uxt: f * u - ut + uxt / x,
        tau=None, sign=-1, u0=tf.constant(1), conventions=True, tau_name="HH", tau_power=1,
        metadata={"has_impulse_content": True,
                  "side_condition": "series value at x -> 0+ is 1 + sign*HH(t), not the stated 0",
                  "unit_term_note": "the retained unit contributes H(t) to the residual"}),
    Family.D: _Equation(
        (1, 1, 1, 1), "M(t) (u + u_x/x) + u_t + u_xt/x = 0",
        lambda f, x, t, u, ut, ux, uxt: f * (u + ux / x) + ut + uxt / x,
        tau=None, sign=-1, u0=_T_ONE, conventions=False, tau_name="MM", tau_power=1,
        metadata={"x_free": True}),
}


@dataclass(frozen=True)
class PDEProblem:
    """Which equation a residual is computed against.

    `ratio` is the polynomial coefficient ratio f (M for families B and D,
    H for family C); family A carries none.  `convention` tags which
    candidate series the problem was posed for; only B and C carry one.
    """

    family: Family
    ratio: Optional[LPoly] = None
    convention: Optional[Convention] = None

    def __post_init__(self):
        if self.row.tau is not None and self.ratio is not None:
            raise ValueError(f"family {self.family.value} carries no coefficient ratio")
        if self.row.tau is None and self.ratio is None:
            raise ValueError(f"family {self.family.value} needs a coefficient ratio")
        if self.convention is not None and not self.row.conventions:
            raise ValueError(f"family {self.family.value} has no {self.convention.value} "
                             "convention; only B and C carry one")

    @property
    def row(self) -> _Equation:
        return _ROWS[self.family]

    @cached_property
    def tau(self) -> TimeVariable:
        """The row's time variable, or the antiderivative of the ratio."""
        if self.row.tau:
            return self.row.tau
        anti = self.ratio.antiderivative()
        return TimeVariable(anti.evaluate, self.ratio.evaluate, anti.evaluate_exact,
                            lambda t_lo, t_hi: anti.abs_coeff_bound(t_hi))

    @property
    def sign(self) -> int:
        """The sign of tau in the candidate's exponent: the row's, flipped
        by the paper convention."""
        return -self.row.sign if self.convention is Convention.PAPER_LITERAL else self.row.sign

    @property
    def folded(self) -> bool:
        """True when the candidate multiplies exp(+(b/d) tau) into its
        series by total order: the paper convention of a row with b != 0."""
        return self.convention is Convention.PAPER_LITERAL and bool(self.row.recipe[2])


def _horner(coeffs: tuple[float, ...], z: float) -> float:
    """p(z), p given from the highest power down.  The same float operations
    as the value half of `_horner_jet`, so both give bit-equal values."""
    p = 0.0
    for c in coeffs:
        p = p * z + c
    return p


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
    coefficient is a polynomial in tau with its lowest power factored out.
    Profile n's term c x^(2k) e^(a y) puts c w_j in slot (a, k, n + j) for
    the fold weights w_j, (1,) for no fold.  Each slot gets one product (see
    `SeriesSolution`), and int / int true division rounds it correctly, as
    float() of the exact folded coefficient does."""

    def __init__(self, profiles: tuple[GExpr, ...], weights: tuple[Fraction, ...]):
        by_rate: dict[float, dict[int, dict[int, float]]] = {}
        ws = [(w.numerator, w.denominator) for w in weights]
        for n, profile in enumerate(profiles):
            for c, k, a in profile.terms:
                poly = by_rate.setdefault(float(a), {}).setdefault(k, {})
                num, den = c.numerator, c.denominator
                for q, (w_num, w_den) in enumerate(ws[:len(profiles) - n], n):
                    poly[q] = poly.get(q, 0.0) + (num * w_num) / (den * w_den)
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

    def collapse(self, tau: float) -> list[tuple[float, tuple[float, ...]]]:
        """Per rate a: the y-coefficients of S at tau, from the highest
        y-power down; bit-equal to the first half of `collapse_jet`."""
        return [(a, tuple(tau ** low * _horner(coeffs, tau) for low, coeffs in table))
                for a, table in self.rates]

    def collapse_jet(self, tau: float) -> list[tuple[float, tuple[float, ...], tuple[float, ...]]]:
        """Per rate a: the y-coefficients of S at tau and their
        tau-derivatives, each from the highest y-power down."""
        return [(a, *zip(*(_horner_jet(low, coeffs, tau) for low, coeffs in table)))
                for a, table in self.rates]


class SeriesSolution:
    """Truncated separable series u(x, t) = P(t) * sum_n tau(t)^n * X_n(x)
    of a problem, built by section 6 to order `depth` (see the module
    docstring).

    `profiles` are the exact X_n (n = 0, 1, ..., depth; only X_0 when
    r1 = 0); tau is the problem's time variable;
    P(t) = exp(-prefactor * tau(t)), 1 when `prefactor` is 0.  A folded
    problem keeps the unfolded X_n and the exact rate k: its `profiles`
    multiply P = sum_j (-k tau)^j / j! in by total order on first read, and
    its `prefactor` is 0.  `at(t)` evaluates u and its derivatives from one
    float table, built without that exact fold; `value(x, t)`
    reads u alone from the same table by a value-only path whose float
    operations are those of `at`, so the two agree bit for bit.  No numeric
    differentiation happens inside a solution.
    """

    def __init__(self, problem: PDEProblem, depth: int):
        if not _is_count(depth, 1):
            raise ValueError("truncation depth must be an integer >= 1")
        orders = range(depth + 1)
        row = problem.row
        k1, p, kappa = row.recipe
        sign = problem.sign
        ((c0, _, m0),) = row.u0.terms
        self.problem = problem
        self.depth = depth
        convention = {"convention": problem.convention.value} if problem.convention else {}
        self.metadata = convention | row.metadata
        # u_hat_0 r1^n = pole(c0 k1^n, p, m0 + n): u_hat_0 sits at r1's pole or is
        # the unit.  inverse's term rule makes X_n = sign^n / n! inverse(...) the
        # one term 2 c0 (sign k1)^n x^(2(m0+n-1)) e^(p x^2) / (n! (m0+n-1)!); X_0
        # is the function 1 either way, and r1 = 0 leaves only it
        self._profiles = (algebra.constant(1),) + tuple(
            GExpr._trusted(((Fraction(2 * c0.numerator * (sign * k1.numerator) ** n,
                                      c0.denominator * k1.denominator ** n
                                      * math.factorial(n) * math.factorial(m0 + n - 1)),
                             m0 + n - 1, p),))
            for n in (orders[1:] if k1 else ()))
        rate = -sign * kappa  # the prefactor exp(sign (b/d) tau) = exp(-rate tau)
        # the fold weights of P, (1,) for no fold.  The row that folds (B) has
        # p = 0 and u_hat_0 = T{1}, so X_i is one term at x^(2i): each folded
        # sum is canonical as built, and each table slot gets one product
        self._weights = (tuple((-rate) ** j / math.factorial(j) for j in orders)
                         if problem.folded else (Fraction(1),))
        self.prefactor = 0.0 if problem.folded else float(rate)
        self._table = _HornerTable(self._profiles, self._weights)
        self._latest = (None, None)  # (t, _value_at(t)) of the latest value call

    @cached_property
    def profiles(self) -> tuple[GExpr, ...]:
        """The exact X_n with the fold weights summed in, sum_(i+j=q) w_j X_i,
        made on first read."""
        xs, ws = self._profiles, self._weights
        return tuple(GExpr._trusted((c * ws[q - i], k, a) for i in range(max(0, q + 1 - len(ws)), q + 1)
                                    for c, k, a in xs[i].terms) for q in range(len(xs)))

    def at(self, t: float) -> Callable[[float], tuple[float, float, float, float]]:
        """x -> (u, u_t, u_x, u_xt) at time t.  One collapse of tau gives the
        y-coefficient pairs (c, d) of S and S_tau, with P = exp(-k tau) folded
        in as (P c, P (d - k c)); Horner with derivative in y gives
        S_y = e^(a y) (a p + p') per rate a, then u_x = 2 x S_y and
        u_t = tau'(t) S_tau.  Where evaluating tau'(t) raises OverflowError
        and tau(t) does not (t**-3 leaves float range before t**-2), u and
        u_x are still given and u_t and u_xt are NaN."""
        tau = self.problem.tau.value(t)
        try:
            tau_t = self.problem.tau.derivative(t)
        except OverflowError:
            tau_t = math.nan
        collapsed = self._table.collapse_jet(tau)
        if self.prefactor:
            k = self.prefactor
            p = math.exp(-k * tau)
            collapsed = [(a, [p * c for c in cs], [p * (d - k * c) for c, d in zip(cs, ds)])
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

    def _value_at(self, t: float) -> Callable[[float], float]:
        """x -> u at time t: the u of `at(t)` by the same float operations,
        without the derivatives (y^0 * p == p in `_horner_jet`)."""
        tau = self.problem.tau.value(t)
        collapsed = self._table.collapse(tau)
        if self.prefactor:
            p = math.exp(-self.prefactor * tau)
            collapsed = [(a, [p * c for c in cs]) for a, cs in collapsed]

        def u(x: float) -> float:
            y = x * x
            s = 0.0
            for a, cs in collapsed:
                s += (math.exp(a * y) if a else 1.0) * _horner(cs, y)
            return s

        return u

    def value(self, x: float, t: float) -> float:
        """u(x, t), equal to `at(t)(x)[0]`; points at one t share one
        collapse.  `_latest` is read and replaced as one tuple, so a race
        costs at most an extra collapse."""
        latest_t, u = self._latest
        if latest_t != t:
            u = self._value_at(t)
            self._latest = (t, u)
        return u(x)

    def star_part(self, n: int) -> GExpr:
        """inverse(u_hat_0 r1^n), which is profile n without its series
        weight sign^n / n!; for family C the n-th convolution power of
        e^(x^2/2).  Needs an unfolded series and 1 <= n < len(profiles)."""
        if self.problem.folded or not 1 <= n < len(self._profiles):
            raise ValueError(f"star_part({n}) needs an unfolded series and 1 <= n <= depth")
        return algebra.scale(self._profiles[n], self.problem.sign ** n * math.factorial(n))


def solve(family: Family, ratio: Optional[LPoly], depth: int,
          convention: Convention = Convention.DERIVED) -> SeriesSolution:
    """The section-6 series of a row, truncated at order depth (see the
    module docstring).  The default convention is dropped for rows that
    carry none; PDEProblem refuses any other."""
    if convention is Convention.DERIVED and not _ROWS[family].conventions:
        convention = None
    return SeriesSolution(PDEProblem(family, ratio, convention), depth)


def solve_family_a(depth: int) -> SeriesSolution:
    """u = sum_n (1/2)^n x^(2n) / (t^(2n) (n!)^2): tau = t^-2, P = 1."""
    return solve(Family.A, None, depth)


def solve_family_b(ratio: LPoly, depth: int,
                   convention: Convention = Convention.DERIVED) -> SeriesSolution:
    """Derived: u = exp(-MM) sum_n (-MM/2)^n x^(2n) / (n!)^2, tau = MM.  Paper:
    u = sum_p MM^p sum_{i<=p} x^(2i) / ((i!)^2 2^i (p-i)!), summed by total order p."""
    return solve(Family.B, ratio, depth, convention)


def solve_family_c(ratio: LPoly, depth: int,
                   convention: Convention = Convention.DERIVED) -> SeriesSolution:
    """u = 1 + sum_{n>=1} (sign HH)^n / n! p_n(x), tau = HH, sign -1 (derived)
    or +1 (paper); p_n = x^(2n-2) e^(x^2/2) / (2^(n-1) (n-1)!) is the n-th
    convolution power of e^(x^2/2), and the 1 is retained formal unit content."""
    return solve(Family.C, ratio, depth, convention)


def solve_family_d(ratio: LPoly, depth: int = 1) -> SeriesSolution:
    """u = exp(-MM(t)), x-free (r1 = 0): M u + u_t = 0 and both delta_x terms vanish."""
    return solve(Family.D, ratio, depth)


# ---------------------------------------------------------------------------
# Residual harness


GridPoint = tuple[float, float]


@dataclass(frozen=True)
class ResidualReport:
    depth: int
    points: tuple[GridPoint, ...]
    exact: tuple[float, ...]
    finite_difference: tuple[float, ...]
    max_abs: float
    fd_max_deviation: float


def default_grid(x_lo: float = 0.1, x_hi: float = 2.0, nx: int = 10,
                 t_lo: float = 0.5, t_hi: float = 2.0, nt: int = 10) -> list[GridPoint]:
    """Log-spaced grid over [x_lo, x_hi] x [t_lo, t_hi], excluding the
    singular axes x = 0 and t = 0: every bound must be finite and > 0
    (GridDomainError) and both counts >= 1 (ValueError)."""
    if not all(0 < bound < math.inf for bound in (x_lo, x_hi, t_lo, t_hi)):  # NaN included
        raise GridDomainError(
            f"grid bounds must be finite and > 0: [{x_lo}, {x_hi}] x [{t_lo}, {t_hi}]")
    if not (_is_count(nx, 1) and _is_count(nt, 1)):
        raise ValueError(f"grid counts must be >= 1, got nx = {nx}, nt = {nt}")

    def logspace(lo: float, hi: float, n: int) -> list[float]:
        return [lo * (hi / lo) ** (i / max(n - 1, 1)) for i in range(n)]

    return [(x, t) for x in logspace(x_lo, x_hi, nx) for t in logspace(t_lo, t_hi, nt)]


def _max_or_nan(values: list[float]) -> float:
    """max(values), 0 for none, NaN when any value is NaN (max alone keeps a
    NaN only when it comes first, so the grid order would decide)."""
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def residual(problem: PDEProblem, solution: SeriesSolution,
             grid: Iterable[GridPoint]) -> ResidualReport:
    """Evaluate the solution's equation on the grid with its exact
    derivatives, then recompute every point with central finite differences
    of the solution values (step FD_STEP) as an independent cross-check.
    `problem` must equal `solution.problem` (ValueError otherwise): the
    equation, ratio and convention are the ones the series was built for.

    Each grid time gets one jet (`solution.at`); the eight stencil values
    around a point read u alone, from one value closure per distinct time
    t - h, t, t + h.  Every point needs x > FD_STEP and t > FD_STEP, so that
    the differences stay inside the domain; other points raise
    GridDomainError."""
    if problem != solution.problem:
        raise ValueError(f"{problem!r} does not match the solution's {solution.problem!r}")
    pts = tuple((float(x), float(t)) for x, t in grid)
    for x, t in pts:
        if x <= FD_STEP or t <= FD_STEP:
            raise GridDomainError(
                f"grid point ({x}, {t}) outside x > {FD_STEP}, t > {FD_STEP}, "
                "where the finite differences stay in the domain")

    h = FD_STEP
    # one jet collapse per grid time; one value collapse per stencil time
    times = {t for _, t in pts}
    jets = {t: solution.at(t) for t in times}
    v = {s: solution._value_at(s) for s in {s for t in times for s in (t - h, t, t + h)}}

    equation, ratio = problem.row.residual, problem.ratio
    exact = []
    fd = []
    for x, t in pts:
        f = None if ratio is None else ratio.evaluate(t)
        u, *derivatives = jets[t](x)
        exact.append(equation(f, x, t, u, *derivatives))
        before, now, after = v[t - h], v[t], v[t + h]
        ut = (after(x) - before(x)) / (2 * h)
        ux = (now(x + h) - now(x - h)) / (2 * h)
        uxt = (after(x + h) - before(x + h)
               - after(x - h) + before(x - h)) / (4 * h * h)
        fd.append(equation(f, x, t, u, ut, ux, uxt))

    return ResidualReport(
        depth=solution.depth,
        points=pts,
        exact=tuple(exact),
        finite_difference=tuple(fd),
        max_abs=_max_or_nan([abs(r) for r in exact]),
        fd_max_deviation=_max_or_nan([abs(a - b) for a, b in zip(exact, fd)]),
    )


# ---------------------------------------------------------------------------
# Tail bounds


def _geometric_tail(b: float, ratio: Callable[[int], float], n: int, start: int) -> float:
    """sum_{j >= start} b_j of the positive majorant with b_n = b (n <= start)
    and b_(j+1) = ratio(j) b_j, ratio decreasing: terms follow by ratios, so
    no factorial leaves float range, summed until the ratio drops below 1/2,
    then closed geometrically.  >= the tail up to float rounding."""
    for j in range(n, start):
        b *= ratio(j)
    total, n = 0.0, start
    while (q := ratio(n)) >= 0.5:
        total += b
        b *= q
        n += 1
        if n > start + 100000 or total == math.inf:
            return math.inf
    return total + b / (1.0 - q)


def truncation_bound(solution: SeriesSolution, x_max: float,
                     t_range: tuple[float, float]) -> float:
    """Upper bound on the dropped series tail sum_{n > depth} |term_n| over
    the box [0, x_max] x [t_lo, t_hi]: the module docstring's majorant with
    y = x_max^2 and tau_bar = tau.bound(t_lo, t_hi); 0.0 when every dropped
    term vanishes on the box, else inf when tau_bar or the prefactor leaves
    float range.  The box needs 0 <= t_lo <= t_hi and x_max >= 0
    (t_lo > 0 for tau = t^-2)."""
    t_lo, t_hi, x_max = float(t_range[0]), float(t_range[1]), float(x_max)
    if not (0 <= t_lo <= t_hi and x_max >= 0):
        raise ValueError(f"need 0 <= t_lo <= t_hi and x_max >= 0, got {t_range}, {x_max}")
    problem = solution.problem
    k1, p, kappa = problem.row.recipe
    ((c0, _, m0),) = problem.row.u0.terms
    k1, kappa, c0 = float(abs(k1)), float(abs(kappa)), float(abs(c0))
    try:
        tau_bar = problem.tau.bound(t_lo, t_hi)
    except OverflowError:
        tau_bar = math.inf
    y, n = x_max * x_max, solution.depth + 1
    if problem.folded:  # its x = 0 tail is not zero
        if tau_bar == math.inf:
            return math.inf
        r = tau_bar * (k1 * y + kappa)
        return _geometric_tail(2 * c0, lambda q: r / (q + 1), 0, n)
    if not (k1 and tau_bar and y):
        return 0.0  # every dropped term vanishes on the box, whatever tau_bar
    exponent = kappa * tau_bar + max(p, 0) * y
    if not exponent <= _LOG_FLOAT_MAX:  # past float range, tau_bar = inf, or 0 * inf
        return math.inf
    r = k1 * tau_bar * y
    first = math.exp(exponent) * 2 * c0 * k1 * tau_bar * y ** m0 / math.factorial(m0)
    return _geometric_tail(first, lambda j: r / ((j + 1) * (m0 + j)), 1, n)


# ---------------------------------------------------------------------------
# Exact profiles


def profile_gexpr(solution: SeriesSolution, t0: RationalLike) -> GExpr:
    """The x-profile u(., t0) = sum_n tau(t0)^n X_n as an exact algebra
    element.  Solutions with a prefactor exp(-k tau(t)) (family B derived,
    family D) have no rational profile and raise ValueError."""
    k = solution.prefactor
    if k:
        tau = f"{'' if k == 1 else f'{k} '}{solution.problem.row.tau_name}(t)"
        raise ValueError(
            f"family {solution.problem.family.value} has the non-rational "
            f"prefactor exp(-{tau}); no exact profile"
        )
    tau = solution.problem.tau.exact(as_rational(t0))
    return GExpr(tuple(
        GTerm(term.c * tau ** n, term.k, term.a)
        for n, profile in enumerate(solution.profiles) for term in profile.terms
    ))

"""Independent numerical evaluation of the defining transform integral

    integral_0^inf  x * exp(-x^2 s^2) * f(x) dx

used to validate every symbolic result in this package.  The integrand is
truncated at a cutoff X* chosen from an analytic bound on the tail of the
term-wise envelope C x**(2k+1) exp((rho - s^2) x^2); the finite interval is
then handled by a globally adaptive Gauss-Kronrod rule: QUADPACK's G10/K21
pair and error estimate (Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, QUADPACK, Springer 1983), in plain Python.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .algebra import GExpr, _is_count
from .errors import DivergentIntegralError, QuadratureFailureError


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of integrate_interval, its budget of subintervals
    (max_refinements, QUADPACK's `limit`) and the tail bound that sets
    l2_quadrature's cutoff."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_refinements: int = 60
    tail_epsilon: float = 1e-16

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "tail_epsilon"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if not _is_count(self.max_refinements, 1):
            raise ValueError("max_refinements must be an integer >= 1")


DEFAULT_CONFIG = QuadratureConfig()


# QK21's nodes on [-1, 1] as (abscissa x, Kronrod weight, Gauss weight) of
# the pairs +-x, in QK21's summation order: the five G10 nodes, then the five
# Kronrod-only nodes (Gauss weight 0).  The centre x = 0 is a Kronrod node only.
_PAIRS = (
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390,
     0.066671344308688137593568809893332),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190,
     0.149451349150580593145776339657697),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805,
     0.219086362515982043995534934228163),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707,
     0.269266719309996355091226921569469),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068,
     0.295524224714752870173892994651338),
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192, 0.0),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580, 0.0),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366, 0.0),
    (0.562757134668604683339000099272694, 0.123491976262065851077958109831074, 0.0),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717, 0.0),
)
_CENTRE_WEIGHT = 0.149445554002916905664936468389821
_ROUNDOFF = 50.0 * sys.float_info.epsilon


def _gk21(fn: Callable[[float], float], lo: float, hi: float) -> tuple[float, float, float]:
    """QK21 on [lo, hi]: the K21 value, QK21's error estimate and its
    round-off floor 50 eps * integral |fn|."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fc = fn(centre)
    gauss, kronrod = 0.0, _CENTRE_WEIGHT * fc
    resabs = abs(kronrod)
    values = []
    for x, wk, wg in _PAIRS:
        f1, f2 = fn(centre - half * x), fn(centre + half * x)
        values.append((wk, f1, f2))
        gauss += wg * (f1 + f2)
        kronrod += wk * (f1 + f2)
        resabs += wk * (abs(f1) + abs(f2))
    mean = 0.5 * kronrod
    resasc = _CENTRE_WEIGHT * abs(fc - mean)
    for wk, f1, f2 in values:
        resasc += wk * (abs(f1 - mean) + abs(f2 - mean))
    resabs, resasc = resabs * half, resasc * half
    err = abs((kronrod - gauss) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = _ROUNDOFF * resabs
    return kronrod * half, max(err, floor), floor


def integrate_interval(fn: Callable[[float], float], lo: float, hi: float,
                       cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Globally adaptive G10/K21 quadrature of fn over [lo, hi].

    The subinterval with the largest error estimate is bisected until the
    summed estimates fall to max(abs_tol, rel_tol * |integral|).  Raises
    QuadratureFailureError when that needs more than cfg.max_refinements
    subintervals, as soon as the summed round-off floors alone exceed the
    tolerance, so no refinement can reach it (QUADPACK's ier = 2), or when
    the integrand gives NaN.
    """
    if hi <= lo:
        return 0.0
    value, err, floor = _gk21(fn, lo, hi)
    heap = [(-err, lo, hi, value, floor)]
    total, err_sum, floor_sum = value, err, floor
    while err_sum > (tol := max(cfg.abs_tol, cfg.rel_tol * abs(total))):
        if floor_sum > tol:
            raise QuadratureFailureError(
                f"round-off limits the accuracy on [{lo}, {hi}]: "
                f"floor {floor_sum:.3g} exceeds tolerance {tol:.3g}"
            )
        if len(heap) >= cfg.max_refinements:
            raise QuadratureFailureError(
                f"adaptive refinement did not converge on [{lo}, {hi}] within "
                f"{cfg.max_refinements} subintervals: error {err_sum:.3g}, tolerance {tol:.3g}"
            )
        _, a, b, _, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        for a2, b2 in ((a, mid), (mid, b)):
            value, err, floor = _gk21(fn, a2, b2)
            heapq.heappush(heap, (-err, a2, b2, value, floor))
        total = math.fsum(entry[3] for entry in heap)
        err_sum = -math.fsum(entry[0] for entry in heap)
        floor_sum = math.fsum(entry[4] for entry in heap)
    if math.isnan(total):
        raise QuadratureFailureError(f"the integrand gave NaN on [{lo}, {hi}]")
    return total


def _tail_bound(envelope: list[tuple[float, int, float]], x: float) -> float:
    """Exact tail integral of the envelope beyond x.

    For one envelope term C u**(2k+1) exp(-beta u^2), substituting u^2 gives
    integral_x^inf = C * k!/(2 beta^(k+1)) * exp(-beta x^2)
                       * sum_{j<=k} (beta x^2)^j / j!.
    """
    total = 0.0
    for coeff, k, beta in envelope:
        z = beta * x * x
        if z > 745.0:  # exp underflows to 0 beyond this; the bound is 0
            continue
        partial = sum(z ** j / math.factorial(j) for j in range(k + 1))
        total += coeff * math.factorial(k) / (2 * beta ** (k + 1)) * math.exp(-z) * partial
    return total


def truncation_cutoff(envelope: list[tuple[float, int, float]], tail_epsilon: float) -> float:
    """Smallest cutoff (up to bisection width) with envelope tail below
    tail_epsilon, found by doubling then bisection, which stops once the
    midpoint rounds to an end of the bracket, where no step changes it."""
    x = 1.0
    doubles = 0
    while _tail_bound(envelope, x) >= tail_epsilon:
        x *= 2.0
        doubles += 1
        if doubles > 200:
            raise QuadratureFailureError("tail bound does not fall below tail_epsilon")
    lo, hi = x / 2.0, x
    if doubles == 0:
        lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _tail_bound(envelope, mid) < tail_epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def l2_quadrature(
    f: Union[GExpr, Callable[[float], float]],
    s: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    growth_rate: Optional[float] = None,
) -> float:
    """Numerically evaluate the transform of f at a finite s > 0.

    For a GExpr the growth rate and envelope come from its terms; for a bare
    evaluator callers must declare `growth_rate` rho bounding
    |f| <= exp(rho x^2).  The integral diverges unless s**2 > rho.
    """
    if not 0 < s < math.inf:  # NaN included
        raise ValueError(f"s must be finite and strictly positive, got {s}")
    sigma = s * s

    if isinstance(f, GExpr):
        if not f.terms:
            return 0.0
        rho = float(f.max_rate())
        if sigma <= rho:
            raise DivergentIntegralError(
                f"s^2 = {sigma} does not exceed the Gaussian rate {rho}"
            )
        envelope = [
            (abs(float(t.c)), t.k, sigma - float(t.a)) for t in f.terms
        ]
        pieces = [(float(t.c), t.k, float(t.a) - sigma) for t in f.terms]

        def integrand(x: float) -> float:
            return sum(c * x ** (2 * k + 1) * math.exp(g * x * x) for c, k, g in pieces)

    else:
        if growth_rate is None:
            raise ValueError("a bare evaluator needs a declared growth_rate rho")
        rho = float(growth_rate)
        if sigma <= rho:
            raise DivergentIntegralError(
                f"s^2 = {sigma} does not exceed the declared rate {rho}"
            )
        envelope = [(1.0, 0, sigma - rho)]

        def integrand(x: float) -> float:
            return x * math.exp(-sigma * x * x) * f(x)

    cutoff = truncation_cutoff(envelope, cfg.tail_epsilon)
    return integrate_interval(integrand, 0.0, cutoff, cfg)

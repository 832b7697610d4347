"""Independent numerical evaluation of the defining transform integral

    integral_0^inf  x * exp(-x^2 s^2) * f(x) dx

used to validate every symbolic result in this package.  The integrand is
truncated at a cutoff X* where an analytic bound on the tail of the
term-wise envelope C x**(2k+1) exp((rho - s^2) x^2) falls below
TAIL_EPSILON; the finite interval is then handled by a globally adaptive
Gauss-Kronrod rule: QUADPACK's G10/K21 pair and error estimate (Piessens,
de Doncker-Kapenga, Ueberhuber and Kahaner, QUADPACK, Springer 1983), in
plain Python, to REL_TOL and ABS_TOL within MAX_SUBINTERVALS subintervals.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable

from .algebra import GExpr, signed_exp_sum
from .errors import DivergentIntegralError, QuadratureFailureError

REL_TOL = 1e-10
ABS_TOL = 1e-14
MAX_SUBINTERVALS = 60  # QUADPACK's `limit`
TAIL_EPSILON = 1e-16


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


def integrate_interval(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Globally adaptive G10/K21 quadrature of fn over [lo, hi].

    The subinterval with the largest error estimate is bisected until the
    summed estimates fall to max(ABS_TOL, REL_TOL * |integral|).  Raises
    QuadratureFailureError when that needs more than MAX_SUBINTERVALS
    subintervals, as soon as the summed round-off floors alone exceed the
    tolerance, so no refinement can reach it (QUADPACK's ier = 2), or when
    the integrand gives NaN.
    """
    if hi <= lo:
        return 0.0
    value, err, floor = _gk21(fn, lo, hi)
    heap = [(-err, lo, hi, value, floor)]
    total, err_sum, floor_sum = value, err, floor
    while err_sum > (tol := max(ABS_TOL, REL_TOL * abs(total))):
        if floor_sum > tol:
            raise QuadratureFailureError(
                f"round-off limits the accuracy on [{lo}, {hi}]: "
                f"floor {floor_sum:.3g} exceeds tolerance {tol:.3g}"
            )
        if len(heap) >= MAX_SUBINTERVALS:
            raise QuadratureFailureError(
                f"adaptive refinement did not converge on [{lo}, {hi}] within "
                f"{MAX_SUBINTERVALS} subintervals: error {err_sum:.3g}, tolerance {tol:.3g}"
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
    A term whose float evaluation overflows (z**j, k!) or is not finite is
    redone in logs, so OverflowError remains only for a tail beyond the
    double range.
    """
    total = 0.0
    logs = []
    for coeff, k, beta in envelope:
        z = beta * x * x
        try:
            partial = sum(z ** j / math.factorial(j) for j in range(k + 1))
            term = coeff * math.factorial(k) / (2 * beta ** (k + 1)) * math.exp(-z) * partial
            if term < math.inf:  # NaN too takes the log path
                total += term
                continue
        except OverflowError:
            pass
        base = math.log(coeff) + math.lgamma(k + 1) - math.log(2) - (k + 1) * math.log(beta) - z
        logs.extend((1.0, base + j * math.log(z) - math.lgamma(j + 1)) for j in range(k + 1))
    return total + signed_exp_sum(logs) if logs else total


def truncation_cutoff(envelope: list[tuple[float, int, float]]) -> float:
    """Smallest cutoff (up to bisection width) with envelope tail below
    TAIL_EPSILON, found by doubling then bisection, which stops once the
    midpoint rounds to an end of the bracket, where no step changes it."""
    x = 1.0
    doubles = 0
    while _tail_bound(envelope, x) >= TAIL_EPSILON:
        x *= 2.0
        doubles += 1
        if doubles > 200:
            raise QuadratureFailureError("tail bound does not fall below TAIL_EPSILON")
    lo, hi = x / 2.0, x
    if doubles == 0:
        lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _tail_bound(envelope, mid) < TAIL_EPSILON:
            hi = mid
        else:
            lo = mid
    return hi


def l2_quadrature(f: GExpr, s: float) -> float:
    """Numerically evaluate the transform of f at a finite s > 0.

    The growth rate rho and the tail envelope come from the terms of f; the
    integral diverges unless s**2 > rho.  An integrand term whose power of x
    overflows is evaluated in logs, as in algebra.evaluate, so OverflowError
    is left only where a term itself leaves the double range.
    """
    if not 0 < s < math.inf:  # NaN included
        raise ValueError(f"s must be finite and strictly positive, got {s}")
    if not f.terms:
        return 0.0
    sigma = s * s
    rho = float(f.max_rate())
    if sigma <= rho:
        raise DivergentIntegralError(f"s^2 = {sigma} does not exceed the Gaussian rate {rho}")
    envelope = [(abs(float(t.c)), t.k, sigma - float(t.a)) for t in f.terms]
    pieces = [(float(t.c), 2 * t.k + 1, float(t.a) - sigma) for t in f.terms]

    def integrand(x: float) -> float:
        try:
            total = sum(c * x ** m * math.exp(g * x * x) for c, m, g in pieces)
            if abs(total) < math.inf:  # NaN too takes the log path
                return total
        except OverflowError:
            pass
        return signed_exp_sum((math.copysign(1.0, c), math.log(abs(c)) + m * math.log(x) + g * x * x)
                              for c, m, g in pieces)

    return integrate_interval(integrand, 0.0, truncation_cutoff(envelope))

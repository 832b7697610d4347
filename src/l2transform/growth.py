"""Growth-order classification: exponential order (|f| <= C e^(cx) for some
constants) versus exponential-squared order (f(x) e^(-x^2) -> 0), exact for
algebra elements and estimated by log-domain regression for sampled
functions.

In the algebra both notions reduce to the largest Gaussian rate a: any
a > 0 eventually beats every e^(cx), so exponential order means max a <= 0,
and the strict-limit definition of exponential-squared order means
max a < 1 (at a = 1 the limit is a nonzero constant or infinite).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from . import algebra
from .algebra import GExpr
from .errors import NonPositiveSampleError

# A function to sample: an algebra element, or any float function of x.
Evaluator = Union[GExpr, Callable[[float], float]]

# Sampled-path decision thresholds on the fitted rate rho.  The regression
# is good to ~0.02 on the windows used here, so cuts sit well clear of that.
_EXPONENTIAL_CUT = 0.05
_EXP_SQUARED_CUT = 0.95
_R2_GATE = 0.999
_TINY = 1e-300


@dataclass(frozen=True)
class GrowthReport:
    """Classification result; booleans are None when a sampled fit is too
    poor to call (the exact path always decides)."""

    exact_rate: Optional[Fraction] = None
    estimated_rate: Optional[float] = None
    r_squared: Optional[float] = None
    is_exponential_order: Optional[bool] = None
    is_exp_squared_order: Optional[bool] = None


def classify_exact(e: GExpr) -> GrowthReport:
    rate = e.max_rate()
    return GrowthReport(
        exact_rate=rate,
        is_exponential_order=rate <= 0,
        is_exp_squared_order=rate < 1,
    )


def _as_callable(f: Evaluator) -> Callable[[float], float]:
    if isinstance(f, GExpr):
        return lambda x: algebra.evaluate(f, x)
    return f


def _check_samples(xs: Sequence[float]) -> list[float]:
    xs = [float(x) for x in xs]
    if len(xs) < 8:
        raise ValueError("need at least 8 sample points")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("sample points must be strictly increasing")
    return xs


def estimate_rate(f: Evaluator, x_samples: Sequence[float]) -> GrowthReport:
    """Least-squares slope rho of log f(x) against x^2 over the top half of
    the sample range, i.e. the rate in f ~ C e^(rho x^2).

    Requires f > 0 at every sample; samples below the subnormal floor are
    skipped rather than pushed through log.
    """
    xs = _check_samples(x_samples)
    fn = _as_callable(f)
    values = [fn(x) for x in xs]
    if any(v <= 0 for v in values):
        raise NonPositiveSampleError("growth estimation needs f(x) > 0 at all samples")

    cut = 0.5 * (xs[0] + xs[-1])
    pairs = [(x, v) for x, v in zip(xs, values) if x >= cut and v >= _TINY]
    if len(pairs) < 3:
        pairs = [(x, v) for x, v in zip(xs, values) if v >= _TINY][-3:]
    zs = [x * x for x, _ in pairs]
    ys = [math.log(v) for _, v in pairs]

    if statistics.pvariance(ys) == 0.0:
        slope, r2 = 0.0, 1.0
    else:
        fit = statistics.linear_regression(zs, ys)
        slope = fit.slope
        r2 = statistics.correlation(zs, ys) ** 2

    if r2 < _R2_GATE:
        return GrowthReport(estimated_rate=slope, r_squared=r2)
    return GrowthReport(
        estimated_rate=slope,
        r_squared=r2,
        is_exponential_order=slope <= _EXPONENTIAL_CUT,
        is_exp_squared_order=slope <= _EXP_SQUARED_CUT,
    )


def check_bound(f: Evaluator, g: Evaluator,
                x_samples: Sequence[float]) -> bool:
    """True iff f(x) <= g(x) + 1e-12 |g(x)| at every sample, a slack that
    loosens the bound whatever the sign of g."""
    xs = _check_samples(x_samples)
    fe, ge = _as_callable(f), _as_callable(g)
    return all(fe(x) <= (gx := ge(x)) + 1e-12 * abs(gx) for x in xs)

"""The half-line convolution

    (f * g)(t) = integral_0^t  x f(sqrt(t^2 - x^2)) g(x) dx

whose transform is the product of the transforms.  The symbolic route goes
through the transform domain (the algebra is closed under the operation by
the product theorem); the defining integral is kept as the independent
numeric oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Union

from . import algebra, transform
from .algebra import GExpr
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_interval

Evaluator = Union[GExpr, Callable[[float], float]]

# e^(x^2/2), the generator of the star-power family.
EXP_HALF = algebra.gaussian(Fraction(1, 2))

# Relative offset of the split point t*(1 - 2**-20) below which the defining
# integral is computed in x and above which in w = t^2 - x^2, avoiding the
# cancellation in t^2 - x^2 near x = t.
_SPLIT = 1.0 - 2.0 ** -20


def convolve_symbolic(f: GExpr, g: GExpr) -> GExpr:
    """Exact convolution via transform, multiply, invert.

    Products of proper transforms are proper, so inversion cannot hit
    constant content here.
    """
    return transform.inverse(transform.multiply(transform.forward(f), transform.forward(g)))


def star_power(f: GExpr, n: int) -> GExpr:
    """n-fold convolution power of f; transform.power rejects n < 1 or non-integer n."""
    return transform.inverse(transform.power(transform.forward(f), n))


def _as_callable(f: Evaluator) -> Callable[[float], float]:
    if isinstance(f, GExpr):
        return lambda x: algebra.evaluate(f, x)
    return f


def convolve_numeric(f: Evaluator, g: Evaluator, t: float,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Adaptive quadrature of the defining integral at argument t >= 0."""
    if t < 0:
        raise ValueError("convolution argument t must be nonnegative")
    if t == 0:
        return 0.0
    fe, ge = _as_callable(f), _as_callable(g)
    x_split = t * _SPLIT

    def head(x: float) -> float:
        return x * fe(math.sqrt(t * t - x * x)) * ge(x)

    def tail(w: float) -> float:
        return 0.5 * fe(math.sqrt(w)) * ge(math.sqrt(t * t - w))

    w_hi = t * t - x_split * x_split
    return integrate_interval(head, 0.0, x_split, cfg) + integrate_interval(tail, 0.0, w_hi, cfg)

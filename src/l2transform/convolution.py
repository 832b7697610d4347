"""The half-line convolution

    (f * g)(t) = integral_0^t  x f(sqrt(t^2 - x^2)) g(x) dx

whose transform is the product of the transforms.  The symbolic route goes
through the transform domain (the algebra is closed under the operation by
the product theorem); the defining integral is kept as the independent
numeric oracle, computed in v = (x/t)^2 on [0, 1].
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Union

from . import algebra, transform
from .algebra import GExpr
from .quadrature import integrate_interval

Evaluator = Union[GExpr, Callable[[float], float]]

# e^(x^2/2), the generator of the star-power family.
EXP_HALF = algebra.gaussian(Fraction(1, 2))


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


def convolve_numeric(f: Evaluator, g: Evaluator, t: float) -> float:
    """Adaptive quadrature of the defining integral at argument t >= 0.

    x = t sqrt(v) gives x dx = (t^2/2) dv and sqrt(t^2 - x^2) = t sqrt(1 - v):
    one integral over v in [0, 1], free of the cancellation in t^2 - x^2 near
    x = t.  Elements of the algebra, functions of x^2, give an integrand entire
    in v; odd powers of x in a bare callable give sqrt-type ends, so more panels.
    t^2/2 stays inside, so quadrature.ABS_TOL applies to the convolution's own value.
    """
    if not t >= 0:
        raise ValueError("convolution argument t must be nonnegative")
    if t == 0:
        return 0.0
    fe, ge = _as_callable(f), _as_callable(g)
    return integrate_interval(
        lambda v: 0.5 * t * t * fe(t * math.sqrt(1.0 - v)) * ge(t * math.sqrt(v)), 0.0, 1.0)

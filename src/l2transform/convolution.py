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

from . import algebra, transform
from .algebra import GExpr
from .quadrature import integrate_interval

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


def convolve_numeric(f: GExpr, g: GExpr, t: float) -> float:
    """Adaptive quadrature of the defining integral at argument t >= 0.

    x = t sqrt(v) gives x dx = (t^2/2) dv and sqrt(t^2 - x^2) = t sqrt(1 - v):
    one integral over v in [0, 1], free of the cancellation in t^2 - x^2 near
    x = t.  Elements of the algebra are functions of x^2, so the integrand is
    entire in v.  t^2/2 stays inside, so quadrature.ABS_TOL applies to the
    convolution's own value.
    """
    if not t >= 0:
        raise ValueError("convolution argument t must be nonnegative")
    if t == 0:
        return 0.0
    return integrate_interval(
        lambda v: 0.5 * t * t * algebra.evaluate(f, t * math.sqrt(1.0 - v))
        * algebra.evaluate(g, t * math.sqrt(v)), 0.0, 1.0)

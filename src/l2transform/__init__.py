"""Exact symbolic and numeric toolkit for the L2 integral transform

    f  ->  integral_0^inf  x * exp(-x^2 s^2) * f(x) dx

over the algebra of finite sums c x**(2k) exp(a x^2) on [0, inf).  The
package computes forward and inverse transforms exactly (rational
coefficients throughout), implements the matching half-line convolution
calculus, solves four rows of one PDE class by the transform method with a
residual verification harness, classifies growth orders, and checks everything
against independent numerical quadrature.
"""

from .algebra import GExpr, GTerm, as_rational, canonicalize, delta_x, evaluate, limit_at_zero
from .convolution import EXP_HALF, convolve_numeric, convolve_symbolic, star_power
from .errors import (
    DivergentIntegralError,
    GridDomainError,
    ImpulseContentError,
    L2TransformError,
    NonPositiveSampleError,
    QuadratureFailureError,
    SchemaError,
)
from .growth import GrowthReport, check_bound, classify_exact, estimate_rate
from .pde import (
    Convention,
    Family,
    LPoly,
    PDEProblem,
    ResidualReport,
    SeriesSolution,
    default_grid,
    lpoly,
    profile_gexpr,
    residual,
    solve_family_a,
    solve_family_b,
    solve_family_c,
    solve_family_d,
    truncation_bound,
)
from .quadrature import l2_quadrature
from .transform import SExpr, STerm, delta_s, forward, inverse, mul_sigma, partial_fractions

__version__ = "0.1.0"

__all__ = [
    "GExpr", "GTerm", "SExpr", "STerm", "LPoly",
    "as_rational", "canonicalize", "evaluate", "delta_x", "limit_at_zero",
    "forward", "inverse", "delta_s", "mul_sigma", "partial_fractions",
    "convolve_symbolic", "convolve_numeric", "star_power", "EXP_HALF",
    "l2_quadrature",
    "Family", "Convention", "PDEProblem", "SeriesSolution", "ResidualReport",
    "lpoly", "default_grid", "residual", "truncation_bound", "profile_gexpr",
    "solve_family_a", "solve_family_b", "solve_family_c", "solve_family_d",
    "GrowthReport", "classify_exact", "estimate_rate", "check_bound",
    "L2TransformError", "ImpulseContentError", "DivergentIntegralError",
    "QuadratureFailureError", "SchemaError", "GridDomainError",
    "NonPositiveSampleError",
]

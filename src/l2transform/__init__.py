"""Exact symbolic and numeric toolkit for the L2 integral transform

    f  ->  integral_0^inf  x * exp(-x^2 s^2) * f(x) dx

over the algebra of finite sums c x**(2k) exp(a x^2) on [0, inf).  The
package computes forward and inverse transforms exactly (rational
coefficients throughout), implements the matching half-line convolution
calculus, solves four rows of one PDE class by the transform method with a
residual verification harness, classifies growth orders, and checks everything
against independent numerical quadrature.

Importing the package loads no submodule.  Each public name, and each
submodule that is the home of one, is loaded on first access through the
module-level `__getattr__` (PEP 562), so `l2t transform` never loads `pde`.
A name is returned, never bound here, so the package always hands out what
its home module binds now, also after a tracer has rebound it there.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "algebra": ["GExpr", "GTerm", "LPoly", "as_rational", "evaluate", "delta_x",
                "limit_at_zero", "lpoly"],
    "transform": ["SExpr", "STerm", "forward", "inverse", "delta_s", "mul_sigma",
                  "partial_fractions"],
    "convolution": ["convolve_symbolic", "convolve_numeric", "star_power", "EXP_HALF"],
    "quadrature": ["l2_quadrature"],
    "pde": ["Family", "Convention", "PDEProblem", "SeriesSolution", "ResidualReport",
            "default_grid", "residual", "truncation_bound", "profile_gexpr",
            "solve_family_a", "solve_family_b", "solve_family_c", "solve_family_d"],
    "growth": ["GrowthReport", "classify_exact", "estimate_rate", "check_bound"],
    "errors": ["L2TransformError", "ImpulseContentError", "DivergentIntegralError",
               "QuadratureFailureError", "SchemaError", "GridDomainError",
               "NonPositiveSampleError"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})

"""Exception types shared across the toolkit."""


class L2TransformError(Exception):
    """Base class for all toolkit errors."""


class ImpulseContentError(L2TransformError):
    """A transform-domain expression carries a sigma-constant term that has
    no function-valued inverse."""


class DivergentIntegralError(L2TransformError):
    """The transform integral diverges for the requested parameter (s**2
    does not exceed the integrand's Gaussian growth rate)."""


class QuadratureFailureError(L2TransformError):
    """The adaptive quadrature could not reach the requested tolerance:
    its subinterval budget ran out, the round-off floor of its error
    estimates alone already exceeds the tolerance, or the integrand gave
    NaN."""


class SchemaError(L2TransformError):
    """A JSON expression document violates the documented schema.

    Carries the offending location so callers can point at the field.
    """

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class GridDomainError(L2TransformError):
    """A residual grid point lies outside the open quadrant x > 0, t > 0."""


class NonPositiveSampleError(L2TransformError):
    """Growth-rate estimation received a sample where the function is not
    strictly positive, so the log-domain fit is undefined."""

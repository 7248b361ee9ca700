"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter is outside its documented domain."""


class GeometryError(ValueError):
    """A geometric configuration is degenerate or impossible."""


class UndefinedConditionalError(ValueError):
    """A conditional quantity was requested on a zero-probability event."""


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether to degrade gracefully.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound

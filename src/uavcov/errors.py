"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter is outside its documented domain."""


class GeometryError(ValueError):
    """A geometric configuration is degenerate or impossible."""

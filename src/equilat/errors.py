"""Domain-error hierarchy shared across the package."""


class EquilatError(Exception):
    """Base class for domain errors raised by equilat."""


class InvalidQuadError(EquilatError):
    """Vertex list does not describe a simple quadrilateral."""


class InconsistencyError(EquilatError):
    """Internal cross-check failed; signals wrong built-in data, not bad input."""


"""Domain-error hierarchy and the validating record base shared across the
package."""


class EquilatError(Exception):
    """Base class for domain errors raised by equilat."""


class InvalidQuadError(EquilatError):
    """Vertex list does not describe a simple quadrilateral."""


class InconsistencyError(EquilatError):
    """Internal cross-check failed; signals wrong built-in data, not bad input."""


class Checked:
    """Base of a NamedTuple that checks its fields, used as
    `class Spec(Checked, _Spec)` with `__slots__ = ()` over a private
    NamedTuple `_Spec`.  `_check(self)` raises on bad fields, and `_replace`,
    pickling and copying rerun it through the constructor."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

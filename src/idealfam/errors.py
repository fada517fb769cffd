"""Exception hierarchy shared across the package."""


class IdealfamError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(IdealfamError, ValueError):
    """Construction parameters violate a documented constraint."""


class DomainMismatchError(IdealfamError, TypeError):
    """Operands live in different rings, fields, or variable tables."""


class NotDivisibleError(IdealfamError, ArithmeticError):
    """A monomial quotient was requested for a non-divisible pair."""


class ArithmeticOverflowError(IdealfamError, OverflowError):
    """Exponent arithmetic exceeded the machine-word guard."""


class ParseError(IdealfamError, ValueError):
    """Input text is not valid polynomial or parameter syntax."""


class ResourceLimitError(IdealfamError, RuntimeError):
    """A computation exceeded a configured resource bound.

    When a partially computed object exists it is attached as ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class InternalError(IdealfamError, RuntimeError):
    """An internal invariant failed: a bug in this package, not bad input."""

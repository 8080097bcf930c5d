"""Exception types shared across the library."""


class QArithError(Exception):
    """Base class for all library errors."""


class InternalError(QArithError):
    """An internal self-check failed: a bug in qarith, not in the caller's input."""


class RingMismatchError(QArithError):
    """Operands belong to different rings."""


class UnsupportedError(QArithError):
    """The requested computation is not available or not decidable for this ring."""


class NotInvertibleError(QArithError):
    """An inverse was required but the element is not a unit."""


class DomainError(QArithError):
    """An argument lies outside the operation's domain."""


class ParseError(QArithError):
    """Syntax error in a ring or element expression."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class CompatibilityError(QArithError):
    """A family of roots violates the compatibility law q_{n'}^{m'} = q_n^m."""

    def __init__(self, n1, n2, message=None):
        self.pair = (n1, n2)
        super().__init__(message or f"incompatible roots for denominators {n1} and {n2}")


class NotAdmissibleError(QArithError):
    """The root system has some non-invertible (n)_{q_n}."""


class DenominatorNotCoveredError(QArithError):
    """The rational argument's denominator lies outside the covered set."""


class BasisUnavailableError(QArithError):
    """The twisted-power family is not a basis (leading structure not a unit)."""

"""Exception taxonomy shared by every module.

All library errors derive from BifillError so callers can catch one type.
DivisionByZero also subclasses ZeroDivisionError for stdlib compatibility.
"""


class BifillError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(BifillError):
    """Field characteristic is not a prime number."""


class FieldMismatch(BifillError):
    """Operands belong to different fields."""


class DivisionByZero(BifillError, ZeroDivisionError):
    """Division or inversion of the zero element."""


class NotASubfield(BifillError):
    """The target field does not keep the source field's element indices:
    it is not extension_field(source, m)."""


class ZeroPolynomial(BifillError):
    """Operation undefined for the zero polynomial (degree, factorization)."""


class ParseError(BifillError):
    """Polynomial text could not be parsed.

    Carries the 0-based character position of the first offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MixedBidegree(BifillError):
    """Parsed terms do not share a single bidegree."""


class BadCoefficient(BifillError):
    """Coefficient literal is not a valid element of the coefficient field."""


class BidegreeMismatch(BifillError):
    """Binary operation on forms of different bidegrees."""


class ZeroDivisor(BifillError):
    """Attempted exact division by the zero form."""


class NotFilling(BifillError):
    """Form does not vanish on every rational point pair."""


class BidegreeTooSmall(BifillError):
    """Bidegree lies below the threshold the operation requires."""


class BadShape(BifillError):
    """Coefficient matrix shape disagrees with the declared bidegree."""


class SetupViolation(BifillError):
    """Ingredient pair fails a required squarefree or no-rational-zero check."""


class UnsupportedQ(BifillError):
    """No construction variant is defined for this field size."""


class BadParameters(BifillError):
    """Supplied construction parameters fail their defining condition."""


class Infeasible(BifillError):
    """Requested computation exceeds a fixed search budget."""

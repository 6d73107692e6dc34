"""Exception hierarchy for the polydep package."""


class PolydepError(Exception):
    """Base class for every error raised by this package."""


class FieldMismatch(PolydepError):
    """Operands belong to different coefficient fields."""


class NotPrime(PolydepError):
    """Requested prime-field modulus is not prime."""


class InvalidFieldSpec(PolydepError):
    """Field selection string does not match 'q' or 'fp:<p>'."""


class DivisionByZero(PolydepError, ZeroDivisionError):
    """Exact division by zero."""


class FImageBaseMismatch(PolydepError):
    """Operands use different base polynomials f as denominator."""


class ZeroHasNoDegree(PolydepError):
    """Degree or leading coefficient of the zero element requested."""


class ZeroElement(PolydepError):
    """Operation undefined on the zero element."""


class NotPolynomial(PolydepError):
    """Laurent element has negative exponents where a polynomial is required."""


class NotDivisible(PolydepError):
    """No standard monomial exists: degree not divisible by the current gcd."""


class ConstantInput(PolydepError):
    """Both input polynomials must have degree at least 1."""


class WrongCharacteristic(PolydepError):
    """Operation restricted to a specific field characteristic."""


class PreconditionFailed(PolydepError):
    """A documented precondition does not hold for the given input."""


class InternalInvariantViolation(PolydepError):
    """A structural invariant failed; indicates a bug, not bad input."""


class IterationCapExceeded(InternalInvariantViolation):
    """Reduction loop hit its cap; a diagnostic, never a mathematical outcome."""


class PolySyntaxError(PolydepError):
    """Polynomial text does not conform to the input grammar."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CoefficientNotInField(PolydepError):
    """Parsed coefficient has no image in the requested field."""


class DegreeCapExceeded(PolydepError):
    """Inputs exceed the configured degree cap of an oracle routine."""

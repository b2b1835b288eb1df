"""Typed errors shared across the library."""


class FrobkitError(Exception):
    """Base class for all library errors."""


class DescriptorMismatch(FrobkitError):
    """Operands belong to different fields."""


class DivisionByZero(FrobkitError, ZeroDivisionError):
    """Division or inversion of a zero element / zero polynomial."""


class ShapeMismatch(FrobkitError, ValueError):
    """Matrix or vector shapes incompatible with the operation."""


class NotSquare(ShapeMismatch):
    """Operation requires a square matrix."""


class NotMonic(FrobkitError, ValueError):
    """Polynomial must be monic."""


class NotIrreducible(FrobkitError, ValueError):
    """Polynomial must be irreducible."""


class NotCoprime(FrobkitError, ValueError):
    """Rational function must be coprime to the characteristic polynomial."""


class NonInvertibleDenominator(FrobkitError, ValueError):
    """Denominator evaluates to a singular matrix."""


class NotFiniteField(FrobkitError, TypeError):
    """Operation is only defined over a finite field."""


class EvenCharacteristicUnsupported(FrobkitError, ValueError):
    """Operation requires characteristic different from 2."""


class LengthMismatch(FrobkitError, ValueError):
    """Coefficient / moment sequences have incompatible lengths."""


class TooLargeForExhaustive(FrobkitError, ValueError):
    """Requested exhaustive enumeration exceeds the configured bound."""


class AlgorithmDisagreement(FrobkitError, AssertionError):
    """Two independent algorithms produced different results (a bug sentinel)."""


class ParseError(FrobkitError, ValueError):
    """Malformed text or JSON input."""


class ConfigError(FrobkitError, ValueError):
    """Invalid verification configuration."""

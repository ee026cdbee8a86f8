"""Exception types shared across the library."""


class CCSymError(Exception):
    """Base class for all library errors."""


class MixedRings(CCSymError):
    """Operands belong to different coefficient rings."""


class MixedFields(CCSymError):
    """Operands live over incompatible local fields."""


class NonUnit(CCSymError):
    """An inverse or unit-only operation was applied to a non-unit."""


class UnsupportedRing(CCSymError):
    """No such ring (non-prime p, exponent or truncation order below 1), or
    the operation is not defined for this ring kind."""


class NotAHomomorphism(CCSymError):
    """A coefficient-map descriptor does not define a ring homomorphism."""


class NotAUniformizer(CCSymError):
    """Substitution series is not of the form c*t + t^2*h with c a unit."""


class IndeterminateAtPrecision(CCSymError):
    """The stored precision does not determine the requested answer."""


class InsufficientPrecision(CCSymError):
    """Inputs are too short for the symbol to be evaluated exactly."""


class InvariantViolation(CCSymError):
    """An internal invariant of the unit factorisation failed to hold."""


class IdentityViolated(CCSymError):
    """Two routes to the same value disagree; ``lhs`` and ``rhs`` are the sides."""

    def __init__(self, message: str, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(message)


class SectionCollision(CCSymError):
    """Two distinct sections reduce to the same closed point."""


class NonZeroSum(CCSymError):
    """A residue assignment does not sum to zero."""


class ParseError(CCSymError):
    """Malformed input text; carries the offending position."""

    def __init__(self, message: str, text: str = "", pos: int = -1):
        self.text = text
        self.pos = pos
        if pos >= 0:
            message = f"{message} (at position {pos} in {text!r})"
        super().__init__(message)

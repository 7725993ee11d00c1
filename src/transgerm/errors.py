"""Exception hierarchy.

Every error carries a stable machine-readable ``code``, so callers can tell
refusals apart without parsing messages.
"""

from __future__ import annotations


class TransgermError(Exception):
    """Base class for all library errors."""

    code = "error"

    def __init__(self, message: str = "", **info):
        super().__init__(message or self.__doc__ or self.code)
        self.info = info


# -- germ layer ------------------------------------------------------------

class NonHardyExpression(TransgermError):
    """A subexpression is not eventually positive where required."""

    code = "non-hardy-expression"


class DepthLimitExceeded(TransgermError):
    """Exponential nesting exceeds the configured depth bound."""

    code = "depth-limit-exceeded"


class NotInFragment(TransgermError):
    """The expression denotes a Hardy germ outside the computable fragment."""

    code = "not-in-fragment"


class Unclassifiable(TransgermError):
    """The level/height recursion does not apply to this germ."""

    code = "unclassifiable"


class NotDecreasing(TransgermError):
    """Tuple violates the required strict dominance ordering."""

    code = "not-decreasing"


class NotIncreasing(TransgermError):
    """A germ that must be infinitely increasing is not: the right argument
    of a composition, or the argument of a compositional inverse."""

    code = "not-increasing"


class DomainError(TransgermError):
    """Numeric evaluation outside a subterm's domain."""

    code = "domain-error"


# -- scale layer -----------------------------------------------------------

class NotAnAsymptoticScale(TransgermError):
    """Generators do not form an admissible asymptotic scale."""

    code = "not-an-asymptotic-scale"


class ScaleMismatch(TransgermError):
    """Operands belong to different scales."""

    code = "scale-mismatch"


class ArityMismatch(TransgermError):
    """Series operands have different arity."""

    code = "arity-mismatch"


# -- series layer ----------------------------------------------------------

class ZeroWithinBound(TransgermError):
    """No nonzero coefficient found within the enumeration budget."""

    code = "zero-within-bound"


class OrderNotPositive(TransgermError):
    """Composition requires a series of positive order."""

    code = "order-not-positive"


class CutoffTooDeep(TransgermError):
    """Enumeration to the requested cutoff exceeds the term budget."""

    code = "cutoff-too-deep"


class WitnessViolated(TransgermError):
    """Supplied coinitiality witness contradicts the enumerated data."""

    code = "witness-violated"


class NotMarkedConvergent(TransgermError):
    """Numeric summation requires a convergence tag."""

    code = "not-marked-convergent"


class NotAScaleAfterShift(TransgermError):
    """Composed generators fail scale validation."""

    code = "not-a-scale-after-shift"

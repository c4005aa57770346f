"""Domain errors.

Every failure mode that callers are expected to handle gets its own class;
anything else is a plain ValueError and means the caller violated a
precondition.
"""


class NotAdmissible(ValueError):
    """Word is empty, ends in d or has a letter other than d and y, where an
    admissible word is required."""


class LambdaZero(ValueError):
    """The deformed shuffle recursion divides by lambda; use shuffle_zero."""


class PrecisionExceeded(ArithmeticError):
    """A coefficient beyond a series' validity horizon was requested.

    Raised instead of returning a silently wrong value.  The characters and
    the Birkhoff tables plan their windows exactly, so from them it means a
    broken invariant, not a window to widen and retry.
    """


class NonzeroConstantTerm(ValueError):
    """J / delta act on power series with vanishing constant term only."""


class TruncationMismatch(ValueError):
    """Evaluating t = q needs t-truncation >= q-truncation."""


class EvenWeight(ValueError):
    """Depth-2 continuation values exist in closed form only at odd a+b."""


class NonvanishingLowerTerm(ArithmeticError):
    """A rescaled q-limit found a non-vanishing coefficient below z^{sum k}.

    The renormalized q-values are well defined precisely because those
    coefficients vanish; seeing one is an implementation bug, not a domain
    condition.
    """


class DepthOne(ValueError):
    """The primitive-decomposition recursion needs depth >= 2 (2^dpt - 2 > 0)."""

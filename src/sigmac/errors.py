"""Exception types shared across the package."""


class SigmacError(Exception):
    """Base class for all library-specific errors."""


class NoCentralCoefficient(SigmacError, ValueError):
    """The requested row has an even number of entries, so no central one exists."""


class CapacityError(SigmacError):
    """An exhaustive enumeration would exceed the configured budget.

    `budget` names that budget, as the limit checks in core record it: "z"
    for the 3^n walk over sign patterns z, "u" for the 2^n search over
    activity vectors u.  The CLI's advice (--limit-z or --limit-u) is read
    from it.
    """

    def __init__(self, message: str, budget: str | None = None):
        super().__init__(message)
        self.budget = budget


class AmbiguousDecoding(SigmacError):
    """Two candidates explain the received word equally well.

    This is a contract violation upstream (error budget exceeded or code too
    weak), never a silent tie-break.
    """


class DecodingFailure(SigmacError):
    """No codeword within the decoding radius."""


class ConstructionFailure(SigmacError):
    """A randomized or exhaustive search exhausted its budget."""

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts

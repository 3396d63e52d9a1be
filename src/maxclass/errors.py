"""Exception types shared across the package."""


class MaxclassError(Exception):
    """Base class for all package-specific errors."""


class ExceptionalPrimeError(MaxclassError):
    """Raised when p is too small for the uniform theory to apply.

    The eigenvalue formulas divide by factorials up to (n-1)!, so the
    machinery here requires p >= n (and the orbit layer p >= n-1).
    Smaller primes need a genuinely different analysis and are out of
    scope for this toolkit.
    """


class BudgetExceededError(MaxclassError):
    """Raised when an enumeration would exceed the configured budget."""


class GuardExceededError(MaxclassError):
    """Raised when a table or matrix would exceed its size guard."""


class InternalCheckError(MaxclassError):
    """A structural identity the implementation relies on failed.

    This always indicates a bug (or a convention drift), never bad input.
    """

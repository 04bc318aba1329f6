"""Exception types shared across the package."""


class WalkrangeError(Exception):
    """Base class for all package errors."""


class BackendMismatch(WalkrangeError):
    """Two series with different coefficient backends were combined."""


class DivByNonUnit(WalkrangeError):
    """Division or log of a truncated series whose constant term is zero."""


class NonUnit(DivByNonUnit):
    """A vertex-factor argument 1 + w is not invertible."""


class BudgetExceeded(WalkrangeError):
    """An exhaustive enumeration would exceed the configured work budget."""


class MarkerOverflow(WalkrangeError):
    """A marker-polynomial expansion did not terminate within its bounds."""


class IllConditioned(WalkrangeError):
    """A float result failed its accuracy check: a rate fit, a division or
    an eigenvalue computation left residuals above tolerance."""


class DomainError(WalkrangeError):
    """An evaluation point lies outside the valid domain."""


class NonFiniteCoefficient(WalkrangeError):
    """A float-backend operation produced NaN or infinity."""

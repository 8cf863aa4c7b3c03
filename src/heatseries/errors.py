"""Exception types shared across the package, and the one check of an
integer size argument."""

import numbers


class HeatSeriesError(Exception):
    """Base class for all library errors."""


class DomainError(HeatSeriesError, ValueError):
    """An argument lies outside an operation's documented domain."""


class IntegrabilityError(HeatSeriesError, RuntimeError):
    """A quadrature did not converge, typically because the integrand
    decays too slowly.  Carries the offending multi-index when there is
    one, and from a batch of quadrature rows the failed rows, ascending
    (the message is the lowest one's)."""

    def __init__(self, message, alpha=None, rows=()):
        super().__init__(message)
        self.alpha = alpha
        self.rows = rows


class UnsupportedVariantError(HeatSeriesError, TypeError):
    """The initial-datum variant cannot support the requested operation."""


def check_integer(name: str, value) -> None:
    """Raise DomainError unless ``value`` is an integer: a numpy integer
    passes, a bool or a float with an integral value does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")

"""Exception types shared across the package, and the checks of an
integer size argument and of a time argument."""

import math
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


def check_time(name: str, value, *, zero: bool = False, signed: bool = False) -> None:
    """Raise DomainError unless ``value`` is a finite real number that is
    not a bool (a numpy floating or integer scalar passes) and is > 0;
    ``zero`` also admits 0, and ``signed`` any sign, as a log time has."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if not (signed or value > 0 or zero and value == 0):
        raise DomainError(f"{name} must be {'>=' if zero else '>'} 0, got {value!r}")

"""Exception types shared across the package, and the checks of an
integer argument and of a real one, each with its range."""

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


def check_integer(name: str, value, lo=None, hi=None) -> None:
    """Raise DomainError unless ``value`` is an integer in [lo, hi], a None
    bound being open: a numpy integer passes, a bool or a float with an
    integral value does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if lo is not None and value < lo or hi is not None and value > hi:
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{name} must be {span}, got {value!r}")


def check_real(name: str, value, above: float = 0.0, *, zero: bool = False) -> None:
    """Raise DomainError unless ``value`` is a finite real number that is
    not a bool (a numpy floating or integer scalar passes) and is > above;
    ``zero`` also admits ``above`` itself, and above=-inf any sign, as a
    log time or a breakpoint has."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if not (value > above or zero and value == above):
        raise DomainError(f"{name} must be {'>=' if zero else '>'} {above:g}, got {value!r}")

"""Special-function kernel: Hermite and generalized Laguerre recurrences
and log-Gamma; Gaussian-weighted Hermite values come back as SignedLog
scalars (defined in signedlog).

Everything here is evaluated through three-term recurrences or a Lanczos
series; no series is truncated adaptively, so results are deterministic.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .signedlog import ZERO, SignedLog

#: Hard cap on recurrence depth for the polynomial evaluators.
RECURRENCE_DEPTH_CAP = 400

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Lanczos coefficients for g = 7, n = 9; relative accuracy of the Gamma
# value is a few 1e-16 over the positive half line, which leaves log-Gamma
# good to well below 1e-12 everywhere we evaluate it.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def log_gamma(z: float) -> float:
    """Natural log of Gamma(z) for z > 0 by a fixed Lanczos approximation."""
    if not z > 0.0:
        raise DomainError(f"log_gamma requires z > 0, got {z}")
    w = z - 1.0
    series = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        series += _LANCZOS_COEFFS[i] / (w + i)
    base = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * math.log(base) - base + math.log(series)


def log_factorial(n: int) -> float:
    """ln(n!) for n >= 0."""
    if n < 0:
        raise DomainError(f"log_factorial requires n >= 0, got {n}")
    return log_gamma(n + 1.0)


def _check_depth(n: int, name: str) -> None:
    if n < 0:
        raise DomainError(f"{name} requires n >= 0, got {n}")
    if n > RECURRENCE_DEPTH_CAP:
        raise DomainError(
            f"{name} order {n} exceeds the recurrence depth cap "
            f"{RECURRENCE_DEPTH_CAP}"
        )


def hermite(n: int, x: float) -> float:
    """Physicists' Hermite polynomial H_n(x) by the recurrence
    H_{n+1} = 2 x H_n - 2 n H_{n-1}.

    Values may overflow to +-inf for large n and |x|; use
    :func:`hermite_weighted` when the Gaussian-weighted value is wanted.
    """
    _check_depth(n, "hermite")
    if n == 0:
        return 1.0
    prev, cur = 1.0, 2.0 * x
    for m in range(1, n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * m * prev
    return cur


def hermite_weighted(n: int, x: float) -> SignedLog:
    """H_n(x) * exp(-x^2) as a SignedLog, overflow-safe for any order
    up to the recurrence cap: the last entry of
    :func:`hermite_weighted_sequence`.
    """
    _check_depth(n, "hermite_weighted")
    return hermite_weighted_sequence(n, x)[-1]


def hermite_weighted_sequence(n_max: int, x: float) -> list[SignedLog]:
    """All of H_0(x) e^{-x^2} .. H_{n_max}(x) e^{-x^2} from one recurrence pass.

    The recurrence runs on values scaled by a running power of two, so the
    rescaling steps are exact and only the pair of multiply-adds per step
    rounds.
    """
    _check_depth(n_max, "hermite_weighted_sequence")
    shift = -x * x  # log of the common scale carried outside the recurrence
    prev, cur = 0.0, 1.0  # scaled H_{-1}, H_0
    out = [_scaled_signedlog(cur, shift)]
    for m in range(n_max):
        prev, cur = cur, 2.0 * x * cur - 2.0 * m * prev
        big = max(abs(prev), abs(cur))
        if big > 1e250:
            exp2 = math.frexp(big)[1]
            prev = math.ldexp(prev, -exp2)
            cur = math.ldexp(cur, -exp2)
            shift += exp2 * math.log(2.0)
        out.append(_scaled_signedlog(cur, shift))
    return out


def _scaled_signedlog(mantissa: float, shift: float) -> SignedLog:
    if mantissa == 0.0:
        return ZERO
    return SignedLog(1 if mantissa > 0.0 else -1, shift + math.log(abs(mantissa)))


def laguerre(n: int, a: float, x: float) -> float:
    """Generalized Laguerre polynomial L_n^{(a)}(x) for a > -1.

    Uses (n+1) L_{n+1} = (2n + 1 + a - x) L_n - (n + a) L_{n-1}.
    """
    if a <= -1.0:
        raise DomainError(f"laguerre requires a > -1, got a={a}")
    _check_depth(n, "laguerre")
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + a - x
    for m in range(1, n):
        prev, cur = cur, ((2.0 * m + 1.0 + a - x) * cur - (m + a) * prev) / (m + 1.0)
    return cur

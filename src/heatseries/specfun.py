"""Special-function kernel: Hermite and generalized Laguerre recurrences
and log-Gamma; Gaussian-weighted Hermite values come back as signs and
logs, or as SignedLog scalars (defined in signedlog).

The polynomials are evaluated through three-term recurrences and log-Gamma
is the C library's ``lgamma`` (through ``math.lgamma``); no series is
truncated adaptively, so results are deterministic.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .signedlog import ZERO, SignedLog

#: Hard cap on recurrence depth for the polynomial evaluators.
RECURRENCE_DEPTH_CAP = 400


def log_gamma(z: float) -> float:
    """Natural log of Gamma(z) for finite z > 0: ``math.lgamma`` behind a
    domain guard that also rejects NaN and inf.  Past z ~ 2.5e305 the
    value leaves the double range and comes back as inf."""
    if not 0.0 < z < math.inf:
        raise DomainError(f"log_gamma requires finite z > 0, got {z}")
    try:
        return math.lgamma(z)
    except OverflowError:
        return math.inf


def log_gamma_halves(n: int) -> list[float]:
    """ln Gamma((c+1)/2) for c = 0..n: the per-component factor of a
    Gaussian or radial moment at entry c.

    Moment routines read this lookup instead of calling :func:`log_gamma`
    once per multi-index component; every entry is the same double that
    call returns.
    """
    if n < 0:
        raise DomainError(f"log_gamma_halves requires n >= 0, got {n}")
    return [math.lgamma((c + 1) / 2.0) for c in range(n + 1)]


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
    :func:`hermite_weighted_logs`.
    """
    _check_depth(n, "hermite_weighted")
    signs, logs = hermite_weighted_logs(n, x)
    return SignedLog(signs[-1], logs[-1]) if signs[-1] else ZERO


def hermite_weighted_sequence(n_max: int, x: float) -> list[SignedLog]:
    """All of H_0(x) e^{-x^2} .. H_{n_max}(x) e^{-x^2} as SignedLog values:
    :func:`hermite_weighted_logs` entry by entry."""
    _check_depth(n_max, "hermite_weighted_sequence")
    signs, logs = hermite_weighted_logs(n_max, x)
    return [SignedLog(s, v) if s else ZERO for s, v in zip(signs, logs)]


def hermite_weighted_logs(n_max: int, x: float) -> tuple[list[int], list[float]]:
    """H_0(x) e^{-x^2} .. H_{n_max}(x) e^{-x^2} from one recurrence pass, as
    (signs, logs): sign in {-1, 0, 1} and ln |H_n(x)| - x^2, with log 0.0
    where the value is exactly zero.

    The recurrence runs on values scaled by a running power of two, so the
    rescaling steps are exact and only the pair of multiply-adds per step
    rounds.
    """
    _check_depth(n_max, "hermite_weighted_logs")
    shift = -x * x  # log of the common scale carried outside the recurrence
    prev, cur = 0.0, 1.0  # scaled H_{-1}, H_0
    signs, logs = [1], [shift + math.log(cur)]
    for m in range(n_max):
        prev, cur = cur, 2.0 * x * cur - 2.0 * m * prev
        big = max(abs(prev), abs(cur))
        if big > 1e250:
            exp2 = math.frexp(big)[1]
            prev = math.ldexp(prev, -exp2)
            cur = math.ldexp(cur, -exp2)
            shift += exp2 * math.log(2.0)
        if cur == 0.0:
            signs.append(0)
            logs.append(0.0)
        else:
            signs.append(1 if cur > 0.0 else -1)
            logs.append(shift + math.log(abs(cur)))
    return signs, logs


def laguerre(n: int, a: float, x: float) -> float:
    """Generalized Laguerre polynomial L_n^{(a)}(x) for finite a > -1: the last
    entry of :func:`laguerre_sequence`."""
    return laguerre_sequence(n, a, x)[-1]


def laguerre_sequence(n_max: int, a: float, x: float) -> list[float]:
    """L_0^{(a)}(x) .. L_{n_max}^{(a)}(x) for finite a > -1 from one pass of

        (n+1) L_{n+1} = (2n + 1 + a - x) L_n - (n + a) L_{n-1}.
    """
    if not -1.0 < a < math.inf:
        raise DomainError(f"laguerre requires finite a > -1, got a={a}")
    _check_depth(n_max, "laguerre")
    prev, cur = 0.0, 1.0  # L_{-1}, L_0
    out = [cur]
    for m in range(n_max):
        prev, cur = cur, ((2.0 * m + 1.0 + a - x) * cur - (m + a) * prev) / (m + 1.0)
        out.append(cur)
    return out

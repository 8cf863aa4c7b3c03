"""Scalars stored as a sign plus the log of their magnitude.

Moment sums mix factorials, Gamma values and powers whose intermediate
magnitudes overflow doubles long before the assembled quantities do, so a
SignedLog is a sign/log record with a product, and sums are reduced in one
place, :func:`aligned_sum_arrays`, by aligning every term to the largest
exponent and running a compensated plain-arithmetic sum on the aligned
mantissas.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True, slots=True)
class SignedLog:
    """A real number as ``sign * exp(logmag)`` with sign in {-1, 0, +1}.

    ``sign == 0`` encodes exact zero; ``logmag`` is meaningless then and is
    normalised to 0.0 by the constructors below.
    """

    sign: int
    logmag: float

    @staticmethod
    def from_float(x: float) -> "SignedLog":
        if x == 0.0:
            return ZERO
        return SignedLog(1 if x > 0.0 else -1, math.log(abs(x)))

    @staticmethod
    def from_log(logmag: float, sign: int = 1) -> "SignedLog":
        if sign == 0:
            return ZERO
        return SignedLog(1 if sign > 0 else -1, logmag)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            mag = math.exp(self.logmag)
        except OverflowError:
            mag = math.inf
        return self.sign * mag

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        if self.sign == 0 or other.sign == 0:
            return ZERO
        return SignedLog(self.sign * other.sign, self.logmag + other.logmag)


ZERO = SignedLog(0, 0.0)


def aligned_sum(terms: Iterable[SignedLog]) -> SignedLog:
    """Sum SignedLog terms by exponent alignment: :func:`aligned_sum_arrays`
    of the nonzero terms."""
    live = [t for t in terms if t.sign != 0]
    return aligned_sum_arrays(
        np.array([t.sign for t in live], np.int8),
        np.array([t.logmag for t in live], np.float64),
    )


def aligned_sum_arrays(signs: np.ndarray, logmags: np.ndarray) -> SignedLog:
    """Sum the terms ``signs[i] * exp(logmags[i])``, every sign nonzero, by
    exponent alignment.

    All terms are rescaled by the largest log magnitude and the aligned
    mantissas are reduced with :func:`math.fsum`, so the only precision loss
    is the final rounding plus underflow of terms more than ~700 nats below
    the peak (whose relative contribution is < 1e-300).  Since ``fsum``
    rounds once, the result does not depend on the order of the terms.
    """
    if not len(logmags):
        return ZERO
    peak = float(logmags.max())
    if peak == -math.inf:
        return ZERO
    gaps = (logmags - peak).tolist()
    total = math.fsum(map(operator.mul, signs.tolist(), map(math.exp, gaps)))
    if total == 0.0:
        return ZERO
    return SignedLog(1 if total > 0.0 else -1, peak + math.log(abs(total)))

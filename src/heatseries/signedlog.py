"""Scalars stored as a sign plus the log of their magnitude.

Moment sums mix factorials, Gamma values and powers whose intermediate
magnitudes overflow doubles long before the assembled quantities do, so a
SignedLog is a sign/log record with a product, and sums are reduced in one
place, :func:`aligned_sums`, by aligning every term to the largest
exponent and running a compensated plain-arithmetic sum on the aligned
mantissas.  It reduces many spans of one term array in a call: a sum's bits
depend only on its peak and its terms, so spans with the same peak share one
exponential pass.  :func:`aligned_sum_arrays` is its one-span case.
Every log-space sum of the package goes through it, the degree shells of F
and of the Parseval energy included, except one plain numpy sum:
``moments._evolve_axis``, whose per-row sums over up to 10^6 rows would be
far slower with a Python pass per distinct peak.  The package's rounding
model lives here too: the unit roundoff U, EPS = 2U, and the allowances on
this module's arithmetic, :func:`exp_rounding` and LOG_ROUNDING.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: The unit roundoff of doubles, and their machine epsilon 2U.
U = 2.0**-53
EPS = 2.0 * U

#: log of the relative rounding allowance of :func:`divergence_lower_bound`,
#: 1e-13.  Near a tie (q just above 1 at k = 2, or d = 1, q = 2, k = 2, where
#: the formula is 0 exactly) the formula and a floating-point |u_k(0, t)| are
#: both rounding noise.  Over d = 1-3, q in (1, 8] and even k <= 200 (k <= 80
#: in d = 3), the formula exceeded eval_uk's |u_k(0, t)| by at most 7.6e-16
#: of the magnitudes it combines; the allowance is that measurement with a
#: margin of about 100.
LOG_ROUNDING = math.log(1e-13)


def exp_rounding(*logs: float) -> float:
    """Relative rounding of exp(sum of logs) when each log is within 2 ulps
    of its value: 2 ulps per log and 1 ulp per add, each at most eps times
    the sum of |logs|, on the exponent, and 1 ulp from exp."""
    return EPS * ((len(logs) + 1) * math.fsum(map(abs, logs)) + 1.0)


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
    exponent alignment: the one-span case of :func:`aligned_sums`."""
    return aligned_sums(signs, logmags, [(0, len(logmags))])[0]


def aligned_sums(
    signs: np.ndarray, logmags: np.ndarray, spans: Sequence[tuple[int, int]]
) -> list[SignedLog]:
    """The sum of the terms ``signs[i] * exp(logmags[i])``, every sign
    nonzero, over each span ``lo <= i < hi`` of ``spans``, by exponent
    alignment.

    A span's terms are rescaled by its largest log magnitude and the aligned
    mantissas are reduced with :func:`math.fsum`, so the only precision loss
    is the final rounding plus underflow of terms more than ~700 nats below
    the peak (whose relative contribution is < 1e-300).  Since ``fsum``
    rounds once, a sum does not depend on the order of its terms, and since
    an aligned mantissa depends only on its term and the peak, spans with
    the same peak (bit for bit) share one ``math.exp`` pass.  Every span's
    peak comes from one ``reduceat`` over the span ends, the even entries,
    with a -inf behind the terms so that an end at the last term is an
    index.  An empty span, or one whose peak is -inf, sums to ZERO.
    """
    sums = [ZERO] * len(spans)
    live = [i for i, (lo, hi) in enumerate(spans) if hi > lo]
    if not live:
        return sums
    ends = np.array([spans[i] for i in live]).ravel()
    peaks = np.maximum.reduceat(np.append(logmags, -math.inf), ends)[::2]
    # the spans of each peak, keyed by its bits (NaN != NaN), and the terms
    # from the first of them to the last, [a, b)
    shared: dict[int, list] = {}
    for i, key, peak in zip(live, peaks.view(np.int64).tolist(), peaks.tolist()):
        lo, hi = spans[i]
        group = shared.setdefault(key, [peak, lo, hi, []])
        group[1:3] = min(group[1], lo), max(group[2], hi)
        group[3].append(i)
    for peak, a, b, members in shared.values():
        totals = _sums_at(signs, logmags, peak, a, b, [spans[i] for i in members])
        for i, total in zip(members, totals):
            sums[i] = total
    return sums


def _sums_at(
    signs: np.ndarray, logmags: np.ndarray, peak: float, a: int, b: int,
    spans: list[tuple[int, int]],
) -> list[SignedLog]:
    """The aligned sum of each non-empty span of ``spans``, every one of
    peak ``peak`` and within [a, b), from one ``math.exp`` pass over the
    terms of [a, b)."""
    if peak == -math.inf:
        return [ZERO] * len(spans)
    gaps = (logmags[a:b] - peak).tolist()
    aligned = map(operator.mul, signs[a:b].tolist(), map(math.exp, gaps))
    if len(spans) > 1:
        aligned = list(aligned)
    sums = []
    for lo, hi in spans:
        total = math.fsum(aligned if (lo, hi) == (a, b) else aligned[lo - a : hi - a])
        sums.append(
            ZERO if total == 0.0 else SignedLog(1 if total > 0.0 else -1, peak + math.log(abs(total)))
        )
    return sums

"""Sign/log-magnitude records: float round-trips, the product's laws, the
peak-aligned sum, over one span and over many, and the rounding allowance
of exp of a sum of logs against a decimal ground truth."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heatseries import ZERO, SignedLog, aligned_sum
from heatseries.moments import Gaussian, abs_moment
from heatseries.signedlog import aligned_sum_arrays, aligned_sums, exp_rounding
from heatseries.specfun import log_factorial

finite = st.floats(
    min_value=-1e12,
    max_value=1e12,
    allow_nan=False,
    allow_infinity=False,
).filter(lambda x: x == 0.0 or abs(x) > 1e-12)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


@given(finite)
def test_roundtrip(x):
    # exp(log x) costs about |log x| * eps relative
    assert close(SignedLog.from_float(x).to_float(), x, rel=1e-13)


def test_zero_and_one():
    one = SignedLog.from_float(1.0)
    assert SignedLog.from_float(0.0) == ZERO == SignedLog.from_log(5.0, sign=0)
    assert ZERO.to_float() == 0.0
    assert one == SignedLog(1, 0.0) and one.to_float() == 1.0
    assert one * ZERO == ZERO * one == ZERO
    assert aligned_sum([ZERO, one]) == one


@given(finite, finite)
def test_mul_matches_float(a, b):
    got = (SignedLog.from_float(a) * SignedLog.from_float(b)).to_float()
    assert close(got, a * b, rel=1e-13)


@given(finite, finite)
def test_commutativity(a, b):
    sa, sb = SignedLog.from_float(a), SignedLog.from_float(b)
    assert sa * sb == sb * sa
    assert aligned_sum([sa, sb]) == aligned_sum([sb, sa])


@given(finite, finite, finite)
def test_mul_associativity(a, b, c):
    sa, sb, sc = (SignedLog.from_float(v) for v in (a, b, c))
    left = ((sa * sb) * sc).to_float()
    right = (sa * (sb * sc)).to_float()
    assert close(left, right, rel=1e-13)


def test_exact_cancellation():
    x = SignedLog.from_float(3.7)
    assert aligned_sum([x, SignedLog(-1, x.logmag)]) == ZERO


def test_huge_magnitudes():
    big = SignedLog.from_log(50_000.0)
    assert big.to_float() == math.inf  # overflow only on conversion
    prod = big * SignedLog.from_log(-50_000.0)
    assert close(prod.to_float(), 1.0, rel=1e-12)


@given(st.lists(finite, min_size=1, max_size=40))
def test_aligned_sum_matches_fsum(values):
    got = aligned_sum(SignedLog.from_float(v) for v in values).to_float()
    want = math.fsum(values)
    scale = max((abs(v) for v in values), default=1.0)
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-13 * scale)


def test_aligned_sum_extreme_spread():
    # terms spanning ~900 orders of magnitude: the small one is absorbed
    # without overflow, the big one survives exactly
    terms = [SignedLog.from_log(1000.0), SignedLog.from_log(-1000.0)]
    out = aligned_sum(terms)
    assert out.sign == 1
    assert close(out.logmag, 1000.0, rel=1e-15)


def test_aligned_sum_empty_is_zero():
    assert aligned_sum([]) == ZERO


# --- many spans in one call -------------------------------------------------

def _one_span(signs, logmags) -> SignedLog:
    """The reference: one span reduced on its own, one exp per term."""
    if not len(logmags):
        return ZERO
    peak = float(logmags.max())
    if peak == -math.inf:
        return ZERO
    total = math.fsum(s * math.exp(v - peak) for s, v in zip(signs.tolist(), logmags.tolist()))
    if total == 0.0:
        return ZERO
    return SignedLog(1 if total > 0.0 else -1, peak + math.log(abs(total)))


def _bits(total: SignedLog) -> tuple[int, int]:
    return total.sign, int(np.array(total.logmag, np.float64).view(np.int64))


def _assert_each_span_alone(signs, logmags, spans):
    got = aligned_sums(signs, logmags, spans)
    assert len(got) == len(spans)
    for (lo, hi), total in zip(spans, got):
        want = _bits(_one_span(signs[lo:hi], logmags[lo:hi]))
        assert _bits(total) == want == _bits(aligned_sum_arrays(signs[lo:hi], logmags[lo:hi]))


def _terms(rng, n):
    signs = rng.choice(np.array([-1, 1], np.int8), n)
    # rounded logs tie at the peak, and equal terms of opposite sign cancel
    logmags = rng.normal(0.0, 4.0, n).round(int(rng.integers(0, 3)))
    if n:
        logmags[rng.integers(0, n, 2)] = -math.inf
        if rng.random() < 0.3:
            logmags[rng.integers(0, n)] = math.nan
        if rng.random() < 0.1:
            logmags[: n // 2] = -math.inf
    return signs, logmags


@pytest.mark.parametrize("seed", range(40))
def test_aligned_sums_equal_each_span_alone(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 60))
    signs, logmags = _terms(rng, n)
    cuts = sorted(rng.integers(0, n + 1, 8).tolist())
    blocks = list(zip([0, *cuts], cuts + [n]))  # some of them empty
    prefixes = [(0, c) for c in cuts]
    spans = [tuple(sorted(rng.integers(0, n + 1, 2).tolist())) for _ in range(6)]
    backwards = [(hi, lo) for lo, hi in spans if lo < hi]  # empty too
    _assert_each_span_alone(signs, logmags, blocks + prefixes + spans + backwards)


def test_aligned_sums_with_a_peak_that_moves_with_every_span():
    rng = np.random.default_rng(7)
    signs, _ = _terms(rng, 50)
    logmags = np.cumsum(rng.uniform(0.0, 3.0, 50))
    _assert_each_span_alone(signs, logmags, [(0, hi) for hi in range(51)])
    _assert_each_span_alone(signs, logmags[::-1].copy(), [(lo, 50) for lo in range(51)])


def test_aligned_sums_of_spans_sharing_a_peak():
    signs = np.array([1, -1, 1, 1, -1, 1], np.int8)
    logmags = np.array([0.5, 2.0, 2.0, -1.0, 2.0, 1.5])
    spans = [(0, 2), (1, 3), (0, 6), (2, 5), (4, 5), (3, 4), (0, 0), (6, 6)]
    _assert_each_span_alone(signs, logmags, spans)
    assert aligned_sums(signs, logmags, [(1, 3)]) == [ZERO]  # -e^2 + e^2
    assert aligned_sums(signs, logmags, []) == []


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _exact_l1_bound(amplitude: float, width: float, alpha: int) -> Decimal:
    """||x^alpha f||_1 / alpha! = C (4w)^{(alpha+1)/2} Gamma((alpha+1)/2) / alpha!
    for f = C e^{-x^2/4w}, to 60 digits, Gamma at a half-integer from
    factorials: Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!)."""
    with localcontext() as ctx:
        ctx.prec = 60
        m = (alpha + 1) // 2
        if alpha % 2:
            gamma = Decimal(math.factorial(m - 1))
        else:
            gamma = Decimal(math.factorial(2 * m)) * _PI.sqrt() / (4**m * math.factorial(m))
        power = (4 * Decimal(width)).sqrt() ** (alpha + 1)
        return Decimal(amplitude) * power * gamma / math.factorial(alpha)


def test_exp_rounding_covers_the_gaussian_l1_bound():
    # decomp-check's Gaussian l1_bound, computed as the CLI computes it, at
    # unit amplitude and then scaled by C, against its exact value: the
    # allowance is exp_rounding of the unit bound plus an ulp for the
    # scaling, and the worst error over these 200 cases is 0.32 of it
    worst = 0.0
    for amplitude in (1.0, 0.3, 7.0, 1e-5, 123.456):
        for width in (0.5, 1.0, 2.0, 0.37, 5.5):
            unit = Gaussian(amplitude=1.0, width=width, dim=1)
            for alpha in range(1, 9):
                bound = math.exp(abs_moment(unit, (alpha,)).logmag - log_factorial(alpha))
                allowance = amplitude * exp_rounding(
                    0.5 * (alpha + 1) * math.log(4.0 * width),
                    math.lgamma(0.5 * (alpha + 1)), math.lgamma(alpha + 1.0),
                ) * bound
                bound = amplitude * bound
                allowance += math.ulp(bound)
                error = abs(Decimal(bound) - _exact_l1_bound(amplitude, width, alpha))
                worst = max(worst, float(error) / allowance)
    assert 0.0 < worst <= 1.0

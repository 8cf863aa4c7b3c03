"""Sign/log-magnitude records: float round-trips, the product's laws and
the peak-aligned sum."""

import math

from hypothesis import given, strategies as st

from heatseries import ZERO, SignedLog, aligned_sum

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

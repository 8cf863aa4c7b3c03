import math
import struct
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heatseries import (
    DomainError,
    Gaussian,
    Generic1D,
    bonan_clark_log,
    decomposition_residual,
    gaussian_origin_blocks,
    gaussian_test_function,
    hermite,
    hermite_weighted,
    hermite_weighted_sequence,
    log_factorial,
    log_gamma,
    remainder,
    remainder_l1_norm,
)
from heatseries import specfun
from heatseries.quadrature import error_allowance, integrate_halfline_rows
from heatseries.specfun import (
    IERFC_MAX_ORDER,
    IERFC_RTOL,
    RECURRENCE_DEPTH_CAP,
    ierfc,
    laguerre_sequence,
    log_gamma_halves,
)


# --- Hermite -------------------------------------------------------------

@pytest.mark.parametrize(
    "n,x,expected",
    [
        (0, 1.7, 1.0),
        (1, 0.5, 1.0),        # 2x
        (2, 0.0, -2.0),       # 4x^2 - 2
        (3, 1.0, -4.0),       # 8x^3 - 12x
        (4, 0.0, 12.0),
    ],
)
def test_hermite_low_orders(n, x, expected):
    assert hermite(n, x) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("n", range(0, 12))
@pytest.mark.parametrize("x", [-2.3, -0.7, 0.4, 1.9])
def test_hermite_parity(n, x):
    sign = (-1.0) ** n
    assert hermite(n, -x) == pytest.approx(sign * hermite(n, x), rel=1e-12)


@pytest.mark.parametrize("n", range(1, 12))
def test_hermite_derivative_identity(n):
    # H_n'(x) = 2 n H_{n-1}(x), via central differences
    x, h = 0.83, 1e-6
    fd = (hermite(n, x + h) - hermite(n, x - h)) / (2.0 * h)
    assert fd == pytest.approx(2.0 * n * hermite(n - 1, x), rel=1e-7)


def test_weighted_hermite_frozen_value():
    # H_10(3) = -3093984 exactly; times e^{-9}
    got = hermite_weighted(10, 3.0).to_float()
    assert got == pytest.approx(-381.82795928732116, rel=1e-13)
    assert hermite(10, 3.0) == -3093984.0


@pytest.mark.parametrize("n", [0, 1, 5, 17, 25])
@pytest.mark.parametrize("x", [-3.0, -0.4, 0.0, 1.2, 4.5])
def test_weighted_matches_naive_product(n, x):
    naive = hermite(n, x) * math.exp(-x * x)
    got = hermite_weighted(n, x).to_float()
    assert math.isclose(got, naive, rel_tol=1e-11, abs_tol=1e-280)


def test_weighted_survives_extreme_order():
    # naive H_n overflows long before n = 400; the weighted value stays
    # finite in log form
    v = hermite_weighted(400, 12.0)
    assert v.sign != 0
    assert math.isfinite(v.logmag)
    assert not math.isfinite(hermite(400, 12.0))  # inf - inf -> nan


def test_weighted_sequence_consistent_with_single_calls():
    xs = [-2.5, 0.0, 0.3, 3.8]
    for x in xs:
        seq = hermite_weighted_sequence(60, x)
        assert len(seq) == 61
        for n in (0, 1, 7, 33, 60):
            single = hermite_weighted(n, x)
            assert seq[n].sign == single.sign
            if single.sign != 0:
                assert seq[n].logmag == pytest.approx(single.logmag, abs=1e-10)


def test_depth_cap_enforced():
    hermite(RECURRENCE_DEPTH_CAP, 0.5)  # at the cap: fine
    for call in (
        lambda: hermite(RECURRENCE_DEPTH_CAP + 1, 0.5),
        lambda: hermite_weighted(RECURRENCE_DEPTH_CAP + 1, 0.5),
        lambda: hermite_weighted_sequence(RECURRENCE_DEPTH_CAP + 1, 0.5),
        lambda: laguerre_sequence(RECURRENCE_DEPTH_CAP + 1, 0.0, 0.5),
    ):
        with pytest.raises(DomainError):
            call()
    with pytest.raises(DomainError):
        hermite(-1, 0.5)


_UNIT = Gaussian(1.0, 1.0, 1)
_PHI = gaussian_test_function(1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hermite(2.0, 0.3),
        lambda: hermite(True, 0.3),
        lambda: hermite_weighted(2.0, 0.3),
        lambda: hermite_weighted_sequence(2.5, 0.3),
        lambda: laguerre_sequence(2.5, 0.0, 0.5),
        lambda: log_factorial(2.5),
        lambda: log_factorial(True),
        lambda: bonan_clark_log(2.5),
        lambda: bonan_clark_log(True),
        lambda: gaussian_origin_blocks(1.0, 1.0, 1.5, 0.5, 2),
        lambda: gaussian_origin_blocks(1.0, 1.0, True, 0.5, 2),
        lambda: gaussian_origin_blocks(1.0, 1.0, 1, 0.5, 2.5),
        lambda: remainder(_UNIT, True, 0.5),
        lambda: remainder(_UNIT, 2.0, 0.5),
        lambda: remainder(Generic1D(_UNIT), 2.0, 0.5),
        lambda: remainder_l1_norm(_UNIT, True),
        lambda: remainder_l1_norm(_UNIT, 2.0),
        lambda: decomposition_residual(_UNIT, True, _PHI),
        lambda: decomposition_residual(_UNIT, 1.0, _PHI),
    ],
    ids=[
        "hermite-2.0", "hermite-True", "hermite_weighted-2.0", "hermite_sequence-2.5",
        "laguerre-2.5", "log_factorial-2.5", "log_factorial-True", "bonan_clark-2.5",
        "bonan_clark-True", "blocks-dim-1.5", "blocks-dim-True", "blocks-N-2.5",
        "remainder-True", "remainder-2.0", "remainder-generic-2.0", "l1-True", "l1-2.0",
        "residual-True", "residual-1.0",
    ],
)
def test_orders_and_sizes_must_be_integers(call):
    # a bool is not order 1 and an integral float is not an order either
    with pytest.raises(DomainError, match="must be an integer"):
        call()


# --- log-Gamma -----------------------------------------------------------

EPS = 2.0**-52


@pytest.mark.parametrize(
    "z",
    [0.5, 1.0, 1.5, 2.0, 2.5, 3.7, 7.3, 10.0, 31.5, 100.1, 171.5, 300.0],
)
def test_log_gamma_against_lgamma(z):
    # log_gamma is a domain guard around math.lgamma and must return its
    # value bit for bit: the lookups of log_gamma_halves, and the tables
    # built from them, reproduce per-call values only because of that.
    # Accuracy is checked against exact routes in the next two tests.
    assert log_gamma(z) == math.lgamma(z)


def test_log_gamma_against_exact_factorial():
    # Gamma(n+1) = n!, an exact integer; math.log of an int rounds once
    for n in range(171):
        want = math.log(math.factorial(n))
        assert abs(log_gamma(n + 1.0) - want) <= 4.0 * EPS * max(1.0, abs(want)), n
        assert log_factorial(n) == log_gamma(n + 1.0)


def test_log_gamma_half_integers_against_exact_ratio():
    # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!), numerator and denominator
    # exact integers; the route rounds once per log, so its error is a few
    # eps times the logs it subtracts
    for n in range(171):
        num, den = math.factorial(2 * n), 4**n * math.factorial(n)
        want = math.log(num) - math.log(den) + 0.5 * math.log(math.pi)
        scale = math.log(num) + math.log(den) + 1.0
        assert abs(log_gamma(n + 0.5) - want) <= 4.0 * EPS * scale, n


def test_log_gamma_half_integer_closed_form():
    # Gamma(1/2) = sqrt(pi)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


@pytest.mark.parametrize("z", [0.3, 1.1, 4.6, 40.2])
def test_log_gamma_duplication(z):
    # Legendre: lgamma(2z) = lgamma(z) + lgamma(z + 1/2) + (2z-1) ln 2 - ln(pi)/2
    left = log_gamma(2.0 * z)
    right = (
        log_gamma(z)
        + log_gamma(z + 0.5)
        + (2.0 * z - 1.0) * math.log(2.0)
        - 0.5 * math.log(math.pi)
    )
    assert math.isclose(left, right, rel_tol=1e-12, abs_tol=1e-11)


def test_log_gamma_domain():
    for z in (0.0, -0.0, -2.5, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            log_gamma(z)


def test_log_gamma_halves_are_log_gamma_values():
    halves = log_gamma_halves(41)
    assert len(halves) == 42
    for c, value in enumerate(halves):
        assert value == log_gamma((c + 1) / 2.0)  # bit for bit
    with pytest.raises(DomainError):
        log_gamma_halves(-1)


def test_log_factorial():
    assert log_factorial(0) == pytest.approx(0.0, abs=1e-14)
    assert log_factorial(10) == pytest.approx(math.log(3628800.0), rel=1e-14)
    with pytest.raises(DomainError):
        log_factorial(-1)


# --- Laguerre ------------------------------------------------------------

def test_laguerre_low_orders():
    assert laguerre_sequence(0, 0.3, 2.0) == [1.0]
    # L_1^{(a)}(x) = 1 + a - x
    assert laguerre_sequence(1, 0.25, 0.5)[1] == pytest.approx(0.75, rel=1e-14)
    # frozen: L_2^{(-1/2)}(0) = (1/2)(3/2)/2 = 0.375
    assert laguerre_sequence(2, -0.5, 0.0)[2] == pytest.approx(0.375, rel=1e-14)


def test_laguerre_domain():
    for a in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            laguerre_sequence(2, a, 0.3)


@given(
    n=st.integers(0, 120),
    a=st.floats(-0.99, 4.0),
    x=st.floats(0.0, 60.0),
)
def test_laguerre_is_the_last_entry_of_the_sequence(n, a, x):
    bits = lambda v: struct.pack("<d", v)
    # L_m is the same double whichever sequence length computes it
    seq = laguerre_sequence(n, a, x)
    assert [bits(v) for v in seq] == [
        bits(laguerre_sequence(m, a, x)[-1]) for m in range(n + 1)
    ]


@pytest.mark.parametrize("m", range(0, 9))
@pytest.mark.parametrize("x", [0.0, 0.6, 1.7])
def test_even_hermite_laguerre_link(m, x):
    # H_{2m}(x) = (-1)^m 2^{2m} m! L_m^{(-1/2)}(x^2)
    right = (-1.0) ** m * 4.0**m * math.factorial(m) * laguerre_sequence(m, -0.5, x * x)[-1]
    assert hermite(2 * m, x) == pytest.approx(right, rel=1e-11, abs=1e-9)


# --- repeated integrals of erfc ------------------------------------------

@pytest.mark.parametrize("n", range(-1, IERFC_MAX_ORDER + 1))
def test_ierfc_at_zero(n):
    # i^n erfc(0) = 1 / (2^n Gamma(1 + n/2))
    assert ierfc(n, 0.0) == pytest.approx(1.0 / (2.0**n * math.gamma(1.0 + n / 2.0)), rel=1e-15)


@pytest.mark.parametrize("n", range(0, IERFC_MAX_ORDER + 1))
@pytest.mark.parametrize("z", [0.0, 0.3, 0.75, 1.2, 2.5, 6.0, 12.0])
def test_ierfc_against_its_defining_integral(n, z):
    # e^{z^2} i^n erfc(z) = (2/sqrt(pi)) / n! integral_0^inf u^n e^{-2zu-u^2} du,
    # the definition with s = z + u, integrated by the package quadrature
    integral = integrate_halfline_rows(
        lambda rows, u: u**n * np.exp(-u * (2.0 * z + u)), [()]
    )[0]
    scale = 2.0 / math.sqrt(math.pi) / math.factorial(n)
    allowed = scale * error_allowance(integral) + IERFC_RTOL * scale * integral
    assert abs(ierfc(n, z) * math.exp(z * z) - scale * integral) <= allowed


def _ierfc_reference(zs: np.ndarray) -> np.ndarray:
    """i^n erfc(z) for n = -1..IERFC_MAX_ORDER (rows) without ierfc's routes.

    Below z = 0.25: the Taylor series at 0, sum_k (-z)^k / k! i^{n-k}erfc(0),
    with i^m erfc(0) = 1 / (2^m Gamma(1 + m/2)) for every integer m.  From
    0.25 on: i^{-1}erfc(z) times the ratios r_m = i^m erfc / i^{m-1}erfc of
    the continued fraction r_m = 1 / (2z + 2(m+1) r_{m+1}), run down from
    m = 6000; every quantity in it is positive.  e^{-z^2} comes from 40-digit
    decimal arithmetic.
    """
    orders = range(-1, IERFC_MAX_ORDER + 1)
    out = np.empty((len(orders), zs.size))
    small = zs < 0.25
    at_zero = lambda m: 0.0 if m <= -2 and m % 2 == 0 else 1.0 / (2.0**m * math.gamma(1.0 + m / 2.0))
    for i, n in enumerate(orders):
        out[i, small] = [
            math.fsum((-z) ** k / math.factorial(k) * at_zero(n - k) for k in range(60))
            for z in zs[small]
        ]
    z = zs[~small]
    ratio = np.zeros(z.size)
    ratios = {}
    for m in range(6000, -1, -1):
        ratio = 1.0 / (2.0 * z + 2.0 * (m + 1) * ratio)
        if m <= IERFC_MAX_ORDER:
            ratios[m] = ratio
    with localcontext() as ctx:
        ctx.prec = 40
        gauss = np.array([float((-(Decimal(v) ** 2)).exp()) for v in z.tolist()])
    value = 2.0 / math.sqrt(math.pi) * gauss
    for i, n in enumerate(orders):
        if n >= 0:
            value = value * ratios[n]
        out[i, ~small] = value
    return out


_IERFC_ZS = np.concatenate([
    np.linspace(0.0, 3.0, 121), np.linspace(3.0, 26.5, 95),
    specfun.IERFC_SWITCH + np.array([-1e-9, 0.0, 1e-9]),
])


def _ierfc_worst_error() -> float:
    reference = _ierfc_reference(_IERFC_ZS)
    worst = 0.0
    for row, n in zip(reference, range(-1, IERFC_MAX_ORDER + 1)):
        normal = row >= sys.float_info.min
        got = ierfc(n, _IERFC_ZS[normal])
        worst = max(worst, float(np.max(np.abs(got - row[normal]) / row[normal])))
    return worst


def test_ierfc_relative_accuracy():
    # every order up to IERFC_MAX_ORDER, wherever the value is a normal float
    assert _ierfc_worst_error() <= IERFC_RTOL


def test_forward_recurrence_alone_misses_the_accuracy(monkeypatch):
    # the recurrence amplifies rounding for z > 0; without the switch to the
    # positive-integrand route the accuracy test above must fail
    monkeypatch.setattr(specfun, "IERFC_SWITCH", math.inf)
    assert _ierfc_worst_error() > IERFC_RTOL


def test_ierfc_array_and_scalar_agree():
    zs = np.array([[0.0, 0.5, 0.75], [1.0, 7.5, 30.0]])
    got = ierfc(3, zs)
    assert got.shape == zs.shape
    assert got.tolist() == [[ierfc(3, float(z)) for z in line] for line in zs]


@pytest.mark.parametrize(
    "n,z",
    [(-2, 1.0), (IERFC_MAX_ORDER + 1, 1.0), (1.0, 1.0), (True, 1.0), (2, -0.5),
     (2, math.nan), (2, math.inf), (2, np.array([0.5, -1e-300]))],
)
def test_ierfc_domain(n, z):
    with pytest.raises(DomainError):
        ierfc(n, z)


# --- scaled modified Bessel function I_0 ---------------------------------

def _i0e_sweep():
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, 8.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, 16.0),
               1e-300, 5e-324, 700.0, 1e5, 1e300, math.inf, math.nan]
    return np.concatenate([
        special,
        np.linspace(0.0, 1e5, 100_001),
        rng.uniform(0.0, 16.0, 50_000),
        np.geomspace(1e-300, 1e300, 6001),
        -np.linspace(0.0, 20.0, 2001),
    ])


def test_i0e_is_scipys_bit_for_bit():
    # the package copies Cephes's tables and operation order; scipy's i0e
    # is Cephes's compiled, so every value, NaN included, has its bits
    from scipy.special import i0e as scipy_i0e

    x = _i0e_sweep()
    assert specfun.i0e(x).view(np.int64).tolist() == scipy_i0e(x).view(np.int64).tolist()


def test_i0e_array_and_scalar_agree():
    x = np.array([[0.0, 3.5, 8.0], [8.5, 40.0, 1e5]])
    got = specfun.i0e(x)
    assert got.shape == x.shape
    assert got.tolist() == [[specfun.i0e(float(v)) for v in line] for line in x]
    assert type(specfun.i0e(2.0)) is float
    assert specfun.i0e(np.empty(0)).shape == (0,)


def test_i0e_against_the_power_series():
    # I_0(x) = sum_j (x^2/4)^j / (j!)^2, summed exactly in 60-digit decimals
    # at dyadic x, where the only rounding is the final one
    for x in (0.0, 0.25, 1.0, 3.5, 7.75, 8.0, 8.5, 20.0, 60.0):
        with localcontext() as ctx:
            ctx.prec = 60
            q, term, total = Decimal(x) ** 2 / 4, Decimal(1), Decimal(0)
            for j in range(1, 400):
                total += term
                term = term * q / (j * j)
            exact = float(total * (-Decimal(x)).exp())
        assert specfun.i0e(x) == pytest.approx(exact, rel=4e-16, abs=0.0)

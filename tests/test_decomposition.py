"""Taylor-remainder decomposition of one-dimensional data.

The key objects are the remainder densities F_a: pairing them against the
(k+1)-th derivative of a test function must reproduce <f, phi> minus the
Taylor terms, and their L1 norms obey (and, for nonnegative f, attain) the
moment bound ||F_a||_1 <= || x^a f ||_1 / a!.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from heatseries import (
    DomainError,
    Gaussian,
    Generic1D,
    IntegrabilityError,
    Radial,
    abs_moment,
    build_moment_table,
    decomposition_residual,
    eval_uk,
    exact_gaussian_solution,
    gaussian_test_function,
    kernel_derivative,
    poly_gaussian_test_function,
    remainder,
    remainder_l1_norm,
)
from heatseries.kernel_approx import ApproxConfig
from heatseries.quadrature import integrate_line

f_unit = lambda x: math.exp(-x * x / 4.0)


# --- remainder densities --------------------------------------------------

def test_remainder_vanishes_at_origin():
    assert remainder(f_unit, 1, 0.0) == 0.0
    assert remainder(f_unit, 3, 0.0) == 0.0


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("x", [0.4, 1.1, 2.5])
def test_remainder_symmetry_for_even_data(alpha, x):
    left = remainder(f_unit, alpha, -x)
    right = remainder(f_unit, alpha, x)
    if alpha % 2:
        assert left == pytest.approx(-right, rel=1e-10)
    else:
        assert left == pytest.approx(right, rel=1e-10)


@pytest.mark.parametrize("x", [0.3, 1.3, 2.0])
def test_first_remainder_is_negative_tail(x):
    # F_1(x) = -int_x^inf f(y) dy for x > 0
    tail, _ = quad(f_unit, x, math.inf)
    assert remainder(f_unit, 1, x) == pytest.approx(-tail, rel=1e-9)


def test_remainder_wrapper_and_domain():
    # a Generic1D wrapping a callable takes the callable's route
    wrapped = Generic1D(f_unit)
    assert remainder(wrapped, 2, 1.1) == pytest.approx(remainder(f_unit, 2, 1.1), rel=1e-12)
    with pytest.raises(DomainError):
        remainder(wrapped, 0, 1.0)
    with pytest.raises(DomainError):
        remainder(f_unit, 0, 1.0)


def test_remainder_l1_frozen_values():
    # for nonnegative f the moment bound is attained:
    # ||F_1||_1 = ||x f||_1 = 4, ||F_2||_1 = ||x^2 f||_1 / 2 = 2 sqrt(pi)
    assert remainder_l1_norm(f_unit, 1) == pytest.approx(4.0, rel=1e-8)
    assert remainder_l1_norm(f_unit, 2) == pytest.approx(
        3.5449077018110322, rel=1e-8
    )


@pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [1, 2, 3, 4, 5])
def test_remainder_l1_moment_bound(width, alpha):
    f = lambda x: math.exp(-x * x / (4.0 * width))
    got = remainder_l1_norm(f, alpha)
    bound = abs_moment(Gaussian(1.0, width), (alpha,)).to_float() / math.factorial(alpha)
    assert got <= bound + 1e-8
    # nonnegative data attain the bound, so this is really an equality test
    assert got == pytest.approx(bound, rel=1e-7)


def test_remainder_l1_strict_for_sign_changing_data():
    # a datum that changes sign along each half-line cancels inside the
    # remainder integral, so the moment bound holds with genuine slack
    f = lambda x: (1.0 - x * x) * math.exp(-x * x / 4.0)
    got = remainder_l1_norm(f, 1)
    bound, _ = quad(lambda x: abs(x * f(x)), -math.inf, math.inf)
    assert got <= bound + 1e-8
    assert got < bound * 0.95


# --- test functions -------------------------------------------------------

def test_gaussian_test_function_derivatives():
    phi = gaussian_test_function(1.0)
    assert phi(0, 0.7) == pytest.approx(math.exp(-0.49), rel=1e-13)
    h = 1e-5
    for n in (1, 2, 3, 4):
        fd = (phi(n - 1, 0.3 + h) - phi(n - 1, 0.3 - h)) / (2.0 * h)
        assert phi(n, 0.3) == pytest.approx(fd, rel=1e-7)


def test_poly_gaussian_test_function_derivatives():
    phi = poly_gaussian_test_function((1.0, 0.0, 1.0), 1.0)  # (1 + x^2) e^{-x^2}
    assert phi(0, 0.5) == pytest.approx(1.25 * math.exp(-0.25), rel=1e-13)
    h = 1e-5
    for n in (1, 2, 3):
        fd = (phi(n - 1, -0.8 + h) - phi(n - 1, -0.8 - h)) / (2.0 * h)
        assert phi(n, -0.8) == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize(
    "call",
    [
        lambda: remainder(f_unit, 2, math.inf),
        lambda: remainder(f_unit, 2, -math.inf),
        lambda: remainder(f_unit, 2, math.nan),
        lambda: remainder(f_unit, 2, np.array([0.5, math.nan])),
        lambda: gaussian_test_function(math.nan),
        lambda: gaussian_test_function(math.inf),
        lambda: poly_gaussian_test_function((1.0, math.nan), 1.0),
        lambda: poly_gaussian_test_function((1.0, 0.0, 1.0), math.inf),
    ],
    ids=[
        "remainder-inf", "remainder-minus-inf", "remainder-nan", "remainder-array-nan",
        "gauss-a-nan", "gauss-a-inf", "poly-coeff-nan", "poly-a-inf",
    ],
)
def test_nonfinite_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_test_function_guards():
    with pytest.raises(DomainError):
        gaussian_test_function(0.0)
    # derivatives exist for every order up to the Hermite recurrence's cap
    phi = gaussian_test_function(1.0)
    with pytest.raises(DomainError, match=r"hermite order must be in \[0, 400\], got 401"):
        phi(401, 0.3)


# --- the decomposition identity ------------------------------------------

PHIS = [
    gaussian_test_function(1.0),
    gaussian_test_function(0.5),
    poly_gaussian_test_function((1.0, 0.0, 1.0), 1.0),
]


@pytest.mark.parametrize("phi_idx", range(len(PHIS)))
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_residual_vanishes_gaussian_datum(phi_idx, k):
    got = decomposition_residual(f_unit, k, PHIS[phi_idx])
    assert got <= 1e-8


def test_residual_vanishes_for_narrow_spike():
    # near-delta datum of unit mass: the Taylor terms carry almost all of
    # <f, phi>, the remainder mops up the width correction
    w = 1e-2
    spike = lambda x: (4.0 * math.pi * w) ** -0.5 * math.exp(-x * x / (4.0 * w))
    phi = poly_gaussian_test_function((1.0, 0.0, 1.0), 1.0)
    got = decomposition_residual(Generic1D(spike, breakpoints=(0.0,)), 2, phi)
    assert got <= 1e-9


def test_residual_zero_function():
    phi = poly_gaussian_test_function((0.0,), 1.0)  # identically zero
    assert decomposition_residual(f_unit, 2, phi) == 0.0


@pytest.mark.parametrize("k", [0, 2])
def test_remainder_pairing_reproduces_truncation_error(k):
    # the measured gap u - u_k at a point equals the remainder densities
    # paired with the (k+1)-th kernel derivative
    t = 2.0
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=1), k + 1)
    u_exact = exact_gaussian_solution(1.0, 1.0, 1, 0.0, t)
    u_k = eval_uk(table, ApproxConfig(dim=1, k=k, t=t), 0.0).value
    pairing = integrate_line(
        lambda y: remainder(f_unit, k + 1, y)
        * kernel_derivative((k + 1,), -y, t).to_float(),
        breakpoints=(0.0,),
    )
    assert (u_exact - u_k) == pytest.approx(pairing, abs=1e-7)


# --- batched remainder evaluation ----------------------------------------

@pytest.mark.parametrize("alpha", [1, 2, 5])
@pytest.mark.parametrize(
    "f", [f_unit, Gaussian(amplitude=1.3, width=0.6, dim=1)], ids=["scalar", "gaussian"]
)
def test_remainder_on_array_equals_scalar_calls(f, alpha):
    xs = np.array([[-3.1, -0.7, 0.0], [1e-3, 0.4, 9.0]])
    got = remainder(f, alpha, xs)
    assert got.shape == xs.shape
    want = [[remainder(f, alpha, float(x)) for x in line] for line in xs]
    assert got.tolist() == want  # bit for bit


def _remainder_by_s_integral(f, a, x):
    """F_a(x) from the definition, (-1)^a (x^a / a!) a times the integral of
    (1 - 1/s)^{a-1} s^{a-1} f(x s) over s >= 1, by QUADPACK split where
    the integrand's mass sits (near s = 1/|x|)."""
    g = lambda s: (1.0 - 1.0 / s) ** (a - 1) * s ** (a - 1) * f(x * s)
    edges = [1.0] + [m / abs(x) for m in (0.25, 1.0, 4.0, 16.0, 64.0) if m / abs(x) > 1.0]
    pieces = [
        quad(g, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(edges, edges[1:])
    ]
    pieces.append(quad(g, edges[-1], math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0])
    return (-1) ** a * x**a / math.factorial(a) * a * math.fsum(pieces)


@pytest.mark.parametrize("alpha", [1, 3, 5])
@pytest.mark.parametrize("x", [1e-6, -1e-6, 0.4, -0.4, 9.0, -9.0])
def test_remainder_matches_the_s_integral(alpha, x):
    # the Cauchy form against the defining s-integral, an independent route
    f = Gaussian(amplitude=1.3, width=0.6, dim=1)
    want = _remainder_by_s_integral(f, alpha, x)
    assert remainder(f, alpha, x) == pytest.approx(want, rel=1e-10, abs=0.0)


def test_remainder_raises_when_s_integral_diverges():
    # f = 1/(1+x^2) at alpha = 2: the s-integrand behaves like 1/(x^2 s), so
    # every doubling shell adds about ln(2)/x^2 and the integral diverges
    # logarithmically; the shells run out instead of certifying a sum
    with pytest.raises(IntegrabilityError):
        remainder(lambda x: 1.0 / (1.0 + x * x), 2, 0.5)


# --- the closed form for Gaussian data ------------------------------------

@pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha", range(1, 7))
def test_closed_form_matches_the_quadrature_route(width, alpha):
    # Generic1D(f) hides the Gaussian, so it takes the Cauchy-form quadrature
    f = Gaussian(amplitude=1.0, width=width, dim=1)
    xs = np.linspace(-12.0, 12.0, 97)
    closed = remainder(f, alpha, xs)
    quadrature = remainder(Generic1D(f), alpha, xs)
    assert np.max(np.abs(closed - quadrature)) <= 2e-15 * np.max(np.abs(closed))


def test_plain_callable_takes_the_quadrature_route():
    f = Gaussian(amplitude=1.3, width=0.6, dim=1)
    xs = np.array([-2.0, 0.5, 3.0])
    assert remainder(lambda x: f(x), 3, xs).tolist() == remainder(Generic1D(f), 3, xs).tolist()


def test_generic1d_breakpoints_split_the_remainder_integral():
    # the indicator of [-1, 1]: F_1(x) = -(1 - x) on (0, 1], 0 beyond, and
    # F_2(x) = (1 - x)^2 / 2 there
    box = Generic1D(lambda x: 1.0 if abs(x) <= 1.0 else 0.0, breakpoints=(-1.0, 1.0))
    xs = np.array([0.25, 0.5, 0.9, -0.5])
    assert remainder(box, 1, xs) == pytest.approx([-0.75, -0.5, -0.1, 0.5], rel=1e-12)
    assert remainder(box, 2, xs) == pytest.approx(
        [0.28125, 0.125, 0.005, 0.125], rel=1e-12
    )
    assert remainder(box, 1, 1.5) == 0.0


#: Each builds its datum inside the check: a Generic1D of no callable is
#: refused by its own constructor.
NOT_ONE_DIMENSIONAL = [
    lambda: Gaussian(amplitude=1.0, width=1.0, dim=2),
    lambda: Radial(profile=lambda r: math.exp(-r * r), dim=2),
    lambda: 2.5,
    lambda: Generic1D(func=None),
]


@pytest.mark.parametrize(
    "call",
    [
        lambda f: remainder(f, 2, 0.7),
        lambda f: remainder_l1_norm(f, 2),
        lambda f: decomposition_residual(f, 1, PHIS[0]),
    ],
    ids=["remainder", "l1-norm", "residual"],
)
@pytest.mark.parametrize(
    "datum", NOT_ONE_DIMENSIONAL, ids=["gaussian-dim2", "radial-dim2", "float", "generic-none"]
)
def test_data_that_are_not_one_dimensional_raise_domain_error(call, datum):
    with pytest.raises(DomainError):
        call(datum())

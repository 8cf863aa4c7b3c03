"""Batched line/half-line quadrature against closed forms and QUADPACK."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from heatseries import quadrature
from heatseries.errors import IntegrabilityError
from heatseries.quadrature import (
    integrate_halfline,
    integrate_interval,
    integrate_line,
    integrate_line_rows,
)


def test_interval_polynomial():
    assert integrate_interval(lambda x: x * x, 0.0, 3.0) == pytest.approx(9.0, rel=1e-12)


def test_line_gaussian():
    got = integrate_line(lambda x: math.exp(-x * x / 4.0))
    assert got == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)


def test_line_with_discontinuity():
    ind = lambda x: 1.0 if abs(x) <= 1.0 else 0.0
    got = integrate_line(ind, breakpoints=(-1.0, 1.0))
    assert got == pytest.approx(2.0, rel=1e-10)


def test_line_erf_oracle():
    # integral of e^{-x^2} over [0, inf) shifted: use erf from the stdlib
    got = integrate_line(lambda x: math.exp(-((x - 2.0) ** 2)))
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_halfline_exponential():
    got = integrate_halfline(lambda r: math.exp(-3.0 * r))
    assert got == pytest.approx(1.0 / 3.0, rel=1e-11)


def test_halfline_power_weight():
    # int_0^inf r^3 e^{-r^2} dr = 1/2
    got = integrate_halfline(lambda r: r**3 * math.exp(-r * r))
    assert got == pytest.approx(0.5, rel=1e-11)


def test_halfline_mass_past_the_first_shells():
    # r^60 e^{-r} peaks at r = 60, three shells past the first interval;
    # its shells grow before they decay, and the integral is 60!
    got = integrate_halfline(lambda r: r**60 * math.exp(-r))
    assert got == pytest.approx(math.factorial(60), rel=1e-12)


def test_nonintegrable_tail_raises():
    with pytest.raises(IntegrabilityError):
        integrate_line(lambda x: 1.0 / (1.0 + x * x) * x * x)


def test_offcenter_spike_found():
    # mass far from the origin must still be picked up by the doubling shells
    got = integrate_line(lambda x: math.exp(-((x - 40.0) ** 2)))
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-10)


# --- cross-check against QUADPACK ----------------------------------------
#
# scipy's quad never runs inside the package; here it is the independent
# reference for each public entry point, on the integrands above.  Finite
# QUADPACK intervals cover every tail that matters to 1e-30, and the spike
# is pointed out to QUADPACK explicitly.

def _indicator(x):
    return 1.0 if abs(x) <= 1.0 else 0.0


def _quadpack(f, a, b, points=()):
    value, _ = quad(f, a, b, points=points or None, limit=400, epsabs=1e-14, epsrel=1e-13)
    return value


LINE_CASES = {
    "gaussian": (lambda x: math.exp(-x * x / 4.0), (), ()),
    "indicator": (_indicator, (-1.0, 1.0), (-1.0, 1.0)),
    "shifted": (lambda x: math.exp(-((x - 2.0) ** 2)), (), ()),
    "spike": (lambda x: math.exp(-((x - 40.0) ** 2)), (), (40.0,)),
}


@pytest.mark.parametrize("name", sorted(LINE_CASES))
def test_line_matches_quadpack(name):
    f, breakpoints, hints = LINE_CASES[name]
    want = _quadpack(f, -60.0, 60.0, hints)
    got = integrate_line(f, breakpoints=breakpoints)
    assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


@pytest.mark.parametrize(
    "f",
    [lambda r: math.exp(-3.0 * r), lambda r: r**3 * math.exp(-r * r)],
    ids=["exponential", "power-weight"],
)
def test_halfline_matches_quadpack(f):
    want = _quadpack(f, 0.0, 40.0)
    assert integrate_halfline(f) == pytest.approx(want, rel=1e-11, abs=1e-13)


@pytest.mark.parametrize(
    "f,a,b,breakpoints",
    [
        (lambda x: x * x, 0.0, 3.0, ()),
        (_indicator, -3.0, 2.5, (-1.0, 1.0)),
        (lambda x: math.exp(-((x - 40.0) ** 2)), 30.0, 50.0, (40.0,)),
        (lambda x: abs(x - 0.3), -1.0, 1.0, ()),
    ],
    ids=["polynomial", "indicator", "spike", "kink"],
)
def test_interval_matches_quadpack(f, a, b, breakpoints):
    want = _quadpack(f, a, b, breakpoints)
    got = integrate_interval(f, a, b, breakpoints)
    assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


# --- the batched core -----------------------------------------------------

def test_row_value_does_not_depend_on_its_batch():
    # amplitudes far apart and a sqrt cusp at each centre, so that how far
    # a row is refined depends on its own tolerance
    centres = np.array([-3.0, 0.25, 7.5, 41.0, 0.0])
    widths = np.array([0.5, 1.0, 2.0, 0.1, 3.0])
    scales = np.array([1e-9, 1.0, 1e6, 3e-3, 1e12])

    def rows_of(picked):
        c, w, a = centres[picked], widths[picked], scales[picked]

        def g(rows, x):
            u = x - c[rows]
            return a[rows] * np.sqrt(np.abs(u)) * np.exp(-u * u / w[rows])

        return g

    everything = list(range(centres.size))
    together = integrate_line_rows(rows_of(everything), [(c,) for c in centres])
    for i in everything:
        alone = integrate_line_rows(rows_of([i]), [(centres[i],)])
        assert alone[0] == together[i]  # bit for bit
        want = scales[i] * widths[i] ** 0.75 * math.gamma(0.75)
        assert alone[0] == pytest.approx(want, rel=1e-11)


def test_panel_budget_exhausted_raises(monkeypatch):
    # sqrt has an endpoint singularity that needs dozens of panels
    assert integrate_interval(math.sqrt, 0.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 4)
    with pytest.raises(IntegrabilityError):
        integrate_interval(math.sqrt, 0.0, 1.0)


def test_divergent_interval_raises():
    # 1/x on (0, 1]: the panel at the origin never settles
    with pytest.raises(IntegrabilityError):
        integrate_interval(lambda x: 1.0 / x, 0.0, 1.0)


def test_nonfinite_value_is_returned_unrefined():
    got = integrate_interval(lambda x: math.inf if x > 0.5 else 1.0, 0.0, 1.0)
    assert got == math.inf


def test_scalar_callables_see_python_floats():
    seen = set()

    def f(x):
        seen.add(type(x))
        return x

    assert integrate_interval(f, 0.0, 2.0) == pytest.approx(2.0, rel=1e-14)
    assert seen == {float}

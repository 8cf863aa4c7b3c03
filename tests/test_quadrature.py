"""Batched line/half-line quadrature against closed forms and QUADPACK."""

import math
import tracemalloc

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


def test_on_array_maps_blocks_of_python_floats():
    seen = set()

    def f(x, y=1.0):
        seen.add((type(x), type(y)))
        return x * y + 0.25

    x = np.linspace(-3.0, 3.0, 3 * quadrature._BLOCK + 5).reshape(-1, 1)
    got = quadrature.on_array(f)(x)
    assert got.shape == x.shape
    assert got.tolist() == [[f(v)] for v in x.ravel().tolist()]
    # several arrays are taken in step, broadcast against each other
    y = np.array([2.0, -1.0, 0.5])
    assert quadrature.on_array(f)(x, y).tolist() == [
        [f(a, b) for b in y.tolist()] for a in x.ravel().tolist()
    ]
    assert seen == {(float, float)}


def test_on_array_holds_one_block_of_python_floats():
    # a whole chunk of nodes as Python floats would be 2 MB on top of the
    # 0.5 MB of values
    x = np.linspace(0.0, 1.0, 65520)
    apply = quadrature.on_array(math.exp)
    tracemalloc.start()
    try:
        apply(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- the doubling shells ----------------------------------------------------


def _per_step_unbounded_rows(g, breakpoints, line):
    """The shell loop with one integrate_rows call for the first intervals
    and one per shell step, raising at the first failure in step order:
    the reference the merged first call must reproduce bit for bit."""
    panels, extent = quadrature._initial_panels(breakpoints, line)
    nrows = extent.size
    total = quadrature.integrate_rows(g, *panels, nrows)
    active = np.arange(nrows)
    sizes = []
    peak = np.zeros(nrows, dtype=np.intp)
    peak_size = np.zeros(nrows)
    for step in range(quadrature.MAX_DOUBLINGS):
        lo, hi = extent[active], 2.0 * extent[active]
        if line:
            piece = quadrature.integrate_rows(
                g,
                np.concatenate([active, active]),
                np.concatenate([lo, -hi]),
                np.concatenate([hi, -lo]),
                nrows,
            )[active]
        else:
            piece = quadrature.integrate_rows(g, active, lo, hi, nrows)[active]
        total[active] += piece
        extent[active] = hi
        size = np.abs(piece)
        done = size <= quadrature.TAIL_FRACTION * np.abs(total[active]) + quadrature._ABS_FLOOR
        sizes.append(np.zeros(nrows))
        sizes[-1][active] = size
        grew = size > peak_size[active]
        peak[active[grew]] = step
        peak_size[active[grew]] = size[grew]
        past_peak = peak[active] <= step - 3
        if step >= 3 and np.any(~done & past_peak & (size >= 0.5 * sizes[step - 3][active])):
            raise IntegrabilityError(
                "shell contributions stopped decaying; integrand tail does "
                "not appear integrable"
            )
        active = active[~done]
        if not active.size:
            return total
    raise IntegrabilityError(
        "tail still above the cutoff after exhausting interval doublings"
    )


def _rows_of(funcs):
    """The row integrand whose row r is funcs[r] (each a numpy function of
    its nodes)."""

    def g(rows, x):
        rows = np.broadcast_to(rows, x.shape)
        out = np.empty(x.shape)
        for r, f in enumerate(funcs):
            picked = rows == r
            out[picked] = f(x[picked])
        return out

    return g


#: name -> (row function, its breakpoints)
SHELL_ROWS = {
    "shifted": (lambda x: np.exp(-((x - 1.5) ** 2)), ()),
    # every shell of a compact row is exact zero: it stops at step 0
    "indicator": (lambda x: np.where((x >= -1.0) & (x <= 0.5), 1.0, 0.0), (-1.0, 0.5)),
    # |x|^20 e^{-|x|} peaks at 20, past the first shells
    "late-peak": (lambda x: np.exp(20.0 * np.log(np.abs(x)) - np.abs(x)), ()),
    "cusp": (lambda x: np.sqrt(np.abs(x - 0.3)) * np.exp(-x * x / 3.0), (0.3,)),
    "wide-breakpoints": (lambda x: np.exp(-np.abs(x) / 4.0), (-11.0, 30.0)),
}

#: rows that fail, each alone: name -> (row function, its message)
FAILING_ROWS = {
    "exhausted": (lambda x: x * x / (1.0 + x**4), quadrature._FAILURES[quadrature._EXHAUSTED]),
    "stalled": (lambda x: np.abs(x) ** 3 / (1.0 + x**4), quadrature._FAILURES[quadrature._STALLED]),
    "panels": (lambda x: 1.0 / np.abs(x - 0.3), quadrature._FAILURES[quadrature._PANELS]),
}


@pytest.mark.parametrize("line", [True, False], ids=["line", "halfline"])
def test_merged_first_call_matches_per_step_loop(line):
    names = sorted(SHELL_ROWS)
    funcs = [SHELL_ROWS[n][0] for n in names]
    breakpoints = [SHELL_ROWS[n][1] for n in names]
    row_function = quadrature.integrate_line_rows if line else quadrature.integrate_halfline_rows
    got = row_function(_rows_of(funcs), breakpoints)
    want = _per_step_unbounded_rows(_rows_of(funcs), breakpoints, line)
    assert got.tobytes() == want.tobytes()  # bit for bit
    for i, name in enumerate(names):
        alone = _per_step_unbounded_rows(_rows_of([funcs[i]]), [breakpoints[i]], line)
        assert alone[0].tobytes() == got[i].tobytes(), name


@pytest.mark.parametrize("line", [True, False], ids=["line", "halfline"])
def test_failed_rows_leave_the_batch_and_the_lowest_is_named(line):
    row_function = quadrature.integrate_line_rows if line else quadrature.integrate_halfline_rows
    for name, (f, message) in FAILING_ROWS.items():
        with pytest.raises(IntegrabilityError) as alone:
            row_function(_rows_of([f]), [()])
        with pytest.raises(IntegrabilityError) as reference:
            _per_step_unbounded_rows(_rows_of([f]), [()], line)
        assert str(alone.value) == str(reference.value) == message, name
        assert alone.value.rows == (0,)
    # the exhausted row fails after the stalled one, but it is the lower
    # row, so its message is the batch's; the good rows are finished
    funcs = [
        SHELL_ROWS["shifted"][0],
        FAILING_ROWS["exhausted"][0],
        SHELL_ROWS["indicator"][0],
        FAILING_ROWS["stalled"][0],
        FAILING_ROWS["panels"][0],
    ]
    with pytest.raises(IntegrabilityError) as batch:
        row_function(_rows_of(funcs), [()] * len(funcs))
    assert batch.value.rows == (1, 3, 4)
    assert str(batch.value) == FAILING_ROWS["exhausted"][1]


def test_integrate_rows_names_rows_out_of_panels():
    f = _rows_of([np.exp, lambda x: 1.0 / np.abs(x - 0.3), np.sqrt])
    row = np.array([0, 1, 2])
    with pytest.raises(IntegrabilityError, match="panel budget") as info:
        quadrature.integrate_rows(f, row, np.full(3, 0.3), np.ones(3), 3)
    assert info.value.rows == (1,)

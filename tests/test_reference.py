"""Reference solutions and measured error curves.

The quadrature oracle is the ground truth for everything else, so it gets
checked the hardest: closed forms, stdlib erf, semigroup consistency, and
the PDE itself via finite differences.
"""

import json
import math
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from scipy.integrate import quad

from heatseries import (
    ApproxConfig,
    DomainError,
    Gaussian,
    Generic1D,
    GridSpec,
    MomentTable,
    Radial,
    SeriesGridEvaluator,
    backend,
    build_moment_table,
    compositions,
    convolve_oracle,
    default_grid,
    error_curve,
    exact_gaussian_solution,
)
import heatseries.reference as reference_module
from heatseries import kernel_approx
from heatseries.reference import COLUMNS, _reference_field, _sweep_axes
from heatseries.serial import table_text

UNIT = Gaussian(amplitude=1.0, width=1.0, dim=1)


# --- closed-form evolution ------------------------------------------------

def test_exact_solution_frozen_value():
    assert exact_gaussian_solution(1.0, 1.0, 1, 0.0, 1.0) == pytest.approx(
        0.70710678118654757, rel=1e-14
    )


def test_exact_solution_time_zero_is_datum():
    for x in (0.0, 0.7, -2.2):
        got = exact_gaussian_solution(1.0, 1.0, 1, x, 0.0)
        assert got == pytest.approx(math.exp(-x * x / 4.0), rel=1e-14)


@pytest.mark.parametrize(
    "x, t",
    [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0), ((0.0, math.inf), 1.0)],
)
def test_convolve_oracle_rejects_nonfinite_input(x, t):
    u0 = Gaussian(amplitude=1.0, width=1.0, dim=1 if np.isscalar(x) else len(x))
    with pytest.raises(DomainError):
        convolve_oracle(u0, x, t)


@pytest.mark.parametrize(
    "dim, x",
    [(1, (1.0, 5.0)), (2, (1.0, 0.5, 0.0)), (2, 1.0)],
    ids=["dim1-pair", "dim2-triple", "dim2-scalar"],
)
def test_convolve_oracle_rejects_a_point_of_the_wrong_length(dim, x):
    with pytest.raises(DomainError):
        convolve_oracle(Gaussian(amplitude=1.0, width=1.0, dim=dim), x, 2.0)


def test_exact_solution_bounds_and_domain():
    assert 0.0 < exact_gaussian_solution(1.0, 1.0, 2, (3.0, 1.0), 5.0) < 1.0
    with pytest.raises(DomainError):
        exact_gaussian_solution(1.0, 1.0, 1, 0.0, -0.1)
    with pytest.raises(DomainError):
        exact_gaussian_solution(1.0, 1.0, 2, (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        exact_gaussian_solution(-1.0, 1.0, 1, 0.0, 1.0)


@pytest.mark.parametrize("t", [0.3, 2.0])
def test_mass_conserved(t):
    total, _ = quad(
        lambda x: exact_gaussian_solution(1.0, 1.0, 1, x, t), -np.inf, np.inf
    )
    assert total == pytest.approx(3.5449077018110322, rel=1e-10)  # 2 sqrt(pi)


def test_semigroup_property():
    # evolving for t1 then treating the result as a fresh Gaussian datum
    # and evolving for t2 equals evolving for t1 + t2
    t1, t2 = 0.6, 1.7
    mid_amp = (1.0 / (1.0 + t1)) ** 0.5
    restarted = Gaussian(amplitude=mid_amp, width=1.0 + t1, dim=1)
    for x in (0.0, 0.9, -2.4):
        a = convolve_oracle(restarted, x, t2)
        b = exact_gaussian_solution(1.0, 1.0, 1, x, t1 + t2)
        assert a == pytest.approx(b, rel=1e-10)


def test_exact_solution_satisfies_heat_equation():
    # centred differences on the closed form: u_t = u_xx
    x, t, h = 0.8, 1.3, 1e-4
    u = lambda xx, tt: exact_gaussian_solution(1.0, 1.0, 1, xx, tt)
    ut = (u(x, t + h) - u(x, t - h)) / (2.0 * h)
    uxx = (u(x + h, t) - 2.0 * u(x, t) + u(x - h, t)) / (h * h)
    assert ut == pytest.approx(uxx, rel=1e-6)


# --- quadrature oracle ----------------------------------------------------

@pytest.mark.parametrize(
    "dim,x",
    [
        (1, 0.0),
        (1, 1.3),
        (2, (0.0, 0.0)),
        (2, (1.0, -0.7)),
        (3, (0.0, 0.0, 0.0)),
        (3, (0.5, 0.5, 1.0)),
    ],
)
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_convolve_matches_exact_gaussian(dim, x, t):
    u0 = Gaussian(amplitude=1.0, width=1.0, dim=dim)
    got = convolve_oracle(u0, x, t)
    want = exact_gaussian_solution(1.0, 1.0, dim, x, t)
    assert got == pytest.approx(want, rel=1e-9)


INDICATOR = Generic1D(
    func=lambda x: 1.0 if abs(x) <= 1.0 else 0.0, breakpoints=(-1.0, 1.0)
)


@pytest.mark.parametrize(
    "t,expected",
    [
        (0.25, 0.84270079294971489),
        (1.0, 0.52049987781304652),
        (4.0, 0.27632639016823696),
    ],
)
def test_indicator_evolution_frozen(t, expected):
    # closed form: u(0, t) = erf(1 / (2 sqrt t))
    got = convolve_oracle(INDICATOR, 0.0, t)
    assert got == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(math.erf(1.0 / (2.0 * math.sqrt(t))), rel=1e-14)


@pytest.mark.parametrize("x", [0.3, -0.8, 1.7])
def test_indicator_off_center_erf(x):
    t = 0.7
    s = 2.0 * math.sqrt(t)
    want = 0.5 * (math.erf((1.0 - x) / s) + math.erf((1.0 + x) / s))
    assert convolve_oracle(INDICATOR, x, t) == pytest.approx(want, rel=1e-10)


def test_short_time_approximate_identity():
    # at continuity points the evolution converges to the datum as t -> 0+
    for x, want in ((0.0, 1.0), (2.0, 0.0), (0.5, 1.0)):
        got = convolve_oracle(INDICATOR, x, 1e-6)
        assert got == pytest.approx(want, abs=1e-4)


def test_convolve_domain():
    with pytest.raises(DomainError):
        convolve_oracle(UNIT, 0.0, 0.0)


# --- grids ----------------------------------------------------------------

def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(dim=1, extent=5.0, points=4)  # even
    with pytest.raises(DomainError):
        GridSpec(dim=1, extent=0.0, points=5)
    g = default_grid(1, 2.0, 1.0)
    assert g.points == 801
    axis = g.axes()[0]
    assert axis[len(axis) // 2] == 0.0  # origin is a node


@pytest.mark.parametrize(
    "dim,points",
    [(1, 5.0), (1.5, 5), (True, 5), (1, True), (2.0, 41), ("1", 5), (1, None)],
)
def test_grid_spec_rejects_non_integer_sizes(dim, points):
    with pytest.raises(DomainError):
        GridSpec(dim=dim, extent=5.0, points=points)


def test_grid_spec_accepts_numpy_integers():
    grid = GridSpec(dim=np.int64(2), extent=5.0, points=np.int32(5))
    assert [len(ax) for ax in grid.axes()] == [5, 5]


@pytest.mark.parametrize("points", [3, 41, 801, 4001])
@pytest.mark.parametrize("extent", [1.7, 18.3, 25.123456, default_grid(1, 2.0, 1.0).extent])
def test_grid_axes_are_mirror_exact(extent, points):
    axis = GridSpec(dim=1, extent=extent, points=points).axes()[0]
    assert len(axis) == points
    assert axis[0] == -extent and axis[-1] == extent
    assert np.all(np.diff(axis) > 0.0)
    centre = axis[points // 2]
    assert centre == 0.0 and math.copysign(1.0, centre) == 1.0
    # equal as numbers, so the mirrored zero's sign is the one bit ignored
    assert np.array_equal(axis, -axis[::-1])


@pytest.mark.parametrize("t0", [0.8, 1.0, 1.25])
@pytest.mark.parametrize("factor", [0.05, 0.2, 0.5])
def test_default_grid_covers_t_plus_t0(t0, factor):
    """The solution spreads as t + t0; below the width the default extent
    still keeps the clipped tail under the coverage check's 1e-16."""
    t = factor * t0
    u0 = Gaussian(amplitude=1.0, width=t0, dim=1)
    grid = default_grid(1, t, t0, points=41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        error_curve(u0, build_moment_table(u0, 3), 1, t, 2, grid)


def test_default_grid_extent_above_the_width_is_unchanged():
    assert default_grid(1, 2.0, 1.0).extent == 2.0 * math.sqrt(2.0) * 8.0 + 4.0


@pytest.mark.parametrize(
    "t_max,width",
    [(-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)],
)
def test_default_grid_rejects_out_of_domain_input(t_max, width):
    with pytest.raises(DomainError):
        default_grid(1, t_max, width)


def test_coverage_warning_on_clipped_grid():
    table = build_moment_table(UNIT, 3)
    tiny = GridSpec(dim=1, extent=2.0, points=41)
    with pytest.warns(UserWarning) as record:
        error_curve(UNIT, table, 1, 2.0, 2, tiny)
    assert record[0].filename == __file__  # the warning names the caller


def test_coverage_check_reads_default_grids_criterion_in_dim_2():
    # e^{-E^2/4(t + t0)} <= 1e-16 decides in every dim: at E = 21.0897,
    # t = 2, t0 = 1 the tail is 8.0e-17, and at E = 20.9 it is 1.5e-16
    u0 = Gaussian(amplitude=1.0, width=1.0, dim=2)
    table = build_moment_table(u0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        error_curve(u0, table, 2, 2.0, 2, GridSpec(dim=2, extent=21.0897, points=41))
    with pytest.warns(UserWarning):
        error_curve(u0, table, 2, 2.0, 2, GridSpec(dim=2, extent=20.9, points=41))


def test_sup_error_identical_fields_is_zero():
    field = np.random.default_rng(7).normal(size=(50,))
    assert backend.max_abs_diff(field, field) == 0.0


# --- error curves ---------------------------------------------------------

@pytest.fixture(scope="module")
def small_curve():
    table = build_moment_table(UNIT, 13)
    grid = default_grid(1, 2.0, 1.0, points=201)
    return error_curve(UNIT, table, 1, 2.0, 12, grid)


def test_error_curve_structure(small_curve):
    ks = [p.k for p in small_curve.points]
    assert ks == [0, 2, 4, 6, 8, 10, 12]
    for p in small_curve.points:
        assert p.sup_error >= 0.0
        assert p.F_k > 0.0
        assert p.G_k is not None  # Gaussian source
        assert p.lb is None  # t > t0


def test_error_curve_ratio_column(small_curve):
    pts = small_curve.points
    for i, p in enumerate(pts):
        if i + 1 < len(pts) and pts[i].sup_error > 0.0:
            assert p.ratio == pytest.approx(
                pts[i + 1].sup_error / p.sup_error, rel=1e-12
            )
    assert pts[-1].ratio is None


def _curve_text(fmt, curve):
    """The rows of ``curve`` as error-curve writes them."""
    return table_text(fmt, COLUMNS, map(astuple, curve.points))


def test_error_curve_csv_shape(small_curve):
    text = _curve_text("csv", small_curve)
    lines = text.strip().split("\n")
    assert lines[0] == "k,sup_error,F_k,G_k,lb,ratio"
    assert len(lines) == 1 + len(small_curve.points)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == small_curve.points[0].sup_error
    assert first[4] == ""  # absent lower bound stays empty in csv


def test_error_curve_json_parses(small_curve):
    rows = json.loads(_curve_text("json", small_curve))
    assert len(rows) == len(small_curve.points)
    assert rows[0]["k"] == 0
    assert rows[0]["lb"] is None
    assert rows[0]["sup_error"] == small_curve.points[0].sup_error


def test_error_curve_deterministic():
    table = build_moment_table(UNIT, 9)
    grid = default_grid(1, 2.0, 1.0, points=101)
    a = _curve_text("csv", error_curve(UNIT, table, 1, 2.0, 8, grid))
    b = _curve_text("csv", error_curve(UNIT, table, 1, 2.0, 8, grid))
    assert a == b


def test_error_curve_needs_one_degree_beyond():
    table = build_moment_table(UNIT, 8)
    grid = default_grid(1, 2.0, 1.0, points=101)
    with pytest.raises(DomainError):
        error_curve(UNIT, table, 1, 2.0, 8, grid)


@pytest.mark.parametrize("factor", [-1.0, -2.0, math.inf], ids=["-t0", "-2t0", "inf"])
def test_error_curve_checks_t_before_the_grid(factor):
    # t + t0 = 0 divided by zero in the coverage check, and -2 t0 or inf
    # warned of a clipped grid, before anything refused t
    table = build_moment_table(UNIT, 3)
    grid = default_grid(1, 2.0, 1.0, points=41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="evaluation time t"):
            error_curve(UNIT, table, 1, factor * UNIT.width, 2, grid)


def test_error_curve_all_orders_mode():
    table = build_moment_table(UNIT, 7)
    grid = default_grid(1, 2.0, 1.0, points=101)
    curve = error_curve(UNIT, table, 1, 2.0, 6, grid, even_only=False)
    assert [p.k for p in curve.points] == [0, 1, 2, 3, 4, 5, 6]
    # ratio pairs each order with k + 2, not with the next row
    pts = curve.points
    for p, after in zip(pts, pts[2:]):
        assert p.ratio == after.sup_error / p.sup_error
    assert pts[-2].ratio is None and pts[-1].ratio is None


def test_kernel_slice_datum_converges_fast():
    # datum = the kernel at time s: amplitude (4 pi s)^{-1/2}, width s;
    # well inside the convergent regime at t = 4 the tail orders collapse
    s = 0.5
    slice_datum = Gaussian(
        amplitude=(4.0 * math.pi * s) ** -0.5, width=s, dim=1
    )
    table = build_moment_table(slice_datum, 21)
    grid = default_grid(1, 4.0, s, points=401)
    curve = error_curve(slice_datum, table, 1, 4.0, 20, grid)
    sups = [p.sup_error for p in curve.points]
    assert sups[-1] < 1e-8
    assert sups[-1] < sups[0] * 1e-5


# --- the banded sup-error sweep ------------------------------------------

BAND_ROWS = 7  # a 41-row grid splits into five bands of 7 and a last one of 6

OFF_CENTRE = Generic1D(
    func=lambda x: 1.0 if 0.3 <= x <= 1.5 else 0.0, breakpoints=(0.3, 1.5)
)
RADIAL = Radial(profile=lambda r: math.exp(-r * r / 4.0) * (1.0 + r), dim=2)


@pytest.fixture
def small_bands(monkeypatch):
    """Shrink the sweep's bands to BAND_ROWS rows of ``row_points`` nodes."""

    def shrink(row_points: int):
        monkeypatch.setattr(kernel_approx, "_BAND_BYTES", 8 * BAND_ROWS * row_points)

    return shrink


def _per_order_sups(table, t, axes, reference, orders):
    """max_abs_diff against field_up_to(k), one fresh evaluator per order."""
    return [
        backend.max_abs_diff(
            reference,
            SeriesGridEvaluator(table, t, axes, k_cap=orders[-1]).field_up_to(k),
        )
        for k in orders
    ]


@pytest.mark.parametrize(
    "u0,t,k_max,grid,even_only",
    [
        (Gaussian(1.0, 1.0, 2), 2.0, 20, default_grid(2, 2.0, 1.0, points=41), True),
        (Gaussian(1.0, 1.0, 2), 0.5, 20, default_grid(2, 0.5, 1.0, points=41), True),
        (RADIAL, 1.5, 10, GridSpec(dim=2, extent=6.0, points=41), True),
        (OFF_CENTRE, 0.7, 9, GridSpec(dim=1, extent=9.0, points=41), False),
    ],
    ids=["gaussian-above-t0", "gaussian-below-t0", "radial", "indicator-all-k"],
)
def test_band_sweep_equals_per_order_fields(small_bands, u0, t, k_max, grid, even_only):
    small_bands(grid.points if grid.dim == 2 else 1)
    table = build_moment_table(u0, k_max + 1)
    axes = grid.axes()
    reference = _reference_field(u0, axes, t)
    orders = list(range(0, k_max + 1, 2 if even_only else 1))
    want = _per_order_sups(table, t, axes, reference, orders)
    evaluator = SeriesGridEvaluator(table, t, axes, k_cap=k_max)
    assert evaluator.sup_errors(reference, orders) == want  # bit for bit
    curve = error_curve(u0, table, grid.dim, t, k_max, grid, even_only=even_only)
    assert [p.sup_error for p in curve.points] == want


def test_band_sweep_finds_worst_node_in_last_band(small_bands):
    # 43 rows: the lone row after six bands of 7 joins the last band
    axes = [np.linspace(-8.0, 8.0, 43), np.linspace(-8.0, 8.0, 41)]
    table = build_moment_table(Gaussian(1.0, 1.0, 2), 11)
    reference = _reference_field(Gaussian(1.0, 1.0, 2), axes, 2.0)
    reference[42, 5] += 10.0
    small_bands(41)
    evaluator = SeriesGridEvaluator(table, 2.0, axes, k_cap=10)
    assert evaluator._bands()[-1] == (35, 43)
    orders = [0, 4, 6, 10]
    got = evaluator.sup_errors(reference, orders)
    assert got == _per_order_sups(table, 2.0, axes, reference, orders)
    for k, sup in zip(orders, got):
        field = SeriesGridEvaluator(table, 2.0, axes, k_cap=k).field_up_to(k)
        assert sup == abs(reference[42, 5] - field[42, 5]) > 9.0


def test_band_sweep_propagates_nan(small_bands):
    grid = default_grid(2, 2.0, 1.0, points=41)
    axes = grid.axes()
    table = build_moment_table(Gaussian(1.0, 1.0, 2), 9)
    reference = _reference_field(Gaussian(1.0, 1.0, 2), axes, 2.0)
    reference[17, 3] = math.nan  # third of six bands
    small_bands(41)
    orders = [0, 2, 4, 8]
    got = SeriesGridEvaluator(table, 2.0, axes, k_cap=8).sup_errors(reference, orders)
    assert all(math.isnan(s) for s in got)
    assert all(math.isnan(s) for s in _per_order_sups(table, 2.0, axes, reference, orders))


def test_band_sweep_guards():
    axes = default_grid(2, 2.0, 1.0, points=41).axes()
    table = build_moment_table(Gaussian(1.0, 1.0, 2), 9)
    evaluator = SeriesGridEvaluator(table, 2.0, axes, k_cap=8)
    reference = np.zeros((41, 41))
    with pytest.raises(DomainError):
        evaluator.sup_errors(reference, [])  # no order
    with pytest.raises(DomainError):
        evaluator.sup_errors(reference, [4, 2])  # descending
    with pytest.raises(DomainError):
        evaluator.sup_errors(reference, [2, 10])  # beyond k_cap
    with pytest.raises(DomainError):
        evaluator.sup_errors(np.zeros((41, 40)), [2])
    for order in (2.0, True):  # not integers
        with pytest.raises(DomainError):
            evaluator.sup_errors(reference, [order])
        with pytest.raises(DomainError):
            evaluator.field_up_to(order)


def test_error_curve_holds_no_truncation_field():
    # the reference is the only grid-sized array an error curve keeps; the
    # bands, their temporaries and the Hermite tables stay below one more
    u0 = Gaussian(1.0, 1.0, 2)
    table = build_moment_table(u0, 21)
    # and an even datum is swept on the non-negative quarter of the grid
    grid = default_grid(2, 2.0, 1.0, points=801)
    quarter_bytes = 8 * (grid.points // 2 + 1) ** 2
    tracemalloc.start()
    try:
        error_curve(u0, table, 2, 2.0, 20, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * quarter_bytes


# --- band limits: the sweep skips bands that cannot raise the sup ---------

def _every_band_sups(evaluator, reference, orders):
    """sup |reference - u_k| of each band (rows) at each order (columns),
    every band measured at every order: the sweep with nothing skipped."""
    per_band = []
    for i0, i1 in evaluator._bands():
        band = np.zeros((i1 - i0,) + evaluator.shape[1:])
        sups, built = [], -1
        for k in orders:
            for j in range(built + 1, k + 1):
                evaluator._accumulate(band, i0, i1, j)
            built = k
            sups.append(backend.max_abs_diff(reference[i0:i1], band))
        per_band.append(sups)
    return np.array(per_band)


def _swept(u0, t, k_max, grid, table=None, step=2):
    """The evaluator, reference and orders of error_curve's sweep."""
    if table is None:
        table = build_moment_table(u0, k_max + 1)
    axes = _sweep_axes(u0, table, grid, k_max)
    evaluator = SeriesGridEvaluator(table, t, axes, k_cap=k_max)
    return evaluator, _reference_field(u0, axes, t), list(range(0, k_max + 1, step))


def _planted(value):
    """The d2 k60 sweep at t = 2 t0 with ``value(sup)`` added to the
    reference at the grid's far corner, in the last band; sup is the largest
    error of the unplanted sweep."""

    def make():
        evaluator, reference, orders = _swept(
            Gaussian(1.0, 1.0, 2), 2.0, 60, default_grid(2, 2.0, 1.0, points=801)
        )
        sup = _every_band_sups(evaluator, reference, orders).max()
        reference[-1, -1] += value(sup)
        return evaluator, reference, orders

    return make


def _gauss_shapes(name, amplitude, t0, ts):
    """The three sweeps of the grid-gauss benchmark for one seed's datum
    and times ``ts``, on its grids of half-width
    max(16 sqrt t + 4 sqrt t0, 13 sqrt(t + t0))."""
    shapes = {}
    for (dim, k_max, points, side), t in zip(
        ((2, 120, 801, "above"), (2, 60, 801, "below"), (1, 120, 4001, "above")), ts
    ):
        extent = max(16.0 * math.sqrt(t) + 4.0 * math.sqrt(t0), 13.0 * math.sqrt(t + t0))
        shapes[f"d{dim}-k{k_max}-{points}-{side}-{name}"] = (
            lambda dim=dim, t=t, k_max=k_max, points=points, extent=extent: _swept(
                Gaussian(amplitude, t0, dim), t, k_max, GridSpec(dim=dim, extent=extent, points=points)
            )
        )
    return shapes


LIMIT_CASES = {
    **_gauss_shapes("seed11", 0.7503, 0.9938, (2.0595, 0.5834, 2.1592)),
    **_gauss_shapes("seed12", 1.7941, 0.8486, (2.0229, 0.4728, 1.7345)),
    "d2-live-odd-row-full-grid": lambda: _swept(
        Gaussian(1.0, 1.0, 2), 2.0, 40, default_grid(2, 2.0, 1.0, points=801),
        table=_with_live_odd_row(build_moment_table(Gaussian(1.0, 1.0, 2), 41), 7), step=1,
    ),
    "d1-40001-two-bands": lambda: _swept(
        Gaussian(1.0, 1.0, 1), 2.0, 120, default_grid(1, 2.0, 1.0, points=40001)
    ),
    "d2-radial-exp": lambda: _swept(
        Radial(profile=lambda r: math.exp(-r), dim=2), 1.5, 20,
        GridSpec(dim=2, extent=12.0, points=401), step=1,
    ),
    "nan-in-last-band": _planted(lambda sup: math.nan),
    "inf-in-last-band": _planted(lambda sup: math.inf),
    "spike-in-last-band": _planted(lambda sup: 10.0 * sup),
}


@pytest.fixture(scope="module", params=list(LIMIT_CASES))
def limit_case(request):
    evaluator, reference, orders = LIMIT_CASES[request.param]()
    return request.param, evaluator, reference, orders, _every_band_sups(evaluator, reference, orders)


def test_pruned_sweep_equals_every_band_sweep(limit_case):
    _, evaluator, reference, orders, every = limit_case
    got = np.array(evaluator.sup_errors(reference, orders))
    np.testing.assert_array_equal(got.view(np.int64), every.max(axis=0).view(np.int64))


def test_band_limits_bound_every_band_at_every_order(limit_case):
    name, evaluator, reference, orders, every = limit_case
    limits = evaluator._limits(reference, evaluator._bands(), orders)
    assert limits.shape == every.shape
    assert not (every > limits).any()
    # a NaN error has a NaN limit, which never lets its band be skipped
    assert np.isnan(limits[np.isnan(every)]).all()
    if name.startswith("d1-k120-4001"):
        assert len(evaluator._bands()) == 1  # the orthant's 2001 nodes
    else:
        assert len(evaluator._bands()) > 1


def _counted_products(monkeypatch):
    calls = []
    accumulate = backend.accumulate_series_2d
    monkeypatch.setattr(
        backend, "accumulate_series_2d", lambda *args: (calls.append(1), accumulate(*args))
    )
    return calls


@pytest.mark.parametrize("t,k_max,share", [(0.5, 60, 0.25), (2.0, 120, 0.9)])
def test_band_limits_skip_products(monkeypatch, t, k_max, share):
    # below t0 the origin band's error outgrows every other band's limit;
    # above it the late orders sit at the rounding level and only the
    # outermost bands fall below it
    calls = _counted_products(monkeypatch)
    u0, grid = Gaussian(1.0, 1.0, 2), default_grid(2, t, 1.0, points=801)
    table = build_moment_table(u0, k_max + 1)
    error_curve(u0, table, 2, t, k_max, grid)
    pruned = len(calls)
    evaluator, reference, orders = _swept(u0, t, k_max, grid, table=table)
    calls.clear()
    _every_band_sups(evaluator, reference, orders)
    assert len(calls) == len(evaluator._bands()) * (k_max // 2 + 1)
    assert pruned <= share * len(calls)


def test_one_band_sweeps_compute_no_limit(monkeypatch):
    def refuse(*args):
        raise AssertionError("a one-band sweep computed band limits")

    monkeypatch.setattr(SeriesGridEvaluator, "_limits", refuse)
    error_curve(UNIT, build_moment_table(UNIT, 121), 1, 2.0, 120, default_grid(1, 2.0, 1.0, points=4001))
    u0 = Gaussian(1.0, 1.0, 2)
    error_curve(u0, build_moment_table(u0, 5), 2, 2.0, 4, default_grid(2, 2.0, 1.0, points=41))
    error_curve(RADIAL, build_moment_table(RADIAL, 11), 2, 1.5, 10, GridSpec(dim=2, extent=6.0, points=41))
    error_curve(INDICATOR, build_moment_table(INDICATOR, 41), 1, 2.0, 40, GridSpec(dim=1, extent=12.0, points=801))


# --- the fold of even data onto the non-negative orthant ------------------

@pytest.fixture
def swept_shapes(monkeypatch):
    """Record the grid shape of every evaluator the error sweeps build."""
    shapes = []

    class Recording(SeriesGridEvaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            shapes.append(self.shape)

    monkeypatch.setattr(reference_module, "SeriesGridEvaluator", Recording)
    return shapes


def _full_grid_sweep(u0, table, t, grid, orders):
    """Sup errors over every node of the grid, with no fold."""
    axes = grid.axes()
    evaluator = SeriesGridEvaluator(table, t, axes, k_cap=orders[-1])
    return evaluator.sup_errors(_reference_field(u0, axes, t), orders)


def _with_live_odd_row(table, degree):
    """A copy of ``table`` whose first multi-index of ``degree`` with an
    odd component carries a small live moment."""
    signs, logmag = table.signs.copy(), table.logmag.copy()
    lo, hi = table.ends[degree - 1], table.ends[degree]
    row = lo + np.flatnonzero((table.components[lo:hi] % 2).any(axis=1))[0]
    signs[row], logmag[row] = 1, -30.0
    return MomentTable.from_arrays(
        signs, logmag, dim=table.dim, k_max=table.k_max, source=table.source
    )


@pytest.mark.parametrize(
    "u0,t,k_max,grid",
    [
        (Gaussian(1.0, 1.0, 1), 2.0, 60, default_grid(1, 2.0, 1.0, points=4001)),
        (Gaussian(1.3, 0.9, 1), 0.5, 40, default_grid(1, 0.5, 0.9, points=401)),
        (Gaussian(1.0, 1.0, 1), 2.0, 12, GridSpec(dim=1, extent=18.3, points=3)),
        (Gaussian(1.0, 1.0, 2), 2.0, 60, default_grid(2, 2.0, 1.0, points=161)),
        (Gaussian(2.5, 0.7, 2), 0.4, 40, default_grid(2, 0.4, 0.7, points=41)),
        (Gaussian(1.0, 1.0, 2), 3.7, 20, GridSpec(dim=2, extent=25.123456, points=3)),
        (RADIAL, 1.5, 10, GridSpec(dim=2, extent=6.0, points=41)),
    ],
    ids=["gauss-d1-4001", "gauss-d1-below-t0", "gauss-d1-3pts", "gauss-d2-161",
         "gauss-d2-below-t0", "gauss-d2-3pts", "radial-d2"],
)
def test_even_data_fold_equals_full_grid_sweep(swept_shapes, u0, t, k_max, grid):
    table = build_moment_table(u0, k_max + 1)
    orders = list(range(k_max + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the 3-point grids are clipped
        curve = error_curve(u0, table, grid.dim, t, k_max, grid, even_only=False)
        evens = error_curve(u0, table, grid.dim, t, k_max, grid)
    half = (grid.points // 2 + 1,) * grid.dim
    assert swept_shapes == [half, half]
    want = _full_grid_sweep(u0, table, t, grid, orders)
    assert [p.sup_error for p in curve.points] == want  # bit for bit
    assert [p.sup_error for p in evens.points] == want[::2]


def test_odd_row_beyond_the_swept_degrees_still_folds(swept_shapes):
    u0, t, k_max = Gaussian(1.0, 1.0, 2), 2.0, 20
    grid = default_grid(2, t, 1.0, points=41)
    table = _with_live_odd_row(build_moment_table(u0, k_max + 1), k_max + 1)
    curve = error_curve(u0, table, 2, t, k_max, grid)
    assert swept_shapes == [(21, 21)]
    orders = list(range(0, k_max + 1, 2))
    assert [p.sup_error for p in curve.points] == _full_grid_sweep(u0, table, t, grid, orders)


@pytest.mark.parametrize(
    "u0,t,k_max,grid,odd_degree",
    [
        (INDICATOR, 0.7, 9, GridSpec(dim=1, extent=9.0, points=41), None),
        (OFF_CENTRE, 0.7, 9, GridSpec(dim=1, extent=9.0, points=41), None),
        (Gaussian(1.0, 1.0, 1), 2.0, 20, default_grid(1, 2.0, 1.0, points=201), 7),
        (Gaussian(1.0, 1.0, 2), 2.0, 20, default_grid(2, 2.0, 1.0, points=41), 20),
        (RADIAL, 1.5, 10, GridSpec(dim=2, extent=6.0, points=41), 3),
    ],
    ids=["centred-generic1d", "off-centre-generic1d", "gauss-d1-odd-row",
         "gauss-d2-odd-row", "radial-odd-row"],
)
def test_no_fold_without_even_data(swept_shapes, u0, t, k_max, grid, odd_degree):
    table = build_moment_table(u0, k_max + 1)
    if odd_degree is not None:
        table = _with_live_odd_row(table, odd_degree)
    orders = list(range(k_max + 1))
    curve = error_curve(u0, table, grid.dim, t, k_max, grid, even_only=False)
    evens = error_curve(u0, table, grid.dim, t, k_max, grid)
    full = (grid.points,) * grid.dim
    assert swept_shapes == [full, full]
    want = _full_grid_sweep(u0, table, t, grid, orders)
    assert [p.sup_error for p in curve.points] == want
    assert [p.sup_error for p in evens.points] == want[::2]


def test_error_sweeps_reject_a_table_of_another_dim():
    table = build_moment_table(UNIT, 5)
    grid = default_grid(2, 2.0, 1.0, points=41)
    u0 = Gaussian(1.0, 1.0, 2)
    with pytest.raises(DomainError, match="table dim 1 .*grid dim 2"):
        error_curve(u0, table, 2, 2.0, 4, grid)
    with pytest.raises(DomainError, match="table dim 1 .*grid dim 2"):
        error_curve(UNIT, table, 1, 2.0, 4, grid)


def test_error_sweeps_measure_the_tables_own_datum():
    table = build_moment_table(UNIT, 11)
    grid = default_grid(1, 2.0, 1.0, points=201)
    other = Gaussian(2.0, 1.0, 1)
    with pytest.raises(DomainError, match="built from"):
        error_curve(other, table, 1, 2.0, 10, grid)
    # an equal datum measures the same
    want = error_curve(UNIT, table, 1, 2.0, 10, grid)
    assert error_curve(Gaussian(1, 1, 1), table, 1, 2.0, 10, grid) == want
    # a table that records no datum has no absolute moments for F
    bare = MomentTable.from_json(table.to_json())
    assert bare.source is None
    with pytest.raises(DomainError, match="source datum"):
        error_curve(UNIT, bare, 1, 2.0, 10, grid)


def test_error_curve_refuses_a_bare_table_before_sweeping(monkeypatch):
    # the refusal costs no grid sweep: sup_errors is never reached
    calls = []
    sup_errors = kernel_approx.SeriesGridEvaluator.sup_errors

    def counted(self, *args, **kwargs):
        calls.append(1)
        return sup_errors(self, *args, **kwargs)

    monkeypatch.setattr(kernel_approx.SeriesGridEvaluator, "sup_errors", counted)
    table = build_moment_table(UNIT, 11)
    grid = default_grid(1, 2.0, 1.0, points=201)
    bare = MomentTable.from_json(table.to_json())
    with pytest.raises(DomainError, match="source datum"):
        error_curve(UNIT, bare, 1, 2.0, 10, grid)
    assert calls == []
    error_curve(UNIT, table, 1, 2.0, 10, grid)
    assert calls == [1]


def test_error_curve_rejects_a_negative_order():
    grid = default_grid(1, 2.0, 1.0, points=41)
    with pytest.raises(DomainError):
        error_curve(UNIT, build_moment_table(UNIT, 3), 1, 2.0, -1, grid)


@pytest.mark.parametrize("k_max", [2.0, True])
def test_error_curve_rejects_an_order_that_is_not_an_integer(k_max):
    grid = default_grid(1, 2.0, 1.0, points=41)
    with pytest.raises(DomainError, match="k_max must be an integer"):
        error_curve(UNIT, build_moment_table(UNIT, 3), 1, 2.0, k_max, grid)


# --- the gather-free kernel against the gathering one --------------------

def _gathering_blocks(table, t, k):
    """degree -> (axis-0 orders, axis-1 orders, coefficients) of every term
    with a nonzero coefficient, as the evaluator computed them before its
    axis-1 table was reversed."""
    cfg = ApproxConfig(dim=2, k=k, t=t)
    rows = {}
    for a, m in table.entries.items():
        if a.degree > k:
            break
        if m.sign == 0:
            continue
        logmag = (
            m.logmag
            + kernel_approx._term_scale(a.degree, cfg)
            - math.fsum(math.lgamma(c + 1.0) for c in a.components)
        )
        coeff = m.sign * math.exp(logmag)
        if coeff != 0.0:
            rows.setdefault(a.degree, []).append((*a.components, coeff))
    return {
        j: tuple(np.array(col) for col in zip(*terms)) for j, terms in rows.items()
    }


def _gathering_sweep(table, t, axes, bands, reference, orders):
    """(sup errors at each order, |terms| summed to orders[-1], field at
    orders[-1]), each degree block accumulated band by band with its table
    rows gathered by fancy indexing, t2[deg2] whole-width."""
    k = orders[-1]
    scale = 2.0 * math.sqrt(t)
    t1, t2 = (backend.weighted_hermite_table(ax / scale, k) for ax in axes)
    blocks = _gathering_blocks(table, t, k)
    field, magnitude = np.zeros(reference.shape), np.zeros(reference.shape)
    per_band = []
    for i0, i1 in bands:
        band, sups, built = field[i0:i1], [], -1
        for order in orders:
            for j in range(built + 1, order + 1):
                if j in blocks:
                    deg1, deg2, c = blocks[j]
                    left = t1[:, i0:i1][deg1]
                    band += (left * c[:, None]).T @ t2[deg2]
                    magnitude[i0:i1] += (np.abs(left) * np.abs(c)[:, None]).T @ np.abs(t2[deg2])
            built = order
            sups.append(backend.max_abs_diff(reference[i0:i1], band))
        per_band.append(sups)
    return np.max(per_band, axis=0).tolist(), magnitude, field


@pytest.mark.parametrize(
    "points,band_rows,folds",
    [(201, 25, True), (201, 7, False), (801, None, True), (801, 16, True)],
    ids=["201-rows25-fold", "201-rows7", "801-default-fold", "801-rows16-fold"],
)
def test_gather_free_sweep_is_bit_identical(monkeypatch, points, band_rows, folds):
    if band_rows is not None:
        monkeypatch.setattr(kernel_approx, "_BAND_BYTES", 8 * band_rows * points)
    u0, t, k_max = Gaussian(1.3, 0.9, 2), 1.7, 40
    table = build_moment_table(u0, k_max)
    axes = default_grid(2, t, 0.9, points=points).axes()
    reference = _reference_field(u0, axes, t)
    evaluator = SeriesGridEvaluator(table, t, axes)
    bands = evaluator._bands()
    rows = bands[0][1] - bands[0][0]
    # a lone last row joins the band before it
    assert (bands[-1][1] - bands[-1][0] == rows + 1) == folds
    orders = list(range(0, k_max + 1, 2))
    want, _, field = _gathering_sweep(table, t, axes, bands, reference, orders)
    assert evaluator.sup_errors(reference, orders) == want  # bit for bit
    for k in (9, 24, k_max):
        _, _, field = _gathering_sweep(table, t, axes, bands, reference, [k])
        np.testing.assert_array_equal(evaluator.field_up_to(k), field)


def test_gather_free_sweep_zero_filled_block():
    # degree blocks whose terms skip axis-0 orders: the evaluator holds them
    # as one dense strided block with zero coefficients in the gaps
    rng = np.random.default_rng(11)
    k_max = 9
    gaps = {6: {2, 3}, 7: {1, 2, 4, 5, 6}, 9: {0, 4, 5}}  # degree -> zeroed n1
    signs, logmag = [], []
    for degree in range(k_max + 1):
        for n1, _ in compositions(degree, 2):
            zeroed = n1 in gaps.get(degree, ())
            signs.append(0 if zeroed else int(rng.choice([-1, 1])))
            logmag.append(0.0 if zeroed else float(rng.uniform(-1.0, 3.0)))
    table = MomentTable.from_arrays(signs, logmag, dim=2, k_max=k_max)
    t = 1.2
    axes = GridSpec(dim=2, extent=9.0, points=201).axes()
    reference = _reference_field(Gaussian(1.0, 1.0, 2), axes, t)
    evaluator = SeriesGridEvaluator(table, t, axes)
    assert any(0.0 in coeffs for *_, coeffs in evaluator._blocks.values())
    orders = list(range(k_max + 1))
    want, magnitude, field = _gathering_sweep(
        table, t, axes, evaluator._bands(), reference, orders
    )
    # Both sum the same terms (the zeros add exact zeros) in different
    # orders.  Every node is a sum of at most n terms of up to three
    # factors, n the number of terms, plus one add per degree block, so
    # each result lies within gamma_{n+3+k} * sum |terms| of the exact sum
    # (Higham, 2nd ed., 4.2); the two differ by at most twice that, and a
    # sup error by that plus one rounding of the difference.
    n = len(signs) + 3 + k_max
    u = np.finfo(float).eps / 2.0
    bound = 2.0 * (n * u / (1.0 - n * u)) * magnitude
    got = evaluator.field_up_to(k_max)
    assert np.all(np.abs(got - field) <= bound)
    sups = SeriesGridEvaluator(table, t, axes).sup_errors(reference, orders)
    slack = float(bound.max())
    for got_sup, want_sup in zip(sups, want):
        assert abs(got_sup - want_sup) <= slack + 2.0 * u * want_sup


# --- the batched reference field -----------------------------------------

def test_radial_field_equals_per_node_oracle():
    # 41^2 nodes share far fewer distinct radii; each node must still get
    # exactly the value it gets alone
    u0 = Radial(profile=lambda r: math.exp(-r * r / 4.0) * (1.0 + r), dim=2)
    axes = GridSpec(dim=2, extent=6.0, points=41).axes()
    field = _reference_field(u0, axes, 1.5)
    for i, xi in enumerate(axes[0]):
        for j, xj in enumerate(axes[1]):
            assert field[i, j] == convolve_oracle(u0, (xi, xj), 1.5)  # bit for bit


def test_generic_field_equals_per_node_oracle():
    axis = GridSpec(dim=1, extent=9.0, points=201).axes()
    field = _reference_field(INDICATOR, axis, 0.7)
    for i, x in enumerate(axis[0]):
        assert field[i] == convolve_oracle(INDICATOR, x, 0.7)  # bit for bit

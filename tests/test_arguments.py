"""One boundary table for the whole API: every integer or real parameter
of a public entry point, and every field of an initial datum, refuses a
string, None, a bool, NaN and inf with DomainError, never TypeError or a
plain ValueError.  The three parsers behind them are ``check_integer``,
``check_real`` and the point parser ``kernel_approx._as_point``."""

import math

import numpy as np
import pytest

from heatseries import (
    ApproxConfig,
    DomainError,
    Gaussian,
    Generic1D,
    GridSpec,
    MomentTable,
    Radial,
    bonan_clark_log,
    build_moment_table,
    compositions,
    convolve_oracle,
    default_grid,
    divergence_lower_bound,
    envelope_bound_G,
    error_curve,
    eval_uk_radial_origin,
    exact_gaussian_solution,
    gaussian_origin_blocks,
    gaussian_test_function,
    log_factorial,
    log_gamma,
    poly_gaussian_test_function,
    remainder,
)
from heatseries.specfun import ierfc, laguerre_sequence

BAD = ["1", None, True, math.nan, math.inf]
BAD_IDS = ["str", "None", "bool", "nan", "inf"]

_CFG1 = ApproxConfig(dim=1, k=4, t=0.5)
_CFG2 = ApproxConfig(dim=2, k=4, t=2.0)
_T2 = build_moment_table(Gaussian(1.0, 1.0, 2), 4)
_U1 = Gaussian(1.0, 1.0, 1)
_T1 = build_moment_table(_U1, 3)


def _exp(x):
    return math.exp(-x * x)


#: name -> (a good value, a call that puts its argument in the one
#: parameter named); every other argument of the call is valid
ENTRY_POINTS = {
    "Gaussian.amplitude": (1.0, lambda v: Gaussian(amplitude=v, width=1.0, dim=1)),
    "Gaussian.width": (1.0, lambda v: Gaussian(amplitude=1.0, width=v, dim=1)),
    "Gaussian.dim": (2, lambda v: Gaussian(amplitude=1.0, width=1.0, dim=v)),
    "Radial.profile": (_exp, lambda v: Radial(profile=v, dim=2)),
    "Radial.dim": (2, lambda v: Radial(profile=_exp, dim=v)),
    "Generic1D.func": (_exp, lambda v: Generic1D(func=v)),
    "Generic1D.breakpoints": (1.0, lambda v: Generic1D(func=_exp, breakpoints=(-1.0, v))),
    "Generic1D.dim": (1, lambda v: Generic1D(func=_exp, dim=v)),
    "GridSpec.dim": (2, lambda v: GridSpec(dim=v, extent=3.0, points=5)),
    "GridSpec.extent": (3.0, lambda v: GridSpec(dim=1, extent=v, points=5)),
    "GridSpec.points": (5, lambda v: GridSpec(dim=1, extent=3.0, points=v)),
    "default_grid.dim": (2, lambda v: default_grid(v, 1.0, 1.0)),
    "default_grid.t_max": (0.0, lambda v: default_grid(1, v, 1.0)),
    "default_grid.width": (0.0, lambda v: default_grid(1, 1.0, v)),
    "default_grid.points": (5, lambda v: default_grid(1, 1.0, 1.0, points=v)),
    "envelope_bound_G.amplitude": (2.0, lambda v: envelope_bound_G(v, 1.0, _CFG1)),
    "envelope_bound_G.width": (2.0, lambda v: envelope_bound_G(1.0, v, _CFG1)),
    "divergence_lower_bound.amplitude": (2.0, lambda v: divergence_lower_bound(v, 1.0, _CFG1)),
    "divergence_lower_bound.width": (2.0, lambda v: divergence_lower_bound(1.0, v, _CFG1)),
    "gaussian_origin_blocks.amplitude": (2.0, lambda v: gaussian_origin_blocks(v, 1.0, 1, 0.5, 2)),
    "gaussian_origin_blocks.width": (2.0, lambda v: gaussian_origin_blocks(1.0, v, 1, 0.5, 2)),
    "gaussian_origin_blocks.dim": (2, lambda v: gaussian_origin_blocks(1.0, 1.0, v, 0.5, 2)),
    "gaussian_origin_blocks.t": (2.0, lambda v: gaussian_origin_blocks(1.0, 1.0, 1, v, 2)),
    "gaussian_origin_blocks.N": (0, lambda v: gaussian_origin_blocks(1.0, 1.0, 1, 0.5, v)),
    "bonan_clark_log.n": (0, bonan_clark_log),
    "exact_gaussian_solution.amplitude": (
        2.0, lambda v: exact_gaussian_solution(v, 1.0, 1, 0.5, 1.0)
    ),
    "exact_gaussian_solution.width": (2.0, lambda v: exact_gaussian_solution(1.0, v, 1, 0.5, 1.0)),
    "exact_gaussian_solution.dim": (1, lambda v: exact_gaussian_solution(1.0, 1.0, v, 0.5, 1.0)),
    "exact_gaussian_solution.t": (0.0, lambda v: exact_gaussian_solution(1.0, 1.0, 1, 0.5, v)),
    "error_curve.t": (
        2.0, lambda v: error_curve(_U1, _T1, 1, v, 2, default_grid(1, 2.0, 1.0, points=9))
    ),
    "convolve_oracle.t": (2.0, lambda v: convolve_oracle(Gaussian(1.0, 1.0, 1), 0.5, v)),
    "gaussian_test_function.a": (2.0, gaussian_test_function),
    "poly_gaussian_test_function.coeffs": (-2.0, lambda v: poly_gaussian_test_function((1.0, v))),
    "poly_gaussian_test_function.a": (2.0, lambda v: poly_gaussian_test_function((1.0,), v)),
    "remainder.alpha": (1, lambda v: remainder(Gaussian(1.0, 1.0, 1), v, 0.5)),
    "log_gamma.z": (0.5, log_gamma),
    "log_factorial.n": (0, log_factorial),
    "ierfc.n": (-1, lambda v: ierfc(v, 0.5)),
    "laguerre_sequence.n_max": (0, lambda v: laguerre_sequence(v, 0.0, 0.5)),
    "laguerre_sequence.a": (-0.5, lambda v: laguerre_sequence(2, v, 0.5)),
    "laguerre_sequence.x": (-0.5, lambda v: laguerre_sequence(2, 0.0, v)),
    "compositions.total": (0, lambda v: list(compositions(v, 2))),
    "compositions.parts": (1, lambda v: list(compositions(2, v))),
    "ApproxConfig.dim": (3, lambda v: ApproxConfig(dim=v, k=2, t=1.0)),
    "ApproxConfig.k": (0, lambda v: ApproxConfig(dim=1, k=v, t=1.0)),
    "build_moment_table.k_max": (0, lambda v: build_moment_table(Gaussian(1.0, 1.0, 1), v)),
    "eval_uk_radial_origin.r": (0.0, lambda v: eval_uk_radial_origin(_T2, _CFG2, v)),
    "MomentTable.from_arrays.dim": (1, lambda v: MomentTable.from_arrays(
        [1, 0, 1], [0.0, 0.0, 0.0], dim=v, k_max=2
    )),
    "MomentTable.from_arrays.k_max": (2, lambda v: MomentTable.from_arrays(
        [1, 0, 1], [0.0, 0.0, 0.0], dim=1, k_max=v
    )),
}


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_a_bad_argument_raises_domain_error(name, value):
    with pytest.raises(DomainError):
        ENTRY_POINTS[name][1](value)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_each_row_accepts_a_good_value(name):
    # so that a row's DomainError above comes from the parameter it names
    good, call = ENTRY_POINTS[name]
    call(good)


def test_generic1d_breakpoints_are_checked_where_they_are_stored():
    # a NaN breakpoint used to be dropped by the quadrature's splitting,
    # which then missed the indicator's jumps and returned 0.0 here
    box = Generic1D(func=lambda x: 1.0 if abs(x) <= 1.0 else 0.0, breakpoints=(-1.0, 1.0))
    assert convolve_oracle(box, 0.0, 1.0) == pytest.approx(math.erf(0.5), rel=1e-12)
    for bad in [("a",), (math.inf,), (math.nan,), (np.nan,), 1.0, None]:
        with pytest.raises(DomainError):
            Generic1D(func=box.func, breakpoints=bad)

"""Truncated series evaluation: kernel derivatives against finite
differences, the point evaluator against the grid evaluator, and the
radial Laguerre route against the multi-index route."""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatseries import (
    ApproxConfig,
    DomainError,
    Gaussian,
    Generic1D,
    MomentTable,
    Radial,
    SeriesGridEvaluator,
    SimilarityPoint,
    UnsupportedVariantError,
    bonan_clark_log,
    build_moment_table,
    eigen_coeffs,
    eval_expansion_sweep,
    eval_uk,
    eval_uk_radial_origin,
    eval_uk_sweep,
    gaussian_origin_blocks,
    heat_kernel,
    kernel_derivative,
)
from heatseries import backend, kernel_approx


def test_heat_kernel_values():
    assert heat_kernel(0.0, 1.0 / (4.0 * math.pi)) == pytest.approx(1.0, rel=1e-14)
    assert heat_kernel((0.0, 0.0), 1.0) == pytest.approx(
        1.0 / (4.0 * math.pi), rel=1e-14
    )
    # normalization: d=1 kernel at the origin is (4 pi t)^{-1/2}
    assert heat_kernel(0.0, 2.0) == pytest.approx(
        (8.0 * math.pi) ** -0.5, rel=1e-14
    )
    with pytest.raises(DomainError):
        heat_kernel(0.0, 0.0)
    with pytest.raises(DomainError):
        heat_kernel((1.0, 2.0, 3.0), 1.0, dim=2)


def test_kernel_derivative_order_zero_is_kernel():
    for x, t in [(0.3, 0.7), (-1.2, 2.0)]:
        got = kernel_derivative((0,), x, t).to_float()
        assert got == pytest.approx(heat_kernel(x, t), rel=1e-13)


def test_kernel_second_derivative_frozen():
    # d^2/dx^2 G(x, 1) at x = 0: closed form -(4 pi)^{-1/2}/2
    got = kernel_derivative((2,), 0.0, 1.0).to_float()
    assert got == pytest.approx(-0.14104739588693907, rel=1e-13)


@pytest.mark.parametrize("alpha,x", [((1,), 0.7), ((2,), -0.4), ((3,), 0.7)])
def test_kernel_derivative_vs_finite_differences(alpha, x):
    t = 0.8
    n = alpha[0]
    h = 1e-2
    # central difference of order n with 9-point stencils on the kernel
    xs = np.arange(-4, 5) * h + x
    vals = np.array([heat_kernel(xi, t) for xi in xs])
    # n-th derivative by iterated central differences
    d = vals
    for _ in range(n):
        d = (d[2:] - d[:-2]) / (2.0 * h)
    fd = d[len(d) // 2]
    got = kernel_derivative(alpha, x, t).to_float()
    assert got == pytest.approx(fd, rel=5e-3)


def test_kernel_derivative_mixed_partial_symmetry():
    # D^(1,2) computed on either axis ordering of the point
    a = kernel_derivative((1, 2), (0.4, -0.9), 1.3).to_float()
    b = kernel_derivative((2, 1), (-0.9, 0.4), 1.3).to_float()
    assert a == pytest.approx(b, rel=1e-13)


# --- truncated series at a point -----------------------------------------

@pytest.fixture(scope="module")
def table_d1():
    return build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=1), 44)


@pytest.fixture(scope="module")
def table_d2():
    return build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=2), 24)


def test_order_zero_term(table_d1):
    # k = 0: u_0(0, t) = m_0 (4 pi t)^{-1/2} = 0.5 at t = 4
    cfg = ApproxConfig(dim=1, k=0, t=4.0)
    out = eval_uk(table_d1, cfg, 0.0)
    assert out.value == pytest.approx(0.5, rel=1e-13)
    assert out.terms == [(0, pytest.approx(0.5, rel=1e-13))]


def test_parity_skips_odd_degrees(table_d1):
    # symmetric datum: odd-degree blocks vanish, so k and k+1 agree
    cfg_even = ApproxConfig(dim=1, k=6, t=2.0)
    cfg_odd = ApproxConfig(dim=1, k=7, t=2.0)
    a = eval_uk(table_d1, cfg_even, 0.8)
    b = eval_uk(table_d1, cfg_odd, 0.8)
    assert a.value == b.value
    assert [j for j, _ in a.terms] == [0, 2, 4, 6]


def test_terms_sum_to_value(table_d1):
    out = eval_uk(table_d1, ApproxConfig(dim=1, k=20, t=2.0), 1.1)
    assert math.fsum(c for _, c in out.terms) == pytest.approx(out.value, rel=1e-12)


def test_amplitude_linearity(table_d1):
    doubled = build_moment_table(Gaussian(amplitude=2.0, width=1.0, dim=1), 12)
    cfg = ApproxConfig(dim=1, k=12, t=2.0)
    a = eval_uk(table_d1, cfg, 0.6).value
    b = eval_uk(doubled, cfg, 0.6).value
    assert b == pytest.approx(2.0 * a, rel=1e-13)


def test_series_converges_toward_exact(table_d1):
    # t = 2 > t0 = 1: truncations approach the exact Gaussian evolution
    exact = (1.0 / 3.0) ** 0.5 * math.exp(-0.25 / 12.0)
    errs = []
    for k in (0, 10, 20, 40):
        got = eval_uk(table_d1, ApproxConfig(dim=1, k=k, t=2.0), 0.5).value
        errs.append(abs(got - exact))
    assert errs[-1] < 1e-8
    assert errs == sorted(errs, reverse=True)


def test_eval_uk_argument_checks(table_d1):
    with pytest.raises(DomainError):
        eval_uk(table_d1, ApproxConfig(dim=1, k=60, t=2.0), 0.0)  # past table
    with pytest.raises(DomainError):
        eval_uk(table_d1, ApproxConfig(dim=2, k=2, t=2.0), (0.0, 0.0))
    with pytest.raises(DomainError):
        ApproxConfig(dim=1, k=-1, t=2.0)
    with pytest.raises(DomainError):
        ApproxConfig(dim=1, k=2, t=0.0)


# --- radial Laguerre route ------------------------------------------------

@pytest.mark.parametrize("k", [0, 2, 8, 20])
@pytest.mark.parametrize("r", [0.0, 0.7, 1.5])
def test_radial_form_matches_multi_index_sum(table_d2, k, r):
    cfg = ApproxConfig(dim=2, k=k, t=2.0)
    via_radial = eval_uk_radial_origin(table_d2, cfg, r)
    via_tensor = eval_uk(table_d2, cfg, (r, 0.0)).value
    assert via_radial == pytest.approx(via_tensor, rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("q", [0.4, 0.8, 1.25, 2.5])
def test_radial_form_at_origin_is_the_origin_series(dim, q):
    # two closed forms of u_k(0, t): the Laguerre sum at x = 0, where
    # L_n^{(d/2-1)}(0) = Gamma(n + d/2) / (Gamma(d/2) n!), and the binomial
    # blocks of the origin series; q < 1 converges, q > 1 diverges
    table = build_moment_table(Gaussian(amplitude=1.7, width=0.9, dim=dim), 120)
    t = 0.9 / q
    blocks = [a.to_float() for a in gaussian_origin_blocks(1.7, 0.9, dim, t, 60)]
    for k in range(0, 121, 2):
        want = math.fsum(blocks[: k // 2 + 1])
        scale = math.fsum(abs(a) for a in blocks[: k // 2 + 1])
        got = eval_uk_radial_origin(table, ApproxConfig(dim=dim, k=k, t=t), 0.0)
        assert abs(got - want) <= 1e-12 * scale, (k, got, want)


_REGIME_TABLES = {
    dim: build_moment_table(Gaussian(amplitude=1.3, width=0.8, dim=dim), k)
    for dim, k in ((2, 60), (3, 40))
}


@settings(max_examples=80, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    t_ratio=st.floats(1.5, 2.5),
    r_frac=st.floats(0.0, 1.0),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
)
def test_radial_form_matches_eval_uk_on_the_point_regime(dim, t_ratio, r_frac, direction):
    # t in [1.5, 2.5] t0, r <= 4 sqrt(t), d2 k60 and d3 k40, any direction
    norm = math.sqrt(math.fsum(c * c for c in direction[:dim]))
    if norm < 1e-3:
        direction, norm = [1.0, 0.0, 0.0], 1.0
    table = _REGIME_TABLES[dim]
    t = 0.8 * t_ratio
    r = r_frac * 4.0 * math.sqrt(t)
    cfg = ApproxConfig(dim=dim, k=table.k_max, t=t)
    via_tensor = eval_uk(table, cfg, [r * c / norm for c in direction[:dim]])
    magnitude = math.fsum(abs(c) for _, c in via_tensor.terms)
    gap = abs(eval_uk_radial_origin(table, cfg, r) - via_tensor.value)
    assert gap <= 1e-13 * max(magnitude, abs(via_tensor.value))


def test_radial_form_guards(table_d1, table_d2):
    with pytest.raises(DomainError):
        eval_uk_radial_origin(table_d1, ApproxConfig(dim=1, k=2, t=2.0), 0.5)
    with pytest.raises(DomainError):
        eval_uk_radial_origin(table_d2, ApproxConfig(dim=2, k=2, t=2.0), -0.1)
    from heatseries import MomentTable

    bare = MomentTable.from_json(table_d2.to_json())  # source stripped
    with pytest.raises(UnsupportedVariantError):
        eval_uk_radial_origin(bare, ApproxConfig(dim=2, k=2, t=2.0), 0.5)


# --- grid evaluator -------------------------------------------------------

def test_grid_evaluator_matches_point_evaluator_d1(table_d1):
    axis = np.linspace(-6.0, 6.0, 41)
    ev = SeriesGridEvaluator(table_d1, 2.0, [axis], k_cap=12)
    field = ev.field_up_to(12)
    for i in (0, 7, 20, 33):
        want = eval_uk(table_d1, ApproxConfig(dim=1, k=12, t=2.0), axis[i]).value
        assert field[i] == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_grid_evaluator_matches_point_evaluator_d2(table_d2):
    ax = np.linspace(-3.0, 3.0, 13)
    ev = SeriesGridEvaluator(table_d2, 2.0, [ax, ax], k_cap=8)
    field = ev.field_up_to(8)
    for i, j in [(0, 0), (6, 6), (2, 9)]:
        want = eval_uk(
            table_d2, ApproxConfig(dim=2, k=8, t=2.0), (ax[i], ax[j])
        ).value
        assert field[i, j] == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_grid_evaluator_incremental_consistency(table_d1):
    axis = np.linspace(-4.0, 4.0, 17)
    inc = SeriesGridEvaluator(table_d1, 2.0, [axis], k_cap=10)
    for k in (0, 4, 10):
        stage = inc.field_up_to(k).copy()
        fresh = SeriesGridEvaluator(table_d1, 2.0, [axis], k_cap=k).field_up_to(k)
        np.testing.assert_allclose(stage, fresh, rtol=1e-13)
        # a table built to exactly k gives the same field bit for bit
        exact = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=1), k)
        np.testing.assert_array_equal(
            SeriesGridEvaluator(exact, 2.0, [axis]).field_up_to(k), fresh
        )


def test_grid_evaluator_overflow_guard(table_d1):
    # tiny t pushes coefficients past the double range; the evaluator must
    # refuse rather than return inf
    axis = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(DomainError):
        SeriesGridEvaluator(table_d1, 1e-16, [axis], k_cap=44)


def test_field_up_to_returns_a_new_field_each_call(table_d1, table_d2):
    for table in (table_d1, table_d2):
        axes = [np.linspace(-4.0, 4.0, 17)] * table.dim
        evaluator = SeriesGridEvaluator(table, 2.0, axes, k_cap=8)
        attributes = dict(vars(evaluator))
        field4 = evaluator.field_up_to(4)
        want4 = field4.copy()
        field4 += 1.0  # a caller's edit stays in the caller's array
        want8 = SeriesGridEvaluator(table, 2.0, axes, k_cap=8).field_up_to(8)
        np.testing.assert_array_equal(evaluator.field_up_to(8), want8)
        np.testing.assert_array_equal(evaluator.field_up_to(4), want4)  # any order
        np.testing.assert_array_equal(evaluator.field_up_to(8), want8)
        assert vars(evaluator).keys() == attributes.keys()
        assert all(vars(evaluator)[name] is value for name, value in attributes.items())


@pytest.mark.parametrize("dim", [1, 2])
def test_rounding_floors_follow_their_formula(dim):
    # gamma_n sum_{|alpha| <= k} |c_alpha| prod_i BC(alpha_i) + 4 u peak,
    # n = k + d + 2, summed entry by entry, each c_alpha from its moment
    t, peak, u = 1.7, 0.6, 2.0**-53
    table = build_moment_table(Gaussian(amplitude=1.3, width=1.0, dim=dim), 12)
    evaluator = SeriesGridEvaluator(table, t, [np.linspace(-3.0, 3.0, 7)] * dim)
    orders = [0, 1, 5, 12]
    floors = evaluator.rounding_floors(orders, peak)
    for k, floor in zip(orders, floors):
        mass = math.fsum(
            math.exp(
                m.logmag - (a.degree + dim) / 2.0 * math.log(4.0 * t)
                - dim / 2.0 * math.log(math.pi)
                + sum(bonan_clark_log(c) - math.lgamma(c + 1.0) for c in a.components)
            )
            for a, m in table.entries.items()
            if m.sign and a.degree <= k
        )
        n = (k + dim + 2) * u
        assert floor == pytest.approx(n / (1.0 - n) * mass + 4.0 * u * peak, rel=1e-12)
    assert floors == sorted(floors)


def test_orders_must_be_non_negative(table_d1):
    evaluator = SeriesGridEvaluator(table_d1, 2.0, [np.linspace(-4.0, 4.0, 17)], k_cap=8)
    reference = np.zeros(17)
    for call in (
        lambda: evaluator.sup_errors(reference, [-1]),
        lambda: evaluator.sup_errors(reference, [-1, 2]),
        lambda: evaluator.field_up_to(-3),
    ):
        with pytest.raises(DomainError, match=r"must be in \[0, 8\], got -"):
            call()


@pytest.mark.parametrize(
    "orders",
    [[], [2, 1], [-1], [9], [2.0], [True]],
    ids=["empty", "descending", "negative", "past-cap", "float", "bool"],
)
def test_every_sweep_takes_orders_by_one_contract(orders):
    """Non-empty, ascending, integers in [0, cap]: the point sweeps, the
    eigen sweep and the grid evaluator refuse the same order lists."""
    u0 = Gaussian(amplitude=1.0, width=1.0, dim=1)
    table = build_moment_table(u0, 8)
    evaluator = SeriesGridEvaluator(table, 2.0, [np.linspace(-4.0, 4.0, 17)])
    calls = [
        lambda: eval_uk_sweep(table, 2.0, 0.5, orders),
        lambda: eval_expansion_sweep(
            eigen_coeffs(u0, 0.0, 8), SimilarityPoint(z=0.5, tau=0.0), orders
        ),
        lambda: evaluator.sup_errors(np.zeros(17), orders),
        lambda: evaluator.rounding_floors(orders, 1.0),
    ]
    if len(orders) == 1:
        calls.append(lambda: evaluator.field_up_to(orders[0]))
    for call in calls:
        with pytest.raises(DomainError, match="truncation order"):
            call()


@pytest.mark.parametrize(
    "axes",
    [
        [np.array([0.0, math.nan, 1.0])],
        [np.array([0.0, math.inf, 1.0])],
        [np.array([])],
        [np.zeros((3, 3))],
        [np.linspace(-1.0, 1.0, 5), np.array([-math.inf, 0.0])],
        [np.linspace(-1.0, 1.0, 5), []],
    ],
    ids=["nan-node", "inf-node", "empty", "2-d", "d2-inf-node", "d2-empty"],
)
def test_grid_evaluator_rejects_bad_axes(axes):
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=len(axes)), 4)
    with pytest.raises(DomainError, match="grid axis"):
        SeriesGridEvaluator(table, 2.0, axes)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dim=1, k=2.5, t=1.0),
        dict(dim=1, k=2.0, t=1.0),
        dict(dim=1, k=True, t=1.0),
        dict(dim=1.0, k=2, t=1.0),
        dict(dim=True, k=2, t=1.0),
    ],
    ids=["k-2.5", "k-2.0", "k-True", "dim-1.0", "dim-True"],
)
def test_approx_config_rejects_non_integer_sizes(kwargs):
    with pytest.raises(DomainError, match="must be an integer"):
        ApproxConfig(**kwargs)


@pytest.mark.parametrize("k_cap", [3.5, 3.0, True])
def test_grid_evaluator_rejects_non_integer_k_cap(table_d1, k_cap):
    with pytest.raises(DomainError, match="must be an integer"):
        SeriesGridEvaluator(table_d1, 2.0, [np.linspace(-1.0, 1.0, 5)], k_cap=k_cap)


def test_numpy_integer_sizes_are_accepted(table_d1):
    cfg = ApproxConfig(dim=np.int32(1), k=np.int64(6), t=2.0)
    assert eval_uk(table_d1, cfg, 0.3) == eval_uk(table_d1, ApproxConfig(dim=1, k=6, t=2.0), 0.3)
    axis = np.linspace(-4.0, 4.0, 17)
    np.testing.assert_array_equal(
        SeriesGridEvaluator(table_d1, 2.0, [axis], k_cap=np.int64(6)).field_up_to(6),
        SeriesGridEvaluator(table_d1, 2.0, [axis], k_cap=6).field_up_to(6),
    )


# --- the evaluator's coefficient blocks against a per-term assembly ------

def _per_term_blocks(table, t, k):
    """degree -> (axis-0 rows, axis-1 rows, coefficients), assembled term by
    term into one dict per degree: the blocks as the evaluator built them
    before it cut them from the table's degree ranges."""
    cfg = ApproxConfig(dim=table.dim, k=k, t=t)
    rows = np.flatnonzero(table.signs[: table.ends[k]])
    degrees = table.degrees[rows]
    term_scale = np.array([kernel_approx._term_scale(j, cfg) for j in range(k + 1)])
    logmag = (table.logmag[rows] + term_scale[degrees]) - table.ln_factorials[rows]
    values = map(operator.mul, table.signs[rows].tolist(), map(math.exp, logmag.tolist()))
    per_degree = {}  # degree -> {n1: coeff}
    for j, n1, coeff in zip(degrees.tolist(), table.components[rows, 0].tolist(), values):
        if coeff != 0.0:
            per_degree.setdefault(j, {})[n1] = coeff
    blocks = {}
    for j, terms in per_degree.items():
        n1 = list(terms)
        lo, hi = n1[0], n1[-1]
        step = math.gcd(*(b - a for a, b in zip(n1, n1[1:]))) or 1
        coeffs = np.zeros((hi - lo) // step + 1)
        coeffs[[(n - lo) // step for n in n1]] = list(terms.values())
        blocks[j] = (slice(lo, hi + 1, step), slice(k - j + lo, k - j + hi + 1, step), coeffs)
    return blocks


@functools.lru_cache(maxsize=None)
def _datum_table(name):
    """A degree-40 table of Gaussian (t0 = 0.9), radial or 1-D data."""
    return build_moment_table(
        {
            "gaussian-d1": Gaussian(1.3, 0.9, 1),
            "gaussian-d2": Gaussian(1.3, 0.9, 2),
            "radial-d2": Radial(profile=lambda r: math.exp(-r * r / 3.6) * (1.0 + r), dim=2),
            "generic-d1": Generic1D(
                func=lambda x: 1.0 if 0.3 <= x <= 1.5 else 0.0, breakpoints=(0.3, 1.5)
            ),
        }[name],
        40,
    )


def _random_table(seed, dim, k):
    """Random signs, a random share of them zero, and log magnitudes of
    which about one in ten sits where exp underflows to 0 or a subnormal."""
    rng = np.random.default_rng(seed)
    n = math.comb(k + dim, dim)
    zeros = rng.random(n) < rng.choice([0.0, 0.3, 0.7, 0.95])
    signs = np.where(zeros, 0, rng.choice([-1, 1], n)).astype(np.int8)
    logmag = rng.uniform(-20.0, 20.0, n) - np.where(rng.random(n) < 0.1, 735.0, 0.0)
    return MomentTable.from_arrays(signs, np.where(zeros, 0.0, logmag), dim=dim, k_max=k)


@settings(max_examples=120, deadline=None)
@given(
    source=st.sampled_from(
        ["random-d1", "random-d2", "gaussian-d1", "gaussian-d2", "radial-d2", "generic-d1"]
    ),
    k=st.integers(0, 40),
    t=st.sampled_from([0.2, 0.5, 0.9, 1.3, 2.0, 3.7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_equal_the_per_term_assembly(source, k, t, seed):
    kind, dim = source.rsplit("-d", 1)
    table = _random_table(seed, int(dim), k) if kind == "random" else _datum_table(source)
    axes = [np.linspace(-3.0, 3.0, 5)] * int(dim)
    got = SeriesGridEvaluator(table, t, axes, k_cap=k)._blocks
    want = _per_term_blocks(table, t, k)
    assert list(got) == list(want)
    for j, (rows1, rows2, coeffs) in want.items():
        assert got[j][:2] == (rows1, rows2)
        assert got[j][2].tobytes() == coeffs.tobytes()  # bit for bit


# --- one Hermite table per distinct axis ----------------------------------

_AXIS = np.linspace(-6.0, 6.0, 41)


@pytest.mark.parametrize(
    "second",
    [
        lambda ax: ax,
        lambda ax: ax.copy(),
        lambda ax: np.where(ax == 0.0, -0.0, ax),  # equal nodes, but -0.0 for 0.0
        lambda ax: np.linspace(-5.0, 7.0, 37),
    ],
    ids=["same-array", "copy", "signed-zero", "other"],
)
def test_evaluator_tables_equal_tables_built_one_axis_at_a_time(second):
    table = _datum_table("gaussian-d2")
    k, t = 30, 0.7
    axes = [_AXIS, second(_AXIS)]
    evaluator = SeriesGridEvaluator(table, t, axes, k_cap=k)
    scale = 2.0 * math.sqrt(t)
    t1, t2 = (backend.weighted_hermite_table(ax / scale, k) for ax in axes)
    assert evaluator._tables[0].tobytes() == t1.tobytes()
    # axis 1 is held in reverse row order, as one contiguous array
    assert evaluator._tables[1].flags.c_contiguous
    assert evaluator._tables[1].tobytes() == t2[::-1].tobytes()
    assert evaluator._tables[1] is not evaluator._tables[0]
    # and the field is the one of two evaluators that share no axis array
    alone = SeriesGridEvaluator(table, t, [ax.copy() for ax in axes], k_cap=k)
    assert evaluator.field_up_to(k).tobytes() == alone.field_up_to(k).tobytes()

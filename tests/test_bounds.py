"""Upper and lower error bounds: frozen closed-form values, decay rates,
the weighted-Hermite sup bound, and the Gaussian origin series with the
divergence bound built on it."""

import math
import sys

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
    ZERO,
    SignedLog,
    abs_moment,
    aligned_sum,
    backend,
    bonan_clark_log,
    build_moment_table,
    compositions,
    default_grid,
    divergence_lower_bound,
    envelope_bound_G,
    error_bound_F,
    error_bound_F_sweep,
    error_curve,
    eval_uk,
    gaussian_origin_blocks,
    moments,
)
from heatseries.bounds import divergence_lower_bound_sweep, envelope_bound_G_sweep
from heatseries.quadrature import integrate_halfline_rows, on_array
from heatseries.signedlog import LOG_ROUNDING, aligned_sum_arrays
from heatseries.specfun import bonan_clark_logs, log_factorial, log_gamma


@pytest.fixture(scope="module")
def table_d1():
    return build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=1), 21)


# --- weighted-Hermite sup bound ------------------------------------------

def test_bonan_clark_small_orders():
    assert math.exp(bonan_clark_log(0)) == pytest.approx(1.0, rel=1e-14)
    # 2 sqrt(2) 3^{-1/12}
    assert math.exp(bonan_clark_log(2)) == pytest.approx(2.5809814840956986, rel=1e-13)
    assert bonan_clark_log(2) == pytest.approx(
        math.log(2.5809814840956986), rel=1e-12
    )


def test_bonan_clark_huge_order_stays_log():
    assert bonan_clark_log(3000) > math.log(sys.float_info.max)
    assert math.isfinite(bonan_clark_log(3000))
    with pytest.raises(DomainError):
        bonan_clark_log(-1)


@pytest.mark.parametrize("n", [0, 1, 2, 120, 400, 3000])
def test_bonan_clark_table_has_the_bits_of_each_call(n):
    table = bonan_clark_logs(n)
    assert len(table) == n + 1
    assert table == [bonan_clark_log(m) for m in range(n + 1)]
    assert table[-1] == bonan_clark_log(n)
    with pytest.raises(DomainError):
        bonan_clark_logs(-1)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 10, 25, 60, 100])
def test_bonan_clark_dominates_sampled_sup(n):
    # moderate grid here; the acceptance gate runs the fine one
    ys = np.arange(-8.0, 8.0 + 1e-9, 1e-2)
    table = backend.weighted_hermite_table(ys, n)
    measured = float(np.max(np.abs(table[n])))
    assert measured <= math.exp(bonan_clark_log(n)) * (1.0 + 1e-10)


def test_bonan_clark_not_wildly_loose():
    # sup |H_2| e^{-x^2} = 2 at the origin, against a bound of 2.581: the
    # estimate should stay within a modest constant of the measured sup
    ys = np.arange(-4.0, 4.0 + 1e-9, 1e-4)
    table = backend.weighted_hermite_table(ys, 2)
    measured = float(np.max(np.abs(table[2])))
    assert measured == pytest.approx(2.0, rel=1e-6)
    assert measured > 0.7 * math.exp(bonan_clark_log(2))


# --- unconditional upper bound F -----------------------------------------

def test_error_bound_F_frozen(table_d1):
    got = error_bound_F(table_d1, ApproxConfig(dim=1, k=0, t=1.0)).to_float()
    # (2 pi)^{-1/2} 2^{-1} ||x u0||_1 2^{-1/6} with ||x u0||_1 = 4
    assert got == pytest.approx(0.7531027414271394, rel=1e-12)


@pytest.mark.parametrize("k", [0, 3, 10])
@pytest.mark.parametrize("dim", [1, 2])
def test_error_bound_F_time_scaling(k, dim):
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=dim), k + 1)
    a = error_bound_F(table, ApproxConfig(dim=dim, k=k, t=1.0))
    b = error_bound_F(table, ApproxConfig(dim=dim, k=k, t=4.0))
    # F scales like t^{-(k+d+1)/2}
    assert b.logmag - a.logmag == pytest.approx(
        -0.5 * (k + dim + 1) * math.log(4.0), rel=1e-12
    )


def test_error_bound_F_needs_next_degree(table_d1):
    with pytest.raises(DomainError):
        error_bound_F(table_d1, ApproxConfig(dim=1, k=21, t=1.0))


def test_error_bound_F_needs_source(table_d1):
    stripped = MomentTable.from_json(table_d1.to_json())
    with pytest.raises(DomainError):
        error_bound_F(stripped, ApproxConfig(dim=1, k=0, t=1.0))


# --- Gaussian envelope G --------------------------------------------------

def test_envelope_G_frozen():
    got = envelope_bound_G(1.0, 1.0, ApproxConfig(dim=1, k=0, t=1.0)).to_float()
    assert got == pytest.approx(0.94387431268169353, rel=1e-13)  # 2^{-1/12}
    got2 = envelope_bound_G(1.0, 1.0, ApproxConfig(dim=2, k=4, t=2.0)).to_float()
    assert got2 == pytest.approx(0.43039603143773097, rel=1e-13)


@pytest.mark.parametrize("k", [0, 2, 10, 60])
def test_envelope_G_slow_decay_at_matched_time(k):
    # d = 1, t = t0: G collapses to (k+2)^{-1/12}
    got = envelope_bound_G(1.0, 1.0, ApproxConfig(dim=1, k=k, t=1.0)).to_float()
    assert got == pytest.approx((k + 2.0) ** (-1.0 / 12.0), rel=1e-12)


def test_envelope_G_tail_ratio_geometric():
    # consecutive even orders decay at rate t0/t once k is large
    cfg_a = ApproxConfig(dim=1, k=200, t=2.0)
    cfg_b = ApproxConfig(dim=1, k=202, t=2.0)
    ga = envelope_bound_G(1.0, 1.0, cfg_a)
    gb = envelope_bound_G(1.0, 1.0, cfg_b)
    ratio = math.exp(gb.logmag - ga.logmag)
    assert abs(ratio - 0.5) < 0.05 * 0.5


def _envelope_G_expression(amplitude, width, d, k, t):
    """log G(k) as envelope_bound_G summed it term by term before it was
    one case of the sweep."""
    return (
        math.log(amplitude)
        + 0.5 * (k + d + 1) * math.log(width / t)
        - d * math.log(1.0 + (k + 1.0) / d) / 12.0
        + log_gamma(k + d + 1.0)
        - log_gamma(k + 2.0)
        - log_gamma(float(d))
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize(
    "amplitude,width,t", [(1.0, 1.0, 1.0), (1.3, 0.9, 2.0), (1e-300, 1.0, 0.5), (3.7, 1e3, 1e-4)]
)
def test_envelope_G_sweep_has_the_bits_of_each_order(dim, amplitude, width, t):
    orders = list(range(201))
    sweep = envelope_bound_G_sweep(amplitude, width, dim, t, orders)
    assert len(sweep) == len(orders)
    for k, g in zip(orders, sweep):
        one = envelope_bound_G(amplitude, width, ApproxConfig(dim=dim, k=k, t=t))
        assert (g.sign, g.logmag) == (one.sign, one.logmag) == (
            1, _envelope_G_expression(amplitude, width, dim, k, t)
        ), k
    evens = envelope_bound_G_sweep(amplitude, width, dim, t, range(0, 201, 2))
    assert [g.logmag for g in evens] == [g.logmag for g in sweep[::2]]


def test_envelope_G_sweep_domain():
    for orders in ([], [2, 0], [0, 1.5], [-1], None):
        with pytest.raises(DomainError):
            envelope_bound_G_sweep(1.0, 1.0, 1, 1.0, orders)


def test_envelope_G_domain():
    for amplitude, width in [
        (0.0, 1.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
    ]:
        with pytest.raises(DomainError):
            envelope_bound_G(amplitude, width, ApproxConfig(dim=1, k=0, t=1.0))


def test_F_below_G_for_gaussian_data(table_d1):
    # the envelope is derived from F by bounding each degree block, so for
    # Gaussian data F should never exceed it; checked, not relied upon
    for t in (1.0, 2.0, 4.0):
        for k in range(0, 20, 2):
            cfg = ApproxConfig(dim=1, k=k, t=t)
            f = error_bound_F(table_d1, cfg)
            g = envelope_bound_G(1.0, 1.0, cfg)
            assert f.logmag <= g.logmag + 1e-9


# --- Gaussian origin series and the divergence lower bound ---------------

#: the grid of datum amplitudes and ratios q = t0/t the origin blocks are
#: checked on; q > 1 is t below the width, where the series diverges
ORIGIN_AMPLITUDES = (1.0, 2.5)
ORIGIN_RATIOS = (1.05, 1.25, 2.0, 6.7)


@pytest.fixture(scope="module")
def origin_tables(moment_table):
    """origin_tables[(dim, C)] -> a Gaussian moment table of degree >= 80."""
    tables = {(d, 1.0): moment_table(d) for d in (1, 2, 3)}
    for d in (1, 2, 3):
        tables[(d, 2.5)] = build_moment_table(
            Gaussian(amplitude=2.5, width=1.0, dim=d), 80
        )
    return tables


def _origin_value(table, k, t):
    return eval_uk(table, ApproxConfig(dim=table.dim, k=k, t=t), (0.0,) * table.dim)


@pytest.mark.parametrize("q", ORIGIN_RATIOS)
@pytest.mark.parametrize("amplitude", ORIGIN_AMPLITUDES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_origin_blocks_match_eval_uk_partials(origin_tables, dim, amplitude, q):
    # u_k(0, t) summed degree by degree from the moment table equals the
    # partial sums of the closed-form blocks for every even k <= 80
    t = 1.0 / q
    blocks = [b.to_float() for b in gaussian_origin_blocks(amplitude, 1.0, dim, t, 40)]
    terms = dict(_origin_value(origin_tables[(dim, amplitude)], 80, t).terms)
    for k in range(0, 81, 2):
        n = k // 2
        measured = math.fsum(c for j, c in terms.items() if j <= k)
        closed = math.fsum(blocks[: n + 1])
        scale = math.fsum(map(abs, blocks[: n + 1]))
        assert abs(measured - closed) <= 1e-13 * scale, (k, measured, closed)


def test_origin_blocks_domain():
    for args in [
        (math.nan, 1.0, 1, 0.5, 2),
        (1.0, math.inf, 1, 0.5, 2),
        (1.0, 1.0, 1, math.nan, 2),
        (1.0, 1.0, 0, 0.5, 2),
        (1.0, 1.0, 1, 0.5, -1),
    ]:
        with pytest.raises(DomainError):
            gaussian_origin_blocks(*args)


def _closed_form_bound(dim, q, k):
    """|a_N| - |a_{N-1}| - sum_{n < n0} |a_n| at unit amplitude and width,
    every block from math.lgamma in plain floats."""
    N = k // 2
    mags = [
        math.exp(
            0.5 * dim * math.log(q) + n * math.log(q)
            + math.lgamma(n + 0.5 * dim) - math.lgamma(0.5 * dim) - math.lgamma(n + 1.0)
        )
        for n in range(N + 1)
    ]
    n0 = next(n for n in range(N + 2) if q * (n + 0.5 * dim) >= n + 1)
    return mags[N] - (mags[N - 1] if N else 0.0) - math.fsum(mags[:n0])


@pytest.mark.parametrize(
    "dim, expected", [(1, 7.66e7), (2, 1.07e9), (3, 9.66e9)]
)
def test_divergence_lower_bound_closed_form_at_k60(dim, expected):
    got = divergence_lower_bound(1.0, 1.0, ApproxConfig(dim=dim, k=60, t=0.5)).to_float()
    assert got == pytest.approx(_closed_form_bound(dim, 2.0, 60), rel=1e-12)
    assert got == pytest.approx(expected, rel=5e-3)


def test_divergence_lower_bound_frozen():
    got = divergence_lower_bound(
        1.0, 1.0, ApproxConfig(dim=2, k=10, t=0.5)
    ).to_float()
    # d = 2, q = 2: |a_5| - |a_4| = 2^6 - 2^5
    assert got == pytest.approx(32.0, rel=1e-12)


def test_divergence_lower_bound_growth():
    vals = [
        divergence_lower_bound(1.0, 1.0, ApproxConfig(dim=2, k=k, t=0.5)).logmag
        for k in range(4, 30, 2)
    ]
    diffs = np.diff(vals)
    # doubling per even step: increments of log 2
    np.testing.assert_allclose(diffs, math.log(2.0), rtol=1e-10)


def test_divergence_lower_bound_domain():
    with pytest.raises(DomainError):
        divergence_lower_bound(1.0, 1.0, ApproxConfig(dim=2, k=10, t=1.5))
    with pytest.raises(DomainError):
        divergence_lower_bound(1.0, 1.0, ApproxConfig(dim=2, k=10, t=1.0))
    for amplitude, width in [(math.nan, 1.0), (0.0, 1.0), (1.0, math.inf)]:
        with pytest.raises(DomainError):
            divergence_lower_bound(amplitude, width, ApproxConfig(dim=1, k=4, t=0.5))
    # d = 1, q = 2, k = 2: |a_1| = |a_0|, so the bound is exactly 0
    assert divergence_lower_bound(1.0, 1.0, ApproxConfig(dim=1, k=2, t=0.5)) == ZERO
    # close to the width in dim 1 the first blocks shrink (n0 = 10 at q = 1.05)
    near = ApproxConfig(dim=1, k=18, t=1.0 / 1.05)
    assert divergence_lower_bound(1.0, 1.0, near) == ZERO


def _paired_at_own_N(amplitude, width, dim, t, k):
    """The bound of order k from blocks built to its own N = floor(k/2),
    paired as :func:`divergence_lower_bound` documents."""
    N = k // 2
    blocks = gaussian_origin_blocks(amplitude, width, dim, t, N)
    q = width / t
    n0 = next((n for n in range(N + 1) if q * (n + 0.5 * dim) >= n + 1), N + 1)
    logs = [a.logmag for a in [blocks[N], *blocks[:n0], *blocks[N - 1 : N]]]
    logs += [v + LOG_ROUNDING for v in logs]
    bound = aligned_sum_arrays(np.array([1] + [-1] * (len(logs) - 1), np.int8), np.array(logs))
    return bound if bound.sign > 0 else ZERO


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("ratio", [0.3, 0.5, 0.9])
def test_divergence_sweep_has_the_bits_of_each_order(dim, ratio):
    # one pass of the origin blocks at the largest N: a_n does not depend on
    # N, so every order's bound keeps the bits of blocks built to its own N;
    # t0 = 1.7 and C = 0.6 keep the blocks off round numbers, and d1 at
    # t/t0 = 0.9 has n0 = 4, so its first orders pair all their blocks
    t0, t, ks = 1.7, 1.7 * ratio, list(range(0, 201))
    swept = divergence_lower_bound_sweep(0.6, t0, dim, t, ks)
    each = [_paired_at_own_N(0.6, t0, dim, t, k) for k in ks]
    assert [(b.sign, b.logmag) for b in swept] == [(b.sign, b.logmag) for b in each]
    assert divergence_lower_bound_sweep(0.6, t0, dim, t, ks[1::2]) == swept[1::2]
    for k in (0, 7, 200):
        assert divergence_lower_bound(0.6, t0, ApproxConfig(dim=dim, k=k, t=t)) == swept[k]


def test_divergence_sweep_guards():
    for ks in ([], [4, 2], [2.0], None):
        with pytest.raises(DomainError):
            divergence_lower_bound_sweep(1.0, 1.0, 2, 0.5, ks)
    with pytest.raises(DomainError):
        divergence_lower_bound_sweep(1.0, 1.0, 2, 1.5, [2, 4])


@settings(max_examples=80, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 3]),
    q=st.floats(min_value=1.0, max_value=8.0, exclude_min=True),
    k=st.integers(min_value=0, max_value=80),
)
def test_divergence_lower_bound_below_origin_value(moment_table, dim, q, k):
    t = 1.0 / q
    if not t < 1.0:
        return
    lb = divergence_lower_bound(1.0, 1.0, ApproxConfig(dim=dim, k=k, t=t))
    value = _origin_value(moment_table(dim), k, t).value
    assert lb.to_float() <= abs(value) * (1.0 + 1e-9)


@pytest.mark.parametrize("dim, q, k", [
    (2, 1.0 + 1e-9, 2), (2, 1.0 + 1e-12, 2), (2, 1.0 + 1e-15, 6),
    (3, 1.0 + 1e-12, 2), (1, 2.0, 2),
])
def test_divergence_lower_bound_at_near_ties(moment_table, dim, q, k):
    # the formula and |u_k(0, t)| agree here to rounding, or are both 0:
    # the rounding allowance keeps the bound below the evaluated value
    t = 1.0 / q
    lb = divergence_lower_bound(1.0, 1.0, ApproxConfig(dim=dim, k=k, t=t))
    value = _origin_value(moment_table(dim), k, t).value
    assert lb.to_float() <= abs(value) * (1.0 + 1e-9)


# --- the bounds an error-curve row reports --------------------------------

def _rows(u0, t, k_max, even_only=True):
    """k -> the error-curve row of order k, measured on a small grid."""
    table = build_moment_table(u0, k_max + 1)
    grid = default_grid(u0.dim, t, 1.0, points=21)
    curve = error_curve(u0, table, u0.dim, t, k_max, grid, even_only=even_only)
    return {p.k: p for p in curve.points}


def test_bound_report_gaussian_below_width():
    row = _rows(Gaussian(amplitude=1.0, width=1.0, dim=2), 0.5, 10)[10]
    assert row.F_k > 0.0
    assert row.G_k is not None
    assert row.lb == pytest.approx(32.0, rel=1e-12)


def test_bound_report_dim1_lb_below_origin_value():
    u0 = Gaussian(amplitude=1.0, width=1.0, dim=1)
    table = build_moment_table(u0, 41)
    rows = _rows(u0, 0.5, 40, even_only=False)
    assert list(rows) == list(range(41))
    for k, row in rows.items():
        value = abs(eval_uk(table, ApproxConfig(dim=1, k=k, t=0.5), 0.0).value)
        if k // 2 == 1:
            # the bound is 0 there, so the row leaves it out
            assert row.lb is None
        else:
            assert row.lb <= value * (1.0 + 1e-9)


def test_bound_report_above_width_has_no_lb():
    row = _rows(Gaussian(amplitude=1.0, width=1.0, dim=1), 2.0, 10)[10]
    assert row.lb is None
    assert row.G_k is not None


def test_bound_report_generic_source_has_no_envelope():
    ind = Generic1D(
        func=lambda x: 1.0 if abs(x) <= 1.0 else 0.0, breakpoints=(-1.0, 1.0)
    )
    row = _rows(ind, 2.0, 4)[4]
    assert row.G_k is None
    assert row.lb is None
    assert row.F_k > 0.0


def test_bound_report_sweep_equals_per_order_reports():
    # every row's bounds are those of the one-order functions, bit for bit
    u0 = Gaussian(amplitude=1.0, width=1.0, dim=2)
    table = build_moment_table(u0, 13)
    for k, row in _rows(u0, 0.5, 12).items():
        cfg = ApproxConfig(dim=2, k=k, t=0.5)
        lb = divergence_lower_bound(1.0, 1.0, cfg)
        assert row.F_k == error_bound_F(table, cfg).to_float()
        assert row.G_k == envelope_bound_G(1.0, 1.0, cfg).to_float()
        assert row.lb == (lb.to_float() if lb.sign else None)


# --- radial absolute moments: one half-line integral per degree ----------

def _per_index_F(u0, k, t):
    """F(k) term by term: every multi-index's absolute moment on its own,
    weights from math.lgamma and math.fsum, reduced by exponent alignment."""
    d = u0.dim
    terms = []
    for a in compositions(k + 1, d):
        weight = -0.5 * math.fsum(math.lgamma(c + 1.0) for c in a) - math.fsum(
            math.log(c + 1.0) for c in a
        ) / 12.0
        terms.append(abs_moment(u0, a) * SignedLog.from_log(weight))
    return SignedLog.from_log(
        -0.5 * d * math.log(2.0 * math.pi) - 0.5 * (k + d + 1) * math.log(2.0 * t)
    ) * aligned_sum(terms)


#: F from the one-pass sweep and from a term-by-term route with its own
#: arithmetic agree to this in log magnitude, i.e. relatively.  Up to
#: k = 120 both routes add logs as large as ln(121!)/2 ~ 230, where one
#: rounding costs up to 2.8e-14, a few times each (the worst difference
#: seen is 3.6e-14).
F_LOG_TOL = 1e-13


def _radial_F_integral_per_index(u0, k, t):
    """Radial F(k) in the sweep's arithmetic, with the half-line integral
    computed anew for every multi-index of degree k+1: each index's weight
    is the fsum of per-component terms, the weights are reduced by exponent
    alignment, and the sum is scaled by 2 / Gamma((n+d)/2) times the
    integral, each a one-row batch.  Returns F and the per-index
    integrals."""
    d, n = u0.dim, k + 1
    weight = [
        math.fsum(
            (math.lgamma((c + 1) / 2.0), -0.5 * math.lgamma(c + 1.0), -math.log(c + 1.0) / 12.0)
        )
        for c in range(n + 1)
    ]
    shell = list(compositions(n, d))
    integrand = on_array(lambda r: r ** (n + d - 1) * abs(u0.profile(r)))
    integrals = [
        float(integrate_halfline_rows(lambda rows, x: integrand(x), [()])[0]) for a in shell
    ]
    terms = [SignedLog(1, math.fsum(weight[c] for c in a)) for a in shell]
    shared = SignedLog(1, math.log(2.0) - math.lgamma((n + d) / 2.0)) * SignedLog.from_float(
        integrals[0]
    )
    prefactor = SignedLog.from_log(
        -0.5 * d * math.log(2.0 * math.pi) - 0.5 * (k + d + 1) * math.log(2.0 * t)
    )
    return prefactor * (shared * aligned_sum(terms)), integrals


def _count_batches(monkeypatch, name):
    """Replace moments' row function ``name`` by one that records the rows
    of each call."""
    rows = []
    original = getattr(moments, name)

    def counted(g, breakpoints):
        rows.append(len(breakpoints))
        return original(g, breakpoints)

    monkeypatch.setattr(moments, name, counted)
    return rows


@pytest.mark.parametrize("dim,k", [(2, 7), (2, 8), (3, 5)])
def test_radial_F_shares_one_halfline_integral(monkeypatch, dim, k):
    u0 = Radial(profile=lambda r: math.exp(-r * r / 4.0) * (1.0 - 0.3 * r), dim=dim)
    table = build_moment_table(u0, k + 1)
    cfg = ApproxConfig(dim=dim, k=k, t=1.7)
    want, integrals = _radial_F_integral_per_index(u0, k, cfg.t)
    # every multi-index of the degree gets the same integral, so sharing
    # one leaves F unchanged, bit for bit
    assert len(set(integrals)) == 1
    independent = _per_index_F(u0, k, cfg.t)

    rows = _count_batches(monkeypatch, "integrate_halfline_rows")
    got = error_bound_F(table, cfg)
    assert (got.sign, got.logmag) == (want.sign, want.logmag)  # bit for bit
    assert rows == [1]
    assert abs(got.logmag - independent.logmag) <= F_LOG_TOL
    # the sweep over every order to k: one batch, one row per degree
    # 1..k+1, and each order's value is error_bound_F's bit for bit
    rows.clear()
    sweep = error_bound_F_sweep(table, cfg.t, range(k + 1))
    assert rows == [k + 1]
    for order, value in enumerate(sweep):
        single = error_bound_F(table, ApproxConfig(dim=dim, k=order, t=cfg.t))
        assert (value.sign, value.logmag) == (single.sign, single.logmag)
    assert (sweep[-1].sign, sweep[-1].logmag) == (got.sign, got.logmag)


# --- the one-pass F sweep -------------------------------------------------

def _lgamma_F(amplitude, width, dim, k, t):
    """Gaussian F(k) from math.lgamma and math.fsum alone: each multi-index's
    log term summed in full, then the terms reduced by exponent alignment."""
    n = k + 1
    logs = [
        math.log(amplitude)
        + 0.5 * (n + dim) * math.log(4.0 * width)
        + math.fsum(math.lgamma((c + 1) / 2.0) for c in a)
        - 0.5 * math.fsum(math.lgamma(c + 1.0) for c in a)
        - math.fsum(math.log(c + 1.0) for c in a) / 12.0
        for a in compositions(n, dim)
    ]
    peak = max(logs)
    return (
        -0.5 * dim * math.log(2.0 * math.pi)
        - 0.5 * (k + dim + 1) * math.log(2.0 * t)
        + peak
        + math.log(math.fsum(math.exp(x - peak) for x in logs))
    )


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("t", [0.45, 1.9])
def test_F_sweep_matches_lgamma_sum(dim, t):
    u0 = Gaussian(amplitude=1.7, width=0.8, dim=dim)
    table = build_moment_table(u0, 121)
    sweep = error_bound_F_sweep(table, t, range(121))
    assert len(sweep) == 121
    for k, value in enumerate(sweep):
        assert value.sign == 1
        assert abs(value.logmag - _lgamma_F(1.7, 0.8, dim, k, t)) <= F_LOG_TOL, k
    for k in (0, 57, 120):
        single = error_bound_F(table, ApproxConfig(dim=dim, k=k, t=t))
        assert (single.sign, single.logmag) == (sweep[k].sign, sweep[k].logmag)


def test_F_sweep_takes_orders_in_any_order(table_d1):
    orders = [6, 0, 6, 3]
    sweep = error_bound_F_sweep(table_d1, 1.3, orders)
    for k, value in zip(orders, sweep):
        single = error_bound_F(table_d1, ApproxConfig(dim=1, k=k, t=1.3))
        assert (value.sign, value.logmag) == (single.sign, single.logmag)
    assert error_bound_F_sweep(table_d1, 1.3, []) == []


def _one_shell_F(table, t, k):
    """F(k) from shell k+1 alone: its weights summed by component_sums and
    reduced by aligned_sum_arrays, each order in a reduction of its own."""
    d, n = table.dim, k + 1
    shared, logs = moments.moment_factors(table.source, [n], absolute=True)
    weight = [
        math.fsum((logs[c], -0.5 * log_factorial(c), -math.log(c + 1.0) / 12.0))
        for c in range(n + 1)
    ]
    shell = table.components[table.ends[n] - table.counts[n] : table.ends[n]]
    weights = moments.component_sums(weight, shell)
    total = aligned_sum_arrays(np.ones(len(weights), np.int8), weights)
    prefactor = -0.5 * d * math.log(2.0 * math.pi) - 0.5 * (k + d + 1) * math.log(2.0 * t)
    return SignedLog.from_log(prefactor) * (shared[n] * total)


@pytest.mark.parametrize(
    "u0",
    [
        Gaussian(amplitude=1.7, width=0.8, dim=3),
        Gaussian(amplitude=1.7, width=0.8, dim=2),
        Radial(profile=lambda r: math.exp(-r), dim=2),
    ],
    ids=["gauss-d3", "gauss-d2", "radial-exp-d2"],
)
def test_F_sweep_is_each_shell_reduced_on_its_own(u0):
    # one reduction over the spans of many shells gives each shell the bits
    # of its own reduction, on gapped orders in any order
    orders = [1, 20, 4, 9]
    table = build_moment_table(u0, 21)
    sweep = error_bound_F_sweep(table, 1.3, orders)
    for k, value in zip(orders, sweep):
        single = error_bound_F(table, ApproxConfig(dim=u0.dim, k=k, t=1.3))
        want = _one_shell_F(table, 1.3, k)
        assert (value.sign, value.logmag) == (single.sign, single.logmag) == (want.sign, want.logmag)


def test_F_sweep_generic_one_line_integral_per_order(monkeypatch):
    u0 = Generic1D(func=lambda x: 1.0 if -1.0 <= x <= 0.5 else 0.0, breakpoints=(-1.0, 0.5))
    table = build_moment_table(u0, 9)
    rows = _count_batches(monkeypatch, "integrate_line_rows")
    sweep = error_bound_F_sweep(table, 0.8, range(0, 9, 2))
    assert rows == [5]  # one batch, one row per order
    for k, value in zip(range(0, 9, 2), sweep):
        want = _per_index_F(u0, k, 0.8)
        assert abs(value.logmag - want.logmag) <= F_LOG_TOL


def test_F_sweep_domain(table_d1):
    with pytest.raises(DomainError):
        error_bound_F_sweep(table_d1, 1.0, [0, 21])  # needs degree 22
    with pytest.raises(DomainError):
        error_bound_F_sweep(table_d1, 1.0, [-1])
    for order in (2.0, True):  # not integers
        with pytest.raises(DomainError, match="must be an integer"):
            error_bound_F_sweep(table_d1, 1.0, [order])
    for orders in (5, None):  # not iterable
        with pytest.raises(DomainError, match="truncation orders must be an iterable"):
            error_bound_F_sweep(table_d1, 1.0, orders)
    for t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            error_bound_F_sweep(table_d1, t, [0])
    stripped = MomentTable.from_json(table_d1.to_json())
    with pytest.raises(DomainError):
        error_bound_F_sweep(stripped, 1.0, [0])

"""Upper and lower error bounds: frozen closed-form values, decay rates,
the weighted-Hermite sup bound, and the divergence shape fit."""

import math

import numpy as np
import pytest

from heatseries import (
    ApproxConfig,
    DomainError,
    Gaussian,
    Generic1D,
    MomentTable,
    Radial,
    SignedLog,
    abs_moment,
    aligned_sum,
    backend,
    bonan_clark_bound,
    bonan_clark_log,
    bound_report,
    bound_report_sweep,
    build_moment_table,
    compositions,
    divergence_lower_bound,
    envelope_bound_G,
    error_bound_F,
    error_bound_F_sweep,
    fit_divergence_prefactor,
    moments,
    multi_indices_of_degree,
)


@pytest.fixture(scope="module")
def table_d1():
    return build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=1), 21)


# --- weighted-Hermite sup bound ------------------------------------------

def test_bonan_clark_small_orders():
    assert bonan_clark_bound(0) == pytest.approx(1.0, rel=1e-14)
    # 2 sqrt(2) 3^{-1/12}
    assert bonan_clark_bound(2) == pytest.approx(2.5809814840956986, rel=1e-13)
    assert bonan_clark_log(2) == pytest.approx(
        math.log(2.5809814840956986), rel=1e-12
    )


def test_bonan_clark_huge_order_stays_log():
    assert math.isinf(bonan_clark_bound(3000))
    assert math.isfinite(bonan_clark_log(3000))
    with pytest.raises(DomainError):
        bonan_clark_log(-1)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 10, 25, 60, 100])
def test_bonan_clark_dominates_sampled_sup(n):
    # moderate grid here; the acceptance gate runs the fine one
    ys = np.arange(-8.0, 8.0 + 1e-9, 1e-2)
    table = backend.weighted_hermite_table(ys, n)
    measured = float(np.max(np.abs(table[n])))
    assert measured <= bonan_clark_bound(n) * (1.0 + 1e-10)


def test_bonan_clark_not_wildly_loose():
    # sup |H_2| e^{-x^2} = 2 at the origin, against a bound of 2.581: the
    # estimate should stay within a modest constant of the measured sup
    ys = np.arange(-4.0, 4.0 + 1e-9, 1e-4)
    table = backend.weighted_hermite_table(ys, 2)
    measured = float(np.max(np.abs(table[2])))
    assert measured == pytest.approx(2.0, rel=1e-6)
    assert measured > 0.7 * bonan_clark_bound(2)


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


def test_envelope_G_domain():
    with pytest.raises(DomainError):
        envelope_bound_G(0.0, 1.0, ApproxConfig(dim=1, k=0, t=1.0))


def test_F_below_G_for_gaussian_data(table_d1):
    # the envelope is derived from F by bounding each degree block, so for
    # Gaussian data F should never exceed it; checked, not relied upon
    for t in (1.0, 2.0, 4.0):
        for k in range(0, 20, 2):
            cfg = ApproxConfig(dim=1, k=k, t=t)
            f = error_bound_F(table_d1, cfg)
            g = envelope_bound_G(1.0, 1.0, cfg)
            assert f.logmag <= g.logmag + 1e-9


# --- divergence lower bound ----------------------------------------------

def test_divergence_lower_bound_frozen():
    got = divergence_lower_bound(
        1.0, 1.0, ApproxConfig(dim=2, k=10, t=0.5)
    ).to_float()
    # 1/((4t)^{d/2} Gamma(1)) (t0/t - 1) (t0/t)^{4} = (1/2) * 1 * 16
    assert got == pytest.approx(8.0, rel=1e-12)


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
        divergence_lower_bound(1.0, 1.0, ApproxConfig(dim=1, k=2, t=0.5))
    # dim 1 needs floor(k/2) >= 2; k = 4 is the first admissible order
    divergence_lower_bound(1.0, 1.0, ApproxConfig(dim=1, k=4, t=0.5))


def test_fit_recovers_exact_shape():
    # synthesize values lying exactly on the dim-1 shape: B = 1 and the
    # fitted slope sits near log(t0/t)/2
    width, t = 1.0, 0.5
    ks = np.arange(20, 81, 2)
    halves = ks // 2
    values = np.exp(halves * math.log(width / t) - 0.5 * np.log(halves - 1.0))
    B, slope = fit_divergence_prefactor(ks, values, width, t)
    assert B == pytest.approx(1.0, rel=1e-9)
    expected = 0.5 * math.log(width / t)
    assert abs(slope - expected) < 0.1 * abs(expected)


def test_fit_needs_two_points():
    with pytest.raises(DomainError):
        fit_divergence_prefactor([10], [2.0], 1.0, 0.5)


# --- assembled report -----------------------------------------------------

def test_bound_report_gaussian_below_width():
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=2), 11)
    rep = bound_report(table, ApproxConfig(dim=2, k=10, t=0.5))
    assert rep.F_k.sign == 1
    assert rep.G_k is not None
    assert rep.divergence_lb is not None
    assert rep.divergence_lb.to_float() == pytest.approx(8.0, rel=1e-12)
    assert not rep.lb_shape_only


def test_bound_report_dim1_flags_shape_only():
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=1), 11)
    rep = bound_report(table, ApproxConfig(dim=1, k=10, t=0.5))
    assert rep.divergence_lb is not None
    assert rep.lb_shape_only


def test_bound_report_above_width_has_no_lb():
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=1), 11)
    rep = bound_report(table, ApproxConfig(dim=1, k=10, t=2.0))
    assert rep.divergence_lb is None
    assert rep.G_k is not None


def test_bound_report_generic_source_has_no_envelope():
    ind = Generic1D(
        func=lambda x: 1.0 if abs(x) <= 1.0 else 0.0, breakpoints=(-1.0, 1.0)
    )
    table = build_moment_table(ind, 5)
    rep = bound_report(table, ApproxConfig(dim=1, k=4, t=2.0))
    assert rep.G_k is None
    assert rep.divergence_lb is None
    assert rep.F_k.sign == 1


# --- radial absolute moments: one half-line integral per degree ----------

def _per_index_F(u0, k, t):
    """F(k) term by term: every multi-index's absolute moment on its own,
    weights from math.lgamma and math.fsum, reduced by exponent alignment."""
    d = u0.dim
    terms = []
    for a in multi_indices_of_degree(k + 1, d):
        weight = -0.5 * math.fsum(math.lgamma(c + 1.0) for c in a.components) - math.fsum(
            math.log(c + 1.0) for c in a.components
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
    integral.  Returns F and the per-index integrals."""
    d, n = u0.dim, k + 1
    weight = [
        math.fsum(
            (math.lgamma((c + 1) / 2.0), -0.5 * math.lgamma(c + 1.0), -math.log(c + 1.0) / 12.0)
        )
        for c in range(n + 1)
    ]
    shell = list(multi_indices_of_degree(n, d))
    integrals = [
        moments.integrate_halfline(lambda r: r ** (n + d - 1) * abs(u0.profile(r)))
        for a in shell
    ]
    terms = [SignedLog(1, math.fsum(weight[c] for c in a.components)) for a in shell]
    shared = SignedLog(1, math.log(2.0) - math.lgamma((n + d) / 2.0)) * SignedLog.from_float(
        integrals[0]
    )
    prefactor = SignedLog.from_log(
        -0.5 * d * math.log(2.0 * math.pi) - 0.5 * (k + d + 1) * math.log(2.0 * t)
    )
    return prefactor * (shared * aligned_sum(terms)), integrals


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

    calls = []
    original = moments.integrate_halfline
    monkeypatch.setattr(
        moments, "integrate_halfline", lambda *a, **kw: calls.append(1) or original(*a, **kw)
    )
    got = error_bound_F(table, cfg)
    assert (got.sign, got.logmag) == (want.sign, want.logmag)  # bit for bit
    assert len(calls) == 1
    assert abs(got.logmag - independent.logmag) <= F_LOG_TOL
    # the sweep over every order to k: one integral per degree 1..k+1, and
    # each order's value is error_bound_F's bit for bit
    calls.clear()
    sweep = error_bound_F_sweep(table, cfg.t, range(k + 1))
    assert len(calls) == k + 1
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


def test_F_sweep_generic_one_line_integral_per_order(monkeypatch):
    u0 = Generic1D(func=lambda x: 1.0 if -1.0 <= x <= 0.5 else 0.0, breakpoints=(-1.0, 0.5))
    table = build_moment_table(u0, 9)
    calls = []
    original = moments.integrate_line
    monkeypatch.setattr(
        moments, "integrate_line", lambda *a, **kw: calls.append(1) or original(*a, **kw)
    )
    sweep = error_bound_F_sweep(table, 0.8, range(0, 9, 2))
    assert len(calls) == 5
    for k, value in zip(range(0, 9, 2), sweep):
        want = _per_index_F(u0, k, 0.8)
        assert abs(value.logmag - want.logmag) <= F_LOG_TOL


def test_F_sweep_domain(table_d1):
    with pytest.raises(DomainError):
        error_bound_F_sweep(table_d1, 1.0, [0, 21])  # needs degree 22
    with pytest.raises(DomainError):
        error_bound_F_sweep(table_d1, 1.0, [-1])
    for t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            error_bound_F_sweep(table_d1, t, [0])
    stripped = MomentTable.from_json(table_d1.to_json())
    with pytest.raises(DomainError):
        error_bound_F_sweep(stripped, 1.0, [0])


def test_bound_report_sweep_equals_per_order_reports():
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=2), 13)
    orders = list(range(0, 13, 2))
    for report, k in zip(bound_report_sweep(table, 0.5, orders), orders):
        single = bound_report(table, ApproxConfig(dim=2, k=k, t=0.5))
        assert report == single

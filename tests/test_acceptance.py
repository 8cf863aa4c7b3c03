"""Acceptance gate: the headline guarantees, one test per criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible in the
captured output; the -v test status line mirrors it).  Criterion 8 is
report-only by design: its ratio window is an empirical observation, so a
miss is printed but does not fail the run.

Two measurement realities are accounted for explicitly rather than hidden:

* Criterion 1 compares against F(k) plus an additive 1e-13 floor.  The
  measured sup error of two O(1) fields cannot drop below one ulp
  (~4.4e-16 here), while F(k) keeps decaying geometrically past 1e-19 at
  t = 4, so the literal inequality is unattainable in double precision
  once F crosses the ulp floor; the floor covers exactly that regime and
  is far below every F value the criterion actually exercises elsewhere.
* Criterion 6's bound comparison allows the same 1e-8 slack the residual
  checks use, because for nonnegative data the L1 bound is an equality
  and quadrature noise lands on either side of it.
"""

import itertools
import math
import time
import warnings

import numpy as np
from scipy.integrate import quad

from heatseries import (
    ApproxConfig,
    Gaussian,
    Radial,
    abs_moment,
    backend,
    bonan_clark_log,
    build_moment_table,
    convolve_oracle,
    decomposition_residual,
    eigen_coeffs,
    envelope_bound_G,
    eval_expansion,
    eval_uk,
    eval_uk_radial_origin,
    exact_gaussian_solution,
    gaussian_test_function,
    moment,
    poly_gaussian_test_function,
    remainder_l1_norm,
)
from heatseries.eigen import SimilarityPoint, validity_integral

MEASUREMENT_FLOOR = 1e-13


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")


def _cumulative_even_values(table, dim, t, k_max):
    """u_k(0, t) for even k = 0..k_max from one terms walk."""
    result = eval_uk(table, ApproxConfig(dim=dim, k=k_max, t=t), (0.0,) * dim)
    blocks = dict(result.terms)
    values = {}
    running = 0.0
    for k in range(0, k_max + 1, 2):
        running += blocks.get(k, 0.0)
        values[k] = running
    return values


def test_criterion_1_sup_error_within_rigorous_bound(gaussian_curve):
    start = time.monotonic()
    worst_margin = -math.inf
    checked = 0
    for dim in (1, 2):
        for t in (1.0, 2.0, 4.0):
            for p in gaussian_curve(dim, t).points:
                margin = p.sup_error - (p.F_k + MEASUREMENT_FLOOR)
                worst_margin = max(worst_margin, margin)
                checked += 1
    elapsed = time.monotonic() - start
    ok = worst_margin <= 0.0
    _report(
        1,
        ok,
        f"sup error vs F over {checked} (dim, t, k) points; worst margin "
        f"{worst_margin:.3e} (floor {MEASUREMENT_FLOOR:g}), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_geometric_convergence_above_width(gaussian_curve):
    curve = {p.k: p for p in gaussian_curve(1, 2.0).points}
    small_at_40 = curve[40].sup_error < 1e-6
    monotone = all(
        curve[k + 2].sup_error <= curve[k].sup_error + 1e-13
        for k in range(10, 59, 2)
    )
    cfg_a = ApproxConfig(dim=1, k=200, t=2.0)
    cfg_b = ApproxConfig(dim=1, k=202, t=2.0)
    g_ratio = math.exp(
        envelope_bound_G(1.0, 1.0, cfg_b).logmag
        - envelope_bound_G(1.0, 1.0, cfg_a).logmag
    )
    ratio_ok = abs(g_ratio - 0.5) <= 0.05 * 0.5
    ok = small_at_40 and monotone and ratio_ok
    _report(
        2,
        ok,
        f"sup(40)={curve[40].sup_error:.2e}<1e-6:{small_at_40}, "
        f"nonincreasing k>=10:{monotone}, G(202)/G(200)={g_ratio:.4f}",
    )
    assert ok


def test_criterion_3_slow_envelope_at_matched_time(gaussian_curve):
    worst = -math.inf
    for p in gaussian_curve(1, 1.0).points:
        envelope = (p.k + 2.0) ** (-1.0 / 12.0)
        worst = max(worst, p.sup_error - envelope)
    ok = worst <= 0.0
    _report(3, ok, f"sup error vs (k+2)^(-1/12), even k<=60; worst gap {worst:.3e}")
    assert ok


def test_criterion_4_divergence_below_width(moment_table):
    t = 0.5
    vals2 = _cumulative_even_values(moment_table(2), 2, t, 80)
    lb_ok = True
    for k in range(0, 81, 2):
        lb = 0.5 * 2.0 ** (k // 2 - 1)
        if abs(vals2[k]) < lb * (1.0 - 1e-12):
            lb_ok = False
            break
    blowup = abs(vals2[80]) > 1e10 * abs(vals2[0])
    vals1 = _cumulative_even_values(moment_table(1), 1, t, 80)
    ks = list(range(20, 81, 2))
    slope = np.polyfit(ks, np.log(np.abs([vals1[k] for k in ks])), 1)[0]
    expected = 0.5 * math.log(2.0)
    slope_ok = abs(slope - expected) <= 0.1 * expected
    ok = lb_ok and blowup and slope_ok
    _report(
        4,
        ok,
        f"dim2 lb certified:{lb_ok}, |u80|/|u0|={abs(vals2[80]) / abs(vals2[0]):.2e}, "
        f"dim1 slope {slope:.4f} vs {expected:.4f}",
    )
    assert ok


def test_criterion_5_weighted_hermite_sup_bound():
    ys = np.arange(-12.0, 12.0 + 5e-4, 1e-3)
    table = backend.weighted_hermite_table(ys, 100)
    sups = np.max(np.abs(table), axis=1)
    worst_excess = max(
        float(sups[n]) / math.exp(bonan_clark_log(n)) for n in range(101)
    )
    ok = worst_excess <= 1.0 + 1e-10
    _report(
        5,
        ok,
        f"n<=100 on [-12,12] step 1e-3; worst measured/bound = {worst_excess:.12f}",
    )
    assert ok


def test_criterion_6_decomposition_suite():
    phis = [
        gaussian_test_function(1.0),
        poly_gaussian_test_function((1.0, 0.0, 1.0), 1.0),
    ]
    worst_resid = 0.0
    worst_l1_gap = -math.inf
    for width in (0.5, 1.0, 2.0):
        f = lambda x, w=width: math.exp(-x * x / (4.0 * w))
        for alpha in range(1, 6):
            got = remainder_l1_norm(f, alpha)
            bound = abs_moment(Gaussian(1.0, width), (alpha,)).to_float() / math.factorial(alpha)
            worst_l1_gap = max(worst_l1_gap, got - bound)
        for phi, k in itertools.product(phis, range(5)):
            worst_resid = max(worst_resid, decomposition_residual(f, k, phi))
    ok = worst_resid <= 1e-8 and worst_l1_gap <= 1e-8
    _report(
        6,
        ok,
        f"widths (0.5,1,2): worst residual {worst_resid:.2e} (<=1e-8), "
        f"worst L1 excess {worst_l1_gap:.2e} (<=1e-8)",
    )
    assert ok


def test_criterion_7_similarity_identity_and_validity(moment_table):
    t = 2.0
    worst = 0.0
    for dim in (1, 2):
        u0 = Gaussian(amplitude=1.0, width=1.0, dim=dim)
        coeffs = eigen_coeffs(u0, 0.0, 30)
        table = moment_table(dim)
        tau = math.log(t)
        root = 2.0 * math.sqrt(t)
        zs = (
            [(-2.0,), (0.0,), (0.8,), (3.0,)]
            if dim == 1
            else [(-1.2, 0.5), (0.0, 0.0), (1.0, 1.0)]
        )
        for k in range(0, 31, 2):
            cfg = ApproxConfig(dim=dim, k=k, t=t)
            for z in zs:
                x = tuple(c * root for c in z)
                lhs = eval_expansion(coeffs, SimilarityPoint(z=z, tau=tau), k)
                rhs = t ** (dim / 2.0) * eval_uk(table, cfg, x).value
                worst = max(worst, abs(lhs - rhs))
    verdict_ok = True
    for dim in (1, 2):
        coeffs = eigen_coeffs(Gaussian(amplitude=1.0, width=1.0, dim=dim), 0.0, 40)
        for factor in (0.5, 0.9, 1.0, 1.1, 2.0):
            finite = math.isfinite(validity_integral(coeffs, factor * 1.0))
            if finite != (factor > 1.0):
                verdict_ok = False
    ok = worst <= 1e-10 and verdict_ok
    _report(
        7,
        ok,
        f"identity worst |diff| {worst:.2e} (<=1e-10, k<=30, dim<=2); "
        f"validity verdicts match t>t0: {verdict_ok}",
    )
    assert ok


def test_criterion_8_tail_ratio_reported(gaussian_curve):
    curve = {p.k: p for p in gaussian_curve(1, 2.0).points}
    ratios = {k: curve[k].ratio for k in range(20, 41, 2)}
    inside = {k: r for k, r in ratios.items() if r is not None and 0.4 <= r <= 0.6}
    all_in = len(inside) == len(ratios)
    if not all_in:
        warnings.warn(
            f"tail ratios outside [0.4, 0.6]: "
            f"{ {k: round(r, 3) for k, r in ratios.items() if k not in inside} }"
        )
    shown = ", ".join(f"{k}:{r:.3f}" for k, r in sorted(ratios.items()))
    _report(8, True, f"report-only; sup(k+2)/sup(k) for k=20..40: {shown}")
    # reported, never gating: only sanity-check that ratios were measurable
    assert all(r is not None and r > 0.0 for r in ratios.values())


def test_criterion_9_independent_oracles(moment_table):
    worst = 0.0

    def track(got, want):
        nonlocal worst
        scale = max(abs(want), 1e-30)
        worst = max(worst, abs(got - want) / scale)

    # closed-form moments vs direct quadrature
    for n in range(0, 21, 2):
        want, _ = quad(
            lambda x: x**n * math.exp(-x * x / 4.0), -np.inf, np.inf
        )
        track(moment(Gaussian(1.0, 1.0), (n,)).to_float(), want)
    # radial reduction vs tensor closed form, dim 2
    for alpha in [(0, 0), (2, 0), (2, 2), (4, 2), (6, 6), (12, 0), (8, 4)]:
        track(
            moment(Radial(lambda r: math.exp(-r * r / 4.0), 2), alpha).to_float(),
            moment(Gaussian(1.0, 1.0, 2), alpha).to_float(),
        )
    # exact Gaussian evolution vs convolution quadrature
    for dim in (1, 2, 3):
        u0 = Gaussian(amplitude=1.0, width=1.0, dim=dim)
        for t in (0.5, 2.0):
            for r in (0.0, 1.0):
                x = (r,) + (0.0,) * (dim - 1)
                track(
                    convolve_oracle(u0, x, t),
                    exact_gaussian_solution(1.0, 1.0, dim, x, t),
                )
    # multi-index sum vs radial Laguerre route, dims 2 and 3, k <= 60
    table3 = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=3), 60)
    for dim, table in ((2, moment_table(2)), (3, table3)):
        for t in (2.0, 0.5):
            ks = (0, 20, 60) if dim == 2 else ((60,) if t == 2.0 else (40,))
            for k in ks:
                cfg = ApproxConfig(dim=dim, k=k, t=t)
                for r in (0.0, 0.5, 1.0, 2.0):
                    x = (r,) + (0.0,) * (dim - 1)
                    track(
                        eval_uk_radial_origin(table, cfg, r),
                        eval_uk(table, cfg, x).value,
                    )
    ok = worst <= 1e-9
    _report(9, ok, f"all oracle cross-checks agree; worst relative gap {worst:.2e}")
    assert ok

"""Experiment command line: heatseries <command> [options].

Commands
    error-curve   measured sup errors vs the rigorous and envelope bounds
    divergence    |u_k(0, t)| growth below the envelope width vs the bound
    eigen-compare truncated eigenfunction sums vs the moment expansion
    decomp-check  distributional decomposition residuals and L1 bounds
    moments       dump the Gaussian moment table

Exit codes: 0 success, 1 a self-check failed, 2 usage error, 3 I/O error.
Every self-check is rows (check, case, lhs, rhs): one predicate, _holds,
passes a row only when both sides are finite and lhs <= rhs, and _verdict
fails the command naming each failing row's case, check by check.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import divergence_lower_bound_sweep
from .decomposition import (
    _residuals,
    gaussian_test_function,
    poly_gaussian_test_function,
    remainder,
    remainder_l1_norm,
)
from .eigen import SimilarityPoint, eigen_coeffs, eval_expansion_sweep, validity_integral
from .errors import HeatSeriesError, check_integer, check_real
from .kernel_approx import eval_uk_sweep
from .moments import Gaussian, Generic1D, abs_moment, build_moment_table
from .quadrature import error_allowance, integrate_line_rows, row_groups
from .reference import COLUMNS, GridSpec, default_grid, error_curve
from .serial import csv_text, f17, json_array, table_text
from .signedlog import EPS, SignedLog, exp_rounding
from .specfun import IERFC_RTOL, log_factorial
from .svg import line_plot

#: Every option a command may read; each command registers the ones it reads.
_OPTIONS = {
    "--dim": dict(type=int, default=1),
    "--t0": dict(type=float, default=1.0, help="Gaussian datum width"),
    "--t": dict(type=float, default=2.0, help="evaluation time"),
    "--amplitude": dict(type=float, default=1.0),
    "--kmax": dict(type=int, default=40),
    "--grid-extent": dict(type=float, default=None),
    "--grid-points": dict(type=int, default=801),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--plot": dict(action="store_true", help="write an SVG next to --out"),
    "--all-k": dict(action="store_true", help="include odd truncation orders"),
    "--out": dict(required=True, help="output path"),
}

_SERIES = ("--dim", "--t0", "--t", "--amplitude", "--kmax")
_TABLE = ("--format", "--plot", "--all-k", "--out")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused: parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="heatseries",
        description="truncated heat-kernel derivative series experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        # no prefix matching: "--t" must not reach --t0 where --t is not read
        cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for option in options:
            cmd.add_argument(option, **_OPTIONS[option])
    return parser


#: the largest --dim of the commands whose grids and sweeps stop at dim 2
_MAX_DIM = {"error-curve": 2, "eigen-compare": 2}


def _validate(args) -> None:
    """Raise DomainError or UsageError on the first option out of its range."""
    given = vars(args)
    if "dim" in given:
        check_integer("--dim", args.dim, 1, _MAX_DIM.get(args.command))
    for name in ("t0", "t", "amplitude", "grid_extent"):
        if given.get(name) is not None:
            check_real(f"--{name.replace('_', '-')}", given[name])
    if "kmax" in given:
        check_integer("--kmax", args.kmax, 0, 200)
    if "grid_points" in given:
        check_integer("--grid-points", args.grid_points, 3)
        if args.grid_points % 2 == 0:
            raise UsageError(f"--grid-points must be odd, got {args.grid_points}")
    if args.command == "divergence" and not args.t < args.t0:
        raise UsageError("divergence requires --t < --t0")
    if given.get("plot") and Path(args.out).with_suffix(".svg") == Path(args.out):
        raise UsageError(f"--plot writes its SVG next to --out, so --out {args.out} would be lost")


class UsageError(HeatSeriesError):
    pass


class AssertionFailure(Exception):
    pass


#: what a failing row of each check means
_FAILS = {
    "sup_error": "sup error exceeded the rigorous bound F_k + floor_k",
    "origin_lb": "|u_k(0,t)| fell below the certified bound",
    "discrepancy": "expansion discrepancy above 1e-10 (to k=30)",
    "validity": "validity verdict disagrees with t > t0",
    "l1_bound": "an L1 norm missed its bound by more than the margin",
    "residual": "a decomposition residual exceeded its threshold",
    "remainder_routes": "the two remainder routes differ beyond their allowance",
}


def _holds(lhs: float, rhs: float) -> bool:
    """The one verdict of a check row: both sides finite and lhs <= rhs."""
    return math.isfinite(lhs) and math.isfinite(rhs) and lhs <= rhs


def _verdict(rows) -> None:
    """Raise AssertionFailure naming, check by check, the case of every row
    (check, case, lhs, rhs) that does not hold."""
    failed = {}
    for check, case, lhs, rhs in rows:
        if not _holds(lhs, rhs):
            failed.setdefault(check, []).append(case)
    if failed:
        raise AssertionFailure("; ".join(
            f"{_FAILS[check]}, or a side is not finite, at {' '.join(cases)}"
            for check, cases in failed.items()
        ))


def _write(path: str, text: str) -> None:
    Path(path).write_text(text)


def _plot(args, series, title: str, ylabel: str) -> None:
    """Under --plot, write ``series`` against k as an SVG next to --out."""
    if args.plot:
        _write(str(Path(args.out).with_suffix(".svg")), line_plot(series, title, "k", ylabel))


def _gaussian(args) -> Gaussian:
    """The Gaussian datum of --amplitude, --t0 and --dim."""
    return Gaussian(amplitude=args.amplitude, width=args.t0, dim=args.dim)


def _ks(args) -> list[int]:
    step = 1 if args.all_k else 2
    return list(range(0, args.kmax + 1, step))


def cmd_error_curve(args) -> None:
    if args.grid_extent is None:
        grid = default_grid(args.dim, args.t, args.t0, args.grid_points)
    else:
        grid = GridSpec(dim=args.dim, extent=args.grid_extent, points=args.grid_points)
    if args.t < args.t0:
        print("warning: t below the envelope width; truncations diverge there", file=sys.stderr)
    u0 = _gaussian(args)
    table = build_moment_table(u0, args.kmax + 1)
    curve = error_curve(u0, table, args.dim, args.t, args.kmax, grid, even_only=not args.all_k)
    _write(args.out, table_text(args.format, COLUMNS, map(astuple, curve.points)))
    ks = [p.k for p in curve.points]
    names = ("sup_error", "F_k") + (("G_k",) if curve.points[0].G_k is not None else ())
    series = [(name, ks, [getattr(p, name) for p in curve.points]) for name in names]
    _plot(args, series, "sup error vs truncation order", "error")
    _verdict(
        ("sup_error", f"k={p.k}", p.sup_error, p.F_k + floor)
        for p, floor in zip(curve.points, curve.floors, strict=True)
    )


def cmd_divergence(args) -> None:
    table = build_moment_table(_gaussian(args), args.kmax)
    ks = _ks(args)
    rows = []
    for k, result, lb in zip(
        ks,
        eval_uk_sweep(table, args.t, (0.0,) * args.dim, ks),
        divergence_lower_bound_sweep(args.amplitude, args.t0, args.dim, args.t, ks),
    ):
        block = next((c for j, c in result.terms if j == k), 0.0)
        rows.append(
            (k, result.value, abs(result.value), lb.to_float() if lb.sign else None, block)
        )
    columns = ("k", "uk0", "abs_uk0", "lb", "block")
    _write(args.out, table_text(args.format, columns, rows))
    series = [("abs_uk0", ks, [r[2] for r in rows])]
    certified = [(k, lb) for k, _, _, lb, _ in rows if lb is not None]
    if certified:
        series.append(("lb", *map(list, zip(*certified))))
    _plot(args, series, "origin growth below the width", "|u_k(0,t)|")
    # where no bound is certified, lb = 0 still asks |u_k(0,t)| to be finite
    _verdict(("origin_lb", f"k={k}", lb or 0.0, av) for k, _, av, lb, _ in rows)


def cmd_eigen_compare(args) -> None:
    u0 = _gaussian(args)
    table = build_moment_table(u0, args.kmax)
    # the sums stop at degree k, so the rows read the same from a deeper
    # table; the verdicts need the depth whatever --kmax is
    coeffs = eigen_coeffs(u0, 0.0, max(args.kmax, 40))
    z_axis = [i * 0.5 for i in range(-6, 7)]
    tau = math.log(args.t)
    half_power = args.t ** (args.dim / 2.0)
    ks = _ks(args)
    gaps = []  # one row per point, one column per order
    for z in z_axis:
        zs = (z,) + (0.0,) * (args.dim - 1)
        x = tuple(c * 2.0 * math.sqrt(args.t) for c in zs)
        lhs = eval_expansion_sweep(coeffs, SimilarityPoint(z=zs, tau=tau), ks)
        rhs = eval_uk_sweep(table, args.t, x, ks)
        gaps.append([a - half_power * b.value for a, b in zip(lhs, rhs)])
    # np.max keeps a NaN, where max() would drop it
    rows = list(zip(ks, np.max(np.abs(gaps), axis=0).tolist()))
    # validity_integral is a positive partial sum, or inf where it diverges
    sweep = [
        (factor * args.t0, validity_integral(coeffs, factor * args.t0) < math.inf)
        for factor in (0.5, 0.9, 1.1, 2.0)
    ]
    discrepancies = (("k", "discrepancy"), rows)
    validity = (("t", "finite"), sweep)
    if args.format == "csv":
        out = Path(args.out)
        _write(args.out, csv_text(*discrepancies))
        _write(str(out.with_name(out.stem + "-validity.csv")), csv_text(*validity))
    else:
        body = (json_array(*discrepancies), json_array(*validity))
        _write(args.out, '{"discrepancies":%s,"validity":%s}\n' % body)
    _plot(
        args, [("discrepancy", ks, [w for _, w in rows])],
        "eigen expansion vs moment expansion", "max abs discrepancy",
    )
    # past k = 30 only finiteness is claimed
    _verdict(
        [("discrepancy", f"k={k}", w, 1e-10 if k <= 30 else sys.float_info.max) for k, w in rows]
        + [("validity", f"t={t}", float(finite != (t > args.t0)), 0.0) for t, finite in sweep]
    )


def _sign_changing(x):
    """(1 - x^2) e^{-x^2}: changes sign at -1 and 1, so its remainder
    densities cancel inside their integrals."""
    return (1.0 - x * x) * np.exp(-x * x)


_sign_changing.array_native = True


def _residual_thresholds(f, ks, phi) -> list[float]:
    """For each k of ``ks``, what the quadratures decomposition_residual
    combines may leave, each by error_allowance of its integral of
    |integrand|: <f, phi>; each m_j phi^{(j)}(0) / j!, from ||x^j f||_1 in
    closed form; and the pairing, whose integral of |F_{k+1} phi^{(k+1)}|
    is bounded by Cauchy-Schwarz, with the closed-form F_{k+1} adding
    IERFC_RTOL of it.  The integrals are one batch: |f phi|, then
    (F_{k+1})^2 and (phi^{(k+1)})^2 for each k.  The rounding floor covers
    the k + 3 terms and their sum: 4 ulps per term and 1 ulp per add, of
    the sum of their magnitudes."""
    ks = list(ks)
    n = len(ks)
    lhs, *squares = integrate_line_rows(
        row_groups(
            [(0, lambda rows, x: np.abs(f(x) * phi(0, x)))]
            + [(1 + i, lambda rows, x, k=k: remainder(f, k + 1, x) ** 2) for i, k in enumerate(ks)]
            + [(1 + n + i, lambda rows, x, k=k: phi(k + 1, x) ** 2) for i, k in enumerate(ks)]
        ),
        [(0.0,)] * (1 + 2 * n),
    )
    thresholds = []
    for k, remainder_sq, deriv_sq in zip(ks, squares, squares[n:]):
        pairing = math.sqrt(remainder_sq * deriv_sq)
        allowed = error_allowance(lhs) + error_allowance(pairing) + IERFC_RTOL * pairing
        scale = lhs + pairing
        for j in range(k + 1):
            weight = abs(phi(j, 0.0)) / math.factorial(j)
            norm = abs_moment(f, (j,)).to_float()
            allowed += weight * error_allowance(norm)
            scale += weight * norm
        thresholds.append(float(allowed + (k + 6) * EPS * scale))
    return thresholds


def cmd_decomp_check(args) -> None:
    # every Gaussian row is evaluated at unit amplitude and its sides are
    # scaled by C, so that no integrand or sum leaves the double range
    c = args.amplitude
    units = [Gaussian(amplitude=1.0, width=width, dim=1) for width in (0.5, 1.0, 2.0)]
    rows = []
    # f >= 0: ||F_a||_1 = ||x^a f||_1 / a! exactly (Fubini), so the row
    # checks equality up to the outer quadrature, the closed-form F_a and
    # the bound's rounding
    for f in units:
        for alpha in range(1, 6):
            measured = remainder_l1_norm(f, alpha)
            logmag = abs_moment(f, (alpha,)).logmag - log_factorial(alpha)
            bound = SignedLog.from_log(logmag).to_float()
            margin = (
                error_allowance(measured) + IERFC_RTOL * measured
                + exp_rounding(
                    0.5 * (alpha + 1) * math.log(4.0 * f.width),
                    math.lgamma(0.5 * (alpha + 1)), math.lgamma(alpha + 1.0),
                ) * bound
            )
            # inf past the double range, where the row fails as not finite;
            # each product rounds by at most half an ulp of itself
            measured, bound = c * measured, c * bound
            margin = c * margin + math.ulp(max(measured, bound))
            case = "width=%s,alpha=%d" % (f17(f.width), alpha)
            rows.append(("l1_bound", case, measured, bound, abs(measured - bound), margin))
    # a sign-changing f: the inequality is strict; the margin covers the
    # outer quadrature, the inner ones (their relative parts integrate, by
    # Fubini, to the allowance of ||x^a f||_1 / a!) and the bound's own
    datum = Generic1D(_sign_changing, breakpoints=(-1.0, 1.0))
    for alpha in range(1, 4):
        measured = remainder_l1_norm(datum, alpha)
        bound = abs_moment(datum, (alpha,)).to_float() / math.factorial(alpha)
        margin = error_allowance(measured) + 2.0 * error_allowance(bound)
        case = "f=(1-x^2)exp(-x^2),alpha=%d" % alpha
        rows.append(("l1_bound", case, measured, bound, measured, bound - margin))
    # the one-sided rows compare fl(C r) with fl(C th): rounding is
    # monotone, so r <= th gives fl(C r) <= fl(C th)
    tests = (
        ("gaussian", gaussian_test_function(1.0)),
        ("poly_gaussian", poly_gaussian_test_function((1.0, 0.0, 1.0), 1.0)),
    )
    for f in units:
        for label, phi in tests:
            for k, residual, threshold in zip(
                range(5), _residuals(f, range(5), phi), _residual_thresholds(f, range(5), phi)
            ):
                residual, threshold = c * residual, c * threshold
                case = "width=%s,phi=%s,k=%d" % (f17(f.width), label, k)
                rows.append(("residual", case, residual, threshold, residual, threshold))
    # the closed form against the Cauchy-form quadrature of the same
    # Gaussian (wrapped, so it takes the quadrature route): the two share
    # no code, and the bound is the quadrature's allowance at max|F_a|
    # plus the closed form's relative accuracy
    offsets = np.array([1e-3, 0.5, 1.4, 1.5, 1.6, 2.0, 3.0, 5.0, 8.0, 12.0])
    for f in units:
        xs = math.sqrt(f.width) * np.concatenate([-offsets, offsets])
        for alpha in range(1, 6):
            closed = remainder(f, alpha, xs)
            quadrature = remainder(Generic1D(f), alpha, xs)
            gap = float(np.max(np.abs(closed - quadrature)))
            peak = float(np.max(np.abs(closed)))
            scale = math.factorial(alpha - 1)
            bound = error_allowance(scale * peak) / scale + IERFC_RTOL * peak
            gap, bound = c * gap, c * bound
            case = "width=%s,alpha=%d" % (f17(f.width), alpha)
            rows.append(("remainder_routes", case, gap, bound, gap, bound))
    # each row is (check, case, value, bound, lhs, rhs); ok is its verdict
    columns = ("check", "case", "value", "bound", "ok")
    _write(args.out, table_text(args.format, columns, [r[:4] + (_holds(*r[4:]),) for r in rows]))
    _verdict(r[:2] + r[4:] for r in rows)


def cmd_moments(args) -> None:
    table = build_moment_table(_gaussian(args), args.kmax)
    if args.format == "json":
        _write(args.out, table.to_json() + "\n")
    else:
        _write(args.out, csv_text(table.COLUMNS, table.rows()))


#: name: (handler, help, the options it reads)
_COMMANDS = {
    "error-curve": (
        cmd_error_curve,
        "sup errors against the rigorous bound",
        _SERIES + ("--grid-extent", "--grid-points") + _TABLE,
    ),
    "divergence": (
        cmd_divergence, "origin growth for t below the envelope width", _SERIES + _TABLE,
    ),
    "eigen-compare": (
        cmd_eigen_compare, "eigen expansion vs moment expansion", _SERIES + _TABLE,
    ),
    "decomp-check": (
        cmd_decomp_check, "decomposition residual suite", ("--amplitude", "--format", "--out"),
    ),
    "moments": (
        cmd_moments,
        "dump the moment table",
        ("--dim", "--t0", "--amplitude", "--kmax", "--format", "--out"),
    ),
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _validate(args)
        _COMMANDS[args.command][0](args)
    except AssertionFailure as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except HeatSeriesError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

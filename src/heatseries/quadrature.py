"""Batched array quadrature on intervals, the line and the half line.

Every integral is a *row*: one integrand over its own set of panels.  Each
panel is integrated with an n-point and a 2n-point Gauss-Legendre rule
(``numpy.polynomial.legendre.leggauss``); the 2n-point value is kept and
the n-versus-2n difference is its error estimate, in the spirit of
QUADPACK's Gauss-Kronrod pairs (Piessens et al., 1983).  A panel is
accepted when that estimate is within its width's share of the row's
tolerance max(EPSABS, EPSREL |I|), or within a rounding floor of
ROUNDING_ULPS ulps times the integral of |g| over the panel, taken from the
same node values; a row is finished at once when the estimates of all its
open panels fit in what is left of its tolerance.  Every other panel is
bisected, and the panels of all rows still being refined are evaluated in
one array call per bisection level.  A row that needs more than MAX_PANELS
panels fails; no unconverged value is returned.  A row with a non-finite
panel value returns that value without refinement.

Integrals over R or [0, inf) are accumulated over doubling shells, per
row, until the newest shell contributes less than TAIL_FRACTION of the
running total, which certifies the discarded tail for integrands with
Gaussian-type decay.  This is the package's one tail rule.  Every row's
first interval and first shell are one integrate_rows call, as rows r and
nrows + r of a batch of twice as many rows; each later shell step is one
call.  Decay is judged only past each row's peak: a row fails when a shell
is still at least half the size of the shell 3 doublings earlier and both
lie at or after the row's largest shell so far.  An integrable row whose
mass sits past the first shells (r^n e^{-r} peaks near r = n) is certified
once its shells fall, and a row whose shells never peak exhausts
MAX_DOUBLINGS and fails.

A failed row leaves its batch and the other rows are finished.  Then one
IntegrabilityError is raised whose ``rows`` are the failed rows, ascending,
and whose message is the lowest failed row's: the error the rows would
have raised first had they been integrated one at a time in order.

Integrands of the row functions are called as ``g(rows, x)``: ``x`` holds
the nodes of a stack of panels, one panel per line, and ``rows`` (one entry
per line) says which row each panel belongs to.  Each value depends on its
own row and node only, and every sum runs in a fixed order, so a row's
integral does not depend on the other rows of its batch.  The public
scalar functions take callables of one float; ``on_array`` applies them
entry by entry.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import IntegrabilityError
from .signedlog import EPS

#: A shell must fall below this fraction of the running integral to stop.
TAIL_FRACTION = 1e-14

#: Half-width of a row's first interval on the line (its length on the half
#: line), unless its breakpoints need more, and the most doubling shells
#: appended past it.
INITIAL_EXTENT = 8.0
MAX_DOUBLINGS = 40

#: Absolute and relative tolerance of every row.
EPSABS = 1e-13
EPSREL = 1e-12

#: Panel differences below this many ulps of the integral of |g| over the
#: panel are rounding, not truncation error.
ROUNDING_ULPS = 16.0

#: Most panels one row may evaluate, over all bisection levels.
MAX_PANELS = 2000

_ABS_FLOOR = 1e-290

_N = 12
_X_COARSE, _W_COARSE = leggauss(_N)
_X_FINE, _W_FINE = leggauss(2 * _N)
_NODES = np.concatenate([_X_FINE, _X_COARSE])
# one line per sum taken from the node values: the fine rule, the fine rule
# on |g|, the coarse rule (padded with exact zeros)
_WEIGHTS = np.zeros((3, 2 * _N))
_WEIGHTS[0] = _W_FINE
_WEIGHTS[1] = _W_FINE
_WEIGHTS[2, :_N] = _W_COARSE

#: Panels evaluated per array call, so that the largest temporary (the
#: weighted node values of the three sums) stays near 1 MB.
_CHUNK = (1 << 20) // (8 * _WEIGHTS.size)

#: Why a row of a batch failed, by code; code 0 is a row that did not fail.
_FAILURES = (
    None,
    "quadrature did not converge within the panel budget",
    "shell contributions stopped decaying; integrand tail does not appear integrable",
    "tail still above the cutoff after exhausting interval doublings",
)
_PANELS, _STALLED, _EXHAUSTED = 1, 2, 3


#: Entries the scalar adapter converts to Python floats at a time.
_BLOCK = 4096

RowIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


def on_array(f: Callable[..., float]) -> Callable[..., np.ndarray]:
    """f applied to every entry of its array arguments, taken in step.

    This is the one adapter between scalar callables and the array core.
    Entries go to f as Python floats, _BLOCK of them converted at a time,
    so that the Python floats of a whole chunk of nodes are never held at
    once.  A callable that declares ``array_native = True`` (the package's
    own data and test functions) is returned as it is.
    """
    if getattr(f, "array_native", False):
        return f

    def apply(*arrays: np.ndarray) -> np.ndarray:
        arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))
        flat = [a.ravel() for a in arrays]
        values = np.empty(arrays[0].size)
        for start in range(0, values.size, _BLOCK):
            block = [a[start : start + _BLOCK].tolist() for a in flat]
            values[start : start + len(block[0])] = np.fromiter(
                map(f, *block), dtype=float, count=len(block[0])
            )
        return values.reshape(arrays[0].shape)

    return apply


def _rowsum(values: np.ndarray) -> np.ndarray:
    """Sum over the last axis by fixed pairwise halving, so that each sum
    sees its terms in the same order whatever the leading shape."""
    while values.shape[-1] > 1:
        half = values.shape[-1] // 2
        paired = values[..., :half] + values[..., half : 2 * half]
        if values.shape[-1] % 2:
            paired[..., -1] += values[..., -1]
        values = paired
    return values[..., 0]


def _panel_sums(g: RowIntegrand, row, lo, hi) -> np.ndarray:
    """Per panel: the 2n-point integral, the 2n-point integral of |g|, and
    the n-point integral."""
    out = np.empty((row.size, 3))
    for start in range(0, row.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        half = 0.5 * (hi[part] - lo[part])
        mid = lo[part] + half
        x = mid[:, None] + half[:, None] * _NODES
        values = np.broadcast_to(g(row[part, None], x), x.shape)
        terms = np.empty((x.shape[0], 3, 2 * _N))
        np.multiply(values[:, : 2 * _N], _WEIGHTS[0], out=terms[:, 0])
        np.abs(terms[:, 0], out=terms[:, 1])
        np.multiply(values[:, 2 * _N :], _WEIGHTS[2, :_N], out=terms[:, 2, :_N])
        terms[:, 2, _N:] = 0.0
        out[part] = half[:, None] * _rowsum(terms)
    return out


def integrate_rows(
    g: RowIntegrand,
    row: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    nrows: int,
) -> np.ndarray:
    """Integral of each row over its panels [lo, hi].

    ``row`` names the row (0 <= row < nrows) of each initial panel; a row
    with no panel integrates to 0.  Rows are refined together, one array
    call per bisection level.  A row that runs out of panels leaves the
    batch and the others are finished; then one IntegrabilityError names
    the failed rows.
    """
    accepted, failed = _refine(g, row, lo, hi, nrows)
    if failed.any():
        raise IntegrabilityError(_FAILURES[_PANELS], rows=tuple(np.flatnonzero(failed).tolist()))
    return accepted


def _refine(g: RowIntegrand, row, lo, hi, nrows: int) -> tuple[np.ndarray, np.ndarray]:
    """integrate_rows without the raise: the integral of each row, and
    whether the row ran out of panels (its integral is then meaningless)."""
    row = np.asarray(row, dtype=np.intp)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    width = np.bincount(row, hi - lo, minlength=nrows)
    used = np.bincount(row, minlength=nrows)
    accepted = np.zeros(nrows)
    spent = np.zeros(nrows)
    failed = np.zeros(nrows, dtype=bool)
    with np.errstate(all="ignore"):
        while row.size:
            fine, absint, coarse = _panel_sums(g, row, lo, hi).T
            estimate = accepted + np.bincount(row, fine, minlength=nrows)
            tol = np.maximum(EPSABS, EPSREL * np.abs(estimate))
            err = np.abs(fine - coarse)
            # rounding-level differences are not charged as truncation error
            charged = np.where(err <= ROUNDING_ULPS * EPS * absint, 0.0, err)
            finished = (
                spent + np.bincount(row, charged, minlength=nrows) <= tol
            ) | ~np.isfinite(estimate)
            take = finished[row] | (charged <= tol[row] * (hi - lo) / width[row])
            accepted += np.bincount(row[take], fine[take], minlength=nrows)
            spent += np.bincount(row[take], charged[take], minlength=nrows)
            keep = ~take
            row, lo, hi = row[keep], lo[keep], hi[keep]
            mid = lo + 0.5 * (hi - lo)
            used += 2 * np.bincount(row, minlength=nrows)
            failed[row[(mid == lo) | (mid == hi)]] = True
            failed |= used > MAX_PANELS
            if failed.any():
                keep = ~failed[row]
                row, lo, mid, hi = row[keep], lo[keep], mid[keep], hi[keep]
            row = np.concatenate([row, row])
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return accepted, failed


def _initial_panels(breakpoints, line: bool):
    """Panels of each row's first interval, split at its breakpoints, and
    the extent where each row's shells begin."""
    rows, edges_lo, edges_hi = [], [], []
    extents = np.empty(len(breakpoints))
    for r, points in enumerate(breakpoints):
        extent = max([INITIAL_EXTENT, *(abs(p) + 1.0 for p in points)])
        start = -extent if line else 0.0
        edges = [start, *sorted(p for p in points if start < p < extent), extent]
        rows += [r] * (len(edges) - 1)
        edges_lo += edges[:-1]
        edges_hi += edges[1:]
        extents[r] = extent
    return (np.array(rows, dtype=np.intp), np.array(edges_lo), np.array(edges_hi)), extents


def _shells(rows, extent, line: bool):
    """Panels of the next doubling shell of each of ``rows``: [e, 2e], and
    [-2e, -e] on the line, for e the row's extent."""
    lo, hi = extent[rows], 2.0 * extent[rows]
    if line:
        return np.concatenate([rows, rows]), np.concatenate([lo, -hi]), np.concatenate([hi, -lo])
    return rows, lo, hi


def _unbounded_rows(g, breakpoints, line):
    (row, lo, hi), extent = _initial_panels(breakpoints, line)
    nrows = extent.size
    # the first interval (row r) and the first shell (row nrows + r) of
    # every row in one call
    shell_row, shell_lo, shell_hi = _shells(np.arange(nrows), extent, line)
    first, failed = _refine(
        lambda rows, x: g(rows % nrows, x),
        np.concatenate([row, nrows + shell_row]),
        np.concatenate([lo, shell_lo]),
        np.concatenate([hi, shell_hi]),
        2 * nrows,
    )
    total = first[:nrows]
    failure = np.where(failed[:nrows] | failed[nrows:], _PANELS, 0)
    active = np.flatnonzero(failure == 0)
    sizes: list[np.ndarray] = []
    # each row's largest shell so far: its step and its size
    peak = np.zeros(nrows, dtype=np.intp)
    peak_size = np.zeros(nrows)
    for step in range(MAX_DOUBLINGS):
        if step == 0:
            piece = first[nrows + active]
        else:
            value, failed = _refine(g, *_shells(active, extent, line), nrows)
            failure[active[failed[active]]] = _PANELS
            active = active[~failed[active]]
            piece = value[active]
        total[active] += piece
        extent[active] *= 2.0
        size = np.abs(piece)
        done = size <= TAIL_FRACTION * np.abs(total[active]) + _ABS_FLOOR
        sizes.append(np.zeros(nrows))
        sizes[-1][active] = size
        grew = size > peak_size[active]
        peak[active[grew]] = step
        peak_size[active[grew]] = size[grew]
        if step >= 3:
            # shells stopped decaying past their peak; the tail cannot be
            # certified
            stalled = ~done & (peak[active] <= step - 3) & (size >= 0.5 * sizes[step - 3][active])
            failure[active[stalled]] = _STALLED
            done |= stalled
        active = active[~done]
        if not active.size:
            break
    failure[active] = _EXHAUSTED
    failed = np.flatnonzero(failure)
    if failed.size:
        # the message of the lowest failed row, as if the rows ran in order
        raise IntegrabilityError(_FAILURES[failure[failed[0]]], rows=tuple(failed.tolist()))
    return total


def integrate_line_rows(
    g: RowIntegrand,
    breakpoints: Sequence[Sequence[float]],
) -> np.ndarray:
    """Integral over the whole line of each row, one row per entry of
    ``breakpoints``.

    Each row starts from a symmetric interval wide enough to contain its
    breakpoints, then appends doubling shells on both sides until its
    shell contribution is below TAIL_FRACTION of its running total.
    """
    return _unbounded_rows(g, breakpoints, True)


def integrate_halfline_rows(
    g: RowIntegrand,
    breakpoints: Sequence[Sequence[float]],
) -> np.ndarray:
    """Integral over [0, inf) of each row with the same doubling-shell
    policy."""
    return _unbounded_rows(g, breakpoints, False)


def error_allowance(abs_integral: float) -> float:
    """The most error the acceptance rules above leave in one row of
    integrate_line_rows or integrate_halfline_rows whose integrand g has
    integral |g| = abs_integral: EPSABS in each of its at most
    1 + MAX_DOUBLINGS pieces (the first interval and each shell, each
    refined to its own tolerance, whether or not two share a call), EPSREL
    of each piece's |value| (together at most EPSREL abs_integral),
    ROUNDING_ULPS ulps of |g| left uncharged on its accepted panels, and
    TAIL_FRACTION of the total for the discarded tail (certified for
    Gaussian-type decay)."""
    return (1 + MAX_DOUBLINGS) * EPSABS + (
        EPSREL + ROUNDING_ULPS * EPS + TAIL_FRACTION
    ) * abs_integral


def integrate_interval(
    f: Callable[[float], float],
    a: float,
    b: float,
    breakpoints: Sequence[float] = (),
) -> float:
    """Integral of f over [a, b], splitting at the supplied breakpoints."""
    g = on_array(f)
    edges = [a, *sorted(p for p in breakpoints if a < p < b), b]
    value = integrate_rows(
        lambda rows, x: g(x),
        np.zeros(len(edges) - 1, dtype=np.intp),
        np.array(edges[:-1]),
        np.array(edges[1:]),
        1,
    )
    return float(value[0])


def integrate_line(
    f: Callable[[float], float], breakpoints: Sequence[float] = ()
) -> float:
    """Integral of f over the whole line (see integrate_line_rows)."""
    g = on_array(f)
    value = integrate_line_rows(lambda rows, x: g(x), [tuple(breakpoints)])
    return float(value[0])


def integrate_halfline(
    f: Callable[[float], float], breakpoints: Sequence[float] = ()
) -> float:
    """Integral of f over [0, inf) with the same doubling-shell policy."""
    g = on_array(f)
    value = integrate_halfline_rows(lambda rows, x: g(x), [tuple(breakpoints)])
    return float(value[0])

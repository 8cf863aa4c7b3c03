"""The heat kernel, its derivatives, and truncated moment expansions.

The order-k approximation to the Cauchy solution with initial datum u0 is

    u_k(x, t) = pi^{-d/2} e^{-|x|^2/4t}
        sum_{|alpha| <= k} (m_alpha / alpha!) (4t)^{-(|alpha|+d)/2}
        prod_i H_{alpha_i}(x_i / (2 sqrt(t)))

with m_alpha the moments of u0.  Point evaluation keeps every term as a
sign and a log magnitude, gathered over the moment table's arrays, and
reduces by exponent alignment.  Grid evaluation walks
the grid in bands of axis-0 rows small enough to stay in a core's L2 cache
and accumulates each degree block on a band as one matrix product of
Hermite tables with per-term double coefficients; a sweep of sup errors
measures a band's orders before moving to the next band, and skips each
band and order whose certified bound lies below the sup already measured.
The one bound resumes from the band's last measured error (before any
product, R_b = max |reference| over the band), so a band stops
accumulating once no later order can need it.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import backend
from .errors import DomainError, UnsupportedVariantError, check_integer, check_real
from .moments import Gaussian, MomentTable, MultiIndex
from .signedlog import U, SignedLog, aligned_sum_arrays, aligned_sums
from .specfun import bonan_clark_logs, hermite_weighted, hermite_weighted_logs, laguerre_sequence

_LOG_PI = math.log(math.pi)

# Bytes of field per band: 20 rows of an 801-point axis.  A band, its GEMM
# output and the temporaries of max_abs_diff then stay in a core's L2 cache.
# Keeping each within glibc's initial mmap threshold (128 KiB) lets those
# temporaries come from the heap; larger bands made the first sweep in a
# process fault in fresh pages on every GEMM, and no later sweep ran faster.
_BAND_BYTES = 128 * 1024


@dataclass(frozen=True)
class ApproxConfig:
    """Dimension, truncation order, and evaluation time."""

    dim: int
    k: int
    t: float

    def __post_init__(self):
        check_integer("dim", self.dim, 1)
        check_integer("truncation order k", self.k, 0)
        check_real("evaluation time t", self.t)


@dataclass
class ApproxResult:
    """Value of u_k at one point plus the per-degree partial contributions.

    ``terms`` lists (degree, contribution) pairs for every degree with a
    nonzero moment block, in ascending degree order.
    """

    value: float
    terms: list[tuple[int, float]] = field(default_factory=list)


def _as_point(x, dim: int | None = None) -> tuple[float, ...]:
    """``x`` as finite float coordinates, ``dim`` of them unless ``dim`` is
    None, and at least one.  A real number (a numpy scalar too) is one
    coordinate, an iterable of real numbers its coordinates in turn;
    anything else, ``None``, a bool, a string or bytes among it, raises
    DomainError, as does a ``dim`` that is not an integer >= 1."""
    if dim is not None:
        check_integer("dim", dim, 1)
    scalar = isinstance(x, numbers.Real)
    try:
        pt = (x,) if scalar else tuple(x)
    except TypeError:
        pt = (x,)  # neither a number nor iterable: refused below
    if isinstance(x, (str, bytes, bytearray)) or not all(
        isinstance(c, numbers.Real) and not isinstance(c, bool) for c in pt
    ):
        raise DomainError(f"point {x!r} is neither a real number nor real coordinates")
    if scalar and dim not in (None, 1):
        raise DomainError(f"scalar point given for dim {dim}")
    pt = tuple(map(float, pt))
    if not pt:
        raise DomainError("a point needs at least one coordinate")
    if dim is not None and len(pt) != dim:
        raise DomainError(f"point of length {len(pt)} given for dim {dim}")
    if not all(map(math.isfinite, pt)):
        raise DomainError(f"point coordinates must be finite, got {pt}")
    return pt


def heat_kernel(x, t: float, dim: int | None = None) -> float:
    """Fundamental solution (4 pi t)^{-d/2} exp(-|x|^2 / 4t)."""
    check_real("heat_kernel time t", t)
    t = float(t)
    pt = _as_point(x, dim)
    sq = math.fsum(c * c for c in pt)
    return (4.0 * math.pi * t) ** (-len(pt) / 2.0) * math.exp(-sq / (4.0 * t))


def kernel_derivative(alpha, x, t: float) -> SignedLog:
    """Mixed spatial derivative D^alpha of the heat kernel at (x, t).

    Assembled from Gaussian-weighted Hermite values,

        D^alpha G = pi^{-d/2} (4t)^{-(|alpha|+d)/2} (-1)^{|alpha|}
                    prod_i H_{alpha_i}(y_i) e^{-y_i^2},   y = x / (2 sqrt t).
    """
    check_real("kernel_derivative time t", t)
    a = MultiIndex.of(alpha)
    d = a.dim
    pt = _as_point(x, d)
    scale = 2.0 * math.sqrt(t)
    out = SignedLog.from_log(
        -0.5 * d * _LOG_PI - 0.5 * (a.degree + d) * math.log(4.0 * t),
        sign=-1 if a.degree % 2 else 1,
    )
    for ai, xi in zip(a.components, pt):
        out = out * hermite_weighted(ai, xi / scale)
    return out


def _term_scale(degree: int, cfg: ApproxConfig) -> float:
    """log of pi^{-d/2} (4t)^{-(degree+d)/2}."""
    return -0.5 * cfg.dim * _LOG_PI - 0.5 * (degree + cfg.dim) * math.log(4.0 * cfg.t)


def _point_terms(
    table: MomentTable,
    k: int,
    scales: Sequence[float],
    ys: Sequence[float],
    ln_factorials: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The live terms of a point sum over the entries of degree <= k,

        term_alpha = moment_alpha * exp(offset_alpha) * prod_i w(alpha_i, ys[i]),

    offset_alpha = scales[|alpha|], less ln_factorials[alpha] when given, and
    w(n, y) = H_n(y) e^{-y^2}, as (signs, logmags, cuts): the log magnitude
    is added up left to right as the per-term SignedLog products did,
    ``logmag + offset``, then each axis's weighted-Hermite log in turn, so
    every term has the same bits.  Terms with a zero moment or an exact
    Hermite zero are dropped; the live terms of degree j are the range
    cuts[j - 1]:cuts[j].
    """
    rows = np.flatnonzero(table.signs[: table.ends[k]])
    offsets = np.asarray(scales, np.float64)[table.degrees[rows]]
    if ln_factorials is not None:
        offsets = offsets - ln_factorials[rows]
    signs = table.signs[rows]
    logmag = table.logmag[rows] + offsets
    components = table.components[rows]
    for axis, y in enumerate(ys):
        w_signs, w_logs = hermite_weighted_logs(k, y)
        alpha_i = components[:, axis]
        logmag += np.array(w_logs)[alpha_i]
        signs = signs * np.array(w_signs, np.int8)[alpha_i]
    live = np.flatnonzero(signs)
    cuts = np.searchsorted(live, np.searchsorted(rows, table.ends[: k + 1]))
    return signs[live], logmag[live], cuts


def _sweep_orders(ks, k_max: int) -> list[int]:
    """``ks`` as a list of truncation orders, checked non-empty, ascending,
    integer and within [0, k_max]."""
    try:
        ks = list(ks)
    except TypeError:
        raise DomainError(f"truncation orders must be an iterable, got {ks!r}") from None
    if not ks:
        raise DomainError("a sweep needs at least one truncation order")
    for k in ks:
        check_integer("truncation order", k, 0, k_max)
    if ks != sorted(ks):
        raise DomainError(f"truncation orders {ks} are not ascending")
    return ks


def eval_uk(table: MomentTable, cfg: ApproxConfig, x) -> ApproxResult:
    """Evaluate u_k at one point with full SignedLog care.

    Each term m_alpha / alpha! (4t)^{-(|alpha|+d)/2} pi^{-d/2}
    prod_i H_{alpha_i}(y_i) e^{-y_i^2} is a sign and a log magnitude,
    gathered for every multi-index of degree <= k at once from the table's
    arrays; multi-indices whose moment is exactly zero are skipped.  The
    value and each degree's partial are
    reduced by aligning every term to the largest exponent and summing the
    aligned mantissas with ``math.fsum``, with the bits of a per-term
    SignedLog loop in table order.  This is the one-order case of
    :func:`eval_uk_sweep`, which gathers a point's terms once for a whole
    sweep of orders and gives each order these bits.
    """
    if table.dim != cfg.dim:
        raise DomainError("table dimension does not match config")
    (result,) = eval_uk_sweep(table, cfg.t, x, [cfg.k])
    return result


def eval_uk_sweep(table: MomentTable, t: float, x, ks: Sequence[int]) -> list[ApproxResult]:
    """u_k at one point for each order k in ``ks``, which must be non-empty,
    ascending and within [0, table.k_max]; the result for k equals
    ``eval_uk(table, ApproxConfig(table.dim, k, t), x)`` bit for bit.

    The point's terms are gathered once, at the largest order.  The terms
    of order k are a prefix of them with the same bits: the table is sorted
    by degree, the per-degree scales do not depend on k, and the Hermite
    recurrence's entries up to n do not depend on its depth.  One call to
    :func:`aligned_sums` then reduces each degree's block, shared by every
    order that holds it, and each order's prefix; prefixes and blocks whose
    largest term is the same share one exponential pass.
    """
    ks = _sweep_orders(ks, table.k_max)
    cfg = ApproxConfig(dim=table.dim, k=ks[-1], t=t)
    pt = _as_point(x, cfg.dim)
    scale = 2.0 * math.sqrt(cfg.t)
    scales = [_term_scale(j, cfg) for j in range(cfg.k + 1)]
    signs, logmag, cuts = _point_terms(
        table, cfg.k, scales, [xi / scale for xi in pt], table.ln_factorials
    )
    cuts = cuts.tolist()
    blocks = [(j, lo, hi) for j, (lo, hi) in enumerate(zip([0, *cuts], cuts)) if hi > lo]
    spans = [(lo, hi) for _, lo, hi in blocks] + [(0, cuts[k]) for k in ks]
    sums = [s.to_float() for s in aligned_sums(signs, logmag, spans)]
    degrees = [j for j, _, _ in blocks]
    partials = list(zip(degrees, sums))
    return [
        ApproxResult(value=value, terms=partials[: bisect.bisect_right(degrees, k)])
        for k, value in zip(ks, sums[len(blocks) :])
    ]


def eval_uk_radial_origin(table: MomentTable, cfg: ApproxConfig, r: float) -> float:
    """u_k at radius r for Gaussian data via the Laguerre form.

    For a Gaussian datum (amplitude C, width t0) in dimension d >= 2, the
    degree-2n block of the expansion depends on the point through r only and
    is one term of the Laguerre generating function: with q = t0/t and
    x = r^2/4t,

        u_k(r, t) = C q^{d/2} e^{-x} sum_{n <= floor(k/2)} (-q)^n L_n^{(d/2-1)}(x),

    the odd-degree blocks vanishing with the datum's odd moments.  Since
    sum_n L_n^{(a)}(x) z^n = (1-z)^{-a-1} e^{-xz/(1-z)} for |z| < 1, the full
    sum at q < 1 is the exact solution C (t0/(t+t0))^{d/2} e^{-r^2/4(t+t0)};
    for q > 1 the terms grow without bound.  The terms come from one
    Laguerre recurrence pass, so the route costs O(k).

    Must agree with :func:`eval_uk` at |x| = r; the two routes share no
    code beyond the special-function and summation layers.
    """
    if not isinstance(table.source, Gaussian):
        raise UnsupportedVariantError(
            "eval_uk_radial_origin needs a table built from Gaussian data"
        )
    if cfg.dim < 2:
        raise DomainError("the radial Laguerre form applies in dim >= 2")
    if table.dim != cfg.dim:
        raise DomainError("table dimension does not match config")
    if cfg.k > table.k_max:
        raise DomainError("truncation order exceeds table k_max")
    check_real("radius r", r, zero=True)
    u0 = table.source
    d = cfg.dim
    x = r * r / (4.0 * cfg.t)
    log_q = math.log(u0.width / cfg.t)
    lags = np.array(laguerre_sequence(cfg.k // 2, 0.5 * d - 1.0, x))
    n = np.flatnonzero(lags)
    signs = np.where(n % 2, -1, 1) * np.where(lags[n] < 0.0, -1, 1)
    series = aligned_sum_arrays(signs, n * log_q + np.log(np.abs(lags[n])))
    prefactor = SignedLog.from_log(math.log(u0.amplitude) + 0.5 * d * log_q - x)
    return (prefactor * series).to_float()


# ---------------------------------------------------------------------------
# grid evaluation


@dataclass(frozen=True)
class _BandLimits:
    """The band limits of one sweep (:meth:`SeriesGridEvaluator._limits`):
    ``masses[b, j]`` is the part of band b's term sum of degree j, and
    ``factor`` and ``tiny`` are its (1 + gamma_N)^2 and underflow term."""

    masses: np.ndarray
    orders: np.ndarray
    factor: float
    tiny: float

    def resumed(self, b: int, o: int, error: float) -> np.ndarray:
        """Upper bounds on band b's computed |reference - u_k| at each of
        orders[o + 1:], given its computed error ``error`` at k = orders[o],
        or at k = -1 for o = -1, before any product: the field is then 0,
        and its error is R_b = max |reference| over the band exactly, as
        |r - 0| rounds nothing.  The bound is

            2 (1 + gamma_N)^2 sum_{k < j <= k'} B[b, j] + (1 + gamma_N)^2 (e + 2 tiny).

        Why it holds: each degree block is added as fl(a + P) with a
        representable, and the float nearest a + P is no farther from it
        than a is, so |fl(a + P) - a| <= 2 |P|, with no u |a| term.  A
        node's difference at k' then moves from its difference at k by at
        most 2 sum |P| over the blocks in (k, k'].  A block's computed P
        rounds each term at most live + d - 1 times: d - 1 for scaling the
        axis-0 row by c_alpha and at most live in its inner product (a zero
        coefficient rounds nothing), so |P| is at most (1 + gamma_{live + d - 1})
        times its part of B, plus the error of the products that underflow,
        at most 2^-1075 each, which a later product can scale by a table
        entry: tiny covers those.  The subtraction gives |r - a| <= e / (1 - u)
        at k and rounds once more at k', so the exact bound is

            (1 + u)/(1 - u) e + 2 (1 + u)((1 + gamma_{live + d - 1}) S + tiny),

        S = sum_{k < |alpha| <= k'} |c_alpha| A_b[alpha_1] M[alpha_2], and
        1 + gamma_N covers both of its factors.  The computed bound rounds
        each term of S at most live + K + d + 3 times: d products and at
        most live - 1 additions in B, at most K in one cumulative sum over
        (k, K], the product by 2 (1 + gamma_N)^2 (2 times a double: exact),
        the last addition and the factor's own two; e and tiny round five
        times.  N = live + K + d + 4 exceeds both, so the computed bound is
        no smaller than the exact one.  The increments are summed from
        k + 1, never taken as a difference of two prefix sums, which cancels
        once the band's mass is O(1) and its increments are below its
        rounding.  tiny also covers the bound's own products that
        underflow.  A NaN or inf error or table entry gives a NaN or inf
        bound, which drops no order.
        """
        k = self.orders[o] if o >= 0 else -1
        steps = np.cumsum(self.masses[b, k + 1 : self.orders[-1] + 1])
        offset = self.factor * (error + 2.0 * self.tiny)
        return steps[self.orders[o + 1 :] - (k + 1)] * (2.0 * self.factor) + offset


class SeriesGridEvaluator:
    """Evaluation of u_k over a tensor grid, one degree block at a time, so
    a sweep over k costs the same as the largest single k.

    Coefficients m_alpha/alpha! (4t)^{-(j+d)/2} pi^{-d/2} are assembled in
    log space and exponentiated into doubles, which is safe whenever each
    term fits the double range (true for every supported regime; the
    SignedLog point evaluator stays the overflow-proof reference).
    Supports dim 1 and 2.

    The grid is walked in bands of axis-0 rows small enough to stay in a
    core's L2 cache.  :meth:`field_up_to` returns a new field of the whole
    grid on each call; :meth:`sup_errors` measures against a reference one
    band at a time, keeps only that band, and skips the bands that provably
    cannot raise the sup.  Both run the same GEMMs on the same bands, bands
    outside and degrees inside, so they give the same bits, and no
    attribute changes after construction.  Each degree block's
    rows of both Hermite tables are strided views that BLAS reads in place:
    the block keeps its axis-0 orders as one strided run with dense
    coefficients, and the axis-1 table is stored in reverse row order.
    """

    def __init__(
        self,
        table: MomentTable,
        t: float,
        axes: Sequence[np.ndarray],
        k_cap: int | None = None,
    ):
        if table.dim not in (1, 2):
            raise DomainError("grid evaluation supports dim 1 and 2")
        if len(axes) != table.dim:
            raise DomainError("one axis array per dimension is required")
        axes = [np.asarray(ax, float) for ax in axes]
        if not all(ax.ndim == 1 and ax.size and np.isfinite(ax).all() for ax in axes):
            raise DomainError("each grid axis must be a non-empty 1-D array of finite nodes")
        if k_cap is not None:
            check_integer("k_cap", k_cap, 0)
        self.dim = table.dim
        self.t = t
        k = self.k_cap = table.k_max if k_cap is None else min(k_cap, table.k_max)
        cfg = ApproxConfig(dim=self.dim, k=k, t=t)
        scale = 2.0 * math.sqrt(t)
        self._tables = [backend.weighted_hermite_table(axes[0] / scale, k)]
        if self.dim == 2:
            # an axis with the nodes of axis 0, bit for bit, has its table
            same = axes[1].tobytes() == axes[0].tobytes()
            t2 = self._tables[0] if same else backend.weighted_hermite_table(axes[1] / scale, k)
            # axis-1 rows in reverse, row k - n holding H_n: the rows j - n1
            # of a degree block, n1 ascending, are then one ascending
            # strided view, which BLAS takes without a copy
            self._tables.append(np.ascontiguousarray(t2[::-1]))
        # m_alpha/alpha! (4t)^{-(j+d)/2} pi^{-d/2} of every live row, its logs
        # added in the order moment, scale, ln alpha!, then math.exp, which
        # fixes its bits; a coefficient that underflows to 0 is dropped
        rows = np.flatnonzero(table.signs[: table.ends[k]])
        term_scale = np.array([_term_scale(j, cfg) for j in range(k + 1)])
        logmag = (table.logmag[rows] + term_scale[table.degrees[rows]]) - table.ln_factorials[rows]
        if (logmag > 700.0).any():
            raise DomainError(
                "series coefficient exceeds the double range; "
                "use eval_uk for this regime"
            )
        values = table.signs[rows] * np.fromiter(map(math.exp, logmag.tolist()), float, len(rows))
        rows, values = rows[values != 0.0], values[values != 0.0]
        n1 = table.components[rows, 0].astype(np.int64)
        degrees = table.degrees[rows]
        # degree j, the terms in its table rows ends[j] - counts[j]:ends[j],
        # n1 ascending -> (axis-0 rows n1 = lo, lo + step, .., hi as a slice,
        # the matching axis-1 rows j - n1 at k - j + n1 of the reversed
        # table, coefficients with zeros where the degree skips an n1 in
        # between); every degree's coefficients are one slice of ``flat``
        starts = np.searchsorted(rows, table.ends[: k + 1] - table.counts[: k + 1])
        stops = np.searchsorted(rows, table.ends[: k + 1])
        js = np.flatnonzero(stops > starts)
        lo, hi = np.zeros(k + 1, np.int64), np.zeros(k + 1, np.int64)
        lo[js], hi[js] = n1[starts[js]], n1[stops[js] - 1]
        offsets = n1 - lo[degrees]
        step = np.zeros(k + 1, np.int64)
        np.gcd.at(step, degrees, offsets)  # the gcd of n1 - lo is that of the gaps
        step[step == 0] = 1
        bases = np.zeros(k + 2, np.int64)
        np.cumsum(np.where(stops > starts, (hi - lo) // step + 1, 0), out=bases[1:])
        flat = np.zeros(int(bases[-1]))
        flat[bases[degrees] + offsets // step[degrees]] = values
        self._blocks: dict[int, tuple] = {
            j: (slice(a, b + 1, c), slice(k - j + a, k - j + b + 1, c), flat[bases[j] : bases[j + 1]])
            for j, a, b, c in zip(js.tolist(), lo[js].tolist(), hi[js].tolist(), step[js].tolist())
        }
        # each live term's axis-0 and axis-1 orders (the latter 0 in dim 1),
        # |c_alpha|, and the count of live terms of degree <= j: the band
        # limits of sup_errors and the rounding floors read these
        self._terms = (n1, degrees - n1, np.abs(values), stops)
        self.shape = tuple(len(ax) for ax in axes)

    def _bands(self) -> list[tuple[int, int]]:
        """Ranges [i0, i1) of axis-0 rows, about ``_BAND_BYTES`` of field each.

        numpy multiplies a one-row band by GEMV, which rounds differently
        from GEMM, so a lone last row joins the band before it.
        """
        n = self.shape[0]
        rows = max(2, _BAND_BYTES // (8 * math.prod(self.shape[1:])))
        starts = list(range(0, n, rows))
        if len(starts) > 1 and n - starts[-1] == 1:
            starts.pop()
        return list(zip(starts, starts[1:] + [n]))

    def _accumulate(self, out, i0: int, i1: int, j: int) -> None:
        """Add degree block j over axis-0 rows [i0, i1) into ``out``."""
        block = self._blocks.get(j)
        if block is None:
            return
        rows1, rows2, coeffs = block
        t1 = self._tables[0][:, i0:i1]
        if self.dim == 1:
            backend.accumulate_series_1d(out, t1, rows1, coeffs)
        else:
            backend.accumulate_series_2d(out, t1, self._tables[1], rows1, rows2, coeffs)

    def field_up_to(self, k: int) -> np.ndarray:
        """The field of u_k over the whole grid, a new array on each call;
        k must be an integer in [0, k_cap]."""
        _sweep_orders([k], self.k_cap)
        field = np.zeros(self.shape)
        for i0, i1 in self._bands():
            for j in range(k + 1):
                self._accumulate(field[i0:i1], i0, i1, j)
        return field

    def rounding_floors(self, orders: Sequence[int], peak: float) -> list[float]:
        """For each k in ``orders``, a bound on the rounding error of
        |reference - u_k| at any node of :meth:`sup_errors`, given
        ``peak`` = max |reference|:

            gamma_n sum_{|alpha| <= k} |c_alpha| prod_i BC(alpha_i) + 4 u peak,

        n = k + d + 2, u = 2^-53, gamma_n = n u / (1 - n u) (Higham, Accuracy
        and Stability of Numerical Algorithms, 2nd ed., section 3.1), c_alpha
        the series coefficients and BC the Bonan-Clark bound
        (:func:`~heatseries.specfun.bonan_clark_log`) on each weighted Hermite
        factor.  Terms are summed in log space (BC overflows from n = 269), by
        one cumulative sum per call: no field is evaluated."""
        orders = _sweep_orders(orders, self.k_cap)
        n1, n2, magnitude, ends = self._terms
        bc = np.array(bonan_clark_logs(self.k_cap))
        mass = np.cumsum(np.append(0.0, np.exp(np.log(magnitude) + bc[n1] + bc[n2])))
        return [
            (n := (k + self.dim + 2) * U) / (1.0 - n) * float(mass[ends[k]]) + 4.0 * U * peak
            for k in orders
        ]

    def _limits(self, bands, orders: list[int]) -> _BandLimits:
        """The limits of a sweep over ``bands`` at ``orders``, from which
        :meth:`_BandLimits.resumed` bounds a band's computed error: the
        masses

            B[b, j] = sum_{|alpha| = j} |c_alpha| A_b[alpha_1] M[alpha_2],

        A_b[n] = max |T1[n, .]| over band b, M[n] = max |T2[n, .]| over the
        whole axis (M = 1 in dim 1) and c_alpha the doubles the products
        use; the factor (1 + gamma_N)^2, u = 2^-53 and gamma_N = N u / (1 - N u)
        with N = live + K + d + 4, live the number of terms of degree
        <= K = orders[-1] (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., section 3.1); and tiny = 2^-1072 live (1 + the
        largest |T|).  A NaN or inf table entry gives its band NaN or inf
        masses.
        """
        n1, n2, magnitude, ends = self._terms
        K = orders[-1]
        live = int(ends[K])
        t1 = self._tables[0]
        largest = max(t1.max(), -t1.min())
        if self.dim == 2:
            t2 = self._tables[1][::-1]  # row n holds H_n again
            m = np.maximum(t2.max(axis=1), -t2.min(axis=1))
            magnitude = magnitude * m[n2]
            largest = max(largest, m.max())
        magnitude, n1, degrees = magnitude[:live], n1[:live], (n1 + n2)[:live]
        masses = np.empty((len(bands), K + 1))
        for b, (i0, i1) in enumerate(bands):
            band = t1[:, i0:i1]
            # |c_alpha| A_b[alpha_1] M[alpha_2] of each live term, summed in
            # table order into its degree's mass; a degree with no term holds 0
            terms = magnitude * np.maximum(band.max(axis=1), -band.min(axis=1))[n1]
            masses[b] = np.bincount(degrees, terms, K + 1)
        n = (live + K + self.dim + 4) * U
        factor = (1.0 / (1.0 - n)) ** 2
        tiny = 2.0**-1072 * live * (1.0 + largest)
        return _BandLimits(masses, np.array(orders), factor, tiny)

    def sup_errors(self, reference, orders: Sequence[int]) -> list[float]:
        """max over the grid of |reference - u_k| for each k in ``orders``.

        ``orders`` must be non-empty, ascending and within [0, k_cap], as
        for :func:`eval_uk_sweep`.  Each band of :meth:`_bands` is
        accumulated degree by degree and measured after each order it needs,
        so no field of the whole grid is held.  The bands are visited by
        R_b = max |reference| over the band, largest first: R_b is a band's
        error before any product.  The first band is measured at every
        order; from the second on, :meth:`_BandLimits.resumed` bounds a
        band's later orders from its last error, R_b at first, and each
        order whose bound lies below the running sup is dropped, so a band
        stops accumulating at its last order still needed and a band with
        none is never multiplied.  A skipped error provably lies below a
        value already in the order's maximum, so the running sup has the
        bits of measuring every band at every order.  It is folded with
        ``np.maximum``, so a NaN node gives NaN at every order, as one
        whole-grid ``max_abs_diff`` would; a NaN bound or error never lets
        a band be skipped.  A one-band sweep computes no limit.
        """
        orders = _sweep_orders(orders, self.k_cap)
        reference = np.asarray(reference, dtype=np.float64)
        if reference.shape != self.shape:
            raise DomainError("reference shape does not match the grid")
        bands = self._bands()
        peaks = np.array([max(r.max(), -r.min()) for r in (reference[i0:i1] for i0, i1 in bands)])
        band_field = np.empty((max(i1 - i0 for i0, i1 in bands),) + self.shape[1:])
        running = np.full(len(orders), -np.inf)
        for visit, b in enumerate(np.argsort(-peaks, kind="stable").tolist()):
            if visit == 1:  # the first band has no sup to beat, and needs no limit
                limits = self._limits(bands, orders)
            i0, i1 = bands[b]
            band = band_field[: i1 - i0]
            need = np.ones(len(orders), bool)
            o, built, error = -1, -1, peaks[b]  # the zero field
            while True:
                later = need[o + 1 :]  # a view: the drops below land in need
                if visit and later.size:
                    later[limits.resumed(b, o, error) < running[o + 1 :]] = False
                if not later.any():
                    break
                o += 1 + int(later.argmax())
                if built < 0:
                    band.fill(0.0)
                for j in range(built + 1, orders[o] + 1):
                    self._accumulate(band, i0, i1, j)
                built = orders[o]
                error = backend.max_abs_diff(reference[i0:i1], band)
                running[o] = np.maximum(running[o], error)
        return running.tolist()

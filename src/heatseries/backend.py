"""Grid kernels: Gaussian-weighted Hermite tables and series accumulation.

Within one total degree the series is a sum of rank-one products of table
rows, so each degree block is accumulated as a single matrix product (a BLAS
GEMM in dim 2, a GEMV in dim 1).  The accumulators update caller-allocated
fields in place.
"""

from __future__ import annotations

import numpy as np


def weighted_hermite_table(y, nmax: int) -> np.ndarray:
    """Table T[n, i] = H_n(y[i]) * exp(-y[i]**2), n = 0..nmax."""
    y = np.asarray(y, dtype=np.float64)
    out = np.empty((nmax + 1, y.shape[0]), dtype=np.float64)
    out[0] = np.exp(-y * y)
    if nmax >= 1:
        out[1] = 2.0 * y * out[0]
    for n in range(1, nmax):
        out[n + 1] = 2.0 * y * out[n] - (2.0 * n) * out[n - 1]
    return out


def accumulate_series_1d(out, table, degrees, coeffs) -> None:
    """out[i] += sum_m coeffs[m] * table[degrees[m], i].

    ``degrees`` is an index array or a slice; a slice selects its rows as a
    view, without copying them.
    """
    out += np.asarray(coeffs, dtype=np.float64) @ table[degrees]


def accumulate_series_2d(out, t1, t2, deg1, deg2, coeffs) -> None:
    """out[i, j] += sum_m coeffs[m] * t1[deg1[m], i] * t2[deg2[m], j].

    ``deg1`` and ``deg2`` are index arrays or slices.  A slice of rows with
    a positive step is a strided view that BLAS reads in place, so the
    axis-1 rows are not gathered into a copy.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    out += (t1[deg1] * c[:, None]).T @ t2[deg2]


def max_abs_diff(a, b) -> float:
    """Largest absolute elementwise difference of two arrays, NaN if any
    difference is NaN, from one temporary and two reductions."""
    d = np.subtract(a, b)
    # d.max() comes first so that a NaN wins; abs turns -0.0 into 0.0
    return abs(float(max(d.max(), -d.min())))

"""Grid kernels against explicit per-term references."""

import math

import numpy as np
import pytest

from heatseries import backend, hermite_weighted

EPS = np.finfo(np.float64).eps


def gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff.

    A sum of products with at most n roundings per term lies within
    gamma_n * sum |term| of the exact sum whatever the order of the adds
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2),
    so two such evaluations differ by at most twice that.
    """
    u = EPS / 2.0
    return n * u / (1.0 - n * u)


def test_hermite_table_matches_point_evaluator():
    ys = np.linspace(-5.0, 5.0, 23)
    table = backend.weighted_hermite_table(ys, 40)
    assert table.shape == (41, 23)
    for n in (0, 1, 7, 40):
        for i in (0, 11, 22):
            want = hermite_weighted(n, float(ys[i])).to_float()
            assert math.isclose(table[n, i], want, rel_tol=1e-12, abs_tol=1e-280)


def test_hermite_table_parity_is_exact():
    ys = np.linspace(0.0, 6.0, 51)
    pos = backend.weighted_hermite_table(ys, 60)
    neg = backend.weighted_hermite_table(-ys, 60)
    sign = np.where(np.arange(61) % 2, -1.0, 1.0)[:, None]
    np.testing.assert_array_equal(neg, sign * pos)


def test_accumulate_1d_matches_per_term_loop():
    rng = np.random.default_rng(42)
    ys = np.linspace(-4.0, 4.0, 81)
    table = backend.weighted_hermite_table(ys, 30)
    degrees = np.arange(0, 31, dtype=np.int64)
    # scaled so that every term is O(1), as in the series: unscaled,
    # |H_30| ~ 1e20 would hide a dropped low-degree term below the floor
    norms = np.sqrt([2.0**n * math.factorial(n) for n in degrees])
    coeffs = rng.normal(size=degrees.size) / norms
    start = rng.normal(size=ys.size)
    want, mag = start.copy(), np.abs(start)
    for d, c in zip(degrees, coeffs):
        want += c * table[d]
        mag += np.abs(c * table[d])
    got = start.copy()
    backend.accumulate_series_1d(got, table, degrees, coeffs)
    # a term rounds in its product and in at most degrees.size adds
    assert np.all(np.abs(got - want) <= 2.0 * gamma(degrees.size + 1) * mag)
    assert np.any(got != start)


def test_accumulate_2d_matches_per_term_loop():
    rng = np.random.default_rng(7)
    a1 = np.linspace(-3.0, 3.0, 19)
    a2 = np.linspace(-2.0, 2.0, 17)
    t1 = backend.weighted_hermite_table(a1, 12)
    t2 = backend.weighted_hermite_table(a2, 12)
    deg1 = np.array([0, 2, 4, 6, 1, 3], dtype=np.int64)
    deg2 = np.array([0, 2, 0, 4, 1, 5], dtype=np.int64)
    coeffs = rng.normal(size=deg1.size)
    start = rng.normal(size=(a1.size, a2.size))
    want, mag = start.copy(), np.abs(start)
    for d1, d2, c in zip(deg1, deg2, coeffs):
        term = np.multiply.outer(c * t1[d1], t2[d2])
        want += term
        mag += np.abs(term)
    got = start.copy()
    backend.accumulate_series_2d(got, t1, t2, deg1, deg2, coeffs)
    # a term rounds in its two products and in at most deg1.size adds
    assert np.all(np.abs(got - want) <= 2.0 * gamma(deg1.size + 2) * mag)
    assert np.any(got != start)


def test_max_abs_diff_against_numpy():
    rng = np.random.default_rng(3)
    a = rng.normal(size=300)
    b = a + rng.normal(scale=1e-8, size=300)
    got = backend.max_abs_diff(a, b)
    assert got == pytest.approx(float(np.max(np.abs(a - b))), rel=1e-15)
    assert backend.max_abs_diff(a, a) == 0.0

"""Moment computations: closed forms vs independent quadrature, enumeration
order, table evolution against the SignedLog recursion it replaced, the
JSON wire format, and the table invariant that its loader enforces."""

import copy
import functools
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad, quad, tplquad

from heatseries import (
    DomainError,
    Gaussian,
    Generic1D,
    IntegrabilityError,
    MomentTable,
    MultiIndex,
    Radial,
    SignedLog,
    abs_moment,
    aligned_sum,
    build_moment_table,
    compositions,
    eigen_coeffs,
    kernel_derivative,
    moment,
    moments,
    moments_at_time,
)
from heatseries.eigen import EigenCoeffs
from heatseries.specfun import log_factorial

SQRT_PI = math.sqrt(math.pi)


# --- enumeration ---------------------------------------------------------

def test_compositions_order():
    assert list(compositions(3, 2)) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert list(compositions(2, 1)) == [(2,)]


@pytest.mark.parametrize("total,parts", [(4, 2), (6, 3), (3, 4), (0, 2)])
def test_compositions_count(total, parts):
    got = list(compositions(total, parts))
    assert len(got) == math.comb(total + parts - 1, parts - 1)
    assert len(set(got)) == len(got)
    assert all(sum(c) == total for c in got)


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_compositions_are_the_lexicographic_itertools_ones(parts):
    for total in range(9):
        product = itertools.product(range(total + 1), repeat=parts)
        assert list(compositions(total, parts)) == sorted(c for c in product if sum(c) == total)


def _table_order(k_max, dim):
    """Every multi-index of degree <= k_max by the definition of table
    order: degrees ascending, lexicographic within a degree."""
    box = itertools.product(range(k_max + 1), repeat=dim)
    return sorted((a for a in box if sum(a) <= k_max), key=lambda a: (sum(a), a))


@pytest.mark.parametrize("k,d", [(5, 1), (4, 2), (6, 3)])
def test_multi_index_count(k, d):
    got = [a.components for a in _gaussian_table(d, k).indices()]
    assert got == _table_order(k, d)
    assert len(got) == math.comb(k + d, d)
    degrees = list(map(sum, got))
    assert degrees == sorted(degrees)


def test_multi_index_validation():
    with pytest.raises(DomainError):
        MultiIndex((-1, 2))
    # an integer is a one-component index
    assert MultiIndex.of(3).components == (3,)
    assert MultiIndex.of(np.int64(3)).components == (3,)
    assert MultiIndex.of((1, 2)).degree == 3
    assert MultiIndex((np.int64(2), np.uint8(1))).components == (2, 1)


@pytest.mark.parametrize("alpha", [(2.7,), (-0.5,), ("3",), (True,), (2.0,)])
@pytest.mark.parametrize("call", [
    lambda a: MultiIndex(a),
    lambda a: moment(Gaussian(1.0, 1.0), a),
    lambda a: abs_moment(Gaussian(1.0, 1.0), a),
    lambda a: build_moment_table(Gaussian(1.0, 1.0), 4).moment(a),
    lambda a: kernel_derivative(a, 0.5, 1.0),
], ids=["MultiIndex", "moment", "abs_moment", "MomentTable.moment", "kernel_derivative"])
def test_multi_index_rejects_non_integer_components(call, alpha):
    # none of these is truncated to an integer order
    with pytest.raises(DomainError):
        call(alpha)


@pytest.mark.parametrize("call", [
    lambda a: moment(Gaussian(1.0, 1.0), a),
    lambda a: build_moment_table(Gaussian(1.0, 1.0), 4).moment(a),
    lambda a: kernel_derivative(a, 0.3, 1.0),
], ids=["moment", "MomentTable.moment", "kernel_derivative"])
def test_integer_order_is_a_one_component_index(call):
    # a numpy integer is an order like a Python one; a bare float or None
    # is neither an integer nor a sequence of them
    assert call(np.int64(2)) == call(2) == call((2,))
    for bad in (2.0, None, True):
        with pytest.raises(DomainError):
            call(bad)


# --- Gaussian moments ----------------------------------------------------

@pytest.mark.parametrize(
    "alpha,expected",
    [
        ((0,), 2.0 * SQRT_PI),        # 3.5449077018110322
        ((2,), 4.0 * SQRT_PI),        # 7.0898154036220644
        ((4,), 24.0 * SQRT_PI),       # 42.538892421732385
        ((6,), 240.0 * SQRT_PI),
    ],
)
def test_gaussian_moment_closed_form(alpha, expected):
    got = moment(Gaussian(1.0, 1.0, len(alpha)), alpha).to_float()
    assert got == pytest.approx(expected, rel=1e-13)


def test_gaussian_moment_frozen():
    assert moment(Gaussian(1.0, 1.0), (2,)).to_float() == pytest.approx(
        7.0898154036220644, rel=1e-13
    )
    assert moment(Gaussian(1.0, 1.0), (4,)).to_float() == pytest.approx(
        42.538892421732385, rel=1e-13
    )
    assert moment(Gaussian(1.0, 1.0, 2), (0, 0)).to_float() == pytest.approx(
        12.566370614359172, rel=1e-13  # 4 pi
    )


@pytest.mark.parametrize("alpha", [(1,), (3,), (1, 2), (0, 5)])
def test_gaussian_moment_odd_is_exact_zero(alpha):
    assert moment(Gaussian(1.0, 1.0, len(alpha)), alpha).sign == 0


@pytest.mark.parametrize("n", range(0, 21, 2))
def test_gaussian_moment_vs_quadrature(n):
    want, err = quad(lambda x: x**n * math.exp(-x * x / 4.0), -np.inf, np.inf)
    got = moment(Gaussian(1.0, 1.0), (n,)).to_float()
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("w", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("n", [0, 2, 4])
def test_gaussian_moment_width_scaling(w, n):
    # m_alpha scales like (4w)^{(|alpha|+d)/2}
    base = moment(Gaussian(1.0, 1.0), (n,))
    scaled = moment(Gaussian(1.0, w), (n,))
    assert scaled.logmag - base.logmag == pytest.approx(
        0.5 * (n + 1) * math.log(w), rel=1e-12
    )


def test_gaussian_abs_moment():
    # || x e^{-x^2/4} ||_1 = 4
    assert abs_moment(Gaussian(1.0, 1.0), (1,)).to_float() == pytest.approx(4.0, rel=1e-13)
    want, _ = quad(lambda x: abs(x) ** 3 * math.exp(-x * x / 4.0), -np.inf, np.inf)
    got = abs_moment(Gaussian(1.0, 1.0), (3,)).to_float()
    assert got == pytest.approx(want, rel=1e-9)


def test_gaussian_moment_domain():
    with pytest.raises(DomainError):
        moment(Gaussian(-1.0, 1.0), (2,))
    with pytest.raises(DomainError):
        moment(Gaussian(1.0, 0.0), (2,))


# --- radial data ----------------------------------------------------------

def test_radial_moment_exponential_profile():
    # dim 2, profile e^{-r}: m_(0,0) = 2 pi int_0^inf r e^{-r} dr = 2 pi
    got = moment(Radial(lambda r: math.exp(-r), 2), (0, 0)).to_float()
    assert got == pytest.approx(6.2831853071795862, rel=1e-10)
    assert moment(Radial(lambda r: math.exp(-r), 2), (1, 1)).sign == 0


@pytest.mark.parametrize(
    "alpha", [(0, 0), (2, 0), (0, 2), (2, 2), (4, 0), (4, 2), (6, 6), (12, 0)]
)
def test_radial_vs_tensor_gaussian_dim2(alpha):
    # the radial reduction must agree with the separable closed form
    via_radial = moment(Radial(lambda r: math.exp(-r * r / 4.0), 2), alpha).to_float()
    via_tensor = moment(Gaussian(1.0, 1.0, len(alpha)), alpha).to_float()
    assert via_radial == pytest.approx(via_tensor, rel=1e-9)


def _sign_changing_profile(r):
    return math.exp(-r * r / 4.0) * (1.0 - 0.3 * r)


def _sign_mixing(x):
    return math.exp(-((x - 0.7) ** 2)) * (1.0 - 0.8 * x)


@pytest.mark.parametrize("alpha", [(2, 4), (2, 2, 2)])
def test_radial_moment_vs_cartesian_quadrature(alpha):
    # x^alpha profile(|x|) integrated over Cartesian coordinates, without the
    # sphere identity that radial and Gaussian moments share; even alpha
    # makes the integrand even in every coordinate, so the orthant [0, 16]^d
    # (the profile is below e^-64 past 16) times 2^d is the whole integral
    f = _sign_changing_profile
    if len(alpha) == 2:
        a, b = alpha
        half, _ = dblquad(
            lambda y, x: x**a * y**b * f(math.hypot(x, y)),
            0.0, 16.0, 0.0, 16.0, epsabs=0.0, epsrel=1e-10,
        )
    else:
        a, b, c = alpha
        half, _ = tplquad(
            lambda z, y, x: x**a * y**b * z**c * f(math.sqrt(x * x + y * y + z * z)),
            0.0, 16.0, 0.0, 16.0, 0.0, 16.0, epsabs=0.0, epsrel=1e-10,
        )
    want = 2 ** len(alpha) * half
    assert want < 0.0  # the profile's negative tail dominates these moments
    got = moment(Radial(f, len(alpha)), alpha).to_float()
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("dim", [2, 3])
def test_radial_exponential_table_to_degree_60(dim):
    # r^{n+d-1} e^{-r} peaks near r = n past the first doubling shells; the
    # closed form is Gamma(n+d) 2 prod Gamma((a_i+1)/2) / Gamma((n+d)/2)
    table = build_moment_table(Radial(profile=lambda r: math.exp(-r), dim=dim), 60)
    for a, got in table.entries.items():
        if any(c % 2 for c in a.components):
            assert got.sign == 0
            continue
        n = a.degree
        log_want = (
            math.lgamma(n + dim) + math.log(2.0)
            + math.fsum(math.lgamma((c + 1) / 2.0) for c in a.components)
            - math.lgamma((n + dim) / 2.0)
        )
        assert got.sign == 1
        assert math.exp(got.logmag - log_want) == pytest.approx(1.0, rel=1e-12), a.components


@pytest.mark.parametrize(
    "u0,kmax",
    [
        (Radial(profile=_sign_changing_profile, dim=2), 8),
        (Generic1D(func=lambda x: 1.0 if -1.0 <= x <= 0.5 else 0.0, breakpoints=(-1.0, 0.5)), 9),
    ],
    ids=["radial", "generic1d"],
)
def test_table_equals_moment_per_index(u0, kmax):
    # one quadrature per degree in the table, one per index here: same bits
    table = build_moment_table(u0, kmax)
    for a, got in table.entries.items():
        want = moment(u0, a)
        assert (got.sign, got.logmag) == (want.sign, want.logmag), a.components
    with pytest.raises(DomainError):
        moment(u0, (2,) * (u0.dim + 1))


# --- generic 1d data and dispatch ----------------------------------------

def test_indicator_moments():
    ind = Generic1D(
        func=lambda x: 1.0 if abs(x) <= 1.0 else 0.0, breakpoints=(-1.0, 1.0)
    )
    table = build_moment_table(ind, 4)
    assert table.moment((0,)).to_float() == pytest.approx(2.0, rel=1e-10)
    assert abs(table.moment((1,)).to_float()) < 1e-12
    assert table.moment((2,)).to_float() == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_odd_moments_of_an_even_indicator_vanish_exactly():
    # the quadrature's nodes are symmetric, so x^n f(x) cancels exactly at
    # odd n only when the power is odd-symmetric bit for bit: the C
    # library's pow is; numpy's vector power is not for a few percent of
    # arguments, and with it 5 of these 21 rows came out nonzero
    ind = Generic1D(func=lambda x: 1.0 if abs(x) <= 1.0 else 0.0, breakpoints=(-1, 1))
    table = build_moment_table(ind, 41)
    odd = table.signs[table.degrees % 2 == 1]
    assert len(odd) == 21
    assert odd.tolist() == [0] * 21


def test_heavy_tail_raises_integrability():
    slow = Generic1D(func=lambda x: 1.0 / (1.0 + x * x))
    with pytest.raises(IntegrabilityError) as info:
        build_moment_table(slow, 2)
    assert info.value.alpha is not None


@pytest.mark.parametrize("top", [3, 30])
@pytest.mark.parametrize("absolute", [False, True], ids=["signed", "absolute"])
def test_batch_names_the_lowest_failed_degree(absolute, top):
    # x^2 / (1 + x^4) exhausts the doublings; |x|^3 / (1 + x^4) stops
    # decaying at shell step 3, sooner, and past degree 24 the powers
    # overflow before the doublings run out: still degree 2 is named, as
    # when the degrees ran one by one
    u0 = Generic1D(func=lambda x: 1.0 / (1.0 + x**4))
    with pytest.raises(IntegrabilityError) as info:
        moments.moment_factors(u0, range(top + 1), absolute)
    assert info.value.alpha == MultiIndex((2,))
    assert str(info.value) == "tail still above the cutoff after exhausting interval doublings"
    with pytest.raises(IntegrabilityError) as alone:
        moments.moment_factors(u0, [3], True)
    assert alone.value.alpha == MultiIndex((3,))
    assert "stopped decaying" in str(alone.value)


BATCHED_DATA = {
    "radial-exp-d2": (Radial(profile=lambda r: math.exp(-r), dim=2), 60),
    "radial-exp-d3": (Radial(profile=lambda r: math.exp(-r), dim=3), 60),
    "indicator": (
        Generic1D(func=lambda x: 1.0 if -1.0 <= x <= 0.5 else 0.0, breakpoints=(-1.0, 0.5)), 20
    ),
    "radial-sign-changing": (Radial(profile=_sign_changing_profile, dim=2), 20),
    "generic-sign-mixing": (Generic1D(func=_sign_mixing), 20),
}


@pytest.mark.parametrize("absolute", [False, True], ids=["signed", "absolute"])
@pytest.mark.parametrize("name", sorted(BATCHED_DATA))
def test_batched_degree_equals_its_one_row_batch(name, absolute):
    u0, k = BATCHED_DATA[name]
    shared, _ = moments.moment_factors(u0, range(k + 1), absolute)
    for n in range(k + 1):
        alone, _ = moments.moment_factors(u0, [n], absolute)
        assert (shared[n].sign, shared[n].logmag) == (alone[n].sign, alone[n].logmag), n


def test_abs_moment_dispatch():
    g = Gaussian(amplitude=1.0, width=1.0, dim=1)
    assert abs_moment(g, (1,)).to_float() == pytest.approx(4.0, rel=1e-12)
    r = Radial(profile=lambda s: math.exp(-s), dim=2)
    direct = abs_moment(r, (1, 0)).to_float()
    # || x1 e^{-r} ||_1 over the plane = int r^2 e^{-r} dr * int |cos| = 2 * 2 * 2
    assert direct == pytest.approx(8.0, rel=1e-9)


def test_datum_validation():
    with pytest.raises(DomainError):
        Gaussian(amplitude=0.0, width=1.0, dim=1)
    with pytest.raises(DomainError):
        Gaussian(amplitude=1.0, width=-2.0, dim=1)
    with pytest.raises(DomainError):
        Radial(profile=lambda r: r, dim=1)  # radial reduction needs dim >= 2


@pytest.mark.parametrize("dim", [0, 2, 3])
def test_generic1d_is_one_dimensional(dim):
    # a dim-2 table of 1-D moments would give (1, 1), (0, 2) and (2, 0)
    # all the moment m_2
    with pytest.raises(DomainError, match="one-dimensional"):
        Generic1D(func=lambda x: math.exp(-x * x), dim=dim)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Gaussian(1.0, 1.0, dim=2.0),
        lambda: Gaussian(1.0, 1.0, dim=True),
        lambda: Gaussian(1.0, 1.0, dim=1.5),
        lambda: Radial(profile=lambda r: math.exp(-r), dim=2.0),
        lambda: Radial(profile=lambda r: math.exp(-r), dim=True),
        lambda: Generic1D(func=lambda x: math.exp(-x * x), dim=True),
        lambda: Generic1D(func=lambda x: math.exp(-x * x), dim=1.0),
        lambda: build_moment_table(Gaussian(1.0, 1.0, 1), 2.0),
        lambda: build_moment_table(Gaussian(1.0, 1.0, 1), True),
    ],
    ids=[
        "gaussian-dim-2.0", "gaussian-dim-True", "gaussian-dim-1.5",
        "radial-dim-2.0", "radial-dim-True", "generic-dim-True", "generic-dim-1.0",
        "kmax-2.0", "kmax-True",
    ],
)
def test_integer_sizes_reject_non_integers(make):
    with pytest.raises(DomainError, match="must be an integer"):
        make()


def test_integer_sizes_accept_numpy_integers():
    table = build_moment_table(Gaussian(1.0, 1.0, dim=np.int64(2)), np.int32(3))
    assert (table.dim, table.k_max) == (2, 3)
    assert Radial(profile=lambda r: math.exp(-r), dim=np.int16(3)).dim == 3
    assert Generic1D(func=lambda x: math.exp(-x * x), dim=np.int64(1)).dim == 1


# --- tables ---------------------------------------------------------------

def test_build_table_gaussian_values():
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=1), 4)
    vals = [table.moment((n,)).to_float() for n in range(5)]
    assert vals[0] == pytest.approx(2.0 * SQRT_PI, rel=1e-13)
    assert vals[1] == 0.0
    assert vals[2] == pytest.approx(4.0 * SQRT_PI, rel=1e-13)
    assert vals[3] == 0.0
    assert vals[4] == pytest.approx(24.0 * SQRT_PI, rel=1e-13)
    assert table.source is not None


@pytest.mark.parametrize("dim,kmax", [(1, 200), (2, 121), (3, 40)])
def test_gaussian_table_equals_per_index_route(dim, kmax):
    # the lookup-built table against moment called once per index
    u0 = Gaussian(amplitude=1.3, width=0.85, dim=dim)
    table = build_moment_table(u0, kmax)
    want = {MultiIndex(a): moment(u0, a) for a in _table_order(kmax, dim)}
    assert list(table.entries) == list(want)  # same keys, same order
    for (a, got), m in zip(table.entries.items(), want.values()):
        assert (got.sign, got.logmag) == (m.sign, m.logmag), a.components  # bit for bit
        assert a.degree == sum(a.components)


def test_gaussian_table_entries_still_validated():
    # the builder skips per-index checks; the table checks the whole set once
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=2), 6)
    keys = list(table.entries)

    def remake(order, extra=None):
        entries = {a: table.entries[a] for a in order}
        if extra is not None:
            entries[extra] = table.entries[keys[0]]
        remade = copy.copy(table)
        remade.entries = entries
        return remade

    remake(keys)
    with pytest.raises(DomainError):
        remake(keys[:9] + keys[10:])  # missing
    with pytest.raises(DomainError):
        remake(keys, extra=MultiIndex((7, 0)))  # extra degree
    with pytest.raises(DomainError):
        remake(keys[:4] + [keys[5], keys[4]] + keys[6:])  # out of order


def test_table_out_of_range():
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=1), 2)
    with pytest.raises(DomainError):
        table.moment((3,))


def test_table_json_roundtrip():
    table = build_moment_table(Gaussian(amplitude=2.0, width=0.5, dim=2), 3)
    text = table.to_json()
    raw = json.loads(text)
    assert list(raw) == ["dim", "kmax", "signs", "logmag"]
    assert raw["dim"] == 2 and raw["kmax"] == 3
    assert len(raw["signs"]) == len(raw["logmag"]) == math.comb(3 + 2, 2)
    assert all(type(s) is int for s in raw["signs"])
    assert all(type(v) is float for v in raw["logmag"])
    # zero-sign rows carry logmag 0 by convention
    for sign, logmag in zip(raw["signs"], raw["logmag"]):
        if sign == 0:
            assert logmag == 0
    back = MomentTable.from_json(text)
    assert back.dim == table.dim and back.k_max == table.k_max
    for a in table.indices():
        assert back.entries[a].sign == table.entries[a].sign
        if table.entries[a].sign != 0:
            assert back.entries[a].logmag == pytest.approx(
                table.entries[a].logmag, abs=1e-15
            )
    assert back.source is None  # provenance does not survive the wire


# --- row sums rounded as fsum rounds them ----------------------------------

def _fsum_rows(lookup, components) -> np.ndarray:
    """The reference: math.fsum of each row's lookups, 50,000 rows at a time."""
    values = np.asarray(lookup, np.float64)
    return np.concatenate([
        np.array([math.fsum(row) for row in values[components[i : i + 50_000]].tolist()])
        for i in range(0, len(components), 50_000)
    ])


def _assert_bits_equal(got, want):
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


@pytest.mark.parametrize(
    "row",
    [
        [1.0, 2.0**-60, 2.0**-120],  # the rounding errors do not sum exactly
        [1.0, 2.0**-53, 2.0**-106],  # and their rounded sum would round the row down
        [2.0**-53, 1.0, 2.0**-106, -(2.0**-107)],
        [-0.0, -0.0, -0.0],
        [0.0, -0.0, -0.0, -0.0],
        [1.0, -1.0, -0.0],
        [math.inf, 1.0, 2.0],
        [1.0, -math.inf, 2.0],
        [math.nan, 1.0, 2.0],
        [5e-324, 5e-324, -1e-323, 0.5],
        [1e308, 5e307, -1e308],
    ],
)
def test_component_sums_round_each_row_as_fsum(row):
    d = len(row)
    components = np.array([range(d), range(d - 1, -1, -1), [1] * d, [d - 1, *range(d - 1)]])
    _assert_bits_equal(moments.component_sums(row, components), _fsum_rows(row, components))


@pytest.mark.parametrize(
    "row, error",
    [([math.inf, -math.inf, 1.0], ValueError), ([1e308, 1e308, -1e308], OverflowError)],
)
def test_component_sums_raise_as_fsum_raises(row, error):
    components = np.array([[2, 2, 2], [0, 1, 2]])
    with pytest.raises(error):
        _fsum_rows(row, components)
    with pytest.raises(error):
        moments.component_sums(row, components)


@pytest.mark.parametrize("dim", [3, 4, 32])
def test_component_sums_equal_fsum_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    lookup = rng.normal(size=60) * 10.0 ** rng.integers(-20, 20, 60)
    lookup[:4] = [0.0, -0.0, 1.0, -1.0]
    components = rng.integers(0, len(lookup), (4000, dim))
    _assert_bits_equal(
        moments.component_sums(lookup, components), _fsum_rows(lookup, components)
    )


def test_component_sums_of_the_d3_k200_index_equal_fsum():
    # the lookups of build_moment_table: ln c! over the whole index, and the
    # Gaussian's component logs over its live (all-even) rows
    components = moments._canon(200, 3).components
    ln_factorials = [log_factorial(c) for c in range(201)]
    _assert_bits_equal(
        moments.component_sums(ln_factorials, components), _fsum_rows(ln_factorials, components)
    )
    _, logs = moments.moment_factors(Gaussian(1.0, 1.0, 3), range(201), absolute=False)
    lookup = [0.0 if v is None else v for v in logs]
    live = components[(components % 2 == 0).all(axis=1)]
    _assert_bits_equal(moments.component_sums(lookup, live), _fsum_rows(lookup, live))


# --- heat evolution of moments -------------------------------------------

def test_moment_evolution_frozen():
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=1), 4)
    at1 = moments_at_time(table, 1.0)
    at2 = moments_at_time(table, 2.0)
    # m_2(t) = m_2 + 2 m_0 t
    assert at1.moment((2,)).to_float() == pytest.approx(14.179630807244129, rel=1e-12)
    assert at2.moment((2,)).to_float() == pytest.approx(21.269446210866192, rel=1e-12)
    # m_4(t) = m_4 + 12 m_2 t + 12 m_0 t^2
    assert at1.moment((4,)).to_float() == pytest.approx(96.0 * SQRT_PI, rel=1e-12)
    # mass is conserved
    assert at1.moment((0,)).to_float() == pytest.approx(2.0 * SQRT_PI, rel=1e-13)


def test_moment_evolution_matches_quadrature():
    # independent check: integrate x^2 u(x, t) with the exact solution
    t = 1.0
    spread = t + 1.0
    want, _ = quad(
        lambda x: x * x * (1.0 / spread) ** 0.5 * math.exp(-x * x / (4.0 * spread)),
        -np.inf,
        np.inf,
    )
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=1), 2)
    got = moments_at_time(table, t).moment((2,)).to_float()
    assert got == pytest.approx(want, rel=1e-9)


def test_moment_evolution_semigroup():
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=2), 6)
    one_then_one = moments_at_time(moments_at_time(table, 1.0), 1.0)
    two = moments_at_time(table, 2.0)
    for a in table.indices():
        l, r = one_then_one.entries[a], two.entries[a]
        assert l.sign == r.sign
        if l.sign != 0:
            assert l.logmag == pytest.approx(r.logmag, abs=1e-12)


def test_moment_evolution_at_zero_is_identity():
    for table in (
        build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=1), 6),
        build_moment_table(Generic1D(func=_sign_mixing), 7),
    ):
        back = moments_at_time(table, 0.0)
        assert back.signs.tobytes() == table.signs.tobytes()
        assert back.logmag.tobytes() == table.logmag.tobytes()


def reference_moments_at_time(table, t):
    """The SignedLog polynomial recursion moments_at_time used before the
    closed form, kept as the reference: d/dt m_alpha = sum_i alpha_i
    (alpha_i - 1) m_{alpha - 2 e_i} integrated degree by degree into a
    polynomial in t per multi-index, then summed by exponent alignment."""
    polys = {}
    for a, value in table.entries.items():
        comps = a.components
        poly = [value]
        sources = [
            (float(c * (c - 1)), polys[comps[:i] + (c - 2,) + comps[i + 1:]])
            for i, c in enumerate(comps)
            if c >= 2
        ]
        if sources:
            for m in range(max(len(p) for _, p in sources)):
                terms = [SignedLog.from_float(w) * p[m] for w, p in sources if m < len(p)]
                poly.append(aligned_sum(terms) * SignedLog.from_float(1.0 / (m + 1.0)))
        polys[comps] = poly
    return [
        aligned_sum(c * SignedLog.from_log(m * math.log(t)) for m, c in enumerate(poly))
        for poly in polys.values()
    ]


EVOLVED_DATA = {
    "gaussian": lambda dim: Gaussian(amplitude=1.3, width=0.8, dim=dim),
    "radial": lambda dim: Radial(profile=_sign_changing_profile, dim=dim),
    "generic": lambda dim: Generic1D(func=_sign_mixing),
}


@functools.lru_cache(maxsize=None)
def _evolution_table(kind, dim, k):
    return build_moment_table(EVOLVED_DATA[kind](dim), k)


#: bound on the logmag shift against the reference, in units of
#: kappa * u * max(1, |L|): u = 2^-52, L the log of the evolved sum of the
#: terms' magnitudes (the evolution of the table with every sign made +1) and
#: kappa = exp(L - logmag) the sum's condition number.  The worst measured
#: over 400 random draws of the cases below, and at d2 k40, is 2.2.
EVOLUTION_SHIFT_ULPS = 16.0


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(
        [("gaussian", 1), ("gaussian", 2), ("gaussian", 3), ("radial", 2), ("radial", 3),
         ("generic", 1)]
    ),
    k=st.integers(0, 12),
    t=st.floats(0.0, 5.0, exclude_min=True),
)
def test_moment_evolution_matches_signedlog_recursion(case, k, t):
    kind, dim = case
    table = _evolution_table(kind, dim, k)
    got = moments_at_time(table, t)
    absolute = moments_at_time(
        MomentTable.from_arrays(np.abs(table.signs), table.logmag, dim=dim, k_max=k), t
    )
    for row, want in enumerate(reference_moments_at_time(table, t)):
        sign, logmag = int(got.signs[row]), float(got.logmag[row])
        assert sign == want.sign, row  # exact zeros included
        if sign:
            total = float(absolute.logmag[row])
            kappa = math.exp(total - logmag)
            bound = EVOLUTION_SHIFT_ULPS * kappa * 2.0**-52 * max(1.0, abs(total))
            assert abs(logmag - want.logmag) <= bound, (row, logmag, want.logmag)


def test_moment_evolution_domain():
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=1), 2)
    with pytest.raises(DomainError):
        moments_at_time(table, -0.5)


# --- the table invariant ---------------------------------------------------

def _gaussian_table(dim, k):
    return build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=dim), k)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _gaussian_table(3, 6),
        lambda: build_moment_table(Radial(lambda r: math.exp(-r * r), 2), 6),
        lambda: build_moment_table(Generic1D(lambda x: math.exp(-x * x)), 6),
        lambda: moments_at_time(_gaussian_table(2, 6), 0.5),
        lambda: eigen_coeffs(Gaussian(amplitude=1.0, width=1.0, dim=2), 0.5, 6),
        lambda: MomentTable.from_json(_gaussian_table(2, 6).to_json()),
    ],
    ids=["gaussian", "radial", "generic1d", "evolved", "eigen", "from_json"],
)
def test_tables_list_canonical_indices(make):
    # consumers walk the stored entries, so every producer must store them
    # in the enumeration order
    table = make()
    assert [a.components for a in table.indices()] == _table_order(table.k_max, table.dim)


@pytest.mark.parametrize(
    "make",
    [
        *(functools.partial(_gaussian_table, d, 9) for d in (1, 2, 3)),
        *(
            functools.partial(build_moment_table, Radial(lambda r: math.exp(-r), d), 8)
            for d in (2, 3)
        ),
        lambda: build_moment_table(Generic1D(func=_sign_mixing), 12),
        *(lambda d=d: moments_at_time(_gaussian_table(d, 8), 0.3) for d in (1, 2, 3)),
        *(
            lambda d=d: eigen_coeffs(Gaussian(amplitude=1.3, width=0.8, dim=d), 0.4, 8)
            for d in (1, 2, 3)
        ),
    ],
    ids=[
        "gaussian-d1", "gaussian-d2", "gaussian-d3", "radial-d2", "radial-d3", "generic1d",
        "evolved-d1", "evolved-d2", "evolved-d3", "eigen-d1", "eigen-d2", "eigen-d3",
    ],
)
def test_json_roundtrip_is_bit_for_bit(make):
    table = make()
    back = type(table).from_json(table.to_json())
    assert (back.dim, back.k_max) == (table.dim, table.k_max)
    assert getattr(back, "t0_coeff", None) == getattr(table, "t0_coeff", None)
    assert back.signs.tolist() == table.signs.tolist()
    assert back.logmag.view(np.int64).tolist() == table.logmag.view(np.int64).tolist()
    assert table.signs.any()


def _drop(raw):
    del raw["signs"][3], raw["logmag"][3]


def _extra_degree(raw):
    raw["signs"].append(1)
    raw["logmag"].append(0.5)


def _repeat(raw):
    raw["signs"].append(raw["signs"][-1])
    raw["logmag"].append(raw["logmag"][-1])


def _unequal(raw):
    del raw["logmag"][-1]


def _set_row(column, value, row=0):
    def mutate(raw):
        raw[column][row] = value

    return mutate


def _set_zero_row(column, value):
    """Set ``column`` at the first row whose sign is 0."""
    def mutate(raw):
        raw[column][raw["signs"].index(0)] = value

    return mutate


def _set_header(key, value):
    def mutate(raw):
        raw[key] = value

    return mutate


def _drop_key(key):
    def mutate(raw):
        del raw[key]

    return mutate


def _row_format(raw):
    # the same table as one object per multi-index
    order = _table_order(raw["kmax"], raw["dim"])
    raw["entries"] = [
        {"alpha": list(a), "sign": s, "logmag": v}
        for a, s, v in zip(order, raw.pop("signs"), raw.pop("logmag"), strict=True)
    ]


MALFORMED = {
    "dropped-row": _drop,
    "extra-degree": _extra_degree,
    "repeated-row": _repeat,
    "columns-unequal": _unequal,
    "dim-disagrees": _set_header("dim", 3),
    "sign-2": _set_row("signs", 2),
    "sign-257": _set_row("signs", 257),  # 257 and 1 agree in int8
    "sign-past-int64": _set_row("signs", 2**64 + 1),  # 2**64 + 1 and 1 agree in int64
    "logmag-inf": _set_row("logmag", math.inf),
    "logmag-nan": _set_row("logmag", math.nan),
    "logmag-past-double": _set_row("logmag", 10**400),
    # a zero moment writes logmag 0.0; JSON's NaN and Infinity there are refused too
    "logmag-nan-zero-row": _set_zero_row("logmag", math.nan),
    "logmag-inf-zero-row": _set_zero_row("logmag", math.inf),
    # bools and floats compare equal to the integers they replace here: row 0
    # has sign 1
    "sign-true": _set_row("signs", True),
    "sign-float": _set_row("signs", 1.0),
    "sign-string": _set_row("signs", "1"),
    "logmag-string": _set_row("logmag", "1.5"),
    "signs-not-array": _set_header("signs", {"0": 1}),
    "signs-missing": _drop_key("signs"),
    "logmag-missing": _drop_key("logmag"),
    "kmax-missing": _drop_key("kmax"),
    "dim-string": _set_header("dim", "2"),
    "row-format": _row_format,
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize(
    "table",
    [
        _gaussian_table(2, 4),
        eigen_coeffs(Gaussian(amplitude=1.0, width=1.0, dim=2), 0.25, 4),
    ],
    ids=["moments", "eigen"],
)
def test_loader_rejects_malformed_table(table, case):
    raw = json.loads(table.to_json())
    MALFORMED[case](raw)
    with pytest.raises(DomainError) as error:
        type(table).from_json(json.dumps(raw))
    if case == "row-format":
        assert "'signs', 'logmag'" in str(error.value)
    # the same columns through from_arrays, but for "sign-true": numpy reads
    # a true among ints as 1, which gives the intact table's array
    if case != "sign-true":
        header = {attr: raw.get(key) for key, attr, _ in type(table).HEADER}
        with pytest.raises(DomainError):
            type(table).from_arrays(raw.get("signs"), raw.get("logmag"), **header)


@pytest.mark.parametrize("cls", [MomentTable, EigenCoeffs])
@pytest.mark.parametrize(
    "signs,logmag",
    [([True], [0.0]), ([1.0], [0.0]), ([1], [True]), ([1], ["0.5"])],
    ids=["sign-true", "sign-float", "logmag-true", "logmag-string"],
)
def test_from_arrays_refuses_the_column_types_from_json_refuses(cls, signs, logmag):
    with pytest.raises(DomainError, match="signs must be integers and logmag real numbers"):
        cls.from_arrays(signs, logmag, dim=1, k_max=0)
    header = '"t0_coeff":0.0,' if cls is EigenCoeffs else ""
    text = f'{{"dim":1,"kmax":0,{header}"signs":{json.dumps(signs)},"logmag":{json.dumps(logmag)}}}'
    with pytest.raises(DomainError):
        cls.from_json(text)
    table = cls.from_arrays([1], [0.0], dim=1, k_max=0)
    (alpha,) = table.entries
    with pytest.raises(DomainError, match="signs must be integers and logmag real numbers"):
        table.entries = {alpha: SignedLog(signs[0], logmag[0])}


def test_from_arrays_takes_numpy_integer_and_float_columns():
    for signs, logmag in [
        (np.array([1], np.int64), np.array([0.5], np.float32)),
        (np.array([1], np.uint8), np.array([2], np.int16)),
    ]:
        table = MomentTable.from_arrays(signs, logmag, dim=1, k_max=0)
        assert (table.signs.tolist(), table.logmag.tolist()) == ([1], [float(logmag[0])])


def test_loader_rejects_text_that_is_not_a_table():
    for text in (
        "{",
        "[]",
        '{"dim": 1, "kmax": 0}',
        '{"dim": 1, "kmax": 0, "signs": [1], "logmag": 7}',
        '{"dim": 100000000, "kmax": 100000000, "signs": [], "logmag": []}',
    ):
        with pytest.raises(DomainError):
            MomentTable.from_json(text)


def test_loader_rejects_hostile_header_before_allocating():
    # a header claiming comb(3003, 3) = 4.5e9 rows must fail on its row count,
    # before anything of that size (the canonical index) is built
    text = '{"dim":3,"kmax":3000,"signs":[1],"logmag":[0.5]}'
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            MomentTable.from_json(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("cls", [MomentTable, EigenCoeffs])
@pytest.mark.parametrize(
    "dim,kmax,rows",
    # a full row count each: comb(dim, 0) = 1, comb(10001, 1) = 10001, and the
    # first dim past the cap
    [(100_000_000, 0, 1), (10_000, 1, 10_001), (moments.MAX_DIM + 1, 0, 1)],
)
def test_loader_rejects_a_huge_dim_before_building_the_index(cls, dim, kmax, rows):
    # the columns bound the rows but not the dim components of each row in
    # the canonical index, so the dim is capped before that index is built
    header = '"t0_coeff":0.25,' if cls is EigenCoeffs else ""
    ones = ",".join(["1"] * rows)
    text = f'{{"dim":{dim},"kmax":{kmax},{header}"signs":[{ones}],"logmag":[{ones}]}}'
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="table dim must be in"):
            cls.from_json(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "dim,kmax,rows", [(3, 3000, 1), (100_000_000, 0, 1), (10_000, 1, 10_001)]
)
def test_from_arrays_and_entries_refuse_a_hostile_header_before_allocating(dim, kmax, rows):
    # the header is decided, then the row count, before any index is built
    ones, assigned = [1] * rows, copy.copy(_gaussian_table(1, 0))
    entries = dict(assigned.entries)
    assigned.dim, assigned.k_max = dim, kmax
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            MomentTable.from_arrays(ones, ones, dim=dim, k_max=kmax)
        with pytest.raises(DomainError):
            assigned.entries = entries
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_table_of_the_largest_dim_round_trips():
    table = build_moment_table(Gaussian(amplitude=1.0, width=0.5, dim=moments.MAX_DIM), 2)
    back = MomentTable.from_json(table.to_json())
    assert np.array_equal(back.signs, table.signs)
    assert np.array_equal(back.logmag.view(np.int64), table.logmag.view(np.int64))


@pytest.mark.parametrize("dim,kmax", [(1, 9), (2, 7), (3, 6), (4, 5)])
def test_moment_lookup_finds_every_row(dim, kmax):
    # moment() finds a row by its rank, without a dict
    table = build_moment_table(Generic1D(func=_sign_mixing), kmax) if dim == 1 else (
        moments_at_time(_gaussian_table(dim, kmax), 0.3)
    )
    for a, m in table.entries.items():
        assert table.moment(a) == m
    for outside in [(kmax + 1,) + (0,) * (dim - 1), (0,) * (dim + 1)]:
        with pytest.raises(DomainError):
            table.moment(outside)


@settings(deadline=None)
@given(
    dim=st.integers(1, 3),
    kmax=st.integers(0, 8),
    eigen=st.booleans(),
    data=st.data(),
)
def test_loader_rejects_any_dropped_or_swapped_row(dim, kmax, eigen, data):
    # with no alpha column a swapped pair of rows is just another table, so
    # only a dropped row is malformed: from either column or from both
    u0 = Gaussian(amplitude=1.3, width=0.8, dim=dim)
    table = eigen_coeffs(u0, 0.25, kmax) if eigen else build_moment_table(u0, kmax)
    load = type(table).from_json
    text = table.to_json()
    back = load(text)
    assert back.to_json() == text
    assert back.entries == table.entries
    i = data.draw(st.integers(0, len(back.entries) - 1), label="row")
    columns = data.draw(
        st.sampled_from([("signs",), ("logmag",), ("signs", "logmag")]), label="columns"
    )
    dropped = json.loads(text)
    for column in columns:
        del dropped[column][i]
    with pytest.raises(DomainError):
        load(json.dumps(dropped))

"""The columnar point kernel against the per-term SignedLog loop it replaced.

``eval_uk`` and ``eval_expansion`` gather every term of a truncation from
the moment table's arrays.  The loops below are the per-term
evaluators they replaced, kept verbatim with their own Hermite recurrence
and reduction, and the kernel must reproduce them bit for bit: the value,
every (degree, partial) pair, and the sign of zero; the list form
``aligned_sum`` must reproduce the reference reduction the same way.  The
array tests pin that a table's arrays are read-only and change only when a
new dict is assigned to ``entries``, and the last tests pin that non-finite
or non-numeric input stops at the point and time boundaries.  A k sweep
(``eval_uk_sweep``) must give every order the bits of its one-order call.
"""

import copy
import functools
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatseries import (
    ApproxConfig,
    DomainError,
    Gaussian,
    Generic1D,
    MomentTable,
    SignedLog,
    SimilarityPoint,
    aligned_sum,
    build_moment_table,
    convolve_oracle,
    eigen_coeffs,
    error_bound_F_sweep,
    eval_expansion,
    eval_uk,
    eval_uk_radial_origin,
    eval_uk_sweep,
    exact_gaussian_solution,
    heat_kernel,
    kernel_derivative,
    moments_at_time,
    validity_integral,
)
from heatseries.signedlog import ZERO
from heatseries.specfun import log_factorial

_LOG_PI = math.log(math.pi)
KMAX = {1: 120, 2: 120, 3: 40}


# --- the per-term reference ----------------------------------------------

def reference_hermite_sequence(n_max, x):
    shift = -x * x
    prev, cur = 0.0, 1.0

    def scaled(mantissa, shift):
        if mantissa == 0.0:
            return ZERO
        return SignedLog(1 if mantissa > 0.0 else -1, shift + math.log(abs(mantissa)))

    out = [scaled(cur, shift)]
    for m in range(n_max):
        prev, cur = cur, 2.0 * x * cur - 2.0 * m * prev
        big = max(abs(prev), abs(cur))
        if big > 1e250:
            exp2 = math.frexp(big)[1]
            prev = math.ldexp(prev, -exp2)
            cur = math.ldexp(cur, -exp2)
            shift += exp2 * math.log(2.0)
        out.append(scaled(cur, shift))
    return out


def reference_aligned_sum(terms):
    live = [t for t in terms if t.sign != 0]
    if not live:
        return ZERO
    peak = max(t.logmag for t in live)
    if peak == -math.inf:
        return ZERO
    total = math.fsum(t.sign * math.exp(t.logmag - peak) for t in live)
    if total == 0.0:
        return ZERO
    return SignedLog(1 if total > 0.0 else -1, peak + math.log(abs(total)))


def reference_eval_uk(table, cfg, x):
    scale = 2.0 * math.sqrt(cfg.t)
    weighted = [reference_hermite_sequence(cfg.k, float(xi) / scale) for xi in x]
    ln_factorial = [log_factorial(c) for c in range(cfg.k + 1)]
    all_terms, by_degree = [], {}
    for a, m in table.entries.items():
        if a.degree > cfg.k:
            break
        if m.sign == 0:
            continue
        term_scale = -0.5 * cfg.dim * _LOG_PI - 0.5 * (a.degree + cfg.dim) * math.log(4.0 * cfg.t)
        term = m * SignedLog.from_log(
            term_scale - math.fsum(map(ln_factorial.__getitem__, a.components))
        )
        for axis, ai in enumerate(a.components):
            term = term * weighted[axis][ai]
        if term.sign == 0:
            continue
        all_terms.append(term)
        by_degree.setdefault(a.degree, []).append(term)
    partials = [
        (j, reference_aligned_sum(terms).to_float()) for j, terms in sorted(by_degree.items())
    ]
    return reference_aligned_sum(all_terms).to_float(), partials


def reference_eval_expansion(coeffs, p, k):
    weighted = [reference_hermite_sequence(k, zi) for zi in p.z]
    terms = []
    for a, c in coeffs.entries.items():
        if a.degree > k:
            break
        if c.sign == 0:
            continue
        term = c * SignedLog.from_log(-0.5 * a.degree * p.tau)
        for axis, ai in enumerate(a.components):
            term = term * weighted[axis][ai]
        terms.append(term)
    return reference_aligned_sum(terms).to_float()


def bits(x: float) -> bytes:
    """The IEEE bytes of x: equal bits, sign of zero included."""
    return struct.pack("<d", x)


# --- tables ---------------------------------------------------------------

def _shuffled_signs(table, seed):
    """The table with pseudo-random signs (zeros included) and shifted logs,
    so the reduction sees cancellation as well as Gaussian data's one sign."""
    rng = random.Random(seed)

    def redraw(m):
        sign = rng.choice((-1, 1, 1, 0)) if m.sign else 0
        return SignedLog(sign, m.logmag + rng.uniform(-3.0, 3.0)) if sign else ZERO

    values = [redraw(m) for m in table.entries.values()]
    return type(table).from_arrays(
        [m.sign for m in values], [m.logmag for m in values], dim=table.dim, k_max=table.k_max
    )


@functools.lru_cache(maxsize=None)
def moment_table(dim, kind):
    if kind == "generic":
        h = 0.8
        u0 = Generic1D(func=lambda x: 1.5 if -h <= x <= h else 0.0, breakpoints=(-h, h))
        return build_moment_table(u0, 60)
    table = build_moment_table(Gaussian(1.3, 0.9, dim), KMAX[dim])
    return _shuffled_signs(table, dim) if kind == "signed" else table


@functools.lru_cache(maxsize=None)
def coefficient_table(dim, kind):
    if kind == "evolved":  # coefficients at t0_coeff > 0, from moments_at_time
        return eigen_coeffs(Gaussian(1.3, 0.9, dim), 0.45, 60 if dim == 2 else KMAX[dim])
    coeffs = eigen_coeffs(Gaussian(1.3, 0.9, dim), 0.0, KMAX[dim])
    return _shuffled_signs(coeffs, 10 + dim) if kind == "signed" else coeffs


CASES = [(1, "gauss"), (1, "signed"), (1, "generic"), (2, "gauss"), (2, "signed"),
         (3, "gauss"), (3, "signed")]
COEFF_CASES = [(1, "gauss"), (1, "signed"), (1, "evolved"), (2, "gauss"), (2, "signed"),
               (2, "evolved"), (3, "gauss"), (3, "signed")]

coordinate = st.one_of(
    st.just(0.0),  # H_odd(0) = 0: exact Hermite zeros
    st.just(-0.0),
    st.floats(-4.0, 4.0, allow_nan=False),
    st.floats(-60.0, 60.0, allow_nan=False),  # far out: tiny values, rescaled recurrence
)


@st.composite
def point_cases(draw):
    dim, kind = draw(st.sampled_from(CASES))
    table = moment_table(dim, kind)
    k = draw(st.integers(0, table.k_max))
    t = draw(st.floats(0.2, 3.0))
    x = tuple(draw(coordinate) for _ in range(dim))
    return table, ApproxConfig(dim=dim, k=k, t=t), x


@st.composite
def expansion_cases(draw):
    dim, kind = draw(st.sampled_from(COEFF_CASES))
    coeffs = coefficient_table(dim, kind)
    k = draw(st.integers(0, coeffs.k_max))
    z = tuple(draw(coordinate) / 4.0 for _ in range(dim))
    tau = draw(st.floats(math.log(0.2), math.log(3.0)))
    return coeffs, SimilarityPoint(z=z, tau=tau), k


# --- bit identity ----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.builds(
        SignedLog.from_log,
        st.one_of(st.floats(-800.0, 800.0), st.just(-math.inf)),
        st.sampled_from([-1, 0, 1]),
    ),
    max_size=30,
))
def test_aligned_sum_matches_reference_bit_for_bit(terms):
    got, want = aligned_sum(iter(terms)), reference_aligned_sum(terms)
    assert (got.sign, bits(got.logmag)) == (want.sign, bits(want.logmag))


@settings(max_examples=150, deadline=None)
@given(point_cases())
def test_eval_uk_matches_per_term_loop_bit_for_bit(case):
    table, cfg, x = case
    want_value, want_partials = reference_eval_uk(table, cfg, x)
    got = eval_uk(table, cfg, x)
    assert bits(got.value) == bits(want_value)
    assert [j for j, _ in got.terms] == [j for j, _ in want_partials]
    assert [bits(c) for _, c in got.terms] == [bits(c) for _, c in want_partials]


@settings(max_examples=120, deadline=None)
@given(expansion_cases())
def test_eval_expansion_matches_per_term_loop_bit_for_bit(case):
    coeffs, p, k = case
    assert bits(eval_expansion(coeffs, p, k)) == bits(reference_eval_expansion(coeffs, p, k))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_eval_uk_on_the_axes_matches_per_term_loop(dim):
    table = moment_table(dim, "gauss")
    for k in (0, 1, 7, KMAX[dim]):
        for t in (0.2, 1.0, 3.0):
            cfg = ApproxConfig(dim=dim, k=k, t=t)
            for x in ((0.0,) * dim, (1.7,) + (0.0,) * (dim - 1), (0.0,) * (dim - 1) + (-25.0,)):
                value, partials = reference_eval_uk(table, cfg, x)
                got = eval_uk(table, cfg, x)
                assert bits(got.value) == bits(value)
                assert [(j, bits(c)) for j, c in got.terms] == [(j, bits(c)) for j, c in partials]


# --- the k sweep ------------------------------------------------------------

def _sweep_matches_per_order(table, t, x, ks):
    got = eval_uk_sweep(table, t, x, ks)
    assert len(got) == len(ks)
    for k, result in zip(ks, got):
        want = eval_uk(table, ApproxConfig(dim=table.dim, k=k, t=t), x)
        assert bits(result.value) == bits(want.value), k
        assert [(j, bits(c)) for j, c in result.terms] == [(j, bits(c)) for j, c in want.terms], k


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("t", [0.5, 2.0], ids=["t<t0", "t>t0"])
@pytest.mark.parametrize("where", ["origin", "axis", "off-axis"])
def test_eval_uk_sweep_matches_each_order_bit_for_bit(dim, t, where):
    # the Gaussian tables have width t0 = 0.9: t = 0.5 is below it, where
    # the truncations diverge, and t = 2 above
    x = {
        "origin": (0.0,) * dim,
        "axis": (1.7,) + (0.0,) * (dim - 1),
        "off-axis": (0.8, -1.3, 2.9)[:dim],
    }[where]
    for kind in ("gauss", "signed"):
        table = moment_table(dim, kind)
        _sweep_matches_per_order(table, t, x, list(range(0, table.k_max + 1, 2)))
        _sweep_matches_per_order(table, t, x, list(range(table.k_max + 1)))


@settings(max_examples=60, deadline=None)
@given(point_cases(), st.data())
def test_eval_uk_sweep_of_any_orders_matches_each_order(case, data):
    table, cfg, x = case
    ks = sorted(data.draw(st.lists(st.integers(0, table.k_max), min_size=1, max_size=6)))
    _sweep_matches_per_order(table, cfg.t, x, ks)


@pytest.mark.parametrize("ks", [
    [], [4, 2], [-1, 2], [2, 5], [0, 2.0], [True], ["2"], 3, None,
], ids=["empty", "descending", "negative", "past-k_max", "float", "bool", "str", "int", "None"])
def test_eval_uk_sweep_rejects_bad_orders(ks):
    with pytest.raises(DomainError):
        eval_uk_sweep(_T1, 1.0, 0.5, ks)


# --- the table's arrays ---------------------------------------------------

def _with_entries_assigned(table):
    """A copy of the table whose columns come from its dict form."""
    copied = copy.copy(table)
    copied.entries = dict(table.entries)
    return copied


@pytest.mark.parametrize("make", [
    lambda: build_moment_table(Gaussian(1.0, 1.0, 2), 8),
    lambda: MomentTable.from_json(build_moment_table(Gaussian(1.0, 1.0, 3), 5).to_json()),
    lambda: moments_at_time(build_moment_table(Gaussian(1.0, 1.0, 2), 8), 0.5),
    lambda: eigen_coeffs(Gaussian(1.0, 1.0, 2), 0.0, 8),
    lambda: _with_entries_assigned(moment_table(2, "signed")),
], ids=["built", "from_json", "evolved", "eigen", "constructed"])
def test_table_arrays_are_read_only(make):
    table = make()
    for name in ("components", "signs", "logmag", "counts", "ends"):
        array = getattr(table, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[0] = 1


def test_assigning_entries_revalidates_and_evaluates_from_them():
    table = build_moment_table(Gaussian(1.0, 1.0, 2), 12)
    cfg = ApproxConfig(dim=2, k=12, t=1.5)
    x = (0.4, 0.9)
    before = eval_uk(table, cfg, x)
    entries = dict(table.entries)
    alpha = next(a for a, m in entries.items() if m.sign and a.degree)
    m = entries[alpha]
    entries[alpha] = SignedLog(m.sign, m.logmag + 1e-3)
    table.entries = entries
    assert table.entries is entries
    assert table.moment(alpha) == entries[alpha]
    got = eval_uk(table, cfg, x)
    assert got.value != before.value
    fresh = MomentTable.from_arrays(
        [m.sign for m in entries.values()], [m.logmag for m in entries.values()], dim=2, k_max=12
    )
    assert bits(got.value) == bits(eval_uk(fresh, cfg, x).value)
    # a dict that is not a full table in table order is refused, and the
    # table keeps what it held
    keys = list(entries)
    for bad in (
        {a: entries[a] for a in keys[1:]},
        {a: entries[a] for a in [keys[1], keys[0], *keys[2:]]},
        {**entries, alpha: SignedLog(2, 0.0)},
        {**entries, alpha: SignedLog(1, math.inf)},
    ):
        with pytest.raises(DomainError):
            table.entries = bad
        assert table.entries is entries
        assert bits(eval_uk(table, cfg, x).value) == bits(got.value)


def test_copy_then_assignment_leaves_the_original_bits():
    table = build_moment_table(Gaussian(1.0, 1.0, 2), 12)
    cfg = ApproxConfig(dim=2, k=12, t=1.5)
    x = (0.4, 0.9)
    before = eval_uk(table, cfg, x)
    signs, logmag, original = table.signs.copy(), table.logmag.copy(), dict(table.entries)
    changed = copy.copy(table)
    entries = dict(table.entries)
    alpha = next(a for a, m in entries.items() if m.sign and a.degree)
    entries[alpha] = SignedLog(entries[alpha].sign, entries[alpha].logmag + 1e-3)
    changed.entries = entries
    assert eval_uk(changed, cfg, x).value != before.value
    assert bits(eval_uk(table, cfg, x).value) == bits(before.value)
    assert table.signs.tobytes() == signs.tobytes()
    assert table.logmag.tobytes() == logmag.tobytes()
    assert table.entries == original and table.entries is not entries


# --- non-finite input ------------------------------------------------------

_T1 = build_moment_table(Gaussian(1.0, 1.0, 1), 4)
_T2 = build_moment_table(Gaussian(1.0, 1.0, 2), 4)
_CFG1, _CFG2 = ApproxConfig(dim=1, k=4, t=1.0), ApproxConfig(dim=2, k=4, t=1.0)
_COEFFS = eigen_coeffs(Gaussian(1.0, 1.0, 2), 0.0, 4)
_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: eval_uk(_T2, _CFG2, (_NAN, 0.0)),
    lambda: eval_uk(_T2, _CFG2, (0.0, _INF)),
    lambda: eval_uk(_T1, _CFG1, -_INF),
    lambda: eval_uk(_T1, _CFG1, _NAN),
    lambda: eval_uk_radial_origin(_T2, _CFG2, _NAN),
    lambda: eval_uk_radial_origin(_T2, _CFG2, _INF),
    lambda: heat_kernel(0.5, _NAN),
    lambda: heat_kernel(0.5, _INF),
    lambda: heat_kernel((0.5, _NAN), 1.0),
    lambda: kernel_derivative((2, 1), (0.5, 0.5), _NAN),
    lambda: kernel_derivative((2, 1), (0.5, _INF), 1.0),
    lambda: eval_expansion(_COEFFS, SimilarityPoint(z=(_NAN, 0.0), tau=0.0), 4),
    lambda: eval_expansion(_COEFFS, SimilarityPoint(z=(0.0, 0.0), tau=_NAN), 4),
    lambda: SimilarityPoint(z=(0.0, -_INF), tau=0.0),
    lambda: SimilarityPoint(z=(0.0,), tau=_INF),
    lambda: moments_at_time(_T2, _NAN),
    lambda: moments_at_time(_T2, _INF),
    lambda: eigen_coeffs(Gaussian(1.0, 1.0, 1), _NAN, 4),
    lambda: eigen_coeffs(Gaussian(1.0, 1.0, 1), _INF, 4),
    lambda: SimilarityPoint(z=0.5, tau=_NAN),
    lambda: SimilarityPoint(z=0.5, tau=-_INF),
    lambda: SimilarityPoint(z=(_INF, 0.0), tau=0.0),
    lambda: SimilarityPoint(z=None, tau=0.0),
    lambda: SimilarityPoint(z="0.5", tau=0.0),
    lambda: SimilarityPoint(z="12", tau=0.0),
    lambda: SimilarityPoint(z=b"12", tau=0.0),
    lambda: SimilarityPoint(z=(0.5, None), tau=0.0),
    lambda: exact_gaussian_solution(1.0, 1.0, 1, 0.5, _NAN),
    lambda: exact_gaussian_solution(1.0, 1.0, 1, 0.5, _INF),
    lambda: exact_gaussian_solution(1.0, 1.0, 2, (0.5, _NAN), 1.0),
    lambda: exact_gaussian_solution(_INF, 1.0, 1, 0.5, 1.0),
    lambda: validity_integral(_COEFFS, _NAN),
    # not a number at all: None, text, bytes, a non-numeric coordinate, or
    # a point of the wrong length
    lambda: eval_uk(_T1, _CFG1, None),
    lambda: eval_uk(_T1, _CFG1, "0.5"),
    lambda: eval_uk(_T1, _CFG1, b"1"),
    lambda: eval_uk(_T1, _CFG1, ("0.5",)),
    lambda: eval_uk(_T2, _CFG2, (0.5, None)),
    lambda: eval_uk(_T2, _CFG2, 0.5),
    lambda: eval_uk(_T2, _CFG2, (0.5, 0.5, 0.5)),
    lambda: eval_uk_sweep(_T2, 1.0, (0.5, "0.5"), [4]),
    lambda: eval_uk_sweep(_T1, _NAN, 0.5, [4]),
    lambda: heat_kernel(None, 1.0),
    lambda: heat_kernel("0.5", 1.0),
    lambda: heat_kernel(b"12", 1.0),
    lambda: heat_kernel((0.5, object()), 1.0),
    lambda: kernel_derivative((2,), "0.5", 1.0),
    lambda: kernel_derivative((2, 1), None, 1.0),
    # a point with no coordinates
    lambda: heat_kernel((), 1.0),
    lambda: SimilarityPoint(z=(), tau=0.0),
    # a bool, Python's or numpy's, is not a coordinate
    lambda: heat_kernel(True, 1.0),
    lambda: heat_kernel(np.True_, 1.0),
    lambda: heat_kernel((0.5, False), 1.0),
    lambda: eval_uk(_T1, _CFG1, True),
    lambda: kernel_derivative((2,), np.False_, 1.0),
    lambda: SimilarityPoint(z=(True, 0.0), tau=0.0),
    # a time that is not a real number, or is a bool
    lambda: heat_kernel(0.5, "1"),
    lambda: heat_kernel(0.5, None),
    lambda: kernel_derivative((2,), 0.5, "1"),
    lambda: ApproxConfig(dim=1, k=2, t="1"),
    lambda: ApproxConfig(dim=1, k=2, t=True),
    lambda: ApproxConfig(dim=1, k=2, t=np.True_),
    lambda: SimilarityPoint(z=0.5, tau="0"),
    lambda: SimilarityPoint(z=0.5, tau=False),
    lambda: convolve_oracle(Gaussian(1.0, 1.0, 1), 0.5, "1"),
    lambda: convolve_oracle(Gaussian(1.0, 1.0, 1), 0.5, True),
    lambda: moments_at_time(_T2, "0.5"),
    lambda: moments_at_time(_T2, False),
    lambda: error_bound_F_sweep(_T1, "1", [2]),
    lambda: error_bound_F_sweep(_T1, True, [2]),
    # a point's dim that is not an integer >= 1
    lambda: heat_kernel(0.5, 1.0, dim=True),
    lambda: heat_kernel(0.5, 1.0, dim=1.0),
    lambda: heat_kernel(0.5, 1.0, dim=0),
])
def test_non_finite_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("x", [0.5, np.float64(0.5), np.float32(0.5), np.int64(2), 2])
def test_a_real_number_is_one_coordinate(x):
    pt = (float(x),)
    assert bits(eval_uk(_T1, _CFG1, x).value) == bits(eval_uk(_T1, _CFG1, pt).value)
    assert heat_kernel(x, 1.0) == heat_kernel(pt, 1.0)
    assert kernel_derivative((3,), x, 1.0) == kernel_derivative((3,), pt, 1.0)
    assert eval_uk(_T2, _CFG2, (x, np.int16(-1))).value == eval_uk(_T2, _CFG2, (float(x), -1.0)).value


def test_a_point_dim_of_none_is_inferred():
    assert heat_kernel((0.5, 0.5), 1.0, dim=None) == heat_kernel((0.5, 0.5), 1.0, dim=2)
    assert heat_kernel(0.5, 1.0) == heat_kernel(0.5, 1.0, dim=np.int64(1))


@pytest.mark.parametrize("t", [1.5, np.float64(1.5), np.int64(2), 2, np.float32(1.5)])
def test_a_real_number_is_a_time(t):
    # check_real refuses bools and non-numbers; every real number it let
    # through before still passes, with the value of its float
    assert heat_kernel(0.5, t) == heat_kernel(0.5, float(t))
    assert kernel_derivative((3,), 0.5, t) == kernel_derivative((3,), 0.5, float(t))
    assert ApproxConfig(dim=1, k=2, t=t).t == t
    assert SimilarityPoint(z=0.5, tau=-t).tau == -t
    assert bits(convolve_oracle(Gaussian(1.0, 1.0, 1), 0.5, t)) == bits(
        convolve_oracle(Gaussian(1.0, 1.0, 1), 0.5, float(t))
    )
    assert moments_at_time(_T2, t).logmag.tobytes() == moments_at_time(_T2, float(t)).logmag.tobytes()
    assert moments_at_time(_T2, 0).logmag.tobytes() == _T2.logmag.tobytes()

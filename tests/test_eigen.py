"""Similarity-variable expansion: coefficient formulas, the identity with
the truncated series, and the weighted-energy validity criterion.

One deliberate pair of strict xfails lives here.  The displayed coefficient
recipe reads off a_alpha from the plain moments at a later base time, but
plain moments pair with z^alpha, not with the Hermite eigenfunctions, so
coefficients taken at different base times describe *different* expansions
(a_2 is 0.5 from base time 1 and 0.75 from base time 2 for the unit
Gaussian).  The consistency claims that would require base-time invariance
therefore fail by a fixed O(1) margin, and the companion tests right after
them pin down what *is* true: each base time's expansion converges to the
evolution restarted from that time, and the heat polynomials (the Appell
pairs of the eigenfunctions) recover the initial moments from any later
time.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from heatseries import (
    DomainError,
    EigenCoeffs,
    Gaussian,
    MomentTable,
    SimilarityPoint,
    ApproxConfig,
    build_moment_table,
    eigen_coeffs,
    eval_expansion,
    eval_expansion_sweep,
    eval_uk,
    exact_gaussian_solution,
)
from heatseries.eigen import validity_integral

UNIT1 = Gaussian(amplitude=1.0, width=1.0, dim=1)
UNIT2 = Gaussian(amplitude=1.0, width=1.0, dim=2)


# --- similarity variables -------------------------------------------------

def test_similarity_map_basics():
    p = SimilarityPoint(z=[1, 2.0], tau=0)
    assert p.z == (1.0, 2.0)
    assert p.tau == 0.0
    assert p.dim == 2


@given(
    st.floats(-50.0, 50.0, allow_nan=False),
    st.floats(1e-6, 1e6, allow_nan=False),
)
def test_similarity_roundtrip(x, t):
    # z = x / (2 sqrt t) and tau = ln t, as the CLI builds them: t = e^tau
    # and x = 2 sqrt(t) z recover the point
    p = SimilarityPoint(z=x / (2.0 * math.sqrt(t)), tau=math.log(t))
    back_t = math.exp(p.tau)
    assert math.isclose(2.0 * math.sqrt(back_t) * p.z[0], x, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(back_t, t, rel_tol=1e-12)


def test_similarity_domain():
    # a point with no coordinates, or text, is no point: "12" is not (1, 2)
    for z in [(), [], np.array([]), "12", "0.5", b"12", None]:
        with pytest.raises(DomainError):
            SimilarityPoint(z=z, tau=0.0)


@pytest.mark.parametrize("x", [2, 2.0, np.int64(2), np.float32(2.0), np.float64(2.0)])
def test_similarity_promotes_a_number_to_one_coordinate(x):
    assert SimilarityPoint(z=x, tau=0.0) == SimilarityPoint(z=(2.0,), tau=0.0)
    assert SimilarityPoint(z=(x, np.int16(-4)), tau=0.0).z == (2.0, -4.0)
    coeffs = eigen_coeffs(UNIT1, 0.0, 6)
    assert eval_expansion(coeffs, SimilarityPoint(z=x, tau=0.5), 6) == eval_expansion(
        coeffs, SimilarityPoint(z=(2.0,), tau=0.5), 6
    )


@pytest.mark.parametrize("x", [np.float64(math.nan), np.float32(math.inf)])
def test_similarity_rejects_non_finite_numpy_scalars(x):
    with pytest.raises(DomainError):
        SimilarityPoint(z=x, tau=0.0)
    with pytest.raises(DomainError):
        SimilarityPoint(z=(1.0,), tau=x)


# --- coefficients ---------------------------------------------------------

@pytest.mark.parametrize("t0c", [0.0, 1.0, 2.5])
def test_mass_coefficient_is_one(t0c):
    coeffs = eigen_coeffs(UNIT1, t0c, 4)
    assert coeffs.moment((0,)).to_float() == pytest.approx(1.0, rel=1e-12)


def test_odd_coefficients_vanish():
    coeffs = eigen_coeffs(UNIT1, 1.0, 5)
    assert coeffs.moment((1,)).sign == 0
    assert coeffs.moment((3,)).sign == 0
    c2 = eigen_coeffs(UNIT2, 0.0, 4)
    assert c2.moment((1, 2)).sign == 0


def test_quadratic_coefficient_frozen():
    # a_2 = 2^{-3} pi^{-1/2} m_2(t0') / 2; m_2(1) = 8 sqrt(pi) -> 0.5
    c1 = eigen_coeffs(UNIT1, 1.0, 2).moment((2,)).to_float()
    assert c1 == pytest.approx(0.5, rel=1e-12)
    # and m_2(2) = 12 sqrt(pi) -> 0.75: the same index, another base time
    c2 = eigen_coeffs(UNIT1, 2.0, 2).moment((2,)).to_float()
    assert c2 == pytest.approx(0.75, rel=1e-12)


def test_quadratic_coefficient_vs_quadrature():
    # independent route: a_2 = 2^{-3} pi^{-1/2} / 2! * int x^2 u(x, 1) dx
    m2, _ = quad(
        lambda x: x * x * exact_gaussian_solution(1.0, 1.0, 1, x, 1.0),
        -math.inf,
        math.inf,
    )
    want = 2.0**-3 * math.pi**-0.5 * m2 / 2.0
    got = eigen_coeffs(UNIT1, 1.0, 2).moment((2,)).to_float()
    assert got == pytest.approx(want, rel=1e-9)


def test_coeff_out_of_table():
    coeffs = eigen_coeffs(UNIT1, 0.0, 4)
    with pytest.raises(DomainError):
        coeffs.moment((5,))
    with pytest.raises(DomainError):
        eigen_coeffs(UNIT1, -1.0, 4)


def test_coeffs_json_roundtrip():
    coeffs = eigen_coeffs(UNIT2, 1.5, 3)
    raw = json.loads(coeffs.to_json())
    assert list(raw) == ["dim", "kmax", "t0_coeff", "signs", "logmag"]
    assert raw["t0_coeff"] == 1.5
    assert len(raw["signs"]) == len(raw["logmag"]) == math.comb(3 + 2, 2)
    back = EigenCoeffs.from_json(coeffs.to_json())
    assert back.t0_coeff == coeffs.t0_coeff
    for a, c in coeffs.entries.items():
        assert back.entries[a].sign == c.sign
        if c.sign != 0:
            assert back.entries[a].logmag == pytest.approx(c.logmag, abs=1e-15)


def test_coeffs_json_rejects_negative_t0_coeff():
    text = eigen_coeffs(UNIT1, 0.0, 2).to_json()
    bad = text.replace('"t0_coeff":0.0', '"t0_coeff":-1.0')
    assert bad != text
    with pytest.raises(DomainError):
        EigenCoeffs.from_json(bad)


@pytest.mark.parametrize("t0_coeff", [-1.0, math.nan, math.inf])
def test_coeffs_reject_invalid_t0_coeff(t0_coeff):
    coeffs = eigen_coeffs(UNIT1, 0.0, 2)
    with pytest.raises(DomainError):
        EigenCoeffs.from_arrays(
            coeffs.signs, coeffs.logmag, dim=1, k_max=2, t0_coeff=t0_coeff
        )


def test_from_arrays_is_the_one_constructor():
    coeffs = eigen_coeffs(UNIT1, 0.0, 4)
    with pytest.raises(TypeError):
        MomentTable(dim=1, k_max=4, entries=coeffs.entries)
    with pytest.raises(TypeError):
        EigenCoeffs(dim=1, k_max=4, entries=coeffs.entries)
    # the header field a caller leaves out reads its default
    back = EigenCoeffs.from_arrays(coeffs.signs, coeffs.logmag, dim=1, k_max=4)
    assert back.t0_coeff == 0.0
    assert back.to_json() == coeffs.to_json()


def test_from_arrays_rejects_a_field_the_header_does_not_define():
    # a misspelt t0_coeff would leave the default 0.0, and validity_integral
    # would take evolved coefficients for the datum's
    coeffs = eigen_coeffs(UNIT1, 1.5, 6)
    with pytest.raises(DomainError, match="t0_coef"):
        EigenCoeffs.from_arrays(coeffs.signs, coeffs.logmag, dim=1, k_max=6, t0_coef=1.5)
    with pytest.raises(DomainError, match="t0_coeff"):
        MomentTable.from_arrays(coeffs.signs, coeffs.logmag, dim=1, k_max=6, t0_coeff=3.0)


# --- expansion vs truncated series ----------------------------------------

def test_order_zero_expansion_is_weighted_mass():
    coeffs = eigen_coeffs(UNIT1, 0.0, 0)
    for tau in (-1.0, 0.0, 2.0):
        got = eval_expansion(coeffs, SimilarityPoint(z=(0.0,), tau=tau), 0)
        assert got == pytest.approx(1.0, rel=1e-12)
    # away from the origin the ground eigenfunction is the Gaussian weight
    got = eval_expansion(coeffs, SimilarityPoint(z=(1.3,), tau=0.5), 0)
    assert got == pytest.approx(math.exp(-1.69), rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("t", [0.7, 2.0, 4.0])
def test_expansion_equals_scaled_truncation(dim, t):
    # with initial-datum coefficients the truncated expansion *is*
    # t^{d/2} u_k, identically in (x, t) — including t below the width
    u0 = UNIT1 if dim == 1 else UNIT2
    k = 30
    coeffs = eigen_coeffs(u0, 0.0, k)
    table = build_moment_table(u0, k)
    # tables past k: the sums stop at degree k, bit for bit
    wide_coeffs = eigen_coeffs(u0, 0.0, k + 5)
    wide_table = build_moment_table(u0, k + 5)
    cfg = ApproxConfig(dim=dim, k=k, t=t)
    tau = math.log(t)
    root = 2.0 * math.sqrt(t)
    zs = [(-2.5,), (-0.6,), (0.0,), (1.1,), (3.0,)] if dim == 1 else [
        (-1.5, 0.4), (0.0, 0.0), (0.7, -0.7), (2.0, 1.0)
    ]
    for z in zs:
        x = tuple(c * root for c in z)
        point = SimilarityPoint(z=z, tau=tau)
        lhs = eval_expansion(coeffs, point, k)
        rhs = t ** (dim / 2.0) * eval_uk(table, cfg, x).value
        assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-12)
        assert eval_expansion(wide_coeffs, point, k) == lhs
        assert eval_uk(wide_table, cfg, x) == eval_uk(table, cfg, x)


def test_expansion_argument_checks():
    coeffs = eigen_coeffs(UNIT1, 0.0, 4)
    with pytest.raises(DomainError):
        eval_expansion(coeffs, SimilarityPoint(z=(0.0, 0.0), tau=0.0), 2)
    with pytest.raises(DomainError):
        eval_expansion(coeffs, SimilarityPoint(z=(0.0,), tau=0.0), 6)


@pytest.mark.parametrize("k", [-1, 2.0, 4.5, True, "2"])
def test_expansion_rejects_bad_orders(k):
    coeffs = eigen_coeffs(UNIT1, 0.0, 4)
    with pytest.raises(DomainError):
        eval_expansion(coeffs, SimilarityPoint(z=(0.0,), tau=0.0), k)


# --- the k sweep ------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("t", [0.5, 2.0], ids=["t<t0", "t>t0"])
@pytest.mark.parametrize("z", ["origin", "axis", "off-axis"])
def test_expansion_sweep_matches_each_order_bit_for_bit(dim, t, z):
    coeffs = eigen_coeffs(Gaussian(amplitude=1.0, width=1.0, dim=dim), 0.0, 40)
    zs = {
        "origin": (0.0,) * dim,
        "axis": (1.5,) + (0.0,) * (dim - 1),
        "off-axis": (0.4, -1.1, 2.3)[:dim],
    }[z]
    point = SimilarityPoint(z=zs, tau=math.log(t))
    for ks in (list(range(0, 41, 2)), list(range(41)), [7], [0, 40]):
        got = eval_expansion_sweep(coeffs, point, ks)
        want = [eval_expansion(coeffs, point, k) for k in ks]
        assert [v.hex() for v in got] == [v.hex() for v in want]  # -0.0 included


@pytest.mark.parametrize("ks", [
    [], [4, 2], [-1, 2], [2, 5], [0, 2.0], [True], ["2"], 3,
], ids=["empty", "descending", "negative", "past-k_max", "float", "bool", "str", "int"])
def test_expansion_sweep_rejects_bad_orders(ks):
    coeffs = eigen_coeffs(UNIT1, 0.0, 4)
    with pytest.raises(DomainError):
        eval_expansion_sweep(coeffs, SimilarityPoint(z=(0.0,), tau=0.0), ks)


# --- base-time (in)consistency --------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason=(
        "plain moments at a later base time are not the Hermite expansion "
        "coefficients of the evolved solution (z^alpha pairs with H_beta "
        "for beta <= alpha too); coefficients from base times 1 and 2 give "
        "expansions that differ by O(0.1), not 1e-8"
    ),
)
def test_base_time_consistency_claim():
    t = 4.0
    k = 40
    c1 = eigen_coeffs(UNIT1, 1.0, k)
    c2 = eigen_coeffs(UNIT1, 2.0, k)
    tau = math.log(t)
    for z in (-1.0, 0.0, 0.5, 1.5):
        a = eval_expansion(c1, SimilarityPoint(z=(z,), tau=tau), k)
        b = eval_expansion(c2, SimilarityPoint(z=(z,), tau=tau), k)
        assert abs(a - b) < 1e-8


@pytest.mark.xfail(
    strict=True,
    reason=(
        "same root cause: the base-time-1 expansion converges to the "
        "restart of the evolution from time 1, not to the original "
        "solution, so it misses t^{1/2} u(x, t) by an O(0.01) margin"
    ),
)
def test_later_base_time_matches_original_solution_claim():
    t, k = 4.0, 40
    coeffs = eigen_coeffs(UNIT1, 1.0, k)
    tau = math.log(t)
    for z in (0.0, 0.5, 1.0):
        x = 2.0 * math.sqrt(t) * z
        got = eval_expansion(coeffs, SimilarityPoint(z=(z,), tau=tau), k)
        want = t**0.5 * exact_gaussian_solution(1.0, 1.0, 1, x, t)
        assert abs(got - want) < 1e-6


@pytest.mark.parametrize("t_base", [1.0, 2.0])
def test_base_time_expansion_converges_to_restarted_evolution(t_base):
    # what the later-base-time coefficients *do* represent: u(., t_base)
    # is a Gaussian of width 1 + t_base, and the expansion built from its
    # plain moments converges (for t above that width) to the evolution
    # restarted from it
    t, k = 4.0, 120
    coeffs = eigen_coeffs(UNIT1, t_base, k)
    amp = (1.0 / (1.0 + t_base)) ** 0.5
    width = 1.0 + t_base
    tau = math.log(t)
    for z in (-1.5, -0.5, 0.0, 0.8, 2.0):
        x = 2.0 * math.sqrt(t) * z
        got = eval_expansion(coeffs, SimilarityPoint(z=(z,), tau=tau), k)
        want = t**0.5 * exact_gaussian_solution(amp, width, 1, x, t)
        assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("t_base", [1.0, 2.0])
def test_heat_polynomials_recover_initial_moments(t_base):
    # the Appell pairing that *is* base-time invariant: heat polynomials
    # against the evolved solution return the initial moments
    u = lambda x: exact_gaussian_solution(1.0, 1.0, 1, x, t_base)
    p2 = lambda x: x * x - 2.0 * t_base
    p4 = lambda x: x**4 - 12.0 * t_base * x * x + 12.0 * t_base * t_base
    m2, _ = quad(lambda x: p2(x) * u(x), -math.inf, math.inf)
    m4, _ = quad(lambda x: p4(x) * u(x), -math.inf, math.inf)
    assert m2 == pytest.approx(7.0898154036220644, rel=1e-9)    # 4 sqrt(pi)
    assert m4 == pytest.approx(42.538892421732385, rel=1e-9)    # 24 sqrt(pi)


# --- validity criterion ---------------------------------------------------

_GAUSS_COEFFS = {
    (dim, degree): eigen_coeffs(Gaussian(amplitude=1.0, width=1.0, dim=dim), 0.0, degree)
    for dim in (1, 2, 3)
    for degree in (12, 40, 120)
}


def _energy(amplitude, t0, dim, t):
    """Closed-form weighted energy of a Gaussian datum, t > t0."""
    q = t0 / t
    return amplitude**2 * (math.sqrt(math.pi) * t0) ** dim * (1.0 - q * q) ** (-0.5 * dim)


def test_validity_integral_frozen_values():
    got1 = validity_integral(_GAUSS_COEFFS[1, 40], 2.0)
    assert abs(got1 - 2.0 * math.sqrt(3.0 * math.pi) / 3.0) <= 1e-9
    got2 = validity_integral(_GAUSS_COEFFS[2, 40], 2.0)
    assert abs(got2 - 4.0 * math.pi / 3.0) <= 1e-9


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("factor", [0.5, 0.9, 1.0, 1.1, 2.0, 4.0])
def test_validity_verdict_matches_time_threshold(dim, factor):
    # finite exactly when t > t0; the t = t0 boundary diverges
    t = factor * 1.0
    value = validity_integral(_GAUSS_COEFFS[dim, 40], t)
    assert math.isfinite(value) == (factor > 1.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_validity_finite_from_105_t0_at_degree_40(dim):
    factors = [1.05 + 0.001 * i for i in range(951)] + [4.0, 10.0, 1e3, 1e6, 1e300]
    assert all(math.isfinite(validity_integral(_GAUSS_COEFFS[dim, 40], f)) for f in factors)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [12, 40, 120])
def test_validity_never_finite_at_or_below_t0(dim, degree):
    # Raabe's quantity is below 1 for t <= t0 at every degree; above t0 no
    # t raises either
    coeffs = _GAUSS_COEFFS[dim, degree]
    below = [0.5 + 0.001 * i for i in range(501)]
    assert all(validity_integral(coeffs, f) == math.inf for f in below)
    for f in (1.0 + 0.01 * i for i in range(1, 101)):
        validity_integral(coeffs, f)


@pytest.mark.parametrize("amplitude,t0", [(1.0, 1.0), (1.7, 0.6), (0.3, 2.5)])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_validity_partial_sum_below_closed_form(amplitude, t0, dim):
    # every shell is positive, so a finite verdict is a partial sum of the
    # energy; 1e-13 covers the rounding of the logs and of the closed form
    # (measured at most 4e-15 relative)
    coeffs = eigen_coeffs(Gaussian(amplitude=amplitude, width=t0, dim=dim), 0.0, 40)
    for factor in (1.05, 1.2, 1.5, 2.0, 3.0, 6.0, 50.0):
        t = factor * t0
        value = validity_integral(coeffs, t)
        assert value <= _energy(amplitude, t0, dim, t) * (1.0 + 1e-13)


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_validity_rejects_bad_time(t):
    with pytest.raises(DomainError):
        validity_integral(_GAUSS_COEFFS[1, 12], t)


def test_validity_requires_initial_datum_coefficients():
    with pytest.raises(DomainError):
        validity_integral(eigen_coeffs(UNIT1, 1.0, 40), 2.0)


@pytest.mark.parametrize("degree", [0, 1])
def test_validity_needs_two_nonzero_shells(degree):
    # the odd shells of a Gaussian are zero: degree 1 holds one shell
    with pytest.raises(DomainError):
        validity_integral(eigen_coeffs(UNIT1, 0.0, degree), 2.0)

"""Mutants that ``decomp-check`` and ``eigen-compare`` must catch.

Each case breaks one piece of the decomposition or of the validity verdict
with ``monkeypatch`` and expects the command to exit 1, with the named
check failing.  A check that still passes on a mutant would show nothing
about that piece.
"""

import csv
import math

import numpy as np
import pytest

import test_eigen
from heatseries import cli, decomposition, eigen


def _closed_form_scaled(monkeypatch):
    tail = decomposition._gaussian_tail
    monkeypatch.setattr(
        decomposition, "_gaussian_tail", lambda *args: tail(*args) * (1.0 + 1e-7)
    )


def _ierfc_order_off_by_one(monkeypatch):
    ierfc = decomposition.ierfc
    monkeypatch.setattr(decomposition, "ierfc", lambda n, z: ierfc(n + 1, z))


def _quadrature_route_scaled(monkeypatch):
    halfline = decomposition.integrate_halfline_rows
    monkeypatch.setattr(
        decomposition,
        "integrate_halfline_rows",
        lambda *args: halfline(*args) * (1.0 + 1e-7),
    )


@pytest.mark.parametrize(
    "mutate,caught_by",
    [
        (_closed_form_scaled, {"l1_bound", "residual", "remainder_routes"}),
        (_ierfc_order_off_by_one, {"l1_bound", "residual", "remainder_routes"}),
        (_quadrature_route_scaled, {"remainder_routes"}),
    ],
    ids=["closed-form-x(1+1e-7)", "ierfc-order-plus-1", "halfline-quadrature-x(1+1e-7)"],
)
def test_decomp_check_catches(mutate, caught_by, monkeypatch, tmp_path):
    mutate(monkeypatch)
    out = tmp_path / "dec.csv"
    assert cli.main(["decomp-check", "--out", str(out)]) == 1
    with out.open() as handle:
        failed = {row["check"] for row in csv.DictReader(handle) if row["ok"] == "false"}
    assert failed == caught_by


# --- the validity verdict of eigen-compare --------------------------------

def _energy_shells(square=True, factorial=True, two_power=True):
    """eigen._energy_shells, each term's log missing the pieces switched off:
    a_alpha^2 read as a_alpha, alpha! or 2^|alpha|."""
    def shells(coeffs, t):
        live = coeffs.signs != 0
        degrees = coeffs.degrees[live]
        logs = (
            (2.0 if square else 1.0) * coeffs.logmag[live]
            + (coeffs.ln_factorials[live] if factorial else 0.0)
            + degrees * ((math.log(2.0) if two_power else 0.0) - math.log(t))
            + 0.5 * coeffs.dim * math.log(math.pi)
        )
        return np.array([np.logaddexp.reduce(logs[degrees == n]) for n in np.unique(degrees)])
    return shells


@pytest.mark.parametrize("dim", [1, 2])
def test_unmutated_shells_match(dim):
    coeffs = test_eigen._GAUSS_COEFFS[dim, 40]
    for t in (0.5, 1.0, 2.0):
        want = eigen._energy_shells(coeffs, t)
        assert np.allclose(_energy_shells()(coeffs, t), want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "mutant",
    [
        _energy_shells(factorial=False),    # flips t = 0.5 t0 and 0.9 t0
        _energy_shells(two_power=False),    # flips 0.9 t0
        _energy_shells(square=False),       # flips 1.1 t0 and 2 t0
    ],
    ids=["no-alpha!", "no-2^n", "a-not-a^2"],
)
@pytest.mark.parametrize("dim", ["1", "2"])
def test_eigen_compare_catches(mutant, dim, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(eigen, "_energy_shells", mutant)
    out = tmp_path / "eig.csv"
    assert cli.main(["eigen-compare", "--dim", dim, "--out", str(out)]) == 1
    assert "validity verdict disagrees" in capsys.readouterr().err


def _ratio_test(coeffs, t):
    """validity_integral with the plain ratio test in place of Raabe's."""
    shells = eigen._energy_shells(coeffs, t)
    return math.fsum(np.exp(shells)) if shells[-2] > shells[-1] else math.inf


def test_ratio_test_fails_at_t0(monkeypatch):
    # in dim 1 the shell ratio at t = t0 is (m + 1) / (m + 1/2) > 1
    monkeypatch.setattr(test_eigen, "validity_integral", _ratio_test)
    with pytest.raises(AssertionError):
        test_eigen.test_validity_verdict_matches_time_threshold(1, 1.0)

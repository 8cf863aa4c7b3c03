"""Mutants that ``decomp-check`` must catch.

Each case breaks one piece of the decomposition with ``monkeypatch`` and
expects the command to exit 1, with the rows of the named check failing.
A check that still passes on a mutant would show nothing about that piece.
"""

import csv

import pytest

from heatseries import cli, decomposition


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

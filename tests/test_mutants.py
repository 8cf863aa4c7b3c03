"""Mutants that ``decomp-check``, ``eigen-compare``, ``error-curve`` and
``divergence`` must catch.

Each case breaks one piece of the decomposition, the validity verdict, the
expansion discrepancy, the grid sweep, the reference or the origin series
with ``monkeypatch`` and expects the command to exit 1, where the unmutated
command exits 0.  A check that still passes on a mutant would show nothing
about that piece.
"""

import csv
import math

import numpy as np
import pytest

import test_eigen
from heatseries import SignedLog, bounds, cli, decomposition, eigen, kernel_approx, reference


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


# --- the expansion discrepancy of eigen-compare ---------------------------

def _terms_mutated(change, *modules):
    """``_point_terms`` with ``change`` applied to the (signs, logmag, cuts)
    it returns, wherever each of ``modules`` looks the gather up."""
    point_terms = kernel_approx._point_terms

    def mutate(monkeypatch):
        for module in modules:
            monkeypatch.setattr(module, "_point_terms", lambda *args: change(*point_terms(*args)))
    return mutate


def _log_shift(signs, logmag, cuts):
    return signs, logmag + 1e-9, cuts


def _first_term_past_degree_0_dropped(signs, logmag, cuts):
    i = int(cuts[0])
    keep = np.arange(len(signs)) != i
    return signs[keep], logmag[keep], cuts - (cuts > i)


def _hermite_sign_flipped(n):
    """The point path's weighted Hermite H_n with its sign flipped."""
    def mutate(monkeypatch):
        logs = kernel_approx.hermite_weighted_logs

        def mutant(n_max, x):
            signs, values = logs(n_max, x)
            return [-s if m == n else s for m, s in enumerate(signs)], values

        monkeypatch.setattr(kernel_approx, "hermite_weighted_logs", mutant)
    return mutate


def _eigen_compare(dim, tmp_path):
    return cli.main(["eigen-compare", "--dim", dim, "--out", str(tmp_path / "eig.csv")])


@pytest.mark.parametrize("dim", ["1", "2"])
def test_eigen_compare_catches_an_eigen_side_log_shift(dim, monkeypatch, tmp_path, capsys):
    _terms_mutated(_log_shift, eigen)(monkeypatch)
    assert _eigen_compare(dim, tmp_path) == 1
    assert "expansion discrepancy above 1e-10" in capsys.readouterr().err


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: eval_expansion and eval_uk share kernel_approx._point_terms "
    "and its Hermite recurrence, so a defect there moves both sides of the "
    "discrepancy alike and eigen-compare still exits 0",
)
@pytest.mark.parametrize(
    "mutate",
    [
        _terms_mutated(_log_shift, kernel_approx, eigen),
        _terms_mutated(_first_term_past_degree_0_dropped, kernel_approx, eigen),
        _hermite_sign_flipped(8),
    ],
    ids=["shared-log-shift-1e-9", "shared-term-dropped", "shared-H8-sign-flipped"],
)
@pytest.mark.parametrize("dim", ["1", "2"])
def test_eigen_compare_catches_a_shared_kernel_defect(mutate, dim, monkeypatch, tmp_path):
    mutate(monkeypatch)
    assert _eigen_compare(dim, tmp_path) == 1


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2 (shared kernel) and item 4: H_7 enters no term of the "
    "centred Gaussian datum eigen-compare runs, whose odd moments vanish, so the "
    "flip leaves every output byte-identical; an independent eigen side alone "
    "will not catch it, a datum with odd moments would",
)
@pytest.mark.parametrize("dim", ["1", "2"])
def test_eigen_compare_catches_an_H7_sign_flip(dim, monkeypatch, tmp_path):
    _hermite_sign_flipped(7)(monkeypatch)
    assert _eigen_compare(dim, tmp_path) == 1


def _eigen_side_scaled_past_k30(monkeypatch):
    sweep = cli.eval_expansion_sweep

    def mutant(coeffs, p, ks):
        return [v * (1.0 + 1e-12) if k > 30 else v for k, v in zip(ks, sweep(coeffs, p, ks))]

    monkeypatch.setattr(cli, "eval_expansion_sweep", mutant)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 15: past k = 30 eigen-compare's discrepancy row claims "
    "only finiteness, so an eigen side off by 1e-12 relative there still exits 0, "
    "where the gaps measured at t = 2 are at most 4.4e-16",
)
@pytest.mark.parametrize("dim,t", [("1", "2"), ("2", "2"), ("2", "0.8")])
def test_eigen_compare_catches_an_eigen_side_scaled_past_k30(dim, t, monkeypatch, tmp_path):
    _eigen_side_scaled_past_k30(monkeypatch)
    argv = ["eigen-compare", "--dim", dim, "--t", t, "--kmax", "60"]
    assert cli.main(argv + ["--out", str(tmp_path / "eig.csv")]) == 1


# --- the grid sweep and reference of error-curve ---------------------------

ERROR_CURVES = [
    ("--dim", "1", "--t", "1.3", "--kmax", "60", "--grid-points", "201"),
    ("--dim", "2", "--t", "2", "--kmax", "60", "--grid-points", "201"),
]


def _grid_block_scaled(degree, factor):
    """The sweep with degree block ``degree`` times ``factor``; the top
    block (the evaluator's cap) where ``degree`` is None."""
    def mutate(monkeypatch):
        init = kernel_approx.SeriesGridEvaluator.__init__

        def mutant(self, *args, **kwargs):
            init(self, *args, **kwargs)
            j = self.k_cap if degree is None else degree
            rows1, rows2, coeffs = self._blocks[j]
            self._blocks[j] = (rows1, rows2, coeffs * factor)

        monkeypatch.setattr(kernel_approx.SeriesGridEvaluator, "__init__", mutant)
    return mutate


def _reference_width_scaled(monkeypatch):
    field = reference._exact_gaussian_field
    monkeypatch.setattr(
        reference,
        "_exact_gaussian_field",
        lambda amplitude, width, *args: field(amplitude, width * (1.0 + 1e-6), *args),
    )


def _error_curve(argv, tmp_path):
    return cli.main(["error-curve", *argv, "--out", str(tmp_path / "curve.csv")])


@pytest.mark.parametrize("argv", ERROR_CURVES, ids=["d1-t1.3", "d2-t2"])
def test_error_curve_passes_unmutated(argv, tmp_path):
    assert _error_curve(argv, tmp_path) == 0


@pytest.mark.parametrize(
    "mutate,argv",
    [
        (_grid_block_scaled(2, 1.001), ERROR_CURVES[0]),
        (_grid_block_scaled(2, 1.001), ERROR_CURVES[1]),
        (_reference_width_scaled, ERROR_CURVES[1]),
    ],
    ids=["degree-2-block-x1.001-d1", "degree-2-block-x1.001-d2", "reference-width-x(1+1e-6)-d2"],
)
def test_error_curve_catches(mutate, argv, monkeypatch, tmp_path, capsys):
    mutate(monkeypatch)
    assert _error_curve(argv, tmp_path) == 1
    assert "exceeded the rigorous bound" in capsys.readouterr().err


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: error-curve checks the sup error against F_k only "
    "from above, so a sweep whose top order misses its last block, and so "
    "measures a larger error, still sits below F_k",
)
@pytest.mark.parametrize("argv", ERROR_CURVES, ids=["d1-t1.3", "d2-t2"])
def test_error_curve_catches_a_dropped_top_block(argv, monkeypatch, tmp_path):
    _grid_block_scaled(None, 0.0)(monkeypatch)
    assert _error_curve(argv, tmp_path) == 1


# --- the origin series of divergence ---------------------------------------

DIVERGENCE_DIMS = ["1", "2", "3"]


def _point_sum_drops_top_block(monkeypatch):
    point_terms = kernel_approx._point_terms

    def mutant(table, k, *args):
        signs, logmag, cuts = point_terms(table, k, *args)
        top = int(cuts[-2]) if k else 0
        return signs[:top], logmag[:top], np.minimum(cuts, top)

    monkeypatch.setattr(kernel_approx, "_point_terms", mutant)


def _cuts_one_degree_down(signs, logmag, cuts):
    # a sweep's order k then sums the degrees <= k - 1
    return signs, logmag, np.concatenate(([0], cuts[:-1]))


def _top_origin_block_scaled(monkeypatch):
    blocks = bounds.gaussian_origin_blocks

    def mutant(*args):
        out = blocks(*args)
        return out[:-1] + [out[-1] * SignedLog.from_float(1.01)]

    monkeypatch.setattr(bounds, "gaussian_origin_blocks", mutant)


def _divergence(dim, tmp_path):
    argv = ["divergence", "--dim", dim, "--t", "0.5", "--kmax", "40"]
    return cli.main(argv + ["--out", str(tmp_path / "div.csv")])


@pytest.mark.parametrize("dim", DIVERGENCE_DIMS)
def test_divergence_passes_unmutated(dim, tmp_path):
    assert _divergence(dim, tmp_path) == 0


@pytest.mark.parametrize(
    "mutate",
    [
        _point_sum_drops_top_block,
        _terms_mutated(_cuts_one_degree_down, kernel_approx),
        _top_origin_block_scaled,
    ],
    ids=["point-sum-drops-top-block", "sweep-prefix-off-by-one-block", "top-origin-block-x1.01"],
)
@pytest.mark.parametrize("dim", DIVERGENCE_DIMS)
def test_divergence_catches(mutate, dim, monkeypatch, tmp_path, capsys):
    mutate(monkeypatch)
    assert _divergence(dim, tmp_path) == 1
    assert "fell below the certified bound" in capsys.readouterr().err


def _scaled_by_1_5(signs, logmag, cuts):
    return signs, logmag + math.log(1.5), cuts


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 16: divergence checks |u_k(0,t)| only from below, so "
    "a point sum with every term x1.5 still clears the certified bound",
)
@pytest.mark.parametrize("dim", DIVERGENCE_DIMS)
def test_divergence_catches_every_point_term_scaled(dim, monkeypatch, tmp_path):
    _terms_mutated(_scaled_by_1_5, kernel_approx)(monkeypatch)
    argv = ["divergence", "--dim", dim, "--t", "0.5", "--kmax", "60"]
    assert cli.main(argv + ["--out", str(tmp_path / "div.csv")]) == 1

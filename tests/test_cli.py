"""End-to-end command-line checks, run in process via cli.main."""

import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import heatseries
import heatseries.cli as cli
from heatseries import (
    ApproxConfig, DomainError, Gaussian, GridSpec, MomentTable, build_moment_table,
)
from heatseries.reference import ErrorCurve, ErrorPoint
from heatseries.svg import line_plot


def run(*argv):
    return cli.main(list(argv))


# --- error-curve ----------------------------------------------------------

def test_error_curve_csv(tmp_path):
    out = tmp_path / "curve.csv"
    code = run(
        "error-curve", "--dim", "1", "--t0", "1", "--t", "2",
        "--kmax", "12", "--grid-points", "201", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,sup_error,F_k,G_k,lb,ratio"
    assert len(lines) == 1 + 12 // 2 + 1  # header + even orders 0..12
    ks = [int(l.split(",")[0]) for l in lines[1:]]
    assert ks == [0, 2, 4, 6, 8, 10, 12]


def test_error_curve_json_and_determinism(tmp_path):
    args = (
        "error-curve", "--dim", "1", "--t0", "1", "--t", "2",
        "--kmax", "8", "--grid-points", "101", "--format", "json",
    )
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = json.loads(out1.read_text())
    assert rows[0]["k"] == 0
    assert rows[0]["sup_error"] <= rows[0]["F_k"]


def test_error_curve_all_k(tmp_path):
    out = tmp_path / "all.csv"
    code = run(
        "error-curve", "--dim", "1", "--kmax", "5", "--all-k",
        "--grid-points", "101", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert [int(l.split(",")[0]) for l in lines[1:]] == [0, 1, 2, 3, 4, 5]


def test_error_curve_plot(tmp_path):
    out = tmp_path / "curve.csv"
    code = run(
        "error-curve", "--dim", "1", "--kmax", "6",
        "--grid-points", "101", "--plot", "--out", str(out),
    )
    assert code == 0
    svg = tmp_path / "curve.svg"
    assert svg.exists()
    assert "<svg" in svg.read_text()[:200]


#: line_plot's bytes, taken before every SVG element went through one writer
PLOTS = {
    "no-data": (
        [("a", [1, 2], [0.0, -1.0]), ("b", [1], [math.inf])],
        "ddab44714e97d0aa2811d8de7eaca8344f429e86bdfe70a41f7e391472bff404",
    ),
    "six-series": (  # the sixth series takes the first colour again
        [(f"s{i}", range(6), [10.0 ** (-i - j) for j in range(6)]) for i in range(6)],
        "8aee3c1d59416ee1c984644db03448043d9e6630ae8c8a96d5e9996d3c522120",
    ),
    "one-point": (
        [("one", [3], [2.0])],
        "b6f2180bdaeaad78076de2a30aa11b43e06b1b586df29718d6dae9174b5260d6",
    ),
}


@pytest.mark.parametrize("case", list(PLOTS))
def test_line_plot_bytes(case):
    series, digest = PLOTS[case]
    text = line_plot(series, "plot", "k", "y")
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert ("no data" in text) == (case == "no-data")


@pytest.mark.parametrize("argv", [
    ("error-curve",), ("divergence", "--t", "0.5"), ("eigen-compare",),
], ids=lambda argv: argv[0])
def test_plot_with_an_svg_out_exits_2_and_writes_nothing(argv, tmp_path, capsys):
    # the plot's path is --out with an .svg suffix: here --out itself
    assert run(*argv, "--kmax", "4", "--plot", "--out", str(tmp_path / "curve.svg")) == 2
    assert "--plot" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_error_curve_dim2(tmp_path):
    out = tmp_path / "d2.csv"
    code = run(
        "error-curve", "--dim", "2", "--t", "2", "--kmax", "8",
        "--grid-points", "101", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 6


@pytest.mark.parametrize("t", ["1.3", "2"])
@pytest.mark.parametrize("dim", ["1", "2"])
def test_error_curve_holds_to_kmax_200(dim, t, tmp_path):
    # at t = 2 the sup error stalls at the rounding level while F_k keeps
    # falling, so sup_error > F_k from k = 94 (dim 1) or 104 (dim 2); the
    # check holds by the rounding floor, sup_error <= F_k + floor_k
    out = tmp_path / "curve.csv"
    assert run("error-curve", "--dim", dim, "--t", t, "--kmax", "200", "--out", str(out)) == 0
    with out.open() as handle:
        stalled = [
            int(row["k"]) for row in csv.DictReader(handle)
            if float(row["sup_error"]) > float(row["F_k"])
        ]
    assert next(iter(stalled), None) == {("1", "2"): 94, ("2", "2"): 104}.get((dim, t))


# --- divergence -----------------------------------------------------------

def test_divergence_dim2(tmp_path):
    out = tmp_path / "div.csv"
    code = run(
        "divergence", "--dim", "2", "--t0", "1", "--t", "0.5",
        "--kmax", "20", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,uk0,abs_uk0,lb,block"
    for line in lines[1:]:
        k, uk0, abs_uk0, lb, block = line.split(",")
        assert float(abs_uk0) == abs(float(uk0))
        if lb:
            assert float(abs_uk0) >= float(lb) * (1.0 - 1e-9)


def test_divergence_asserts_bound_in_dims_1_and_3(tmp_path, monkeypatch, capsys):
    def divergence(dim):
        out = tmp_path / f"div{dim}.csv"
        code = run(
            "divergence", "--dim", str(dim), "--t0", "1", "--t", "0.5",
            "--kmax", "40", "--out", str(out),
        )
        return code, [line.split(",") for line in out.read_text().split()[1:]]

    for dim in (1, 3):
        code, rows = divergence(dim)
        assert code == 0
        bounds = [(float(av), float(lb)) for _, _, av, lb, _ in rows if lb]
        assert len(bounds) >= len(rows) - 1
        assert all(lb <= av * (1.0 + 1e-9) for av, lb in bounds)
    assert capsys.readouterr().out == ""

    real = cli.divergence_lower_bound_sweep
    monkeypatch.setattr(
        cli, "divergence_lower_bound_sweep",
        lambda *args: [lb * heatseries.SignedLog.from_float(2.0) for lb in real(*args)],
    )
    for dim in (1, 3):
        assert divergence(dim)[0] == 1


@pytest.mark.parametrize("dim, t", [(1, 0.1), (1, 0.5), (2, 0.99), (3, 0.95)])
def test_divergence_compares_with_the_bound_directly(tmp_path, monkeypatch, dim, t):
    # the bound already subtracts its own rounding allowance, so the check
    # has no slack of its own: at d1, t = 0.1, k = 0 |u_k(0, t)| is only
    # 1 + 1e-13 times the bound, and a bound 1e-12 higher fails there
    out = tmp_path / "div.csv"
    argv = ("divergence", "--dim", str(dim), "--t", str(t), "--kmax", "40", "--out", str(out))
    assert run(*argv) == 0
    rows = [line.split(",") for line in out.read_text().split()[1:]]
    ratios = [float(av) / float(lb) for _, _, av, lb, _ in rows if lb]
    assert len(ratios) >= len(rows) - 1 and min(ratios) >= 1.0
    if (dim, t) == (1, 0.1):
        assert ratios[0] < 1.0 + 1e-12
        real = cli.divergence_lower_bound_sweep
        monkeypatch.setattr(
            cli, "divergence_lower_bound_sweep",
            lambda *args: [
                lb * heatseries.SignedLog.from_float(1.0 + 1e-12) for lb in real(*args)
            ],
        )
        assert run(*argv) == 1


def test_divergence_overflow_exits_1(tmp_path):
    # (t0/t)^{k/2} = 1e400 at k = 200 overflows u_k(0, t) and the bound alike
    out = tmp_path / "div.csv"
    code = run(
        "divergence", "--dim", "1", "--t0", "1", "--t", "1e-4",
        "--kmax", "200", "--out", str(out),
    )
    assert code == 1
    assert "inf" in out.read_text()


def test_divergence_requires_t_below_t0(tmp_path):
    out = tmp_path / "bad.csv"
    code = run(
        "divergence", "--dim", "2", "--t0", "1", "--t", "2",
        "--kmax", "10", "--out", str(out),
    )
    assert code == 2


# --- eigen-compare --------------------------------------------------------

def test_eigen_compare(tmp_path):
    out = tmp_path / "eig.csv"
    code = run(
        "eigen-compare", "--dim", "1", "--t0", "1", "--t", "2",
        "--kmax", "12", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("k,")
    for line in lines[1:]:
        assert float(line.split(",")[1]) < 1e-10
    sibling = tmp_path / "eig-validity.csv"
    assert sibling.exists()
    rows = sibling.read_text().strip().split("\n")
    assert rows[0] == "t,finite"
    verdicts = [r.split(",")[1] for r in rows[1:]]
    assert verdicts == ["false", "false", "true", "true"]


@pytest.mark.parametrize("dim", ["1", "2"])
@pytest.mark.parametrize("kmax", ["0", "1", "2", "6", "30", "200"])
def test_eigen_compare_verdicts_do_not_follow_kmax(kmax, dim, tmp_path):
    # the verdicts read a coefficient table of degree max(kmax, 40)
    out = tmp_path / "eig.csv"
    assert run("eigen-compare", "--dim", dim, "--kmax", kmax, "--out", str(out)) == 0
    rows = (tmp_path / "eig-validity.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[1] for r in rows] == ["false", "false", "true", "true"]


# --- decomp-check ---------------------------------------------------------

def test_decomp_check(tmp_path):
    out = tmp_path / "dec.csv"
    code = run("decomp-check", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "check,case,value,bound,ok"
    assert all(line.endswith(",true") for line in lines[1:])
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert {kind: kinds.count(kind) for kind in set(kinds)} == {
        "l1_bound": 18, "residual": 30, "remainder_routes": 15,
    }


@pytest.mark.parametrize("amplitude", ["1e200", "1e300", "1e-300"])
def test_decomp_check_at_extreme_amplitudes(amplitude, tmp_path):
    # every Gaussian row is evaluated at unit amplitude and scaled by C, so
    # no square of F_{k+1} overflows (from C of about 1e154) or underflows
    out = tmp_path / "dec.csv"
    assert run("decomp-check", "--amplitude", amplitude, "--out", str(out)) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 63
    assert all(row["ok"] == "true" and math.isfinite(float(row["bound"])) for row in rows)


@pytest.mark.parametrize("amplitude", ["1e303", "1e304", "1e305", "1e306", "1e307", "1e308"])
def test_decomp_check_near_the_double_range_ends_in_an_exit_code(amplitude, tmp_path, capsys):
    # up to 1e307 every side stays finite; at 1e308 the l1_bound rows'
    # C ||x^a f||_1 / a! (up to 8.5e308) pass the double range and read
    # inf, rows that fail as not finite
    code = run("decomp-check", "--amplitude", amplitude, "--out", str(tmp_path / "dec.csv"))
    assert code == (1 if amplitude == "1e308" else 0)
    assert "Traceback" not in capsys.readouterr().err


# --- moments --------------------------------------------------------------

def test_moments_json_schema(tmp_path):
    out = tmp_path / "m.json"
    code = run(
        "moments", "--dim", "2", "--kmax", "4", "--format", "json",
        "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    raw = json.loads(text)
    assert list(raw) == ["dim", "kmax", "signs", "logmag"]
    assert len(raw["signs"]) == len(raw["logmag"]) == 15
    table = MomentTable.from_json(text)
    assert table.moment((0, 0)).to_float() == pytest.approx(
        4.0 * math.pi, rel=1e-12
    )
    assert table.moment((2, 0)).to_float() == pytest.approx(
        2.0 * math.pi * 4.0, rel=1e-12
    )


def test_moments_csv(tmp_path):
    out = tmp_path / "m.csv"
    code = run("moments", "--dim", "1", "--kmax", "4", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "alpha,sign,logmag"
    assert len(lines) == 6
    # entries follow degree order: 2 sqrt(pi), 0, 4 sqrt(pi), 0, 24 sqrt(pi)
    signs = [int(l.split(",")[1]) for l in lines[1:]]
    assert signs == [1, 0, 1, 0, 1]
    m4 = float(lines[5].split(",")[2])
    assert math.exp(m4) == pytest.approx(24.0 * math.sqrt(math.pi), rel=1e-12)


def test_the_documented_edge_kmax_200(tmp_path):
    # the largest --kmax: the d3 table's JSON reads back bit for bit,
    # divergence still exits 0 in d2, and d1 divergence and eigen-compare
    # in d1 and d2 write their golden bytes
    out = tmp_path / "m.json"
    assert run("moments", "--dim", "3", "--kmax", "200", "--format", "json", "--out", str(out)) == 0
    back = MomentTable.from_json(out.read_text())
    table = build_moment_table(Gaussian(amplitude=1.0, width=1.0, dim=3), 200)
    assert np.array_equal(back.signs, table.signs)
    assert np.array_equal(back.logmag.view(np.int64), table.logmag.view(np.int64))
    divergence = ("divergence", "--dim", "2", "--t", "0.5", "--kmax", "200")
    assert run(*divergence, "--out", str(tmp_path / "div.csv")) == 0
    for argv in (
        ("eigen-compare", "--dim", "2", "--t0", "1", "--t", "2", "--kmax", "200"),
        ("eigen-compare", "--dim", "1", "--t0", "1", "--t", "2", "--kmax", "200"),
        ("divergence", "--dim", "1", "--t", "0.5", "--kmax", "200"),
    ):
        (tmp_path / argv[0] / argv[2]).mkdir(parents=True)
        assert _digests(argv, tmp_path / argv[0] / argv[2]) == GOLDEN[argv]


# --- csv and json carry the same table ------------------------------------

def assert_same_table(csv_text, objects):
    """The CSV and the parsed JSON objects hold the same rows and cells;
    numbers are compared after parsing."""
    header, *lines = list(csv.reader(io.StringIO(csv_text)))
    assert len(lines) == len(objects) > 0
    for line, obj in zip(lines, objects):
        assert list(obj) == header
        for cell, value in zip(line, obj.values()):
            if value is None:
                assert cell == ""
            elif isinstance(value, bool):
                assert cell == ("true" if value else "false")
            elif isinstance(value, list):
                assert cell == " ".join(map(str, value))
            elif isinstance(value, str):
                assert cell == value
            else:
                assert float(cell) == float(value)


@pytest.mark.parametrize(
    "argv",
    [
        ("error-curve", "--t", "0.5", "--kmax", "8", "--all-k",
         "--grid-points", "101"),
        ("divergence", "--dim", "1", "--t", "0.5", "--kmax", "10"),
        ("divergence", "--dim", "2", "--t", "0.5", "--kmax", "10"),
        ("decomp-check",),
    ],
)
def test_csv_and_json_agree(argv, tmp_path):
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert run(*argv, "--out", str(csv_out)) == 0
    assert run(*argv, "--format", "json", "--out", str(json_out)) == 0
    assert_same_table(csv_out.read_text(), json.loads(json_out.read_text()))


def test_eigen_compare_csv_and_json_agree(tmp_path):
    argv = ("eigen-compare", "--dim", "1", "--kmax", "6")
    assert run(*argv, "--out", str(tmp_path / "eig.csv")) == 0
    json_out = tmp_path / "eig.json"
    assert run(*argv, "--format", "json", "--out", str(json_out)) == 0
    envelope = json.loads(json_out.read_text())
    assert list(envelope) == ["discrepancies", "validity"]
    assert_same_table((tmp_path / "eig.csv").read_text(), envelope["discrepancies"])
    assert_same_table(
        (tmp_path / "eig-validity.csv").read_text(), envelope["validity"]
    )


def test_moments_csv_and_json_agree(tmp_path):
    argv = ("moments", "--dim", "2", "--kmax", "4")
    assert run(*argv, "--out", str(tmp_path / "m.csv")) == 0
    assert run(*argv, "--format", "json", "--out", str(tmp_path / "m.json")) == 0
    # the JSON columns in table order, beside the multi-index of each row
    text = (tmp_path / "m.json").read_text()
    raw = json.loads(text)
    alphas = MomentTable.from_json(text).components.tolist()
    rows = zip(alphas, raw["signs"], raw["logmag"], strict=True)
    objects = [dict(zip(MomentTable.COLUMNS, row)) for row in rows]
    assert_same_table((tmp_path / "m.csv").read_text(), objects)


# --- byte identity ----------------------------------------------------------

#: sha256 of every file each command writes, taken before the moment table
#: became arrays (x86-64, glibc libm, OpenBLAS): the array table must write
#: the same bytes.  Another libm or BLAS may move last digits.
GOLDEN = {
    # written again when the wire format became two columns: the same
    # signs and logmag bits as the row format's
    ("moments", "--dim", "3", "--kmax", "40", "--format", "json"): {
        "out.txt": "c56283d54f8a4ee9585bb27430d234ff8942cc31b10a96bdadcd79c77ba6cd0c",
    },
    ("moments", "--dim", "3", "--kmax", "40", "--format", "csv"): {
        "out.txt": "0a865bed3cba4887a212ab6cf9278d0c5fa8a4cec3709b37a48b85efabae631f",
    },
    ("eigen-compare", "--dim", "2", "--kmax", "30"): {
        "out.txt": "48b11ef4d384ba017346ffd05262d08b0db3f698c64d881e61837a4b09c243fa",
        "out-validity.csv": "bbfb90cf66c41f06f144fdb25db1f5697d292db0f8f4ccdb0795522936e63bf8",
    },
    # a kmax below the verdict's coefficient degree
    ("eigen-compare", "--dim", "1", "--t0", "1", "--t", "2", "--kmax", "6"): {
        "out.txt": "8c294c3b717117d6473b17d6fb550120fbf2b584c573e68f865dd6206511cb0b",
        "out-validity.csv": "bbfb90cf66c41f06f144fdb25db1f5697d292db0f8f4ccdb0795522936e63bf8",
    },
    ("eigen-compare", "--dim", "2", "--kmax", "30", "--format", "json"): {
        "out.txt": "6fdd75e5e62d2ed34a9c8216671f4eaff54ae1ff7b41c766f2a69531b3f3e766",
    },
    ("error-curve", "--dim", "2", "--kmax", "60"): {
        "out.txt": "8ab19e52dd7d6b939ba4bae8cbdc6b25088c15bfea01c70c479b155622cb85f2",
    },
    ("error-curve", "--dim", "1", "--t0", "1", "--t", "2", "--kmax", "40"): {
        "out.txt": "2fc9caefcc2d87885f169efe54fbc8b93ebdcf3d10d7f76b8b6534fa486af6e5",
    },
    # below t0: the divergent side, with the lb column
    ("error-curve", "--dim", "2", "--t0", "1", "--t", "0.5", "--kmax", "60"): {
        "out.txt": "1cecb38742928fa471b943a761e9dcba5660032f4e03141d9b5278396f394fb3",
    },
    # taken while ErrorCurve still wrote its own rows: the shared row writer
    # must write the same bytes
    ("error-curve", "--dim", "1", "--kmax", "40", "--format", "json"): {
        "out.txt": "08945d651b4d679b4577316da31711f1d3a5b042dc34c4d67bae8ddedde4442e",
    },
    ("error-curve", "--dim", "1", "--kmax", "12", "--all-k"): {
        "out.txt": "6aaea5b898cf78ce82401c5911031fe27bb75cd860650babfdda39eccf0acd4c",
    },
    ("divergence", "--dim", "2", "--t", "0.5", "--kmax", "60"): {
        "out.txt": "561aed037a737779e0e2ce681fa515b7250065dc7053ec959cd195fd20dd1138",
    },
    ("decomp-check",): {
        "out.txt": "6c895f0b9f33f3e9176614e652060981e74f49f224c437c67e0653818f20e4af",
    },
    ("decomp-check", "--format", "json"): {
        "out.txt": "443c6553c0ab6215a9a6453fd1f93cd1cb2949e5c17681024e52e5615f8c0cd2",
    },
    # the plots, taken before the three commands shared one plot writer
    ("error-curve", "--dim", "1", "--kmax", "40", "--plot"): {
        "out.txt": "2fc9caefcc2d87885f169efe54fbc8b93ebdcf3d10d7f76b8b6534fa486af6e5",
        "out.svg": "3e5b767df9abc19367e76e4da552834c0c71e4591f2aaa4564ffae211480e870",
    },
    ("divergence", "--dim", "2", "--t", "0.5", "--kmax", "60", "--plot"): {
        "out.txt": "561aed037a737779e0e2ce681fa515b7250065dc7053ec959cd195fd20dd1138",
        "out.svg": "532e0af89fbdfa96f315b6f6cc0af29ccf611072ef1d2cc8602b9b5661f146fd",
    },
    ("eigen-compare", "--dim", "2", "--kmax", "30", "--plot"): {
        "out.txt": "48b11ef4d384ba017346ffd05262d08b0db3f698c64d881e61837a4b09c243fa",
        "out-validity.csv": "bbfb90cf66c41f06f144fdb25db1f5697d292db0f8f4ccdb0795522936e63bf8",
        "out.svg": "27b8cda28a398aa23e23d6d9d99034db3c34f5dd0081a8f8a91d2c074dfc7b97",
    },
    # the README's commands as spelt there, taken before every column was
    # written as cell strings; the first two are other spellings of keys above
    ("error-curve", "--dim", "1", "--t", "2", "--kmax", "40", "--plot"): {
        "out.txt": "2fc9caefcc2d87885f169efe54fbc8b93ebdcf3d10d7f76b8b6534fa486af6e5",
        "out.svg": "3e5b767df9abc19367e76e4da552834c0c71e4591f2aaa4564ffae211480e870",
    },
    ("divergence", "--dim", "2", "--t0", "1", "--t", "0.5", "--kmax", "60"): {
        "out.txt": "561aed037a737779e0e2ce681fa515b7250065dc7053ec959cd195fd20dd1138",
    },
    ("eigen-compare", "--dim", "1", "--t0", "1", "--t", "2", "--kmax", "30"): {
        "out.txt": "56dddb3bd85e096b56b5647b1e5a7efc363d1be04c5adc3bc7efe687f415cabd",
        "out-validity.csv": "bbfb90cf66c41f06f144fdb25db1f5697d292db0f8f4ccdb0795522936e63bf8",
    },
    ("moments", "--dim", "2", "--kmax", "8", "--format", "json"): {
        "out.txt": "6ddf21dae63bf3a66bf6beb1acef40c7e15a52bb45e2d34a119b8e00467e63c5",
    },
    # the documented edge, taken before the point sums shared exponential
    # passes; test_the_documented_edge_kmax_200 runs it
    ("eigen-compare", "--dim", "2", "--t0", "1", "--t", "2", "--kmax", "200"): {
        "out.txt": "d1c9596730e01b4ac5b5f3642d830ddc6187bdca61482543e84cd1758c35eb0d",
        "out-validity.csv": "bbfb90cf66c41f06f144fdb25db1f5697d292db0f8f4ccdb0795522936e63bf8",
    },
    # taken before the error sweep skipped bands: the stress case, whose
    # sweep skips bands, and the documented edge in d1
    ("error-curve", "--dim", "2", "--t0", "1", "--t", "2", "--kmax", "120"): {
        "out.txt": "be708fc8de759892754a6d931fd147413adc7537b306cc13b662b830362b83b5",
    },
    ("eigen-compare", "--dim", "1", "--t0", "1", "--t", "2", "--kmax", "200"): {
        "out.txt": "35765d24de93ab34bfd911abd1deb580fe8d8823ba67c04343623a394a33cd6c",
        "out-validity.csv": "bbfb90cf66c41f06f144fdb25db1f5697d292db0f8f4ccdb0795522936e63bf8",
    },
    ("divergence", "--dim", "1", "--t", "0.5", "--kmax", "200"): {
        "out.txt": "5bba3e5892670cc671340f0fc57936f40d2f6116694453d3e7bb162a9b4599ed",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: "-".join(argv).replace("--", ""))
def test_outputs_are_byte_identical(argv, tmp_path):
    assert _digests(argv, tmp_path) == GOLDEN[argv]


def _digests(argv, tmp_path) -> dict[str, str]:
    """sha256 of every file the command writes with --out tmp_path/out.txt."""
    assert run(*argv, "--out", str(tmp_path / "out.txt")) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }


def _readme_commands() -> list[tuple[str, ...]]:
    """The argv of each command in the README's "## Command line" sh block,
    without the program name and its --out."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("heatseries "):
            argv = shlex.split(line)[1:]
            at = argv.index("--out")
            commands.append(tuple(argv[:at] + argv[at + 2 :]))
    return commands


def test_readme_lists_every_command():
    assert {argv[0] for argv in _readme_commands()} == set(cli._COMMANDS)


@pytest.mark.parametrize(
    "argv", _readme_commands(), ids=lambda argv: "-".join(argv).replace("--", "")
)
def test_readme_commands_write_their_golden_bytes(argv, tmp_path):
    # each command exactly as the README spells it
    assert argv in GOLDEN
    assert _digests(argv, tmp_path) == GOLDEN[argv]


# --- exit codes and argument validation -----------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("error-curve", "--dim", "0", "--out", "x.csv"),
        ("error-curve", "--dim", "3", "--out", "x.csv"),   # grids stop at 2
        ("error-curve", "--t", "0", "--out", "x.csv"),
        ("error-curve", "--kmax", "-1", "--out", "x.csv"),
        ("error-curve", "--kmax", "300", "--out", "x.csv"),
        ("error-curve", "--grid-points", "100", "--out", "x.csv"),
        ("eigen-compare", "--dim", "3", "--out", "x.csv"),
    ],
)
def test_usage_errors_exit_2(argv, tmp_path):
    assert run(*argv) == 2


def test_unknown_flag_exits_2(tmp_path):
    assert run("error-curve", "--frobnicate", "--out", "x.csv") == 2


def test_missing_subcommand_exits_2():
    assert run() == 2


def test_one_parser_serves_every_call(tmp_path):
    # the parser is built once per process, and a usage error leaves it as it was
    assert cli._parser() is cli._parser()
    assert run("divergence", "--frobnicate", "--out", "x.csv") == 2
    argv = ("divergence", "--dim", "2", "--t", "0.5", "--kmax", "60")
    assert _digests(argv, tmp_path) == GOLDEN[argv]


def test_unwritable_output_exits_3(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = run(
        "moments", "--dim", "1", "--kmax", "2", "--out", str(missing)
    )
    assert code == 3


def test_failed_assertion_exits_1(tmp_path, monkeypatch):
    # force a fabricated curve whose measurement violates its own bound to
    # confirm the assertion path maps to exit code 1
    def fake_curve(*args, **kwargs):
        return ErrorCurve(
            points=[ErrorPoint(k=0, sup_error=1.0, F_k=0.5, G_k=None)], floors=[0.0]
        )

    monkeypatch.setattr(cli, "error_curve", fake_curve)
    out = tmp_path / "forced.csv"
    code = run(
        "error-curve", "--dim", "1", "--kmax", "0",
        "--grid-points", "51", "--out", str(out),
    )
    assert code == 1


def _curve_point(index, field, value):
    """error_curve's curve with ``field`` of points[index] set to ``value``."""
    def change(args, curve):
        setattr(curve.points[index], field, value)
        return curve
    return change


def _nan_at(orders):
    """eval_expansion_sweep's values with NaN at ``orders``, at every point."""
    return lambda args, values: [
        math.nan if k in orders else value for k, value in zip(args[2], values)
    ]


#: id: (argv, the cli function wrapped, change(its args, its result), the
#: cases the message names).  A NaN passes "lhs > rhs" and an infinite rhs
#: certifies nothing, so each makes a row fail; eigen-compare's right sides
#: are constants, and past k = 30, where only finiteness is claimed, a NaN
#: discrepancy still fails
NONFINITE_SIDES = {
    "error-curve-lhs-nan": (
        ("error-curve", "--kmax", "4", "--grid-points", "51"),
        "error_curve", _curve_point(1, "sup_error", math.nan), "k=2",
    ),
    "error-curve-rhs-inf": (
        ("error-curve", "--kmax", "4", "--grid-points", "51"),
        "error_curve", _curve_point(0, "F_k", math.inf), "k=0",
    ),
    "divergence-lhs-nan": (
        ("divergence", "--t", "0.5", "--kmax", "6"), "divergence_lower_bound_sweep",
        lambda args, lbs: [
            SimpleNamespace(sign=1, to_float=lambda: math.nan) if k == 4 else lb
            for k, lb in zip(args[4], lbs)
        ],
        "k=4",
    ),
    "divergence-rhs-inf": (
        ("divergence", "--t", "0.5", "--kmax", "6"), "eval_uk_sweep",
        lambda args, results: [
            replace(r, value=math.inf) if k in (2, 6) else r for k, r in zip(args[3], results)
        ],
        "k=2 k=6",
    ),
    "eigen-compare-lhs-nan-k4-k32": (
        ("eigen-compare", "--kmax", "34"), "eval_expansion_sweep", _nan_at((4, 32)), "k=4 k=32",
    ),
    "eigen-compare-lhs-nan-k0-to-k34": (
        ("eigen-compare", "--kmax", "34"), "eval_expansion_sweep",
        _nan_at((0, 2, 4, 30, 32, 34)), "k=0 k=2 k=4 k=30 k=32 k=34",
    ),
    "decomp-check-lhs-nan": (
        ("decomp-check",), "remainder_l1_norm",
        lambda args, value: math.nan if args[1] == 2 else value,
        "width=0.5,alpha=2 width=1,alpha=2 width=2,alpha=2 f=(1-x^2)exp(-x^2),alpha=2",
    ),
    "decomp-check-rhs-inf": (
        ("decomp-check",), "_residual_thresholds",
        lambda args, values: [math.inf if k == 3 else v for k, v in zip(args[1], values)],
        " ".join(
            f"width={w},phi={phi},k=3" for w in ("0.5", "1", "2")
            for phi in ("gaussian", "poly_gaussian")
        ),
    ),
}


@pytest.mark.parametrize("case", list(NONFINITE_SIDES))
def test_nonfinite_check_side_exits_1(case, tmp_path, monkeypatch, capsys):
    argv, name, change, cases = NONFINITE_SIDES[case]
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args, **kw: change(args, real(*args, **kw)))
    assert run(*argv, "--out", str(tmp_path / "out.csv")) == 1
    assert capsys.readouterr().err.endswith(f", or a side is not finite, at {cases}\n")


# --- which options each command reads --------------------------------------

#: The options each command reads; every other option is a usage error.
READS = {
    "error-curve": ("--dim", "--t0", "--t", "--amplitude", "--kmax", "--grid-extent",
                    "--grid-points", "--format", "--plot", "--all-k"),
    "divergence": ("--dim", "--t0", "--t", "--amplitude", "--kmax", "--format",
                   "--plot", "--all-k"),
    "eigen-compare": ("--dim", "--t0", "--t", "--amplitude", "--kmax", "--format",
                      "--plot", "--all-k"),
    "moments": ("--dim", "--t0", "--amplitude", "--kmax", "--format"),
    "decomp-check": ("--amplitude", "--format"),
}

#: A valid value for each option that takes one.
VALUES = {
    "--dim": "1", "--t0": "1", "--t": "0.5", "--amplitude": "1", "--kmax": "2",
    "--grid-extent": "5", "--grid-points": "101", "--format": "csv",
}

FLOATS = ("--t0", "--t", "--amplitude", "--grid-extent")


def _option_argv(option, value=None):
    if option in VALUES:
        return [option, VALUES[option] if value is None else value]
    return [option]


@pytest.mark.parametrize(
    "command,option",
    [
        (command, option)
        for command, reads in READS.items()
        for option in READS["error-curve"]
        if option not in reads
    ],
)
def test_option_foreign_to_command_exits_2(command, option, tmp_path):
    argv = [command, *_option_argv(option), "--out", str(tmp_path / "x.csv")]
    assert run(*argv) == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command,option",
    [(command, option) for command, reads in READS.items() for option in reads if option in FLOATS],
)
def test_nonfinite_float_option_exits_2(command, option, value, tmp_path):
    argv = [command, *_option_argv(option, value), "--out", str(tmp_path / "x.csv")]
    assert run(*argv) == 2
    assert not (tmp_path / "x.csv").exists()


@settings(max_examples=40, deadline=None)
@given(
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    good=st.floats(min_value=1e-3, max_value=1e3),
    field=st.sampled_from(["amplitude", "width", "extent", "t"]),
)
def test_constructors_reject_nonfinite(bad, good, field):
    make = {
        "amplitude": lambda: Gaussian(amplitude=bad, width=good, dim=1),
        "width": lambda: Gaussian(amplitude=good, width=bad, dim=2),
        "extent": lambda: GridSpec(dim=1, extent=bad, points=11),
        "t": lambda: ApproxConfig(dim=1, k=2, t=bad),
    }[field]
    with pytest.raises(DomainError):
        make()


def test_version_flag(capsys):
    code = run("--version")
    assert code == 0
    assert capsys.readouterr().out.strip()


def test_cli_import_loads_no_scipy():
    # the package depends on numpy alone; scipy is only the tests' cross-check.
    # A dim-2 radial error curve and oracle value run here too, so that an
    # import made lazily on first use cannot hide from the check
    src = Path(heatseries.__file__).resolve().parents[1]
    code = (
        "import math, sys, heatseries.cli\n"
        "from heatseries import GridSpec, Radial, build_moment_table, convolve_oracle, error_curve\n"
        "u0 = Radial(profile=lambda r: math.exp(-r * r / 4.0) * (1.0 + r), dim=2)\n"
        "curve = error_curve(u0, build_moment_table(u0, 5), 2, 1.3, 4, GridSpec(2, 8.0, 9))\n"
        "assert len(curve.points) == 3 and curve.points[0].sup_error > 0.0\n"
        "assert convolve_oracle(u0, (0.3, -0.4), 0.7) > 0.0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"

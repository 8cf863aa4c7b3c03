"""The claim logic of ``tools/bench_pairs.py`` on synthetic runs: no
benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(parent_wall, change_wall, lengths=(24, 37), parent_rss=None, change_rss=None):
    """Finished runs of one plan: pair i reads parent_wall[i] and
    change_wall[i] as grid-gauss wall_per_ref, and parent_rss[i] and
    change_rss[i] as its peak_rss_mb if given; the other metrics are flat."""
    seeds = list(range(11, 11 + len(parent_wall)))
    plan = bench_pairs.schedule(seeds, list(lengths))
    parent_rss = parent_rss or [50.0] * len(seeds)
    change_rss = change_rss or [50.0] * len(seeds)
    runs = []
    for pair, p, c, p_rss, c_rss in zip(plan, parent_wall, change_wall, parent_rss, change_rss):
        for side, wall, rss in (("parent", p, p_rss), ("change", c, c_rss)):
            runs.append({
                "seed": pair["seed"], "length": pair["length"], "side": side, "correct": True,
                "metrics": {
                    "grid-gauss.wall_per_ref": wall, "grid-gauss.setup_s": 0.2,
                    "grid-gauss.peak_rss_mb": rss,
                },
                "operations": {"grid-gauss": {"attempted": 700, "failed": 0, "known_defects": 0}},
            })
    return runs, plan


def test_schedule_alternates_the_first_side_within_each_length():
    plan = bench_pairs.schedule(list(range(11, 21)), [24, 37])
    assert [p["length"] for p in plan] == [24, 37] * 5
    for n in (24, 37):
        firsts = [p["parent_first"] for p in plan if p["length"] == n]
        assert firsts == [True, False, True, False, True]


def test_a_gain_at_both_lengths_is_met():
    parent = [1.50, 1.48, 1.52, 1.49, 1.51, 1.47, 1.50, 1.53, 1.49, 1.50]
    change = [x - 0.15 for x in parent]
    claim = bench_pairs.assemble(*_runs(parent, change), "grid-gauss.wall_per_ref")["claim"]
    assert claim["met"] is True
    assert claim["met_at"] == {"24": True, "37": True}
    assert claim["pairs_change_lower"] == 10


def test_a_gain_at_one_length_only_is_unresolved():
    # the change is 5% faster from the paths of length 24 and 5% slower from 37
    parent = [1.50] * 10
    change = [1.425 if i % 2 == 0 else 1.575 for i in range(10)]
    record = bench_pairs.assemble(*_runs(parent, change), "grid-gauss.wall_per_ref")
    assert record["claim"]["met"] is None
    assert "disagree" in record["claim"]["unresolved"]
    assert record["claim"]["met_at"] == {"24": True, "37": False}
    assert record["unresolved"] == {"grid-gauss.wall_per_ref": {"24": -0.05, "37": 0.05}}


@pytest.mark.parametrize(
    "lost_pairs,gap,met",
    [(0, 0.15, True), (1, 0.15, False), (0, 0.01, False)],
    ids=["every-pair-clear-gap", "one-pair-lost-of-five", "gap-inside-the-spread"],
)
def test_the_rule_at_each_length(lost_pairs, gap, met):
    # five pairs per length: nine tenths of them is all five; the parent's
    # runs spread over 0.06, more than a gap of 0.01
    parent = [1.44, 1.44, 1.47, 1.47, 1.50, 1.50, 1.53, 1.53, 1.56, 1.56]
    change = [x - gap for x in parent]
    for i in range(lost_pairs):
        change[i] = parent[i] + 0.01
    claim = bench_pairs.assemble(*_runs(parent, change), "grid-gauss.wall_per_ref")["claim"]
    assert claim["met"] is met


_BOUNDS = {"wall_per_ref": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.05}
_SPREAD = [1.44, 1.44, 1.47, 1.47, 1.50, 1.50, 1.53, 1.53, 1.56, 1.56]


def test_a_loss_at_both_lengths_is_worse_with_its_bound():
    # the claim is met while peak RSS rises by 3% in every pair
    rss = [48.0 + 0.01 * i for i in range(10)]
    record = bench_pairs.assemble(
        *_runs(_SPREAD, [x - 0.15 for x in _SPREAD], parent_rss=rss, change_rss=[x * 1.03 for x in rss]),
        "grid-gauss.wall_per_ref", _BOUNDS,
    )
    assert record["claim"]["met"] is True
    assert list(record["worse"]) == ["grid-gauss.peak_rss_mb"]
    entry = record["worse"]["grid-gauss.peak_rss_mb"]
    assert entry["median_change_over_parent"] == 0.03 and entry["bound"] == 0.05
    assert entry["at"] == {"24": 0.03, "37": 0.03}


def test_a_loss_is_judged_by_the_mirror_of_the_claim_rule():
    slower = [x + 0.15 for x in _SPREAD]
    record = bench_pairs.assemble(*_runs(_SPREAD, slower), None, _BOUNDS)
    assert record["worse"] == {
        "grid-gauss.wall_per_ref": {
            "median_change_over_parent": 0.1, "at": {"24": 0.1, "37": 0.1}, "bound": 0.25,
        }
    }
    # one pair of five won at a length, a gap inside the parent's spread,
    # a loss at one length only, or a gain: not worse
    one_won = list(slower)
    one_won[0] = _SPREAD[0] - 0.01
    one_length = [x + 0.15 if i % 2 else x - 0.15 for i, x in enumerate(_SPREAD)]
    for change in (one_won, [x + 0.01 for x in _SPREAD], one_length, [x - 0.15 for x in _SPREAD]):
        assert bench_pairs.assemble(*_runs(_SPREAD, change), None, _BOUNDS)["worse"] == {}
    # without bounds the entry still stands, its bound unknown
    assert bench_pairs.assemble(*_runs(_SPREAD, slower), None)["worse"][
        "grid-gauss.wall_per_ref"]["bound"] is None


def test_benchmark_bounds_read_every_end_to_end_metric():
    bounds = bench_pairs.benchmark_bounds(ROOT / "BENCHMARK.json")
    assert set(bounds) == set(bench_pairs.METRICS)
    assert all(0.0 < b < 1.0 for b in bounds.values())


def test_the_record_has_the_committed_schema(tmp_path):
    # the fields tests/test_bench_records.py reads, from assemble's part
    parent = [1.50, 1.48, 1.52, 1.49, 1.51, 1.47, 1.50, 1.53, 1.49, 1.50]
    record = bench_pairs.assemble(*_runs(parent, parent), None)
    assert record["claim"] == "none" and record["pairs"] == len(record["seeds"]) == 10
    json.dumps(record)
    for metrics in record["workloads"].values():
        assert set(metrics) == {"wall_per_ref", "setup_s", "peak_rss_mb"}
        for pair in metrics.values():
            for side in ("parent", "change"):
                summary = pair[side]
                assert len(summary["runs"]) == 10
                assert summary["q1"] <= summary["median"] <= summary["q3"]


def test_unfinished_pairs_are_left_out():
    runs, plan = _runs([1.5] * 10, [1.4] * 10)
    record = bench_pairs.assemble(runs[:-1], plan, None)  # the last change run is missing
    assert record["pairs"] == 9 and record["seeds"] == list(range(11, 20))


def test_parse_output_reads_metrics_and_operations():
    stdout = "\n".join([
        "== grid-gauss seed 11: 3 operations x 240 repetitions",
        "fail_ratio   0   (0 failed + 0 known defect, of 717 attempted)",
        "== oracle-quad seed 11: 48 operations x 160 repetitions",
        "fail_ratio   0.125   (2 failed + 1000 known defect, of 8016 attempted)",
        json.dumps({"correct": True, "attempted": 8733, "failed": 2, "metrics": {
            "grid-gauss.wall_per_ref": {"value": 1.45, "unit": "ref"},
            "oracle-quad.wall_per_ref": {"value": 3.6, "unit": "ref"},
        }}),
    ])
    got = bench_pairs.parse_output(stdout)
    assert got["metrics"] == {"grid-gauss.wall_per_ref": 1.45, "oracle-quad.wall_per_ref": 3.6}
    assert got["operations"]["oracle-quad"] == {"failed": 2, "known_defects": 1000, "attempted": 8016}
    assert got["operations"]["grid-gauss"]["attempted"] == 717


def test_padded_paths_have_the_asked_length(tmp_path):
    path = bench_pairs.padded(tmp_path, "p", len(str(tmp_path)) + 12)
    assert len(str(path)) == len(str(tmp_path)) + 12
    with pytest.raises(SystemExit):
        bench_pairs.padded(tmp_path, "p", 3)

"""The committed before/after benchmark pairs, ``BENCH_*.json`` at the root
of the repository, carry what a reader needs to judge them: the machine and
its BLAS, both commits, the seeds, the length of the checkout paths (peak RSS
moves with it), and per workload and metric each side's median, quartiles and
every run."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
MACHINE = {"nproc", "affinity", "python", "numpy", "blas", "blas_threads"}
METRICS = {"wall_per_ref", "setup_s", "peak_rss_mb"}


def test_a_pair_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_pair_names_its_machine_commits_seeds_and_runs(path):
    record = json.loads(path.read_text())
    assert MACHINE <= set(record["machine"])
    assert record["commits"]["parent"] and record["commits"]["change"]
    assert isinstance(record["path_length"], int) and record["path_length"] > 0
    seeds = record["seeds"]
    assert len(seeds) >= 10
    assert record["workloads"]
    for workload, metrics in record["workloads"].items():
        assert METRICS <= set(metrics), workload
        for metric, sides in metrics.items():
            for side in ("parent", "change"):
                summary = sides[side]
                runs = summary["runs"]
                assert len(runs) == len(seeds), (workload, metric, side)
                assert summary["median"] == statistics.median(runs)
                assert summary["q1"] <= summary["median"] <= summary["q3"]

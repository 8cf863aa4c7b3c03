"""Paired benchmark runs of a parent and a change, at two checkout path lengths.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --seeds 11-30 \\
        --claim grid-gauss.wall_per_ref --traced grid-gauss --workdir /tmp/pairs \\
        --out BENCH_N.json

Each side is extracted from git (``git archive``: the committed files only)
into a directory under --workdir whose path has one of two lengths, so that
both sides share a length in every pair.  Pair i runs seed i of --seeds from
the paths of length ``lengths[i % 2]``, parent first or change first in turn
within each length, with heatbench's command unchanged:

    python3 heatbench/run.py --workload all --seed S --seconds 35 --trace 0

Every finished run is appended to ``runs.jsonl`` under --workdir as it ends.
The record written to --out holds, for every workload and end-to-end metric,
each side's median, quartiles and runs over all pairs (the schema that
``tests/test_bench_records.py`` checks), and the same per path length.  A
claim is decided only where the median moves the same way at both lengths:
it is met when, at each length, the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile range.
Where the lengths disagree, the claim, and any other metric, is unresolved.
Layout alone moves grid-gauss by about 5% with the path length, so a gain
seen at one length only is no gain.  The record's ``worse`` lists every
workload.metric that the mirror of the claim rule finds worse at both
lengths (the change loses at least nine tenths of the pairs at each, by
more than the parent's interquartile range), with its relative change
beside its bound in BENCHMARK.json.

Standard library only.  Run it from any directory inside the repository.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

COMMAND = ["python3", "heatbench/run.py", "--workload", "all", "--seconds", "35", "--trace", "0"]
METRICS = {"wall_per_ref": "lower", "setup_s": "lower", "peak_rss_mb": "lower"}
#: A claim needs the change to win this share of the pairs at each length.
WIN_SHARE = 0.9
QUARTILES = "statistics.quantiles(runs, n=4, method='inclusive')"


def summary(runs: list[float]) -> dict:
    """Median, quartiles and every run of one side."""
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": list(runs)}


def compare(parent: list[float], change: list[float]) -> dict:
    """Both sides of one metric over the same pairs, in pair order."""
    p, c = summary(parent), summary(change)
    return {
        "parent": p,
        "change": c,
        "pairs_change_lower": sum(b < a for a, b in zip(parent, change)),
        "pairs_change_higher": sum(b > a for a, b in zip(parent, change)),
        "parent_interquartile_range": round(p["q3"] - p["q1"], 6),
        "median_change_over_parent": round(c["median"] / p["median"] - 1.0, 4)
        if p["median"] else None,
    }


def gain_met(pair: dict, better: str) -> bool:
    """The change wins at least WIN_SHARE of the pairs, ties counting for
    neither side, and its median beats the parent's by more than the
    parent's interquartile range."""
    wins = pair["pairs_change_lower" if better == "lower" else "pairs_change_higher"]
    gap = pair["parent"]["median"] - pair["change"]["median"]
    if better != "lower":
        gap = -gap
    return wins >= math.ceil(WIN_SHARE * len(pair["parent"]["runs"])) and gap > pair[
        "parent_interquartile_range"
    ]


def worse(by_length: dict, table: dict, bounds: dict) -> dict:
    """workload.metric -> its median change over all pairs and at each
    length, beside its end-to-end bound (None where ``bounds`` has none),
    for every metric worse at every length by the mirror of
    :func:`gain_met`: the change loses at least WIN_SHARE of the pairs, by
    more than the parent's interquartile range."""
    out = {}
    for key, pairs in by_length.items():
        workload, metric = key.split(".", 1)
        worse_way = "higher" if METRICS[metric] == "lower" else "lower"
        if pairs and all(gain_met(pair, worse_way) for pair in pairs.values()):
            out[key] = {
                "median_change_over_parent": table[workload][metric]["median_change_over_parent"],
                "at": {str(n): pair["median_change_over_parent"] for n, pair in pairs.items()},
                "bound": bounds.get(metric),
            }
    return out


def benchmark_bounds(path: Path) -> dict:
    """metric -> relative bound of each end-to-end metric of a
    BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def direction(pair: dict) -> int:
    """-1, 0 or 1: the sign of the change's median minus the parent's."""
    diff = pair["change"]["median"] - pair["parent"]["median"]
    return (diff > 0) - (diff < 0)


def decide(by_length: dict, better: str) -> dict:
    """The verdict on one claimed metric from its comparison at each path
    length: unresolved where the medians move in different directions,
    otherwise met only where the rule holds at every length."""
    directions = {direction(pair) for pair in by_length.values()}
    if len(directions) > 1:
        return {"met": None, "unresolved": "the path lengths disagree in direction"}
    return {"met": all(gain_met(pair, better) for pair in by_length.values())}


def disagreements(by_length: dict) -> dict:
    """workload.metric -> per-length median change, for every metric whose
    median moves one way at one length and the other way at another."""
    out = {}
    for key, pairs in by_length.items():
        if len({direction(pair) for pair in pairs.values()}) > 1:
            out[key] = {str(n): pair["median_change_over_parent"] for n, pair in pairs.items()}
    return out


def schedule(seeds: list[int], lengths: list[int]) -> list[dict]:
    """Pair i runs seeds[i] at lengths[i % 2]; within each length the side
    that runs first alternates, starting with the parent."""
    plan = []
    for i, seed in enumerate(seeds):
        nth = i // len(lengths)
        plan.append({"seed": seed, "length": lengths[i % len(lengths)], "parent_first": nth % 2 == 0})
    return plan


def assemble(runs: list[dict], plan: list[dict], claim: str | None, bounds: dict | None = None) -> dict:
    """The record's workloads, per-length comparisons, operations and
    verdicts from finished runs (one dict per side and pair: seed, length,
    side, and heatbench's metrics and operation counts); ``bounds`` maps
    an end-to-end metric to its relative bound, for ``worse``."""
    done = {(r["seed"], r["length"], r["side"]): r for r in runs}
    pairs = [p for p in plan if all((p["seed"], p["length"], s) in done for s in ("parent", "change"))]
    sides = {s: [done[(p["seed"], p["length"], s)] for p in pairs] for s in ("parent", "change")}
    workloads = sorted({k.split(".", 1)[0] for r in runs for k in r["metrics"]})
    lengths = sorted({p["length"] for p in pairs})

    def series(side, workload, metric, length=None):
        return [
            r["metrics"][f"{workload}.{metric}"]
            for p, r in zip(pairs, sides[side])
            if length is None or p["length"] == length
        ]

    table, by_length = {}, {}
    for workload in workloads:
        table[workload] = {}
        for metric in METRICS:
            table[workload][metric] = compare(
                series("parent", workload, metric), series("change", workload, metric)
            )
            by_length[f"{workload}.{metric}"] = {
                n: compare(series("parent", workload, metric, n), series("change", workload, metric, n))
                for n in lengths
            }
    record = {
        "pairs": len(pairs),
        "order": ["parent first" if p["parent_first"] else "change first" for p in pairs],
        "seeds": [p["seed"] for p in pairs],
        "path_lengths": [p["length"] for p in pairs],
        "all_correct": {s: [r["correct"] for r in sides[s]] for s in sides},
        "operations": {
            w: {s: {k: [r["operations"][w][k] for r in sides[s]] for k in ("attempted", "failed", "known_defects")}
                for s in sides}
            for w in workloads
        },
        "workloads": table,
        "by_path_length": {
            key: {str(n): {"parent_median": c["parent"]["median"], "change_median": c["change"]["median"],
                           "median_change_over_parent": c["median_change_over_parent"],
                           "pairs_change_lower": c["pairs_change_lower"],
                           "pairs": len(c["parent"]["runs"]),
                           "parent_interquartile_range": c["parent_interquartile_range"]}
                  for n, c in per.items()}
            for key, per in by_length.items()
        },
        "unresolved": disagreements(by_length),
        "worse": worse(by_length, table, bounds or {}),
    }
    if claim:
        workload, metric = claim.split(".", 1)
        verdict = decide(by_length[claim], METRICS[metric])
        whole = table[workload][metric]
        record["claim"] = {
            "workload": workload, "metric": metric,
            "parent_median": whole["parent"]["median"], "change_median": whole["change"]["median"],
            "median_change_over_parent": whole["median_change_over_parent"],
            "pairs_change_lower": whole["pairs_change_lower"],
            "parent_interquartile_range": whole["parent_interquartile_range"],
            "met_at": {str(n): gain_met(c, METRICS[metric]) for n, c in by_length[claim].items()},
            **verdict,
        }
    else:
        record["claim"] = "none"
    return record


# --- running ---------------------------------------------------------------

def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=repo, check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(repo: Path, rev: str, path: Path) -> None:
    """The committed files of ``rev`` at ``path``, which must not exist."""
    path.mkdir(parents=True)
    data = subprocess.run(["git", "archive", rev], cwd=repo, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(path, filter="data")


def padded(workdir: Path, tag: str, length: int) -> Path:
    """workdir/<tag>xx..x with a path of exactly ``length`` characters."""
    pad = length - len(str(workdir / tag))
    if pad < 0:
        raise SystemExit(f"--workdir {workdir} is too long for paths of {length} characters")
    return workdir / (tag + "x" * pad)


def parse_output(stdout: str) -> dict:
    """heatbench's metrics (the last line) and each workload's operation
    counts (its ``==`` and ``fail_ratio`` lines)."""
    lines = stdout.strip().splitlines()
    last = json.loads(lines[-1])
    operations, workload = {}, None
    for line in lines:
        if line.startswith("== "):
            workload = line.split()[1]
        elif line.startswith("fail_ratio") and workload:
            words = line.split("(")[1].split()
            operations[workload] = {
                "failed": int(words[0]), "known_defects": int(words[3]), "attempted": int(words[-2]),
            }
    metrics = {k: v["value"] if isinstance(v, dict) else v for k, v in last["metrics"].items()}
    return {"correct": last["correct"], "metrics": metrics, "operations": operations}


def run_one(checkout_dir: Path, argv: list[str]) -> dict:
    proc = subprocess.run(argv, cwd=checkout_dir, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {checkout_dir} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse_output(proc.stdout)


def machine(checkout_dir: Path) -> dict:
    probe = (
        "import json, numpy, os\n"
        "cfg = numpy.show_config(mode='dicts')\n"
        "blas = cfg.get('Build Dependencies', {}).get('blas', {})\n"
        "try:\n import scipy; sv = scipy.__version__\n"
        "except ImportError:\n sv = None\n"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': sv,\n"
        " 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n"
    )
    found = json.loads(subprocess.run(
        ["python3", "-c", probe], cwd=checkout_dir, check=True, capture_output=True, text=True
    ).stdout)
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **found,
        "blas_threads": {k: os.environ.get(k) for k in ("MKL_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--change", required=True, help="revision of the change side")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("11-20"),
                        help="'11-20' or '11,13,15'; pair i runs seed i")
    parser.add_argument("--lengths", type=lambda s: [int(n) for n in s.split(",")], default=[24, 37],
                        help="the two checkout path lengths, comma-separated")
    parser.add_argument("--workdir", type=Path, required=True,
                        help="a new directory for the checkouts and runs.jsonl")
    parser.add_argument("--claim", help="workload.metric of a claimed gain, e.g. grid-gauss.wall_per_ref")
    parser.add_argument("--traced", help="a workload to run once per side with --trace 1")
    parser.add_argument("--describe", default="", help="what the change does, for the record")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    revs = {s: git(repo, "rev-parse", getattr(args, s)) for s in ("parent", "change")}
    workdir = args.workdir.resolve()
    dirs = {}
    for n in args.lengths:
        for side, tag in (("parent", "p"), ("change", "c")):
            dirs[side, n] = padded(workdir, tag, n)
            checkout(repo, revs[side], dirs[side, n])
    plan = schedule(args.seeds, args.lengths)
    runs = []
    with open(workdir / "runs.jsonl", "a") as log:
        for pair in plan:
            order = ("parent", "change") if pair["parent_first"] else ("change", "parent")
            for side in order:
                argv_run = COMMAND[:4] + ["--seed", str(pair["seed"])] + COMMAND[4:]
                result = run_one(dirs[side, pair["length"]], argv_run)
                runs.append({**result, "seed": pair["seed"], "length": pair["length"], "side": side})
                log.write(json.dumps(runs[-1]) + "\n")
                log.flush()
                print(f"seed {pair['seed']} length {pair['length']} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in sorted(result["metrics"].items())
                                 if k.endswith("wall_per_ref")), flush=True)
    record = {
        "change": args.describe,
        "command": " ".join(COMMAND[:4] + ["--seed", "S"] + COMMAND[4:]),
        "commits": {
            "parent": revs["parent"], "change": revs["change"],
            "parent_src_tree": git(repo, "rev-parse", f"{revs['parent']}:src"),
            "change_src_tree": git(repo, "rev-parse", f"{revs['change']}:src"),
        },
        "path_length": min(args.lengths),
        "paths": f"each pair ran both sides from paths of one length, {' or '.join(map(str, args.lengths))} "
                 "characters, extracted with git archive",
        "machine": machine(dirs["parent", args.lengths[0]]),
        "quartiles": QUARTILES,
        **assemble(runs, plan, args.claim, benchmark_bounds(repo / "BENCHMARK.json")),
    }
    if args.traced:
        record["traced_pair"] = {}
        for side in ("parent", "change"):
            argv_run = ["python3", "heatbench/run.py", "--workload", args.traced,
                        "--seed", str(args.seeds[0]), "--seconds", "35", "--trace", "1"]
            record["traced_pair"][side] = run_one(dirs[side, args.lengths[0]], argv_run)["metrics"]
        record["traced_pair"]["command"] = " ".join(argv_run)
        record["traced_pair"]["note"] = "per repetition; *_s are self times; parent ran first"
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

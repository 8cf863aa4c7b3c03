"""heatseries benchmark: one seeded workload, timed end to end and by layer.

    python3 heatbench/run.py --workload grid-gauss --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports heatseries from its
``src`` directory.  Every process runs one at a time:

  * SETUP_BEFORE fresh processes each import heatseries, draw the inputs
    and run the warm-up pass; set-up time is measured from the spawn.
  * One more fresh process does the same set-up (a further sample), then
    repeats the workload's operation list for --seconds, checks every
    result against an independent route, and reports.
  * SETUP_AFTER more set-up-only processes.

With --trace 0 the last stdout line carries setup_s, wall_per_ref and
peak_rss_mb; with --trace 1 it carries the per-layer metrics of a traced
half of the run (see README.md).  ``--workload all`` runs every workload in
turn.  Results that fail their checks make ``correct`` false; the exit code
is nonzero, with no result line, only when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up-only processes before and after the measuring process, which adds
#: one more sample; sampling on both sides spreads set-up over the whole run.
SETUP_BEFORE, SETUP_AFTER = 3, 2

#: Everything one invocation does must end within this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "heatseries" / "__init__.py").is_file():
        print(f"error: no heatseries sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / ".bench_out" / f"{workload}-{seed}-{os.getpid()}"
    env = dict(os.environ)
    if not any(env.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
        env["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    base = ["--workload", workload, "--seed", str(seed), "--out", str(out)]
    setups, imports = [], []

    def sample_setup(count):
        for _ in range(count):
            setup, stderr = spawn(base + ["--role", "setup"], env, deadline, importtime=bool(trace))
            setups.append(setup["setup_s"])
            if trace:
                imports.append(import_times(stderr))

    try:
        sample_setup(SETUP_BEFORE)
        report, _ = spawn(
            base + ["--role", "run", "--seconds", str(seconds), "--trace", str(trace)],
            env, deadline,
        )
        setups.append(report["setup_s"])
        sample_setup(SETUP_AFTER)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    wall, ref = report["wall"], report["ref"]
    per_ref = [w / r for w, r in zip(wall, ref)]
    attempted, failed, known = report["attempted"], report["failed"], report["known_defects"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_per_ref": (statistics.median(per_ref), "ref"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
    }
    print(f"== {workload} seed {seed}: {report['ops']} operations x {len(wall)} repetitions")
    print("record " + json.dumps(report["record"], sort_keys=True))
    print(f"setup_s      {metrics['setup_s'][0]:.4f} s   median of {len(setups)}, "
          f"range {min(setups):.4f}..{max(setups):.4f}")
    print(f"wall_per_ref {metrics['wall_per_ref'][0]:.2f}   median over repetitions of wall time "
          f"/ reference time, range {min(per_ref):.2f}..{max(per_ref):.2f}")
    print(f"wall_s       {statistics.median(wall):.4f} s   median of {len(wall)} repetitions, "
          f"range {min(wall):.4f}..{max(wall):.4f}")
    print(f"ref_s        {statistics.median(ref):.4f} s   median of the reference work, "
          f"range {min(ref):.4f}..{max(ref):.4f}")
    print(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"fail_ratio   {(failed + known) / attempted:.4g}   "
          f"({failed} failed + {known} known defect, of {attempted} attempted)")
    print(f"cpu_s        {statistics.median(report['cpu']):.4f} s per repetition")
    print(f"selfcheck    {report['selfcheck_violations']} orders where the program's "
          "exact-arithmetic bound check misfires")
    for line in report["defects"]:
        print(f"known defect {line}")
    for line in report["problems"]:
        print(f"problem      {line}")

    if trace:
        layers = dict(report["layers"])
        layers["import.heatseries_s"] = statistics.median(i["heatseries"] for i in imports)
        layers["import.scipy_s"] = statistics.median(i["scipy"] for i in imports)
        layers["proc.cpu_s"] = statistics.median(report["cpu"])
        layers["proc.wall_s"] = statistics.median(wall)
        layers["proc.ref_s"] = statistics.median(ref)
        layers["trace.overhead_s"] = (
            statistics.median(report["traced_wall"]) - statistics.median(wall)
        )
        layers["bounds.selfcheck_violations"] = report["selfcheck_violations"]
        layers["ops.fail_ratio"] = (failed + known) / attempted
        layers["ops.known_defects"] = known * report["ops"] / attempted  # per repetition
        for target in report["missing"]:
            print(f"missing      {target}: not wrapped, so the metrics it feeds read 0")
        metrics = {name: (layers.get(name, 0.0), unit) for name, (unit, _) in PER_LAYER.items()}
        for name, (value, unit) in metrics.items():
            print(f"layer {name:36s} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def spawn(args, env, deadline, importtime=False):
    """Run one worker to completion; return its JSON report and stderr."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "worker.py")] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(started)], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}\n{tail}")
    return json.loads(lines[-1]), proc.stderr


def import_times(stderr: str) -> dict[str, float]:
    """From ``-X importtime`` output: the cumulative import of heatseries,
    and the self time of every scipy module imported anywhere in set-up."""
    heatseries = scipy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        own, cumulative, name = int(fields[0]), int(fields[1]), fields[2].strip()
        if name == "heatseries":
            heatseries = cumulative / 1e6
        elif name == "scipy" or name.startswith("scipy."):
            scipy += own / 1e6
    return {"heatseries": heatseries, "scipy": scipy}


if __name__ == "__main__":
    sys.exit(main())

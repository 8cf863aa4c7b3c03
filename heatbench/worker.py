"""One workload in one fresh process: set-up, timed repetitions, checks.

run.py starts this script; it is not meant to be run by hand.  Roles:

  setup   import heatseries, draw the inputs, run the warm-up pass, and
          report the set-up time measured from the parent's spawn instant
  run     the same set-up, then repeat the operation list for --seconds
          (half untraced and half traced with --trace 1), then check
          every result and report
  inputs  print the seeded inputs as canonical JSON and exit

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "run", "inputs"), required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spawned", type=float,
                        help="parent's time.monotonic() just before the spawn")
    args = parser.parse_args(argv)
    if args.role != "inputs" and (args.spawned is None or args.out is None):
        parser.error(f"--role {args.role} needs --spawned and --out")
    if args.role == "run" and args.seconds is None:
        parser.error("--role run needs --seconds")

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    if args.role == "inputs":
        print(canonical_inputs(inputs))
        return 0

    sys.path.insert(0, str(ROOT / "src"))
    import heatseries as hs
    from heatseries import cli

    source = Path(hs.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"heatseries imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    args.out.mkdir(parents=True, exist_ok=True)
    counters: dict[str, float] = defaultdict(float)
    for op in workloads.build_ops(hs, cli, inputs, args.out, counters, warm=True):
        try:
            op.collect(op.run())
        except Exception:  # the timed repetitions count failures; warm-up only touches paths
            pass
    ops = workloads.build_ops(hs, cli, inputs, args.out, counters)
    setup_s = time.monotonic() - args.spawned
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    logs = [OpLog(op) for op in ops]
    share = args.seconds / 2.0 if args.trace else args.seconds
    reference = Reference()
    wall, ref, cpu, _ = repeat(ops, logs, counters, share, reference)
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
        try:
            traced_wall, _, _, layer_reps = repeat(ops, logs, counters, share, reference, tracer)
        finally:
            tracer.uninstall()
        write_spans(tracer.spans, ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json")
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted = sum(log.attempted for log in logs)
    failed = known = violations = 0
    problems, defects = [], []
    for log in logs:
        f, k, v = log.verdict()
        failed, known, violations = failed + f, known + k, violations + v
        problems += log.problems[:3]
        defects += log.defects[:1]

    result = {
        "setup_s": setup_s,
        "wall": wall,
        "ref": ref,
        "cpu": cpu,
        "peak_rss_kb": peak_rss_kb,
        "attempted": attempted,
        "failed": failed,
        "known_defects": known,
        "selfcheck_violations": violations,
        "problems": problems[:20],
        "defects": defects,
        "ops": len(ops),
        "record": run_record(hs, args, inputs),
    }
    if args.trace:
        names = sorted({name for rep in layer_reps for name in rep})
        result["layers"] = {
            name: statistics.median(rep.get(name, 0.0) for rep in layer_reps) for name in names
        }
        result["traced_wall"] = traced_wall
        result["missing"] = tracer.missing
    print(json.dumps(result))
    return 0


def canonical_inputs(inputs: dict) -> str:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":"))


def repeat(ops, logs, counters, seconds: float, reference, tracer=None):
    """Run the operation list at least once, and again while another
    repetition of median length still fits in ``seconds``; time the
    reference work before the first repetition and after each.  Returns
    the wall time of each repetition, the mean time of the reference work
    on either side of it, the CPU time of each repetition and, with a
    tracer, its metrics."""
    wall, cpu, layer_reps = [], [], []
    ref = [reference.time()]
    start = time.monotonic()
    while not wall or time.monotonic() - start + statistics.median(wall) <= seconds:
        if tracer is not None:
            tracer.reset()
        c0 = time.process_time()
        seconds_taken, counts = run_once(ops, logs, counters)
        wall.append(seconds_taken)
        cpu.append(time.process_time() - c0)
        ref.append(reference.time())
        if tracer is not None:
            layer_reps.append({**tracer.snapshot(seconds_taken), **counts})
            tracer.keep_spans = 0  # spans of the first traced repetition only
    return wall, [(a + b) / 2.0 for a, b in zip(ref, ref[1:])], cpu, layer_reps


class Reference:
    """Fixed work that shares no code with heatseries: its time, taken on
    both sides of each repetition in the same process, gauges how fast the
    machine runs at that moment.  On a shared virtual machine that speed
    drifts by a quarter over minutes, for interpreted and numpy code alike,
    so a repetition's time over the reference time around it is steadier
    than either.  The work is half interpreted arithmetic and half numpy
    (elementwise and one BLAS product), the two kinds the workloads mix;
    its buffers are allocated once, so it adds nothing to the peak RSS
    after the first call."""

    def __init__(self):
        import numpy as np

        self.a = np.random.default_rng(0).random((512, 512))
        self.buf = np.empty_like(self.a)
        self.out = np.empty((512, 64))

    def time(self) -> float:
        """Median of three timings, so that one interruption does not count."""
        return statistics.median(self._once() for _ in range(3))

    def _once(self) -> float:
        import numpy as np

        start = time.perf_counter()
        total = 0.0
        for i in range(200_000):
            total += math.sqrt(i) * 1.0000001
        for _ in range(10):
            np.multiply(self.a, self.a, out=self.buf)
            np.negative(self.buf, out=self.buf)
            np.exp(self.buf, out=self.buf)
            np.multiply(self.buf, self.a, out=self.buf)
            np.matmul(self.buf.T, self.buf[:, :64], out=self.out)
        return time.perf_counter() - start


def run_once(ops, logs, counters):
    """One repetition.  Only the operations themselves are timed; turning
    their return values into checkable results happens between timings."""
    counters.clear()
    total = 0.0
    for op, log in zip(ops, logs):
        start = time.perf_counter()
        try:
            value = op.run()
        except Exception as exc:
            total += time.perf_counter() - start
            log.record_error(exc)
            continue
        total += time.perf_counter() - start
        log.record(op.collect(value))
    return total, dict(counters)


class OpLog:
    """Outcomes of one operation over all repetitions.  Results are kept by
    digest: the first result in full, plus any later one that differs."""

    def __init__(self, op):
        self.op = op
        self.attempted = 0
        self.errors = 0
        self.known = 0
        self.by_digest: dict[str, list] = {}
        self.problems: list[str] = []
        self.defects: list[str] = []

    def record(self, result) -> None:
        self.attempted += 1
        digest = hashlib.sha256(canonical(result).encode()).hexdigest()
        entry = self.by_digest.setdefault(digest, [result, 0])
        entry[1] += 1

    def record_error(self, exc: Exception) -> None:
        self.attempted += 1
        name = type(exc).__name__
        alpha = getattr(getattr(exc, "alpha", None), "components", None)
        detail = f"{self.op.name}: {name}: {exc}" + (f" (alpha={alpha})" if alpha else "")
        if name == self.op.known_defect:
            self.known += 1
            self.defects.append(detail)
        else:
            self.errors += 1
            self.problems.append(detail)

    def verdict(self) -> tuple[int, int, int]:
        """(failed, known defects, self-check violations of one result)."""
        failed, violations = self.errors, 0
        for index, (result, count) in enumerate(self.by_digest.values()):
            try:
                issues, found = self.op.check(result)
            except Exception as exc:
                issues, found = [f"check raised {type(exc).__name__}: {exc}"], 0
            if index == 0:
                violations = found
            if issues:
                failed += count
                self.problems += [f"{self.op.name}: {issue}" for issue in issues[:3]]
        if len(self.by_digest) > 1:
            self.problems.append(f"{self.op.name}: {len(self.by_digest)} different results")
        return failed, self.known, violations


def canonical(value) -> str:
    """A text that identifies a result; tables are reduced to their
    entries, because their source datum may hold a fresh callable."""
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canonical(v) for v in value) + ")"
    entries = getattr(value, "entries", None)
    if isinstance(entries, dict):
        rows = sorted((tuple(a.components), m.sign, m.logmag) for a, m in entries.items())
        return f"table{value.dim},{value.k_max}:{rows!r}"
    return repr(value)


def write_spans(spans, path: Path) -> None:
    """Spans as [name, start_s, end_s, parent index] rows, names indexed."""
    names: dict[str, int] = {}
    rows = []
    for span in spans:
        if span is None:
            continue
        name, start, end, parent = span
        rows.append([names.setdefault(name, len(names)), start, end, parent])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"names": list(names), "spans": rows}))


def run_record(hs, args, inputs) -> dict:
    """What ran, on what: versions, BLAS, threads, commit and seed."""
    import numpy as np
    import scipy

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "backend": getattr(hs, "BACKEND_NAME", "none"),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": hashlib.sha256(canonical_inputs(inputs).encode()).hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())

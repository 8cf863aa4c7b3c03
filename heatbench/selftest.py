"""Self-tests of the benchmark.

    python3 heatbench/selftest.py            # about three minutes

1. One seed gives byte-identical inputs in separate processes; another seed
   gives different ones.
2. Every operation passes its check at toy sizes, and a result perturbed
   beyond its check tolerance counts as a failed operation.
3. Every metric named in BENCHMARK.json appears in the output of every
   workload, traced and untraced, with its unit; the traced self times
   cover at least 90% of the traced wall time, and every wrapper target
   exists in the package.
4. A directory holding only BENCHMARK.json and the benchmark exits nonzero
   without printing a result.

Exits 1 if any test fails.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def inputs_of(workload: str, seed: int) -> bytes:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--role", "inputs"],
        capture_output=True, check=True,
    ).stdout


def test_inputs() -> None:
    for workload in workloads.WORKLOADS:
        first, again, other = inputs_of(workload, 7), inputs_of(workload, 7), inputs_of(workload, 8)
        expect(first == again, f"{workload}: seed 7 gives byte-identical inputs")
        expect(first != other, f"{workload}: seeds 7 and 8 give different inputs")


def perturb(result):
    """A copy of an operation's result moved well beyond its tolerance."""
    if isinstance(result, float):
        return result * 1e3 + 1e-6  # residuals and L1 norms
    if isinstance(result, tuple) and isinstance(result[0], int):  # CLI: (code, texts)
        code, texts = result
        head, first, *rest = texts[0].splitlines()
        cells = first.split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-6) + 1e-6)
        return code, ["\n".join([head, ",".join(cells), *rest]) + "\n"] + list(texts[1:])
    if isinstance(result, tuple):  # (table, curve), or (eval_uk result, radial value)
        first, second = result
        if isinstance(second, float):
            return first, second * (1 + 1e-6) + 1e-6
        return first, perturb(second)
    if hasattr(result, "points"):  # ErrorCurve
        curve = copy.deepcopy(result)
        curve.points[0] = dataclasses.replace(
            curve.points[0], sup_error=curve.points[0].sup_error * (1 + 1e-6))
        return curve
    if hasattr(result, "entries"):  # MomentTable
        table = copy.copy(result)
        table.entries = dict(result.entries)
        alpha = next(a for a, m in table.entries.items() if m.sign)
        m = table.entries[alpha]
        table.entries[alpha] = type(m)(m.sign, m.logmag + 1e-6)
        return table
    raise TypeError(f"no perturbation for {type(result).__name__}")


def test_checks(hs, cli) -> None:
    out = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
    try:
        for workload in workloads.WORKLOADS:
            ops = workloads.build_ops(hs, cli, workloads.make_inputs(workload, 3), out, defaultdict(float), warm=True)
            clean = perturbed = 0
            for op in ops:
                result = op.collect(op.run())
                log = worker.OpLog(op)
                log.record(result)
                failed, _, _ = log.verdict()
                clean += failed == 0
                if failed:
                    print("      ", log.problems[:2])
                if op.name.startswith("cli-moments"):
                    continue  # checked through the table read back from its file
                bad = worker.OpLog(op)
                bad.record(perturb(result))
                perturbed += bad.verdict()[0] == 1
            checked = sum(not op.name.startswith("cli-moments") for op in ops)
            expect(clean == len(ops), f"{workload}: {clean}/{len(ops)} operations pass their checks")
            expect(perturbed == checked,
                   f"{workload}: {perturbed}/{checked} perturbed results count as failed")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_bench(cwd: Path, workload: str, trace: int, seconds: int = 1):
    return subprocess.run(
        [sys.executable, "heatbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            if proc.returncode != 0:
                expect(False, f"{workload} --trace {trace} ran: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} --trace {trace}: result keys")
            expect(got == wanted, f"{workload} --trace {trace}: every {key} metric, with its unit")
            expect(result["correct"] and result["attempted"] >= 1,
                   f"{workload} --trace {trace}: correct, {result['attempted']} attempted")
            if trace:
                coverage = result["metrics"]["trace.coverage"]["value"]
                expect(coverage >= 0.9, f"{workload}: traced self times cover {coverage:.3f} of wall")
                missing = result["metrics"]["trace.missing_targets"]["value"]
                expect(missing == 0, f"{workload}: {missing} wrapper targets missing")


def test_bare_directory() -> None:
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "grid-gauss", 0)
        lines = proc.stdout.strip().splitlines()
        expect(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
               f"bare directory: exit {proc.returncode}, no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    import heatseries as hs
    from heatseries import cli

    test_inputs()
    test_checks(hs, cli)
    test_bare_directory()
    test_metrics()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

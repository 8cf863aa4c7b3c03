"""The benchmark's wrapper targets and the names its operations call exist
in the package.

heatbench/layers.py wraps package functions by module and name to time and
count them.  A renamed or deleted target is not an error there: it is
reported as missing and its metrics read 0.  This test installs the same
tracer on the imported package, so such a rename fails in the unit tests.
The workloads, their checks and the benchmark's self-test reach the package
as ``hs`` (and its command line as ``cli``); a name they read that the
package no longer defines would fail an operation only when the benchmark
runs, so their attribute reads are checked here too, from the source.
"""

import ast
import importlib.util
from pathlib import Path

import heatseries
from heatseries import cli, quadrature

HEATBENCH = Path(__file__).resolve().parents[1] / "heatbench"
LAYERS = HEATBENCH / "layers.py"
#: the name each heatbench file gives a package module -> that module
ROOTS = {"hs": heatseries, "cli": cli}


def _load_layers():
    spec = importlib.util.spec_from_file_location("heatbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapper_target_is_defined():
    originals = (cli.main, quadrature.integrate_halfline)
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert (cli.main, quadrature.integrate_halfline) != originals  # wrapped
    finally:
        tracer.uninstall()
    assert (cli.main, quadrature.integrate_halfline) == originals


def _package_reads(path: Path) -> set[tuple[str, ...]]:
    """Every attribute chain read off a name in ROOTS, such as
    ("hs", "MomentTable", "from_json"), with each of its prefixes."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text())):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in ROOTS:
            reads.add((node.id, *reversed(chain)))
    return reads


def test_every_name_heatbench_reads_is_defined():
    reads = set().union(
        *(_package_reads(HEATBENCH / name) for name in ("workloads.py", "checks.py", "selftest.py"))
    )
    assert ("hs", "error_curve") in reads and ("cli", "main") in reads  # the parse sees them
    missing = []
    for root, *attrs in sorted(reads):
        target = ROOTS[root]
        for attr in attrs:
            if not hasattr(target, attr):
                missing.append(".".join((root, *attrs)))
                break
            target = getattr(target, attr)
    assert missing == []

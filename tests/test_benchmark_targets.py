"""The benchmark's wrapper targets exist in the package.

heatbench/layers.py wraps package functions by module and name to time and
count them.  A renamed or deleted target is not an error there: it is
reported as missing and its metrics read 0.  This test installs the same
tracer on the imported package, so such a rename fails in the unit tests.
"""

import importlib.util
from pathlib import Path

from heatseries import cli, quadrature

LAYERS = Path(__file__).resolve().parents[1] / "heatbench" / "layers.py"


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

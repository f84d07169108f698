"""The benchmark's tracer (perfbench/tracer.py) replaces whml names where the
calling module looks them up, and counts loop points by len(loop.points).
A deleted or renamed name breaks only the traced benchmark run, so the
names it reads are checked here; the tracer file is loaded, not changed."""

import importlib
import importlib.util
import inspect
import pathlib

from whml.contour import build_loop, build_validation_loop
from whml.symbols import SpectralParams

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _sites():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


def test_every_traced_site_resolves():
    for module_name, attr, _ in _sites():
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr}"


def test_loop_points_are_the_loop():
    loop = build_loop(SpectralParams(0.3, 2.0, 1.2), 64)
    assert len(loop.points) == loop.values().size
    # the tracer binds the loop builders' n_base to count refinements
    for builder in (build_loop, build_validation_loop):
        assert "n_base" in inspect.signature(builder).parameters

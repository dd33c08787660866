"""The benchmark tracer's targets must name live ``fermiwalk`` callables.

``perfbench/tracer.py`` wraps functions by module and attribute path and
reports a target it cannot find as absent, which blanks its per-layer
metric without failing the benchmark.  This test turns a rename into a
failure.  The tracer is loaded from its file and not installed.
"""

import importlib
import os
import sys
import types

import pytest

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
# targets known to be gone from the package, with where they went
KNOWN_ABSENT = {
    "walk.is_cyclic",   # moved to coupling.is_cyclic; the tracer still names walk
}


def load_targets():
    """``TARGETS`` of the tracer, compiled from its source (no bytecode is written)."""
    with open(TRACER) as fh:
        code = compile(fh.read(), TRACER, "exec")
    tracer = types.ModuleType("perfbench_tracer")
    sys.modules[tracer.__name__] = tracer      # dataclasses look their module up
    try:
        exec(code, tracer.__dict__)
    finally:
        del sys.modules[tracer.__name__]
    return tracer.TARGETS


def resolve(module: str, path: str):
    owner = importlib.import_module(f"fermiwalk.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    return owner


TARGETS = load_targets()


@pytest.mark.parametrize("module, path", sorted({(mod, path) for _, mod, path, _ in TARGETS}),
                         ids=lambda x: x)
def test_target_resolves(module, path):
    target = resolve(module, path)
    if f"{module}.{path}" in KNOWN_ABSENT:
        assert target is None, f"{module}.{path} exists again: drop it from KNOWN_ABSENT"
    else:
        assert callable(target), f"perfbench traces fermiwalk.{module}.{path}, which is gone"

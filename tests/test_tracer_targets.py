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

import numpy as np
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


def test_oracle_states_carry_the_ensemble_size():
    # the tracer's oracle attributes read K as states.shape[1], after
    # __init__ and after each step; states is assembled from the number
    # sectors, (2^D, K) and read-only
    from fermiwalk.coupling import CouplingSpec, Window
    from fermiwalk.environment import EnvironmentSpec, SymbolFunction
    from fermiwalk.simulate import FockOracle
    from fermiwalk.walk import build_cycle_walk, cycle_star_vector, rotation_coin

    env = EnvironmentSpec(np.eye(1), [SymbolFunction((0.5, 0.0, 0.125))])
    W = build_cycle_walk(2, [rotation_coin(0.5), rotation_coin(1.1)])
    oracle = FockOracle(env, W, CouplingSpec(0.9, np.array([1.0]), cycle_star_vector(2)),
                        Window(-2, 1, 1))
    for _ in range(2):
        states = oracle.states
        assert states.shape == (2 ** oracle.D, len(oracle.weights)) == (256, 16)
        with pytest.raises(ValueError, match="read-only"):
            states[0, 0] = 1.0
        oracle.step()


def test_disorder_eigensolve_reads_the_ring_size(monkeypatch):
    # the tracer's disorder.eigensolve attribute reads n as
    # np.shape(a[0])[0] // 2 of the arguments _eigenphases gets; a draw is
    # a CoinedWalk whose shape is that of its 2n x 2n unitary
    from fermiwalk import disorder

    attrs, = [fn for _, mod, path, fn in TARGETS if (mod, path) == ("disorder", "_eigenphases")]
    calls = []
    eigenphases = disorder._eigenphases

    def recording(*args, **kwargs):
        result = eigenphases(*args, **kwargs)
        calls.append(attrs(args, kwargs, result))
        return result

    monkeypatch.setattr(disorder, "_eigenphases", recording)
    model = disorder.DisorderModel(t=0.8, r=0.6, n=12, distribution="uniform", theta0=0.7,
                                   halfwidth=0.05, seed=3)
    disorder.density_of_states(model, samples=2, bins=8)
    assert calls == [{"n": 12}, {"n": 12}]

"""The benchmark's tracer finds every name it patches, and puts each back.

``bench/tracing.py`` replaces functions of the package where their callers
look them up. A rename in ``src/`` that it depends on fails here, in the test
suite, rather than in a benchmark run.
"""

import importlib.util
from pathlib import Path

from crossfuse import tensor as tensor_mod

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall_restore_every_patched_name():
    tracing = _load_tracing()
    registry = tensor_mod._OP_REGISTRY
    before_ops = dict(registry)
    before_calls = [owner.__dict__[attr] for owner, attr, _ in tracing.LAYER_CALLS]
    before_forward = tensor_mod.op_forward
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tensor_mod.op_forward is not before_forward
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr, _), original in zip(tracing.LAYER_CALLS, before_calls))
        assert all(registry[kind] is not opdef for kind, opdef in before_ops.items())
    finally:
        tracer.uninstall()
    assert tensor_mod.op_forward is before_forward
    assert [owner.__dict__[attr] for owner, attr, _ in tracing.LAYER_CALLS] == before_calls
    assert all(owner.__dict__[attr] is original
               for (owner, attr, _), original in zip(tracing.LAYER_CALLS, before_calls))
    assert registry.keys() == before_ops.keys()
    assert all(registry[kind] is opdef for kind, opdef in before_ops.items())

"""The benchmark's traced run looks masskit names up by string: every hooked
or counted (layer, name) and every traced method must resolve, because a
missing one only zeroes a per-layer counter."""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    """bench/tracing.py, loaded without writing its bytecode cache."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracing = _tracing()
MODULES = {layer: importlib.import_module("masskit." + name)
           for name, layer in tracing.LAYERS.items()}


def _is_traced(layer, name):
    """True when Tracer.install wraps `name` of the layer's module."""
    mod = MODULES[layer]
    cls_name, _, meth = name.partition(".")
    if meth:
        modname = mod.__name__.rpartition(".")[2]
        owner, methods = tracing.METHODS.get(modname, (None, ()))
        return (owner == cls_name and meth in methods
                and meth in vars(getattr(mod, cls_name)))
    obj = getattr(mod, name, None)
    if layer == "cli" and name == "main":
        return obj is not None
    return (not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__)


@pytest.mark.parametrize("layer, name",
                         sorted(tracing.HOOKS) + sorted(tracing.ENTRY_COUNTS))
def test_hooked_name_is_traced(layer, name):
    assert _is_traced(layer, name), "%s.%s is not traced" % (layer, name)


def test_traced_methods_exist():
    for modname, (cls_name, methods) in tracing.METHODS.items():
        cls = getattr(importlib.import_module("masskit." + modname), cls_name)
        for meth in methods:
            assert meth in vars(cls), "%s.%s missing" % (cls_name, meth)

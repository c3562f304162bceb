"""The per-layer tracer of perfbench/ names gsmon functions by module and
attribute; a rename in gsmon must fail here instead of breaking a traced run."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("metric,module,attr", tracer.FUNCTIONS)
def test_traced_function_exists(metric, module, attr):
    assert callable(getattr(importlib.import_module(f"gsmon.{module}"), attr))


@pytest.mark.parametrize("metric,module,cls,method", tracer.METHODS)
def test_traced_method_exists(metric, module, cls, method):
    owner = getattr(importlib.import_module(f"gsmon.{module}"), cls)
    assert callable(owner.__dict__[method])


def test_traced_monad_methods_and_square_callables_exist():
    from gsmon.monads import DistributionMonad, MonadInstance
    from gsmon.squares import Square

    for attr in tracer.MONAD_METHODS:
        assert callable(getattr(MonadInstance, attr)), attr
    assert callable(DistributionMonad.__dict__["sample"])
    fields = {f.name for f in dataclasses.fields(Square)}
    assert set(tracer.SQUARE_CALLABLES) <= fields

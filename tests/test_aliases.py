"""Names that perfbench's tracer rebinds must stay imported where it
looks for them, so dropping one fails here and not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def required_aliases():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.REQUIRED_ALIASES


@pytest.mark.parametrize("module, name", required_aliases())
def test_required_alias_is_bound(module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name), f"{module} no longer imports {name}"
    obj = getattr(mod, name)
    defining = importlib.import_module(obj.__module__)
    assert defining.__name__ != module, f"{module}.{name} is not an alias"
    assert getattr(defining, name) is obj

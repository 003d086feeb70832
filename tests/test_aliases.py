"""Names that perfbench's tracer wraps or rebinds must stay where it looks
for them, so dropping or moving one fails here and not only in a traced
run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


_TRACER = load_tracer()


@pytest.mark.parametrize("module, name", _TRACER.REQUIRED_ALIASES)
def test_required_alias_is_bound(module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name), f"{module} no longer imports {name}"
    obj = getattr(mod, name)
    defining = importlib.import_module(obj.__module__)
    assert defining.__name__ != module, f"{module}.{name} is not an alias"
    assert getattr(defining, name) is obj


@pytest.mark.parametrize("layer, module, attr", _TRACER.HOOKS)
def test_hook_resolves(layer, module, attr):
    """A hook names a module function, or a method defined in the class's
    own body (the tracer reads `cls.__dict__`, so an inherited method is
    not found)."""
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        assert isinstance(cls, type), f"{module} has no class {cls_name}"
        assert meth in cls.__dict__, \
            f"{module}.{cls_name} does not define {meth} itself"
    else:
        assert callable(getattr(mod, attr, None)), \
            f"{module} has no function {attr}"

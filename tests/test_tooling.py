"""Guards for the names other code reaches by string: each module's
`__all__`, and the attributes the benchmark tracer wraps. A refactor that
renames or deletes one of them fails here instead of in a traced run."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import fusioncat

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

MODULES = [m.name for m in pkgutil.iter_modules(fusioncat.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    mod = importlib.import_module(f"fusioncat.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def _tracer():
    """The tracer module, loaded from its file; nothing is installed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_attribute_resolves():
    tracer = _tracer()
    unresolved = []
    for mod_name, attr, _, _ in tracer.FUNCTIONS:
        owner = importlib.import_module(f"fusioncat.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{mod_name}.{attr}")
    pl = importlib.import_module("fusioncat.pipeline")
    unresolved += [f"pipeline.{s}" for s in tracer.STAGES if not callable(getattr(pl, s, None))]
    assert unresolved == []

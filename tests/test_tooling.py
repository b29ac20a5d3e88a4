"""Guards for the names other code reaches by string: each module's
`__all__`, and the attributes the benchmark tracer wraps. A refactor that
renames or deletes one of them fails here instead of in a traced run. Also
a guard on the working set: no cached pipeline stage keeps an array of r^4
entries, r the number of labels."""

import dataclasses
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
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


def _arrays(obj, seen):
    """Every ndarray reachable from obj through dataclass fields, dicts,
    lists, tuples and the attributes of the package's own objects."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _arrays(k, seen)
            yield from _arrays(v, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for v in obj:
            yield from _arrays(v, seen)
    elif dataclasses.is_dataclass(obj) or type(obj).__module__.startswith("fusioncat."):
        for v in vars(obj).values():
            yield from _arrays(v, seen)


def test_no_stage_keeps_an_array_of_r4_entries():
    # the splitting family once kept all 35^4 products N_l M N_m^T; a stage
    # result that holds an array that large again fails here
    pl = importlib.import_module("fusioncat.pipeline")
    stages = {name: f for name, f in vars(pl).items() if hasattr(f, "cache_info")}
    assert {"family", "chiral_lift", "slot_map"} <= set(stages)
    limit = len(pl.base_data().labels) ** 4
    seen = set()
    large = {
        name: a.shape for name, f in stages.items() for a in _arrays(f(), seen) if a.size >= limit
    }
    assert large == {}

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fusioncat import exactla as xla
from fusioncat import pipeline as pl

# runs each snippet of argv[1], a JSON object name -> code, in its own
# namespace and prints name -> [its stdout, the traceback it raised or ""]
_PYTHON_O_CHILD = """
import contextlib, io, json, sys, traceback
out = {}
for name, code in json.loads(sys.argv[1]).items():
    buf, err = io.StringIO(), ""
    with contextlib.redirect_stdout(buf):
        try:
            exec(code, {"__name__": "__main__"})
        except BaseException:
            err = traceback.format_exc()
    out[name] = buf.getvalue(), err
print(json.dumps(out))
"""


@pytest.fixture(scope="session")
def python_O(request):
    """The PYTHON_O snippets (name -> code) of every collected test module,
    run in one shared `python -O` child: name -> (the snippet's stdout, the
    traceback it raised or ""). Checks that must hold with asserts compiled
    out pay for one interpreter and one package import between them."""
    modules = dict.fromkeys(getattr(item, "module", None) for item in request.session.items)
    snippets = {}
    for module in modules:
        snippets.update(getattr(module, "PYTHON_O", {}))
    src = Path(xla.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-O", "-c", _PYTHON_O_CHILD, json.dumps(snippets)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return {name: tuple(res) for name, res in json.loads(run.stdout).items()}


@pytest.fixture(scope="session")
def base_data():
    return pl.base_data()


@pytest.fixture(scope="session")
def ring():
    return pl.ring()


@pytest.fixture(scope="session")
def invariant():
    return pl.invariant()


@pytest.fixture(scope="session")
def family():
    return pl.family()


@pytest.fixture(scope="session")
def chiral_lift():
    return pl.chiral_lift()


@pytest.fixture(scope="session")
def parity():
    return pl.parity()


@pytest.fixture(scope="session")
def module_graph():
    return pl.module_graph()


@pytest.fixture(scope="session")
def annular():
    return pl.annular()


@pytest.fixture(scope="session")
def doublet_system():
    return pl.doublet_system()


@pytest.fixture(scope="session")
def graph_algebra():
    return pl.graph_algebra()


@pytest.fixture(scope="session")
def quantum_graph():
    return pl.quantum_graph()


@pytest.fixture(scope="session")
def quantum_symmetries():
    return pl.quantum_symmetries()


@pytest.fixture(scope="session")
def dual_matrices():
    return pl.dual_matrices()


@pytest.fixture(scope="session")
def slot_map():
    return pl.slot_map()


@pytest.fixture(params=[np.float64, np.int64], ids=["float64", "int64"])
def forced_products(request, monkeypatch):
    """Route exactla.product_dtype to one dtype at every bound, in place of
    the float32 it picks for the flagship's bounds. Returns the forced
    dtype and the dtypes handed out, one per call."""
    forced = SimpleNamespace(dtype=request.param, chosen=[])

    def pick(bound):
        assert bound <= 2**53  # float64 stays exact on the flagship's bounds
        forced.chosen.append(forced.dtype)
        return forced.dtype

    monkeypatch.setattr(xla, "product_dtype", pick)
    return forced

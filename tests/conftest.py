from types import SimpleNamespace

import numpy as np
import pytest

from fusioncat import exactla as xla
from fusioncat import pipeline as pl


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

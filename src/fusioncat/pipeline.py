"""One place that strings the whole reconstruction together for the flagship
case: the rank-3 unitary series at level 4, fed by the order-15 orthogonal
embedding. Every stage is memoized so tests and the CLI can ask for any layer
without recomputing the ones below it.

Stage order: modular data -> fusion ring -> invariant -> splitting family ->
chiral lift -> parity -> module graph -> annular matrices -> graph algebra ->
quantum graph -> quantum symmetries, dual matrices and slot map.
"""

from functools import lru_cache

from . import embedding as emb
from . import fusion as fr
from . import graphalgebra as ga
from . import modular as md
from . import splitting as sp
from . import weights as wt

LEVEL = 4
AMBIENT = "Spin(15)"


def spec():
    return wt.algebra("A", 3)


@lru_cache(maxsize=None)
def base_data() -> md.ModularData:
    return md.modular_data(spec(), LEVEL)


@lru_cache(maxsize=None)
def ring():
    return fr.fusion_matrices(spec(), LEVEL)


@lru_cache(maxsize=None)
def invariant() -> emb.Invariant:
    classes = emb.branch_candidates(spec(), LEVEL, wt.algebra("B", 7), 1)
    sols = emb.solve_invariant(base_data(), classes)
    return emb.pick_invariant(sols)


@lru_cache(maxsize=None)
def family() -> sp.SplitFamily:
    return sp.modular_splitting(ring(), invariant().matrix)


@lru_cache(maxsize=None)
def chiral_lift() -> sp.ChiralLift:
    return sp.lift_chiral_generators(family())


@lru_cache(maxsize=None)
def parity() -> sp.ParityData:
    return sp.parity_involution(chiral_lift())


@lru_cache(maxsize=None)
def module_graph() -> sp.ModuleGraph:
    return sp.extract_module_graph(chiral_lift())


@lru_cache(maxsize=None)
def annular():
    return sp.annular_matrices(module_graph(), base_data().labels)


@lru_cache(maxsize=None)
def doublet_system():
    """The six vertex matrices and three doublet sums the vacuum rows of the
    annular matrices pin, and the doublet constraints both conjugation
    branches share, reduced: the graph algebra solves the kept branch and
    criterion 9 the crossed one, each restating the system from it, so no
    stage holds the 411 x 433 rows of the system past its own solve."""
    return ga.shared_doublet_system(annular())


@lru_cache(maxsize=None)
def graph_algebra() -> ga.GraphAlgebra:
    return ga.solve_graph_algebra(doublet_system())


@lru_cache(maxsize=None)
def quantum_graph() -> ga.QuantumGraph:
    data = base_data()
    return ga.quantum_graph(graph_algebra(), module_graph(), annular(), dict(zip(data.labels, data.hs)))


@lru_cache(maxsize=None)
def quantum_symmetries() -> ga.OcAlgebra:
    return ga.oc_matrices(quantum_graph())


@lru_cache(maxsize=None)
def dual_matrices():
    return ga.dual_annular(quantum_graph())


@lru_cache(maxsize=None)
def slot_map() -> ga.SlotMap:
    return ga.slot_symmetry_map(
        chiral_lift(), parity(), annular(), base_data().labels, quantum_symmetries()
    )

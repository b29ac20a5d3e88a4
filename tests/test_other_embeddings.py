"""The flagship's code path on the other conformal embeddings the invariant
solver handles: SU(2)_10 in Spin(5)_1, whose quantum graph is E6, and
SU(3)_5 in SU(6)_1, whose quantum graph is E5 (Di Francesco and Zuber,
1990). Every member of their families has multiplicity 1, so the lift has
no doublet fill to search and the vacuum rows pin the whole graph algebra.
SU(2)_4 in SU(3)_1 and SU(4)_2 in SU(6)_1 have members of multiplicity 3,
which the lift refuses by name.

The graph spectrum is checked twice: exactly, as the characteristic
polynomial of the generator of omega_1, and against a float oracle, the
exponents of the invariant (Behrend, Pearce, Petkova and Zuber,
hep-th/9908036): the eigenvalues of G_omega_1 are S_{omega_1 lam} / S_{0 lam},
lam taken M_{lam lam} times."""

from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

from fusioncat import CertificationError
from fusioncat import embedding as emb
from fusioncat import fusion as fr
from fusioncat import graphalgebra as ga
from fusioncat import modular as md
from fusioncat import splitting as sp
from fusioncat import weights as wt

# name -> (base rank, level, ambient family, ambient rank)
CASES = {"E6": (1, 10, "B", 2), "E5": (2, 5, "A", 5)}
COMPONENTS = {"E6": [6, 6], "E5": [12, 12]}
OCNEANU = {"E6": 12, "E5": 24}
CHARPOLY = {
    "E6": "(x - 1)*(x + 1)*(x**4 - 4*x**2 + 1)",
    "E5": "(x**2 + 1)*(x**2 - 2*x - 1)*(x**4 - x**2 + 1)*(x**4 + 2*x**3 + 5*x**2 - 2*x + 1)",
}


def family(rank, level, ambient, arank):
    spec = wt.algebra("A", rank)
    data = md.modular_data(spec, level)
    classes = emb.branch_candidates(spec, level, wt.algebra(ambient, arank), 1)
    inv = emb.pick_invariant(emb.solve_invariant(data, classes))
    return data, sp.modular_splitting(fr.fusion_matrices(spec, level), inv.matrix)


@cache
def chain(name):
    """Every stage of the flagship's pipeline up to the quantum symmetries,
    on the embedding of CASES[name]."""
    data, fam = family(*CASES[name])
    lift = sp.lift_chiral_generators(fam)
    graph = sp.extract_module_graph(lift)
    annular = sp.annular_matrices(graph, data.labels)
    shared = ga.shared_doublet_system(annular)
    galg = ga.solve_graph_algebra(shared)
    qg = ga.quantum_graph(galg, graph, annular, dict(zip(data.labels, data.hs)))
    return SimpleNamespace(data=data, fam=fam, lift=lift, graph=graph, annular=annular, shared=shared,
                           galg=galg, oc=ga.oc_matrices(qg))


def exponent_eigenvalues(data, M):
    """S_{omega_1 lam} / S_{0 lam}, each lam taken M_{lam lam} times."""
    omega1 = data.index[tuple(int(j == 0) for j in range(data.spec.rank))]
    return [data.s[omega1, lam] / data.s[0, lam] for lam in range(len(M)) for _ in range(M[lam, lam])]


def spectrum_residual(found, want):
    """Largest distance in a greedy nearest matching of two multisets of
    complex numbers of one size."""
    left, worst = list(found), 0.0
    for w in want:
        k = min(range(len(left)), key=lambda i: abs(left[i] - w))
        worst = max(worst, abs(left.pop(k) - w))
    assert left == []
    return worst


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_lift_is_pinned_on_two_copies_of_the_graph(name):
    c = chain(name)
    assert c.lift.n_solutions == 1
    assert max(c.fam.mult) == 1 and len(c.lift.slots) == int((c.fam.M ** 2).sum())
    assert len(c.lift.generators) == c.data.spec.rank
    assert [len(g.ordering) for g in sp.component_graphs(c.lift)] == COMPONENTS[name]
    assert np.array_equal(c.graph.generators[-1], c.graph.generators[0].T)


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_graph_spectrum_is_exact(name):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    G = chain(name).graph.generators[0]
    assert sympy.Matrix(G.tolist()).charpoly(x).as_expr() == sympy.expand(sympy.sympify(CHARPOLY[name]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_graph_spectrum_is_the_exponents_of_the_invariant(name):
    c = chain(name)
    want = exponent_eigenvalues(c.data, c.fam.M)
    found = np.linalg.eigvals(c.graph.generators[0].astype(float))
    assert len(want) == len(found) == COMPONENTS[name][0]
    assert spectrum_residual(found, want) < 1e-12


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_vacuum_rows_pin_a_closed_graph_algebra(name):
    c = chain(name)
    assert c.shared.sums == {} and c.shared.rref is None and c.shared.branch is None
    assert c.galg.doublet_survivors == 1
    assert sorted(c.galg.G) == list(range(1, COMPONENTS[name][0] + 1))
    assert all(np.array_equal(c.galg.G[a], c.shared.knowns[a]) for a in c.galg.G)
    assert ga.closure_defect(c.galg.G, c.galg.G) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_ocneanu_algebra_closes(name):
    oc = chain(name).oc
    assert len(oc.pairs) == OCNEANU[name]
    assert ga.closure_defect(oc.O, oc.O) == 0


def test_the_e6_slot_map_certifies():
    c = chain("E6")
    smap = ga.slot_symmetry_map(c.lift, sp.parity_involution(c.lift), c.annular, c.data.labels, c.oc)
    assert sorted(smap.pair_of) == list(range(12)) and set(smap.pair_of.values()) == set(c.oc.pairs)


@pytest.mark.parametrize("case", [(1, 4, "A", 2), (3, 2, "A", 5)], ids=["SU2_4-SU3_1", "SU4_2-SU6_1"])
def test_a_member_of_multiplicity_three_is_refused_by_name(case):
    # the lift splits a member over one slot or two; a third slot would get
    # the doublet pattern
    _, fam = family(*case)
    assert max(fam.mult) == 3
    with pytest.raises(CertificationError, match="^chiral_lift: "):
        sp.lift_chiral_generators(fam)

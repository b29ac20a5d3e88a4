"""The quantum graph's tables, derived from the computed algebra.

quantum_graph reads conjugation, twist, modular subalgebra, sectors and
sector reductions off the graph algebra and the module graph. Here each
derivation is held against the paper's table, each must refuse an algebra
with one entry raised or lowered, and the whole chain from the splitting on
must give the same algebra and tables when the alcove labels are listed in
another order.
"""

import dataclasses

import numpy as np
import pytest

from fusioncat import CertificationError
from fusioncat import fusion as fr
from fusioncat import graphalgebra as ga
from fusioncat import splitting as sp

TWIST = {1: 1, 2: 2, 3: 4, 4: 3, 5: 5, 6: 7, 7: 6, 8: 8, 9: 9, 10: 10, 11: 12, 12: 11}
VERTEX_CONJ = {1: 1, 2: 2, 3: 3, 4: 4, 5: 10, 6: 11, 7: 12, 8: 8, 9: 9, 10: 5, 11: 6, 12: 7}
SUBALGEBRA = (1, 2, 9)
SECTOR_VALUES = (1, 3, 6, 11)
SECTOR_RED = {
    1: (1, 1), 2: (1, 2), 9: (1, 9),
    3: (3, 1), 4: (3, 2), 8: (3, 9),
    6: (6, 1), 7: (6, 2), 10: (6, 9),
    11: (11, 1), 12: (11, 2), 5: (11, 9),
}
REACH = {(1, 0, 0): 5, (0, 1, 0): 8, (0, 0, 1): 10}


def tables(qg):
    return qg.conj, qg.twist, qg.J, qg.sectors, qg.red, qg.reach


def corrupted(G, a, cell, step):
    out = {b: M.copy() for b, M in G.items()}
    out[a][cell] += step
    return out


@pytest.fixture(scope="module")
def hs(base_data):
    return dict(zip(base_data.labels, base_data.hs))


def test_derived_tables_are_the_papers(quantum_graph):
    assert tables(quantum_graph) == (
        VERTEX_CONJ, TWIST, SUBALGEBRA, SECTOR_VALUES, SECTOR_RED, REACH
    )


def test_the_modular_subalgebra_is_one_t_eigenvalue(annular, hs):
    # the vacuum support of a vertex outside J takes several values of h mod 1
    for b in range(1, 13):
        phases = {hs[lab] % 1 for lab, F in annular.items() if F[0, b - 1]}
        assert (len(phases) == 1) == (b in SUBALGEBRA), b


def test_twist_is_the_unique_widest_of_two_anti_automorphisms(graph_algebra, module_graph):
    # the vertex keys tie only the doublets; even with 1 and 2 tied as well
    # there are 16 relabelings, (3 4) and the twist are the involutive
    # anti-automorphisms among them, and with 7 and 12 keyed apart from
    # their doublets only (3 4) is left
    G, keys = graph_algebra.G, dict(module_graph.keys)
    classes = {tuple(b for b in G if keys[b] == keys[a]) for a in G}
    assert sorted(c for c in classes if len(c) > 1) == [(3, 4), (6, 7), (11, 12)]
    T, ident = ga._structure(G), np.arange(12)
    relabelings = list(ga._relabelings(12, [[1, 2], [3, 4], [6, 7], [11, 12]]))
    anti = [
        s for s in relabelings
        if np.array_equal(s[s], ident) and np.array_equal(T[np.ix_(s, s, s)].transpose(1, 0, 2), T)
    ]
    assert len(relabelings) == 16
    assert [sorted(ident[s != ident] + 1) for s in anti] == [[3, 4], [3, 4, 6, 7, 11, 12]]
    assert ga.vertex_twist(G, keys) == TWIST
    for a in (7, 12):
        keys[a] = (*keys[a][:2], keys[a][2] + 1)
    assert ga.vertex_twist(G, keys) == {**{a: a for a in G}, 3: 4, 4: 3}


def test_twist_refuses_a_tie():
    # the Klein four-group is commutative: its three involutive
    # automorphisms fixing the unit each move two elements
    elems = [(0, 0), (0, 1), (1, 0), (1, 1)]
    G = {}
    for b, y in enumerate(elems, start=1):
        R = np.zeros((4, 4), dtype=np.int64)
        for a, x in enumerate(elems):
            R[a, elems.index(((x[0] + y[0]) % 2, (x[1] + y[1]) % 2))] = 1
        G[b] = R
    with pytest.raises(CertificationError, match="3 involutive anti-automorphisms move 2 vertices"):
        ga.vertex_twist(G, dict.fromkeys(G, 0))


# one entry per derivation, raised and lowered: G_5^T is no longer G_10;
# 2.2 = 1 loses its weight or gains a vertex outside J; the sector 3 no
# longer reaches 4 = 3.2; 3.3 = 1 + 3 + 4 no longer mirrors 4.4 = 1 + 3 + 4
CORRUPTIONS = {
    "conjugation": (5, (3, 4), "transposed is not one G_b"),
    "subalgebra-weights": (2, (1, 0), "the Perron weights do not multiply on 2.2"),
    "subalgebra-closure": (2, (1, 2), r"2.2 leaves the modular subalgebra \(1, 2, 9\)"),
    "sectors": (2, (2, 3), "the sector 3 does not reach its coset"),
    "twist": (3, (2, 0), "no involutive anti-automorphism"),
}


@pytest.mark.parametrize("step", [1, -1], ids=["raised", "lowered"])
@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_each_derivation_refuses_a_corrupted_entry(
    name, step, graph_algebra, module_graph, annular, hs
):
    a, cell, message = CORRUPTIONS[name]
    G = corrupted(graph_algebra.G, a, cell, step)
    dims = module_graph.dims
    derive = {
        "conjugation": lambda: ga.vertex_conjugation(G),
        "subalgebra-weights": lambda: ga.modular_subalgebra(G, annular, hs, dims),
        "subalgebra-closure": lambda: ga.modular_subalgebra(G, annular, hs, dims),
        "sectors": lambda: ga.sector_reduction(G, SUBALGEBRA, dims),
        "twist": lambda: ga.vertex_twist(G, module_graph.keys),
    }[name]
    with pytest.raises(CertificationError, match=f"^quantum_graph: .*{message}"):
        derive()
    # the stage stops at the first derivation that fails
    with pytest.raises(CertificationError, match="^quantum_graph: "):
        ga.quantum_graph(ga.GraphAlgebra(G, 2), module_graph, annular, hs)


@pytest.fixture(scope="module")
def survivors(doublet_system):
    cands = ga.doublet_solutions(doublet_system)
    return [G for G in (ga._assemble(doublet_system, *t) for t in cands) if ga.closure_defect(G, G) == 0]


def test_survivor_pick_keeps_the_canonical_resolution(survivors, graph_algebra):
    # two survivors, one the other relabeled by the swap (3 4)
    doublets = ((3, 4), (6, 7), (11, 12))
    assert len(survivors) == 2
    for order in (survivors, survivors[::-1]):
        G = ga.canonical_survivor(order, doublets)
        assert all(np.array_equal(G[a], graph_algebra.G[a]) for a in G)
    other = next(S for S in survivors if not np.array_equal(S[6], graph_algebra.G[6]))
    swap = [0, 1, 3, 2] + list(range(4, 12))
    for a in range(1, 13):
        assert np.array_equal(other[swap[a - 1] + 1][np.ix_(swap, swap)], graph_algebra.G[a])


@pytest.mark.parametrize("step", [1, -1], ids=["raised", "lowered"])
@pytest.mark.parametrize("which", [0, 1], ids=["first", "second"])
def test_survivor_pick_refuses_a_corrupted_survivor(which, step, survivors):
    bad = list(survivors)
    bad[which] = corrupted(bad[which], 6, (2, 4), step)
    with pytest.raises(CertificationError, match="^graph_algebra: .*no doublet relabeling"):
        ga.canonical_survivor(bad, ((3, 4), (6, 7), (11, 12)))


def test_one_naming_pass_per_lift(chiral_lift, monkeypatch):
    # one tower and no Perron iteration per component, shared by the module
    # graph, the slot map and criterion 7; the float weights are computed
    # once, when first read
    calls = {"perron": [], "tower": []}
    perron, tower = fr.perron_vector, fr.tower

    def counted_perron(adj, base=0):
        calls["perron"].append(len(adj))
        return perron(adj, base)

    def counted_tower(labels, generators):
        calls["tower"].append(len(generators[0]))
        return tower(labels, generators)

    monkeypatch.setattr(fr, "perron_vector", counted_perron)
    monkeypatch.setattr(fr, "tower", counted_tower)
    lift = dataclasses.replace(chiral_lift)
    graph = sp.extract_module_graph(lift)
    comps = sp.component_graphs(lift)
    assert comps[0] is graph and sp.component_graphs(lift) is comps
    assert calls == {"perron": [], "tower": [12, 12, 12, 12]}
    assert graph.dims is graph.dims
    assert calls["perron"] == [12]


@pytest.mark.parametrize("seed", [1, 2])
def test_relabeled_alcove_gives_the_same_quantum_graph(
    seed, ring, base_data, invariant, graph_algebra, quantum_graph, hs
):
    # list the 34 non-vacuum labels in another order: ring, invariant and
    # label list together
    labels = base_data.labels
    p = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(len(labels) - 1)])
    assert sorted(p) != list(p)
    relabeled = [labels[i] for i in p]
    T = ring.tensor
    fam = sp.modular_splitting(fr.FusionRing(relabeled, T[p][:, p][:, :, p]), invariant.matrix[np.ix_(p, p)])
    assert fam.rank == 33
    graph = sp.extract_module_graph(sp.lift_chiral_generators(fam))
    annular = sp.annular_matrices(graph, relabeled)
    galg = ga.solve_graph_algebra(ga.shared_doublet_system(annular))
    assert galg.G.keys() == graph_algebra.G.keys()
    assert all(np.array_equal(galg.G[a], graph_algebra.G[a]) for a in galg.G)
    assert tables(ga.quantum_graph(galg, graph, annular, hs)) == tables(quantum_graph)

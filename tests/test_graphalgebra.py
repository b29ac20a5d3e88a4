"""Graph algebra and quantum symmetries on the flagship level-4 case.

The doublet resolution, the product table among doublet vertices, the
reversal identities and the 48-element realization were each computed once
and frozen here. The interesting negative results are pinned too: the
crossed conjugation branch forces half-integer cells, and the naive
reversal rule a.b = t(b).a fails on a specific set of 24 ordered pairs. That
rule cannot hold on any algebra with a unit and a twist that moves a vertex;
the reversal identities that do hold are the twisted and conjugated
anti-homomorphisms.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fusioncat import CertificationError
from fusioncat import fusion as fr
from fusioncat import graphalgebra as ga
from fusioncat import weights as wt

SQ2 = np.sqrt(2)

# self-fusion rows of the resolved doublet members
G3_ROWS = {
    1: {3: 1}, 2: {4: 1}, 3: {1: 1, 3: 1, 4: 1}, 4: {2: 1, 3: 1, 4: 1},
    5: {5: 1, 6: 1, 7: 1}, 6: {5: 1, 6: 1}, 7: {5: 1, 7: 1},
    8: {8: 2, 9: 1}, 9: {8: 1},
    10: {10: 1, 11: 1, 12: 1}, 11: {10: 1, 12: 1}, 12: {10: 1, 11: 1},
}
G6_ROWS = {
    1: {6: 1}, 2: {7: 1}, 3: {5: 1, 7: 1}, 4: {5: 1, 6: 1},
    5: {8: 1, 9: 1}, 6: {8: 1}, 7: {8: 1},
    8: {10: 1, 11: 1, 12: 1}, 9: {10: 1},
    10: {3: 1, 4: 1}, 11: {1: 1, 3: 1}, 12: {2: 1, 4: 1},
}

# full normative product table among the six doublet vertices: entry (x, a)
# lists x.a over the vertex basis
DOUBLET_PRODUCTS = {
    (3, 3): {1: 1, 3: 1, 4: 1}, (3, 4): {2: 1, 3: 1, 4: 1},
    (3, 6): {5: 1, 7: 1}, (3, 7): {5: 1, 6: 1},
    (3, 11): {10: 1, 11: 1}, (3, 12): {10: 1, 12: 1},
    (4, 3): {2: 1, 3: 1, 4: 1}, (4, 4): {1: 1, 3: 1, 4: 1},
    (4, 6): {5: 1, 6: 1}, (4, 7): {5: 1, 7: 1},
    (4, 11): {10: 1, 12: 1}, (4, 12): {10: 1, 11: 1},
    (6, 3): {5: 1, 6: 1}, (6, 4): {5: 1, 7: 1},
    (6, 6): {8: 1}, (6, 7): {8: 1},
    (6, 11): {1: 1, 4: 1}, (6, 12): {2: 1, 3: 1},
    (7, 3): {5: 1, 7: 1}, (7, 4): {5: 1, 6: 1},
    (7, 6): {8: 1}, (7, 7): {8: 1},
    (7, 11): {2: 1, 3: 1}, (7, 12): {1: 1, 4: 1},
    (11, 3): {10: 1, 12: 1}, (11, 4): {10: 1, 11: 1},
    (11, 6): {1: 1, 3: 1}, (11, 7): {2: 1, 4: 1},
    (11, 11): {8: 1}, (11, 12): {8: 1},
    (12, 3): {10: 1, 11: 1}, (12, 4): {10: 1, 12: 1},
    (12, 6): {2: 1, 4: 1}, (12, 7): {1: 1, 3: 1},
    (12, 11): {8: 1}, (12, 12): {8: 1},
}

# where a.b = t(b).a breaks down (it cannot hold wherever the twist moves b
# and a is a unit, and the doublets interlock besides)
REVERSAL_FAILURES = {
    (1, 3), (1, 4), (1, 6), (1, 7), (1, 11), (1, 12),
    (2, 3), (2, 4), (2, 6), (2, 7), (2, 11), (2, 12),
    (3, 3), (3, 4), (4, 3), (4, 4),
    (6, 11), (6, 12), (7, 11), (7, 12),
    (11, 6), (11, 7), (12, 6), (12, 7),
}

# branching supports of the three ambient sectors (same as the splitting
# tests; repeated here so this module stands alone)
U_SUP = [(0, 0, 0), (2, 1, 0), (0, 1, 2), (0, 4, 0)]
V_SUP = [(1, 0, 1), (4, 0, 0), (1, 2, 1), (0, 0, 4)]
W_SUP = [(1, 1, 1)]


def rows_to_matrix(rows):
    F = np.zeros((12, 12), dtype=np.int64)
    for a, cols in rows.items():
        for b, c in cols.items():
            F[a - 1, b - 1] = c
    return F


def prod_row(G, a, b):
    """a.b over the vertex basis, as a sparse dict."""
    return {c + 1: int(G[b][a - 1, c]) for c in range(12) if G[b][a - 1, c]}


def indicator(labels, support):
    v = np.zeros(len(labels), dtype=np.int64)
    for mu in support:
        v[labels.index(mu)] = 1
    return v


# ---------------------------------------------------------------------------
# solving the algebra
# ---------------------------------------------------------------------------

def test_partial_algebra_subalgebra_relations(annular):
    knowns, sums = ga.partial_algebra(annular)
    I = np.eye(12, dtype=np.int64)
    assert set(knowns) == {1, 2, 5, 8, 9, 10}
    assert np.array_equal(knowns[2] @ knowns[2], I)
    assert np.array_equal(knowns[9] @ knowns[9], I + knowns[2])
    assert np.array_equal(knowns[2] @ knowns[9], knowns[9])
    # doublet sums are symmetric with even diagonal on the fixed doublet
    assert np.array_equal(sums[34], sums[34].T)


def test_doublet_branch_counts(annular, graph_algebra):
    cands = ga.doublet_solutions(annular, self_conjugate_first=True)
    assert len(cands) == 48
    assert graph_algebra.doublet_survivors == 2
    # the crossed pairing admits no integer point at all
    assert ga.doublet_solutions(annular, self_conjugate_first=False) == []


def test_crossed_branch_forces_half_integers(annular):
    fracs = ga.crossed_branch_fractions(annular)
    assert fracs == [Fraction(1, 2)] * 8


def test_canonical_solution_rows(graph_algebra):
    G = graph_algebra.G
    assert np.array_equal(G[3], rows_to_matrix(G3_ROWS))
    assert np.array_equal(G[6], rows_to_matrix(G6_ROWS))
    assert np.array_equal(G[11], G[6].T)


def test_unit_rows_and_conjugation(graph_algebra):
    G = graph_algebra.G
    for a in range(1, 13):
        assert G[a].min() >= 0
        row = np.zeros(12, dtype=np.int64)
        row[a - 1] = 1
        assert np.array_equal(G[a][0], row)
        assert np.array_equal(G[a].T, G[ga.VERTEX_CONJ[a]])


def test_closure_exact(graph_algebra):
    assert ga.closure_defect(graph_algebra.G, graph_algebra.G) == 0


def test_closure_defect_counts_the_failing_pairs(graph_algebra, quantum_symmetries):
    # one entry raised by 1 breaks 39 of the 144 ordered pairs of the graph
    # algebra, and 169 of the 2304 of the quantum symmetries
    G = {a: M.copy() for a, M in graph_algebra.G.items()}
    G[5][2, 3] += 1
    assert ga.closure_defect(G, G) == 39
    O = {p: M.copy() for p, M in quantum_symmetries.O.items()}
    O[(6, 1)][3, 7] += 1
    assert ga.closure_defect(O, O) == 169


def test_doublet_system_ranks(annular):
    # 432 unknowns: rank 417 leaves 15 free columns on the kept branch; the
    # crossed branch has rank 420
    res = ga._doublet_system(annular, self_conjugate_first=True)[0].rref()
    assert res.consistent and res.rank == 417 and len(res.free_cols) == 15
    res = ga._doublet_system(annular, self_conjugate_first=False)[0].rref()
    assert res.consistent and res.rank == 420


def test_doublet_product_table(graph_algebra):
    G = graph_algebra.G
    for (x, a), want in DOUBLET_PRODUCTS.items():
        assert prod_row(G, x, a) == want, (x, a)


def test_generators_build_the_permutation_and_the_deep_vertex(graph_algebra):
    # both non-generator subalgebra members are polynomial in the generators
    G = graph_algebra.G
    A = G[5] @ G[10]
    assert np.array_equal(G[2], 2 * A - G[1] - G[8] @ G[8])
    inner = G[8] @ (A - G[1] - G[2])
    assert (inner % 2 == 0).all()
    assert np.array_equal(G[9], inner // 2 - 2 * G[8])


# ---------------------------------------------------------------------------
# reversal identities
# ---------------------------------------------------------------------------

def test_twist_is_an_antihomomorphism(graph_algebra):
    G, T = graph_algebra.G, ga.TWIST
    for a in range(1, 13):
        for b in range(1, 13):
            want = {T[c]: m for c, m in prod_row(G, T[b], T[a]).items()}
            assert prod_row(G, a, b) == want, (a, b)


def test_conjugation_is_an_antihomomorphism(graph_algebra):
    G, C = graph_algebra.G, ga.VERTEX_CONJ
    for a in range(1, 13):
        for b in range(1, 13):
            want = {C[c]: m for c, m in prod_row(G, C[b], C[a]).items()}
            assert prod_row(G, a, b) == want, (a, b)


def test_naive_reversal_fails_on_exactly_24_pairs(graph_algebra):
    G, T = graph_algebra.G, ga.TWIST
    fails = {
        (a, b)
        for a in range(1, 13)
        for b in range(1, 13)
        if prod_row(G, a, b) != prod_row(G, T[b], a)
    }
    assert fails == REVERSAL_FAILURES


def test_naive_reversal_is_refuted_by_the_unit_row_and_the_table(graph_algebra):
    G, T = graph_algebra.G, ga.TWIST
    moved = [b for b in range(1, 13) if T[b] != b]
    assert moved == [3, 4, 6, 7, 11, 12]
    for b in moved:
        # at a = 1 the rule reads b = t(b)
        assert prod_row(G, 1, b) == {b: 1}
        assert prod_row(G, T[b], 1) == {T[b]: 1}
        assert (1, b) in REVERSAL_FAILURES
    # the normative table alone refutes twelve more pairs, 3.3 = 1+3+4
    # against t(3).3 = 2+3+4 among them
    refuted = {
        (a, b) for (a, b), ab in DOUBLET_PRODUCTS.items() if ab != DOUBLET_PRODUCTS[(T[b], a)]
    }
    assert refuted == {
        (3, 3), (3, 4), (4, 3), (4, 4),
        (6, 11), (6, 12), (7, 11), (7, 12),
        (11, 6), (11, 7), (12, 6), (12, 7),
    }
    assert refuted <= REVERSAL_FAILURES
    # the unit row forces any rule a.b = s(b).a to have s = id, which then
    # asks for commutativity; the table is not commutative
    assert DOUBLET_PRODUCTS[(3, 6)] != DOUBLET_PRODUCTS[(6, 3)]


# ---------------------------------------------------------------------------
# the algebra as a module over the fusion ring
# ---------------------------------------------------------------------------

def test_annular_module_law(ring, annular, base_data):
    idx = base_data.index
    labels = base_data.labels
    for lam in labels:
        N = ring[lam]
        for mu in labels:
            lhs = annular[lam] @ annular[mu]
            rhs = sum(
                int(N[idx[mu], idx[nu]]) * annular[nu]
                for nu in labels
                if N[idx[mu], idx[nu]]
            )
            assert np.array_equal(lhs, rhs), (lam, mu)


def test_annular_rigidity(annular, base_data):
    for lam in base_data.labels:
        assert np.array_equal(annular[(lam[2], lam[1], lam[0])], annular[lam].T)


def test_annular_grading_selection(annular, module_graph):
    # an edge of the action of lam only connects vertices whose grading
    # differs by the grade of lam
    tau = module_graph.tau
    for lam, F in annular.items():
        t = (lam[0] + 2 * lam[1] + 3 * lam[2]) % 4
        for a in range(12):
            for b in range(12):
                if F[a, b]:
                    assert (tau[b + 1] - tau[a + 1]) % 4 == t, (lam, a, b)


# ---------------------------------------------------------------------------
# the 48-element basis and its regular matrices
# ---------------------------------------------------------------------------

def test_sector_reduction_table(graph_algebra):
    G = graph_algebra.G
    for b, (c, j) in ga.SECTOR_RED.items():
        assert prod_row(G, c, j) == {b: 1}, b


def test_basis_pairs_reduce_to_themselves(graph_algebra):
    G = graph_algebra.G
    for p in ga.basis_pairs():
        vec = ga.reduce_pair(G, *p)
        want = np.zeros(48, dtype=np.int64)
        want[ga.pair_index(p)] = 1
        assert np.array_equal(vec, want), p


def test_generators_cross_the_tensor(graph_algebra):
    # the subalgebra part of a right factor slides over to the left
    G = graph_algebra.G
    for b, target in ((5, (9, 11)), (8, (9, 3)), (10, (9, 6))):
        vec = ga.reduce_pair(G, 1, b)
        want = np.zeros(48, dtype=np.int64)
        want[ga.pair_index(target)] = 1
        assert np.array_equal(vec, want), b


def test_chiral_conjugation_is_an_involution(graph_algebra):
    G = graph_algebra.G
    fixed = []
    for p in ga.basis_pairs():
        q = ga.chiral_conjugate(G, p)
        assert ga.chiral_conjugate(G, q) == p
        if q == p:
            fixed.append(p)
    for p in ((1, 1), (2, 1), (9, 1)):
        assert p in fixed


def test_regular_matrices_close(quantum_symmetries):
    oc = quantum_symmetries
    assert np.array_equal(oc.O[(1, 1)], np.eye(48, dtype=np.int64))
    # row of the identity pair reads off the basis element itself
    for p in oc.pairs:
        row = np.zeros(48, dtype=np.int64)
        row[ga.pair_index(p)] = 1
        assert np.array_equal(oc.O[p][0], row)
    assert ga.closure_defect(oc.O, oc.O) == 0


def test_regular_matrix_block_support(quantum_symmetries):
    # each sector hits a fixed 4x4 pattern of 12x12 blocks
    SUPPORT = {
        1: [(0, 0), (1, 1), (2, 2), (3, 3)],
        3: [(0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)],
        6: [(0, 2), (1, 2), (1, 3), (2, 1), (3, 0), (3, 1)],
        11: [(0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 1)],
    }
    oc = quantum_symmetries
    for (a, b), O in oc.O.items():
        blocks = {
            (i, j)
            for i in range(4)
            for j in range(4)
            if O[12 * i:12 * (i + 1), 12 * j:12 * (j + 1)].any()
        }
        assert blocks <= set(SUPPORT[b]), (a, b)


# ---------------------------------------------------------------------------
# dual action on the graph
# ---------------------------------------------------------------------------

def test_dual_action_represents(dual_matrices, quantum_symmetries):
    SX = dual_matrices
    assert np.array_equal(SX[(1, 1)], np.eye(12, dtype=np.int64))
    assert ga.closure_defect(SX, quantum_symmetries.O) == 0


def test_dual_dimension_sums(dual_matrices, quantum_symmetries):
    sums = [int(dual_matrices[p].sum()) for p in quantum_symmetries.pairs]
    assert sum(sums) == 1864
    assert sum(x * x for x in sums) == 86816
    # the linear sum differs from the annular one (1568); only the
    # quadratic sums agree
    assert sum(sums) != 1568


# ---------------------------------------------------------------------------
# essential matrices and the toric factorization
# ---------------------------------------------------------------------------

def test_essential_factorization(slot_map, invariant, base_data):
    smap = slot_map
    labels = base_data.labels
    # vacuum vertex: first column is the branching support of the ambient
    # vacuum sector
    assert np.array_equal(smap.E[1][:, 0], indicator(labels, U_SUP))
    assert np.array_equal(smap.E[1] @ smap.Ered[1].T, invariant.matrix)
    for (a, b), W in smap.W0.items():
        assert np.array_equal(W, smap.E[a] @ smap.Ered[b].T), (a, b)


def test_slot_map_rejects_a_corrupted_product(
    chiral_lift, parity, annular, base_data, quantum_symmetries
):
    oc = quantum_symmetries
    O = {p: M.copy() for p, M in oc.O.items()}
    O[(6, 1)][3, 7] += 1
    bad = ga.OcAlgebra(galg=oc.galg, pairs=oc.pairs, O=O)
    with pytest.raises(CertificationError, match="product identity"):
        ga.slot_symmetry_map(chiral_lift, parity, annular, base_data.labels, bad)


def test_slot_assignment_is_a_bijection(slot_map):
    assert sorted(slot_map.pair_of) == list(range(48))
    assert len(set(slot_map.pair_of.values())) == 48
    assert slot_map.pair_of[0] == (1, 1)


def test_ambichiral_block_forms(slot_map, invariant, base_data):
    labels = base_data.labels
    u = indicator(labels, U_SUP)
    v = indicator(labels, V_SUP)
    w = indicator(labels, W_SUP)
    assert np.array_equal(slot_map.W0[(1, 1)], invariant.matrix)
    assert np.array_equal(
        slot_map.W0[(2, 1)], np.outer(u, v) + np.outer(v, u) + 4 * np.outer(w, w)
    )
    assert np.array_equal(
        slot_map.W0[(9, 1)], 2 * (np.outer(u + v, w) + np.outer(w, u + v))
    )


def test_twisted_grids_decompose_over_products(
    chiral_lift, parity, slot_map, quantum_symmetries, base_data
):
    oc = quantum_symmetries
    labels = base_data.labels
    W0s = np.stack([slot_map.W0[p] for p in oc.pairs])
    rng = np.random.default_rng(11)
    singles = 0
    for _ in range(20):
        x = oc.pairs[rng.integers(0, 48)]
        y = oc.pairs[rng.integers(0, 48)]
        grid = ga.toric_pair_grid(chiral_lift, parity, slot_map, labels, x, y)
        # row x of the regular matrix of y is the product x.y, and the grid
        # of (x, y) is the grid of that product at trivial right twist
        coeff = oc.O[y][ga.pair_index(x)]
        assert np.array_equal(grid, np.tensordot(coeff, W0s, axes=(0, 0))), (x, y)
        if coeff.sum() == 1:
            # the product is a single basis pair, so this grid IS a slot grid
            z = oc.pairs[int(np.nonzero(coeff)[0][0])]
            assert np.array_equal(grid, slot_map.W0[z])
            singles += 1
    assert singles > 0


# ---------------------------------------------------------------------------
# block structure and masses
# ---------------------------------------------------------------------------

def test_matrix_units_and_traces(graph_algebra):
    mu = ga.matrix_units(graph_algebra)
    for s in range(1, 9):
        assert abs(mu[(s, s)].trace() - 1) < 1e-9
    # the two-dimensional summand shows up twice in the regular module
    assert abs(mu[(9, 9)].trace() - 2) < 1e-9
    assert abs(mu[(10, 10)].trace() - 2) < 1e-9


def test_matrix_units_reject_a_corrupted_algebra(graph_algebra):
    G = {a: M.copy() for a, M in graph_algebra.G.items()}
    G[5][2, 3] += 1
    with pytest.raises(CertificationError, match="matrix_units"):
        ga.matrix_units(ga.GraphAlgebra(G=G, doublet_survivors=2))


def test_center_dimensions(graph_algebra, quantum_symmetries):
    G = graph_algebra.G
    assert ga.center_dimension([G[a] for a in range(1, 13)]) == 9
    oc = quantum_symmetries
    assert ga.center_dimension([oc.O[p] for p in oc.pairs]) == 33


def test_generic_spectra(graph_algebra, quantum_symmetries):
    G = graph_algebra.G
    assert ga.generic_eigenvalue_multiplicities(
        [G[a] for a in range(1, 13)]
    ) == [1] * 8 + [2, 2]
    oc = quantum_symmetries
    assert ga.generic_eigenvalue_multiplicities(
        [oc.O[p] for p in oc.pairs]
    ) == [1] * 32 + [4] * 4


def test_quantum_masses():
    graph_mass = ga.quantum_mass(ga.GRAPH_DIMS.values())
    assert abs(graph_mass - 16 * (2 + SQ2)) < 1e-9
    sub_mass = ga.quantum_mass(ga.GRAPH_DIMS[a] for a in ga.SUBALGEBRA)
    assert abs(sub_mass - 4) < 1e-9
    alcove_mass = ga.quantum_mass(fr.quantum_dimensions(wt.algebra("A", 3), 4))
    assert abs(alcove_mass - 128 * (3 + 2 * SQ2)) < 1e-9
    # the graph mass squared over the subalgebra mass reproduces the
    # alcove mass
    assert abs(graph_mass**2 / sub_mass - alcove_mass) < 1e-9

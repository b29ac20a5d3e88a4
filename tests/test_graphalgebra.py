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

import dataclasses
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from fusioncat import CertificationError
from fusioncat import acceptance as acc
from fusioncat import exactla as xla
from fusioncat import fusion as fr
from fusioncat import graphalgebra as ga
from fusioncat import pipeline as pl
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
    assert np.array_equal(sums[(3, 4)], sums[(3, 4)].T)


def test_doublets_are_the_equal_vacuum_columns(annular, doublet_system):
    # E[lam, a] = (F_lam)[1, a] has rank 9 over 12 vertices: three pairs of
    # equal columns, and one of the three sums is its own transpose
    E = np.stack([F[0] for F in annular.values()])
    rank = xla.LinearSystem(len(E))
    rank.add(E.T)
    assert E.shape == (35, 12) and rank.rref().rank == 9
    assert tuple(doublet_system.sums) == ((3, 4), (6, 7), (11, 12))
    assert all(np.array_equal(E[:, u - 1], E[:, v - 1]) for u, v in doublet_system.sums)
    assert doublet_system.branch == (3, 4)


@pytest.mark.parametrize("label, message", [
    ((0, 0, 4), "no combination of 9 vertex matrices"),
    ((1, 1, 1), "not a nonnegative integer matrix"),
])
def test_vacuum_solve_refuses_a_raised_entry(label, message, annular):
    # F_004 = G_2 = F_400, so the system turns inconsistent; F_111 =
    # 2 G_8 + 2 G_9 is the only label with vertex 9 in its vacuum row, so
    # G_9 turns half-integral
    raised = fr.FusionRing(annular.labels, annular.tensor.copy())
    raised[label][3, 5] += 1
    with pytest.raises(CertificationError, match=f"^graph_algebra: .*{message}"):
        ga.partial_algebra(raised)


def test_shared_system_needs_one_self_transposed_doublet(annular, monkeypatch):
    knowns, sums = ga.partial_algebra(annular)
    symmetric = {d: S + S.T for d, S in sums.items()}
    monkeypatch.setattr(ga, "partial_algebra", lambda _: (knowns, symmetric))
    with pytest.raises(CertificationError, match="^graph_algebra: 3 doublet sums"):
        ga.shared_doublet_system(annular)


@pytest.mark.parametrize("seed", [1, 2])
def test_relabeled_vertices_give_the_same_algebra(seed, annular, graph_algebra):
    # conjugate every F_lam by a permutation of the vertices that fixes the
    # unit: the doublets move, and the solve finds the kept algebra
    # relabeled, up to swaps inside the doublets
    p = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(11)])
    shared = ga.shared_doublet_system(fr.FusionRing(annular.labels, annular.tensor[:, p][:, :, p]))
    assert tuple(shared.sums) != ((3, 4), (6, 7), (11, 12))
    galg = ga.solve_graph_algebra(shared)
    assert galg.doublet_survivors == 2
    assert ga.closure_defect(galg.G, galg.G) == 0
    T, kept = ga._structure(galg.G), ga._structure(graph_algebra.G)[np.ix_(p, p, p)]
    assert any(np.array_equal(kept[np.ix_(s, s, s)], T) for s in ga._relabelings(12, tuple(shared.sums)))


def test_doublet_branch_counts(doublet_system, graph_algebra):
    cands = ga.doublet_solutions(doublet_system)
    assert len(cands) == 48
    assert graph_algebra.doublet_survivors == 2
    # the crossed pairing admits no integer point at all
    assert ga.crossed_branch(doublet_system)[1] == []


def test_crossed_branch_forces_half_integers(doublet_system):
    fracs, sols = ga.crossed_branch(doublet_system)
    assert fracs == [Fraction(1, 2)] * 8
    assert sols == []


def test_canonical_solution_rows(graph_algebra):
    G = graph_algebra.G
    assert np.array_equal(G[3], rows_to_matrix(G3_ROWS))
    assert np.array_equal(G[6], rows_to_matrix(G6_ROWS))
    assert np.array_equal(G[11], G[6].T)


def test_unit_rows_and_conjugation(graph_algebra, quantum_graph):
    G = graph_algebra.G
    for a in range(1, 13):
        assert G[a].min() >= 0
        row = np.zeros(12, dtype=np.int64)
        row[a - 1] = 1
        assert np.array_equal(G[a][0], row)
        assert np.array_equal(G[a].T, G[quantum_graph.conj[a]])


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


def test_closure_defect_past_the_float_bound(graph_algebra, monkeypatch):
    # scaled by s, both sides of every product scale by s^2, so the counts
    # hold; the partial sums pass 2**53, where float64 rounds them (it
    # miscounts here), so the products must run in exact integers
    s = 3**17
    chosen, pick = [], xla.product_dtype

    def spy(bound):
        chosen.append(pick(bound))
        return chosen[-1]

    monkeypatch.setattr(xla, "product_dtype", spy)
    G = {a: s * M for a, M in graph_algebra.G.items()}
    assert ga.closure_defect(G, G) == 0
    G[5][2, 3] += s
    assert ga.closure_defect(G, G) == 39
    assert chosen == [np.int64, np.int64]


def test_closure_defect_past_the_float32_bound(graph_algebra, monkeypatch):
    # scaled by s, the bound on the partial sums passes 2**24, the largest
    # integer that float32 holds exactly, but stays below 2**53: the
    # products must run in float64. (Multiples of a power of two would stay
    # exact in float32 here; the spy shows the choice.)
    s = 2**11
    chosen, pick = [], xla.product_dtype

    def spy(bound):
        chosen.append(pick(bound))
        return chosen[-1]

    monkeypatch.setattr(xla, "product_dtype", spy)
    assert ga.closure_defect(graph_algebra.G, graph_algebra.G) == 0
    G = {a: s * M for a, M in graph_algebra.G.items()}
    assert ga.closure_defect(G, G) == 0
    G[5][2, 3] += s
    assert ga.closure_defect(G, G) == 39
    assert chosen == [np.float32, np.float64, np.float64]


def _closure_defect_by_pairs(mats, regular):
    """closure_defect as a Python loop over the ordered pairs (x, y), in
    int64: the reference for the stated products."""
    X, R = list(mats.values()), list(regular.values())
    bad = 0
    for x in range(len(X)):
        for y in range(len(X)):
            rhs = sum(int(c) * X[z] for z, c in enumerate(R[y][x]) if c)
            bad += not np.array_equal(X[x] @ X[y], rhs)
    return bad


@pytest.fixture(scope="module")
def corrupted_algebras(graph_algebra, quantum_symmetries):
    """(mats, reference count) per (algebra, seed): the regular matrices of
    the graph algebra or the quantum symmetries, with one seeded entry
    raised by 1 (seed None leaves them intact)."""
    cache = {}

    def get(name, seed):
        if (name, seed) not in cache:
            base = graph_algebra.G if name == "graph" else quantum_symmetries.O
            mats = {k: M.copy() for k, M in base.items()}
            if seed is not None:
                rng = np.random.default_rng(seed)
                M = list(mats.values())[rng.integers(len(mats))]
                M[tuple(rng.integers(len(M), size=2))] += 1
            cache[name, seed] = mats, _closure_defect_by_pairs(mats, mats)
        return cache[name, seed]

    return get


CORRUPTIONS = [(name, seed) for name in ("graph", "symmetries") for seed in (None, 1, 2)]


@pytest.mark.parametrize("name,seed", CORRUPTIONS)
def test_closure_defect_matches_the_pairwise_reference(name, seed, corrupted_algebras):
    mats, want = corrupted_algebras(name, seed)
    assert (want == 0) == (seed is None)
    assert ga.closure_defect(mats, mats) == want


# the int64 products of the 48 take about 0.6 s a call, and
# test_closure_defect_on_forced_products already counts the intact 48
@pytest.mark.parametrize("name,seed", [("graph", None), ("graph", 1), ("graph", 2), ("symmetries", 1)])
def test_closure_defect_matches_the_pairwise_reference_on_forced_products(
    name, seed, corrupted_algebras, forced_products
):
    mats, want = corrupted_algebras(name, seed)
    assert ga.closure_defect(mats, mats) == want
    assert forced_products.chosen == [forced_products.dtype]


def test_doublet_system_ranks(doublet_system):
    # 89 unknowns, the support of the sums: rank 84 leaves 5 free columns on
    # the kept branch; the crossed branch has rank 87
    assert len(doublet_system.cells) == len(doublet_system.caps) == 89
    res = ga._solve_doublets(doublet_system, self_conjugate=True)[0]
    assert res.ncols == 89 and res.consistent and res.rank == 84 and len(res.free_cols) == 5
    res = ga._solve_doublets(doublet_system, self_conjugate=False)[0]
    assert res.consistent and res.rank == 87


def full_doublet_system(shared, self_conjugate):
    """The doublet system over every cell of x = (vec X_u for each doublet),
    432 on the flagship, with the branch stated in the same system: the
    statement before the unknowns were cut to the support of the sums, kept
    as an oracle. Returns the reduced form, the lattice points under the
    cap of every cell (its doublet sum), unpacked as doublet_solutions
    does, and those caps."""
    knowns, sums = shared.knowns, shared.sums
    size = len(knowns[1])
    n = size * size
    I, In = np.eye(n, dtype=np.int64), np.eye(size, dtype=np.int64)
    T = I[np.arange(n).reshape(size, size).T.reshape(-1)]  # vec(X^T) = T vec(X)
    sys = xla.LinearSystem(len(sums) * n)

    def state(parts, rhs):
        A = np.zeros((len(rhs), len(sums) * n), dtype=np.int64)
        for k, M in parts:
            A[:, k * n : (k + 1) * n] += M
        sys.add(A, rhs)

    zero = np.zeros(n, dtype=np.int64)
    for k, (u, _) in enumerate(sums):
        for a in knowns.keys() - {1}:
            m = knowns[a][u - 1]
            parts = [(k, np.kron(In, knowns[a].T))]
            parts += [(j, (m[y - 1] - m[x - 1]) * I) for j, (x, y) in enumerate(sums) if m[x - 1] != m[y - 1]]
            rhs = sum(m[c - 1] * M for c, M in knowns.items()) + sum(m[y - 1] * S for (_, y), S in sums.items())
            state(parts, rhs.reshape(-1))
        for Fl in shared.fundamental:
            state([(k, np.kron(In, Fl.T) - np.kron(Fl, In))], zero)
        state([(k, I[:size])], In[u - 1])
    for (i, Sd), (j, Se) in combinations(enumerate(sums.values()), 2):
        if np.array_equal(Sd.T, Se):
            state([(j, I), (i, -T)], zero)
    S, k = sums[shared.branch], list(sums).index(shared.branch)
    state([(k, I - T if self_conjugate else I + T)], zero if self_conjugate else S.reshape(-1))
    res = sys.rref()
    caps = np.concatenate([S.reshape(-1) for S in sums.values()])
    pts = xla.lattice_points(res, caps) if res.consistent else []
    return res, [tuple(np.array(x, dtype=np.int64).reshape(-1, size, size)) for x in pts], caps


def _key(cand):
    return tuple(X.tobytes() for X in cand)


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_the_support_statement_is_exact(seed, annular):
    # every cell off the support of the sums is zero in any lattice point,
    # so stating the system on the support alone loses no candidate and
    # forces the same fractions; on e4 and on two relabelings that fix 1
    if seed is not None:
        p = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(11)])
        annular = fr.FusionRing(annular.labels, annular.tensor[:, p][:, :, p])
    shared = ga.shared_doublet_system(annular)
    _, want, caps = full_doublet_system(shared, True)
    assert len(shared.cells) == (caps != 0).sum() == 89
    assert np.array_equal(shared.caps, caps[caps != 0])
    got = ga.doublet_solutions(shared)
    assert len(got) == len(want) == 48
    assert {_key(c) for c in got} == {_key(c) for c in want}
    res, crossed, _ = full_doublet_system(shared, False)
    forced = sorted(Fraction(int(b), int(d)) for d, row, b in zip(res.lead, res.coeffs, res.rhs)
                    if not row.any() and b % d)
    assert crossed == [] and forced == [Fraction(1, 2)] * 8
    assert ga.crossed_branch(shared) == (forced, [])


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

def test_twist_is_an_antihomomorphism(graph_algebra, quantum_graph):
    G, T = graph_algebra.G, quantum_graph.twist
    for a in range(1, 13):
        for b in range(1, 13):
            want = {T[c]: m for c, m in prod_row(G, T[b], T[a]).items()}
            assert prod_row(G, a, b) == want, (a, b)


def test_conjugation_is_an_antihomomorphism(graph_algebra, quantum_graph):
    G, C = graph_algebra.G, quantum_graph.conj
    for a in range(1, 13):
        for b in range(1, 13):
            want = {C[c]: m for c, m in prod_row(G, C[b], C[a]).items()}
            assert prod_row(G, a, b) == want, (a, b)


def test_naive_reversal_fails_on_exactly_24_pairs(graph_algebra, quantum_graph):
    G, T = graph_algebra.G, quantum_graph.twist
    fails = {
        (a, b)
        for a in range(1, 13)
        for b in range(1, 13)
        if prod_row(G, a, b) != prod_row(G, T[b], a)
    }
    assert fails == REVERSAL_FAILURES


def test_naive_reversal_is_refuted_by_the_unit_row_and_the_table(graph_algebra, quantum_graph):
    G, T = graph_algebra.G, quantum_graph.twist
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

def test_sector_reduction_table(graph_algebra, quantum_graph):
    G = graph_algebra.G
    assert sorted(quantum_graph.red) == list(range(1, 13))
    for b, (c, j) in quantum_graph.red.items():
        assert prod_row(G, c, j) == {b: 1}, b


def test_basis_pairs_reduce_to_themselves(quantum_graph):
    qg = quantum_graph
    assert ga.basis_pairs(qg) == [(a, b) for b in qg.sectors for a in range(1, 13)]
    for p in ga.basis_pairs(qg):
        vec = ga.reduce_pair(qg, *p)
        want = np.zeros(48, dtype=np.int64)
        want[ga.pair_index(qg, p)] = 1
        assert np.array_equal(vec, want), p


def test_generators_cross_the_tensor(quantum_graph):
    # the subalgebra part of a right factor slides over to the left; the
    # fundamental labels take vertex 1 to 5, 8 and 10
    qg = quantum_graph
    assert qg.reach == {(1, 0, 0): 5, (0, 1, 0): 8, (0, 0, 1): 10}
    for lab, target in (((1, 0, 0), (9, 11)), ((0, 1, 0), (9, 3)), ((0, 0, 1), (9, 6))):
        vec = ga.reduce_pair(qg, 1, qg.reach[lab])
        want = np.zeros(48, dtype=np.int64)
        want[ga.pair_index(qg, target)] = 1
        assert np.array_equal(vec, want), lab


def test_chiral_conjugation_is_an_involution(quantum_graph):
    qg = quantum_graph
    fixed = []
    for p in ga.basis_pairs(qg):
        q = ga.chiral_conjugate(qg, p)
        assert ga.chiral_conjugate(qg, q) == p
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
        row[ga.pair_index(oc.qg, p)] = 1
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
    bad = dataclasses.replace(oc, O=O)
    with pytest.raises(CertificationError, match="product identity"):
        ga.slot_symmetry_map(chiral_lift, parity, annular, base_data.labels, bad)


def test_slot_map_on_forced_products(
    chiral_lift, parity, annular, base_data, quantum_symmetries, slot_map, forced_products
):
    # slot_map was built in float32; float64 and int64 give the same map
    smap = ga.slot_symmetry_map(chiral_lift, parity, annular, base_data.labels, quantum_symmetries)
    assert forced_products.chosen == [forced_products.dtype]
    assert smap.pair_of == slot_map.pair_of and smap.slot_of == slot_map.slot_of
    for got, want in ((smap.E, slot_map.E), (smap.Ered, slot_map.Ered), (smap.W0, slot_map.W0)):
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[k], want[k]) for k in want)


def test_closure_defect_on_forced_products(quantum_symmetries, forced_products):
    # the counts the float32 products give (test_closure_defect_counts_the_failing_pairs)
    O = {p: M.copy() for p, M in quantum_symmetries.O.items()}
    assert ga.closure_defect(O, O) == 0
    O[(6, 1)][3, 7] += 1
    assert ga.closure_defect(O, O) == 169
    assert forced_products.chosen == [forced_products.dtype] * 2


@pytest.mark.parametrize("exact", [False, True], ids=["float", "int64"])
def test_slot_map_names_the_first_failing_pair(
    exact, chiral_lift, parity, annular, base_data, quantum_symmetries, monkeypatch
):
    # row 3 of the regular matrix of (6, 1) = conj((11, 1)) expands the slot
    # product of (4, 1) with (11, 1)
    if exact:
        monkeypatch.setattr(xla, "product_dtype", lambda bound: np.int64)
    oc = quantum_symmetries
    O = {p: M.copy() for p, M in oc.O.items()}
    O[(6, 1)][3, 7] += 1
    bad = dataclasses.replace(oc, O=O)
    with pytest.raises(CertificationError, match=r"fails at \(\(4, 1\), \(11, 1\)\)$"):
        ga.slot_symmetry_map(chiral_lift, parity, annular, base_data.labels, bad)


def test_slot_map_refuses_traded_slots(
    chiral_lift, parity, annular, base_data, quantum_symmetries
):
    # members 1 and 2 have one slot each; traded, each slot gets the other's
    # pair, which the product identity refuses
    slot_of = dict(chiral_lift.slot_of)
    assert len(slot_of[1]) == len(slot_of[2]) == 1
    slot_of[1], slot_of[2] = slot_of[2], slot_of[1]
    traded = dataclasses.replace(chiral_lift, slot_of=slot_of)
    with pytest.raises(CertificationError,
                       match=r"^slot_map: the product identity fails at \(\(1, 1\), \(9, 3\)\)$"):
        ga.slot_symmetry_map(traded, parity, annular, base_data.labels, quantum_symmetries)
    # a toric matrix one cell off factors for no basis pair, refused by name
    ws = list(chiral_lift.fam.ws)
    ws[5] = ws[5].copy()
    ws[5][0, 0] += 1
    bent = dataclasses.replace(chiral_lift, fam=dataclasses.replace(chiral_lift.fam, ws=ws))
    with pytest.raises(CertificationError,
                       match=r"^slot_map: W_5 factors as E_a Ered_b\^T for 0 basis pairs, not its 1 slots$"):
        ga.slot_symmetry_map(bent, parity, annular, base_data.labels, quantum_symmetries)


def test_slot_map_naming_of_doublet_copies_is_gauge(
    chiral_lift, parity, annular, base_data, quantum_symmetries, slot_map
):
    # the two copies of a doublet member share a toric matrix and the swap
    # is an automorphism, so the other order passes every check and the two
    # slots trade their pairs
    i, slots = next((i, z) for i, z in chiral_lift.slot_of.items() if len(z) == 2)
    swapped = dataclasses.replace(chiral_lift, slot_of={**chiral_lift.slot_of, i: slots[::-1]})
    smap = ga.slot_symmetry_map(swapped, parity, annular, base_data.labels, quantum_symmetries)
    assert [slot_map.pair_of[z] for z in slots] == [(1, 3), (2, 3)]
    assert [smap.pair_of[z] for z in slots] == [(2, 3), (1, 3)]


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
        coeff = oc.O[y][ga.pair_index(oc.qg, x)]
        assert np.array_equal(grid, np.tensordot(coeff, W0s, axes=(0, 0))), (x, y)
        if coeff.sum() == 1:
            # the product is a single basis pair, so this grid IS a slot grid
            z = oc.pairs[int(np.nonzero(coeff)[0][0])]
            assert np.array_equal(grid, slot_map.W0[z])
            singles += 1
    assert singles > 0


def test_product_identity_failures_are_the_grids_that_do_not_decompose(
    chiral_lift, parity, slot_map, quantum_symmetries, base_data
):
    # one corrupted row of O_(6, 1) = O_conj((11, 1)) breaks the grid of
    # ((4, 1), (6, 1)) and nothing else; the identity reads it at
    # ((4, 1), (11, 1))
    oc, labels = quantum_symmetries, base_data.labels
    assert len(ga.product_identity_failures(chiral_lift, parity, labels, slot_map.slot_of, oc)) == 0
    O = {p: M.copy() for p, M in oc.O.items()}
    O[(6, 1)][3, 7] += 1
    bad = dataclasses.replace(oc, O=O)
    failures = ga.product_identity_failures(chiral_lift, parity, labels, slot_map.slot_of, bad)
    assert [(oc.pairs[x], oc.pairs[y]) for x, y in failures] == [((4, 1), (11, 1))]
    W0s = np.stack([slot_map.W0[p] for p in oc.pairs])
    grid = ga.toric_pair_grid(chiral_lift, parity, slot_map, labels, (4, 1), (6, 1))
    row = ga.pair_index(oc.qg, (4, 1))
    assert np.array_equal(grid, np.tensordot(oc.O[(6, 1)][row], W0s, axes=(0, 0)))
    assert not np.array_equal(grid, np.tensordot(O[(6, 1)][row], W0s, axes=(0, 0)))


def test_unfactored_slots_names_every_misnamed_slot(slot_map):
    W = {z: slot_map.W0[p] for z, p in slot_map.pair_of.items()}
    assert ga.unfactored_slots(W, slot_map.pair_of, slot_map.E, slot_map.Ered) == []
    z1, z2 = slot_map.slot_of[(1, 1)], slot_map.slot_of[(2, 1)]
    swapped = {**slot_map.pair_of, z1: (2, 1), z2: (1, 1)}
    assert ga.unfactored_slots(W, swapped, slot_map.E, slot_map.Ered) == sorted([z1, z2])


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


def svd_center_dimension(mats):
    """Reference: n minus the float rank of every commutator [B, A] of basis
    matrices, each as a column over the coefficients of B."""
    mats = [M.astype(float) for M in mats]
    big = np.concatenate(
        [np.stack([(B @ A - A @ B).reshape(-1) for B in mats], axis=1) for A in mats]
    )
    return len(mats) - np.linalg.matrix_rank(big)


def s3_regular_matrices():
    """Right-regular matrices of the symmetric group on three letters:
    (R_y)[x, z] = 1 exactly when z = x y."""
    group = list(permutations(range(3)))
    index = {g: i for i, g in enumerate(group)}
    mats = []
    for y in group:
        R = np.zeros((6, 6), dtype=np.int64)
        for x in group:
            R[index[x], index[tuple(y[x[i]] for i in range(3))]] = 1
        mats.append(R)
    return mats


def test_center_dimensions(graph_algebra, quantum_symmetries):
    G = graph_algebra.G
    assert ga.center_dimension([G[a] for a in range(1, 13)]) == 9
    oc = quantum_symmetries
    assert ga.center_dimension([oc.O[p] for p in oc.pairs]) == 33


def test_center_dimension_on_known_algebras(graph_algebra):
    # the group algebra of S3 has one central element per conjugacy class
    s3 = s3_regular_matrices()
    assert ga.center_dimension(s3) == 3 == svd_center_dimension(s3)
    # a commutative fusion ring is its own center
    A1 = wt.algebra("A", 1)
    for k in (1, 4, 7):
        mats = list(fr.fusion_matrices(A1, k).values())
        assert ga.center_dimension(mats) == k + 1 == svd_center_dimension(mats)
    mats = [graph_algebra.G[a] for a in range(1, 13)]
    assert ga.center_dimension(mats) == svd_center_dimension(mats)


def test_center_dimension_rejects_constants_that_do_not_close(quantum_symmetries):
    oc = quantum_symmetries
    mats = [oc.O[p].copy() for p in oc.pairs]
    mats[ga.pair_index(oc.qg, (6, 1))][3, 7] += 1
    with pytest.raises(CertificationError, match="center_dimension"):
        ga.center_dimension(mats)


def test_center_dimension_takes_the_callers_closure_defect(quantum_symmetries):
    oc = quantum_symmetries
    mats = [oc.O[p] for p in oc.pairs]
    assert ga.center_dimension(mats, 0) == 33
    with pytest.raises(CertificationError, match="center_dimension"):
        ga.center_dimension(mats, 1)


def generic_eigenvalue_multiplicities(mats):
    """Reference: sorted eigenvalue-cluster sizes of a random element of the
    span, eigenvalues within 1e-6 counting as one. A block of size d gives d
    eigenvalues of multiplicity d each in the regular representation."""
    rng = np.random.default_rng(5)
    mats = list(mats)
    A = sum(c * M.astype(float) for c, M in zip(rng.standard_normal(len(mats)), mats))
    ev = np.sort_complex(np.linalg.eigvals(A))
    clusters = []
    for val in ev:
        for c in clusters:
            if abs(c[0] - val) < 1e-6:
                c.append(val)
                break
        else:
            clusters.append([val])
    return sorted(len(c) for c in clusters)


def test_generic_spectra(graph_algebra, quantum_symmetries):
    G = graph_algebra.G
    oc = quantum_symmetries
    for mats, want in (
        ([G[a] for a in range(1, 13)], [1] * 8 + [2, 2]),
        ([oc.O[p] for p in oc.pairs], [1] * 32 + [4] * 4),
    ):
        spectrum = generic_eigenvalue_multiplicities(mats)
        assert spectrum == want
        # the float oracle: d eigenvalues of multiplicity d per block of size d
        exact = ga.block_structure(mats)
        assert spectrum == sorted(d for d in exact.sizes for _ in range(d))


def matrix_algebra(d):
    """Regular matrices of M_d(Q) on the matrix units e_ij, index i d + j:
    e_ij e_kl = delta_jk e_il, so (R_{e_kl})[e_ik, e_il] = 1."""
    mats = []
    for k in range(d):
        for l in range(d):
            R = np.zeros((d * d, d * d), dtype=np.int64)
            R[np.arange(d) * d + k, np.arange(d) * d + l] = 1
            mats.append(R)
    return mats


def direct_sum(*algebras):
    """Regular matrices of the direct sum, each summand's basis in turn."""
    n = sum(len(a) for a in algebras)
    mats, at = [], 0
    for a in algebras:
        for R in a:
            M = np.zeros((n, n), dtype=np.int64)
            M[at : at + len(a), at : at + len(a)] = R
            mats.append(M)
        at += len(a)
    return mats


def test_block_structure_of_the_flagship_algebras(graph_algebra, quantum_symmetries):
    G = graph_algebra.G
    b12 = ga.block_structure([G[a] for a in range(1, 13)])
    assert (b12.trace_rank, b12.center, b12.ones, b12.size) == (12, 9, 8, 2)
    oc = quantum_symmetries
    b48 = ga.block_structure([oc.O[p] for p in oc.pairs])
    assert (b48.trace_rank, b48.center, b48.ones, b48.size) == (48, 33, 32, 4)
    assert b48.sizes == [1] * 32 + [4]
    # the caller's closure defect is passed on to center_dimension
    assert ga.block_structure([oc.O[p] for p in oc.pairs], 0) == b48


def test_block_structure_on_known_algebras():
    q3 = ga.block_structure(direct_sum(*[matrix_algebra(1)] * 3))
    assert (q3.trace_rank, q3.center, q3.ones, q3.size) == (3, 3, 3, 0)
    m2 = ga.block_structure(matrix_algebra(2))
    assert (m2.trace_rank, m2.center, m2.ones, m2.size) == (4, 1, 0, 2)
    assert m2.sizes == [2]
    m3 = ga.block_structure(direct_sum(matrix_algebra(1), matrix_algebra(3)))
    assert (m3.center, m3.ones, m3.size) == (2, 1, 3)
    # the group algebra of S3: two characters and one 2-dimensional irrep
    s3 = ga.block_structure(s3_regular_matrices())
    assert (s3.trace_rank, s3.center, s3.ones, s3.size) == (6, 3, 2, 2)
    # a commutative fusion ring: every block has size 1
    mats = list(fr.fusion_matrices(wt.algebra("A", 1), 4).values())
    assert ga.block_structure(mats).sizes == [1] * 5


def test_block_structure_rejects_what_the_ranks_do_not_settle(quantum_symmetries):
    # Q[x]/(x^2): the trace form has rank 1 < 2, so it is not semisimple
    dual_numbers = [np.eye(2, dtype=np.int64), np.array([[0, 1], [0, 0]])]
    with pytest.raises(CertificationError, match="trace form has rank 1 < 2"):
        ga.block_structure(dual_numbers)
    # M2 + M2: two blocks of size above 1, whose sizes the ranks do not fix
    with pytest.raises(CertificationError, match="leave 2 larger blocks"):
        ga.block_structure(direct_sum(matrix_algebra(2), matrix_algebra(2)))
    # constants that do not close fail the closure check first
    oc = quantum_symmetries
    mats = [oc.O[p].copy() for p in oc.pairs]
    mats[ga.pair_index(oc.qg, (6, 1))][3, 7] += 1
    with pytest.raises(CertificationError, match="center_dimension"):
        ga.block_structure(mats)


def test_quantum_masses(quantum_graph):
    graph_mass = ga.quantum_mass(acc.GRAPH_DIMS.values())
    assert abs(graph_mass - 16 * (2 + SQ2)) < 1e-9
    sub_mass = ga.quantum_mass(acc.GRAPH_DIMS[a] for a in quantum_graph.J)
    assert abs(sub_mass - 4) < 1e-9
    alcove_mass = ga.quantum_mass(fr.quantum_dimensions(wt.algebra("A", 3), 4))
    assert abs(alcove_mass - 128 * (3 + 2 * SQ2)) < 1e-9
    # the graph mass squared over the subalgebra mass reproduces the
    # alcove mass
    assert abs(graph_mass**2 / sub_mass - alcove_mass) < 1e-9


# ---------------------------------------------------------------------------
# release checks on a corrupted input
# ---------------------------------------------------------------------------

def test_chiral_generator_check_fails_on_a_corrupted_generator(parity, monkeypatch):
    # a corrupted right action: a corrupted Vs is refused before the check,
    # by the naming of the components
    Rs = fr.FusionRing(parity.Rs.labels, parity.Rs.tensor.copy())
    Rs[(1, 1, 0)][0, 5] += 1
    monkeypatch.setattr(pl, "parity", lambda: dataclasses.replace(parity, Rs=Rs))
    ok, detail = acc.check_chiral_generators()
    assert not ok
    assert detail.endswith("all 1225 left/right pairs commute: False")
    assert "four identical 12x12 blocks: True" in detail


def test_splitting_check_fails_on_a_corrupted_writing(family, monkeypatch):
    decomp = dict(family.decomp)
    co = decomp[(3, 5)]
    decomp[(3, 5)] = (co[0] + 1, *co[1:])
    monkeypatch.setattr(pl, "family", lambda: dataclasses.replace(family, decomp=decomp))
    ok, detail = acc.check_splitting()
    assert not ok
    assert detail.endswith("all 1225 writings rebuilt: False")

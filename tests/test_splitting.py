"""Splitting chain on the flagship level-4 case.

Frozen values below were produced by running the chain once and checking the
results against the block form of the invariant and the known quantum graph;
they pin rank, multiplicities, the norm census, the graph itself and the
annular dimension sums, so any regression in the discovery or lift logic
trips immediately.
"""

import dataclasses
from itertools import islice, product

import numpy as np
import pytest

from fusioncat import CertificationError
from fusioncat import fusion as fr
from fusioncat import splitting as sp
from fusioncat import weights as wt

SQ2 = np.sqrt(2)

# distinct matrices among the pairs at each norm
CENSUS = {1: 8, 2: 11, 3: 8, 4: 5, 5: 6, 6: 12, 7: 0, 8: 3}

# quantum graph adjacency, vertex names 1..12
F100_ROWS = {
    1: {5: 1}, 2: {5: 1}, 3: {5: 1, 6: 1, 7: 1}, 4: {5: 1, 6: 1, 7: 1},
    5: {8: 2}, 6: {8: 1, 9: 1}, 7: {8: 1, 9: 1},
    8: {10: 2, 11: 1, 12: 1}, 9: {11: 1, 12: 1},
    10: {1: 1, 2: 1, 3: 1, 4: 1}, 11: {3: 1, 4: 1}, 12: {3: 1, 4: 1},
}
F010_ROWS = {
    1: {8: 1}, 2: {8: 1}, 3: {8: 2, 9: 1}, 4: {8: 2, 9: 1},
    5: {10: 2, 11: 1, 12: 1}, 6: {10: 1, 11: 1, 12: 1}, 7: {10: 1, 11: 1, 12: 1},
    8: {1: 1, 2: 1, 3: 2, 4: 2}, 9: {3: 1, 4: 1},
    10: {5: 2, 6: 1, 7: 1}, 11: {5: 1, 6: 1, 7: 1}, 12: {5: 1, 6: 1, 7: 1},
}

# branching supports of the three ambient sectors
U_SUP = [(0, 0, 0), (2, 1, 0), (0, 1, 2), (0, 4, 0)]
V_SUP = [(1, 0, 1), (4, 0, 0), (1, 2, 1), (0, 0, 4)]
W_SUP = [(1, 1, 1)]


def rows_to_matrix(rows):
    F = np.zeros((12, 12), dtype=np.int64)
    for a, cols in rows.items():
        for b, c in cols.items():
            F[a - 1, b - 1] = c
    return F


def indicator(labels, support):
    v = np.zeros(len(labels), dtype=np.int64)
    for mu in support:
        v[labels.index(mu)] = 1
    return v


def test_family_rank_and_slots(family):
    assert family.rank == 33
    assert family.slot_count == 48
    from collections import Counter
    assert Counter(family.mult) == {1: 18, 2: 15}
    assert np.array_equal(family.ws[0], family.M)
    # vacuum pair is the invariant itself at norm 1
    assert family.norms[0, 0] == 1
    assert family.norms.max() == 128
    # every member is discovered at norm 8 or below
    assert max(t["norm"] for t in family.trace) == 8


def test_no_consistent_writing_is_a_certification_error(ring, invariant, monkeypatch):
    # with no slot split for any coefficient, the first pair outside the
    # span (the vacuum pair) has no writing at all
    monkeypatch.setattr(sp.xla, "coeff_splits", lambda total, sq: [])
    with pytest.raises(CertificationError, match=r"^family: no consistent writing for pair \(0, 0\)"):
        sp.modular_splitting(ring, invariant.matrix)


@pytest.fixture(scope="module")
def pair_products(ring, base_data, invariant):
    """K[l, m] = N_l M N_m^T for all 35^2 pairs, straight from the ring in
    int64: the reference the family's distinct members must index into."""
    N = np.stack([ring[la] for la in base_data.labels])
    return (N @ invariant.matrix)[:, None] @ N.transpose(0, 2, 1)[None]


def test_family_members_are_the_distinct_pair_products(family, pair_products):
    r = len(family.labels)
    assert family.members.dtype == np.int64 and family.members.shape == (84, r, r)
    assert family.pair_member.shape == (r, r)
    assert np.array_equal(family.members[family.pair_member], pair_products)
    # the members are distinct, each is some pair's, in first-seen order
    assert len({m.tobytes() for m in family.members}) == 84
    assert list(dict.fromkeys(family.pair_member.reshape(-1).tolist())) == list(range(84))
    # each pair's norm is its (l, m) entry of the conjugate pair's product
    conj = family.conj
    norms = [[pair_products[conj[l], conj[m], l, m] for m in range(r)] for l in range(r)]
    assert np.array_equal(family.norms, norms)


def test_family_members_on_forced_products(family, ring, invariant, forced_products, pair_products):
    # the family's members were built in float32; float64 and int64 give
    # the same members and index
    members, pair_member = sp._family_members(ring, invariant.matrix)
    assert forced_products.chosen == [forced_products.dtype]
    assert members.dtype == np.int64 and np.array_equal(members, family.members)
    assert np.array_equal(pair_member, family.pair_member)
    assert np.array_equal(members[pair_member], pair_products)


def test_norm_census(family, pair_products):
    assert sp.norm_census(family) == CENSUS
    # the census counts distinct matrices, read off the reference products
    census = {
        n: len({pair_products[l, m].tobytes() for l, m in zip(*np.nonzero(family.norms == n))})
        for n in range(1, 9)
    }
    assert census == CENSUS


def test_decomposition_covers_every_pair(family, pair_products):
    r = len(family.labels)
    assert set(family.decomp) == {(l, m) for l in range(r) for m in range(r)}
    assert np.array_equal(family.members[family.pair_member], pair_products)
    # each writing rebuilds its pair exactly
    C = np.zeros((r, r, family.rank), dtype=np.int64)
    for (l, m), co in family.decomp.items():
        C[l, m, : len(co)] = co
    rebuilt = C.reshape(r * r, -1) @ np.stack(family.ws).reshape(family.rank, -1)
    assert np.array_equal(rebuilt.reshape(pair_products.shape), pair_products)


def test_class_actions_exact(family):
    acts = sp.class_actions(family)
    L100, L010, L001 = acts[(1, 0, 0)], acts[(0, 1, 0)], acts[(0, 0, 1)]
    D = np.diag(family.mult)
    assert np.array_equal(D @ L100, (D @ L001).T)
    assert np.array_equal(D @ L010, (D @ L010).T)
    for L in (L100, L010):
        assert L.min() >= 0
        assert L.shape == (33, 33)


def _brute_force_normal_fills(Vt, unk, slot_of):
    """The sweep the structured lift replaced: fill every assignment and
    test V V^T == V^T V on the whole matrix. The fills go in stacks of at
    most 729, whose products are batched in float64; their integer entries
    are small, so every sum is exact."""
    out = []
    assigns = product(*[range(rr + 1) for _, _, rr in unk])
    while chunk := list(islice(assigns, 729)):
        V = np.stack([sp._fill(Vt, unk, slot_of, assign) for assign in chunk]).astype(float)
        VT = V.transpose(0, 2, 1)
        normal = (V @ VT == VT @ V).all(axis=(1, 2))
        out += [assign for assign, ok in zip(chunk, normal) if ok]
    return out


def test_structured_normality_matches_the_brute_force_sweep(family, chiral_lift):
    acts = sp.class_actions(family)
    size = len(chiral_lift.slots)
    V100t, unk100 = sp._build_template(acts[(1, 0, 0)], family.mult, chiral_lift.slot_of, size)
    assert len(unk100) == 8  # 3^8 = 6561 fills
    fills = sp._normal_fills(V100t, unk100, chiral_lift.slot_of)
    assert fills == _brute_force_normal_fills(V100t, unk100, chiral_lift.slot_of)
    assert len(fills) == 1
    assert np.array_equal(sp._fill(V100t, unk100, chiral_lift.slot_of, fills[0]), chiral_lift.generators[0])
    # the middle template has many normal fills (every symmetric fill is
    # one); both paths must find the same 625 of 6561
    V010t, unk010 = sp._build_template(acts[(0, 1, 0)], family.mult, chiral_lift.slot_of, size)
    fills = sp._normal_fills(V010t, unk010, chiral_lift.slot_of)
    assert fills == _brute_force_normal_fills(V010t, unk010, chiral_lift.slot_of)
    assert len(fills) == 625


def test_normal_fills_of_a_template_with_no_unknowns():
    # with nothing to assign, the one empty assignment is kept exactly when
    # the template is normal
    normal = np.array([[0, 1], [1, 0]], dtype=np.int64)
    skew = np.array([[0, 1], [0, 0]], dtype=np.int64)
    assert sp._normal_fills(normal, [], {}) == [()]
    assert sp._normal_fills(skew, [], {}) == []


def test_lift_is_pinned(chiral_lift):
    assert chiral_lift.n_solutions == 1
    assert len(chiral_lift.generators) == 3
    assert np.array_equal(chiral_lift.generators[2], chiral_lift.generators[0].T)
    assert np.array_equal(chiral_lift.Vs[(0, 0, 0)], np.eye(48, dtype=np.int64))
    # tower stays nonnegative (regression guard; the lift asserts it too)
    assert all(v.min() >= 0 for v in chiral_lift.Vs.values())


def test_four_identical_components(chiral_lift):
    comps = chiral_lift.components
    assert len(comps) == 4
    orders = [c.ordering for c in comps]
    assert sorted(z for o in orders for z in o) == list(range(48))
    assert all(len(o) == 12 for o in orders)
    for c in comps[1:]:
        assert np.array_equal(comps[0].generators[0], c.generators[0])
        assert np.array_equal(comps[0].generators[1], c.generators[1])


def test_module_graph_frozen(module_graph):
    assert len(module_graph.generators) == 3
    assert np.array_equal(module_graph.generators[0], rows_to_matrix(F100_ROWS))
    assert np.array_equal(module_graph.generators[1], rows_to_matrix(F010_ROWS))
    assert np.array_equal(module_graph.generators[2], module_graph.generators[0].T)
    assert module_graph.tau == {
        1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 1,
        8: 2, 9: 2, 10: 3, 11: 3, 12: 3,
    }
    # global size: sum of squared Perron weights
    size = sum(d * d for d in module_graph.dims.values())
    assert abs(size - 16 * (2 + SQ2)) < 1e-9
    assert abs(module_graph.dims[9] - SQ2) < 1e-9
    assert abs(module_graph.dims[5] - np.sqrt(2 * (2 + SQ2))) < 1e-9


def test_module_graph_matches_component_zero(chiral_lift, module_graph):
    comps = chiral_lift.components
    first = next(c for c in comps if 0 in c.ordering)
    assert first.ordering == module_graph.ordering
    assert np.array_equal(first.generators[0], module_graph.generators[0])


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_renamed_slots_give_the_same_named_components(seed, chiral_lift):
    # slot q[z] of the lift is slot z of the renamed one; slot 0 stays put
    q = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(47)])
    at = np.ix_(q, q)
    Vs = fr.FusionRing(chiral_lift.Vs.labels, chiral_lift.Vs.tensor[:, q][:, :, q])
    renamed = dataclasses.replace(chiral_lift, generators=tuple(G[at] for G in chiral_lift.generators), Vs=Vs)
    comps = chiral_lift.components
    new = renamed.components
    assert len(new) == len(comps)
    for c in new:
        # the components are listed in slot order, so match them by slots
        slots = {int(q[z]) for z in c.ordering}
        old = next(o for o in comps if set(o.ordering) == slots)
        assert len(c.generators) == len(old.generators) == 3
        for j, (F, G) in enumerate(zip(c.generators, old.generators)):
            assert np.array_equal(F, G), j
        assert c.tau == old.tau and c.keys == old.keys
        assert np.array_equal(c.annular.tensor, old.annular.tensor)
    # the vacuum component is the renamed one, up to swaps inside a key tie
    vac, old = new[0], comps[0]
    assert vac.ordering[0] == 0
    for key in set(old.keys.values()):
        names = [a for a, k in old.keys.items() if k == key]
        assert {int(q[vac.ordering[a - 1]]) for a in names} == {old.ordering[a - 1] for a in names}


@pytest.mark.parametrize("rank, level", [(1, 10), (2, 5), (3, 4)])
def test_a_regular_module_is_named_by_n_ality_and_alcove_index(rank, level):
    # on the ring's own fundamental matrices, vertex lam is reached from the
    # vacuum by lam alone: its key is (N-ality, alcove index, 1), with no
    # constant of the flagship in the rule
    ring = fr.fusion_matrices(wt.algebra("A", rank), level)
    labels = ring.labels
    ordering, keys = sp._name_component(labels, ring.tensor, range(len(labels)))
    nality = [sum(j * x for j, x in enumerate(la, 1)) % (rank + 1) for la in labels]
    assert keys == [(nality[z], z, 1) for z in ordering]
    assert len(set(keys)) == len(keys)
    assert ordering == sorted(range(len(labels)), key=lambda z: (nality[z], z))


@pytest.mark.parametrize("level, G", [(2, [[1]]), (1, [[0, 0], [0, 0]])], ids=["ungraded", "unreached"])
def test_naming_refuses_an_ungraded_or_unreached_component(level, G):
    # A1 level 2 on G = [[1]]: the vacuum and the fundamental label both take
    # the vertex to itself, with N-alities 0 and 1. A1 level 1 on a zero G:
    # no label takes one vertex to the other
    labels = wt.enumerate_alcove(wt.algebra("A", 1), level)
    G = np.array(G, dtype=np.int64)
    with pytest.raises(CertificationError, match="^module_graph: "):
        sp._name_component(labels, fr.tower(labels, [G]), range(len(G)))


def test_the_naming_refuses_a_corrupted_slot_tower(chiral_lift):
    # one more cell in V_(1, 1, 0), of N-ality 3, takes slot 0 to slot 5,
    # which only labels of N-ality 1 reach
    Vs = fr.FusionRing(chiral_lift.Vs.labels, chiral_lift.Vs.tensor.copy())
    Vs[(1, 1, 0)][0, 5] += 1
    with pytest.raises(CertificationError, match="^module_graph: "):
        dataclasses.replace(chiral_lift, Vs=Vs).components


def test_parity_involution(chiral_lift, parity):
    P = parity.P
    assert parity.fixed_points == 12
    # the fixed slots are exactly those of self-transposed members, the
    # bound the search must reach
    ws = chiral_lift.fam.ws
    self_transposed = [np.array_equal(ws[i], ws[i].T) for i, _ in chiral_lift.slots]
    assert list(np.diag(P) == 1) == self_transposed
    assert np.array_equal(P @ P, np.eye(48, dtype=np.int64))
    assert P[0, 0] == 1
    # the right action, formed by indexing, is P V P on every label
    assert list(parity.Rs) == chiral_lift.fam.labels and len(parity.Rs) == 35
    for la, V in chiral_lift.Vs.items():
        assert np.array_equal(parity.Rs[la], P @ V @ P), la
    # right action commutes with the left one across sample labels
    rng = np.random.default_rng(3)
    labels = chiral_lift.fam.labels
    for _ in range(6):
        la, lb = (labels[i] for i in rng.integers(0, len(labels), size=2))
        R, V = parity.Rs[la], chiral_lift.Vs[lb]
        assert np.array_equal(R @ V, V @ R), (la, lb)


def _transpose_compatible_involutions(lift):
    """Every involution of the slots that sends each slot to a slot of the
    transposed member, as a target list, in lexicographic order."""
    fam = lift.fam
    member = {w.tobytes(): i for i, w in enumerate(fam.ws)}
    cand = [lift.slot_of[member[fam.ws[i].T.tobytes()]] for i, _ in lift.slots]
    size = len(cand)
    assign = [None] * size

    def walk(z):
        if z == size:
            yield list(assign)
        elif assign[z] is not None:  # already paired by an earlier slot
            yield from walk(z + 1)
        else:
            for y in sorted(cand[z]):
                if assign[y] is None:
                    assign[z], assign[y] = y, z
                    yield from walk(z + 1)
                    assign[z] = assign[y] = None

    return list(walk(0))


def test_parity_matches_the_brute_force_involutions(chiral_lift, parity):
    invs = _transpose_compatible_involutions(chiral_lift)
    fixed = [sum(a == z for z, a in enumerate(inv)) for inv in invs]
    best = [inv for inv, f in zip(invs, fixed) if f == max(fixed)]
    # three self-transposed doublets may swap or not; six transposed doublet
    # pairs may pair copy to copy or crosswise
    assert len(invs) == 2 ** 9 and len(best) == 2 ** 6
    VF = chiral_lift.generators
    assert len(VF) == 3
    passing = []
    for inv in best:
        P = np.eye(48, dtype=np.int64)[inv]
        RF = [P @ Vf @ P for Vf in VF]
        if all(np.array_equal(Rf @ Vg, Vg @ Rf) for Rf in RF for Vg in VF):
            passing.append(P)
    # doublet swaps are automorphisms, so every one of them passes
    assert len(passing) == len(best)
    assert np.array_equal(passing[0], parity.P)
    for P in passing:
        for la, R in parity.Rs.items():
            assert np.array_equal(P @ chiral_lift.Vs[la] @ P, R), la


def test_parity_rejects_a_corrupted_lift(chiral_lift):
    V100, V010, V001 = chiral_lift.generators
    V010 = V010.copy()
    V010[0, 1] += 1
    bad = dataclasses.replace(chiral_lift, generators=(V100, V010, V001))
    with pytest.raises(CertificationError, match="^parity: .* commuting right action"):
        sp.parity_involution(bad)


def test_coefficient_grid_rebuilds_every_pair(family, chiral_lift, parity, pair_products):
    coeff = sp.toric_coefficient_grid(chiral_lift, parity)
    n = len(family.labels)
    assert coeff.shape == (n, n, 48)
    assert coeff.min() >= 0
    # squared coefficients reproduce the norm table
    assert np.array_equal((coeff ** 2).sum(axis=2), family.norms)
    # and the linear combination over slot matrices reproduces each pair
    Wstack = np.stack([family.ws[i] for i, _ in chiral_lift.slots])
    rebuilt = (coeff.reshape(n * n, 48) @ Wstack.reshape(48, n * n)).reshape(
        n, n, n, n
    )
    assert np.array_equal(rebuilt, pair_products)
    assert np.array_equal(family.members[family.pair_member], pair_products)


def test_invariant_block_vectors_are_members(family):
    labels = family.labels
    u = indicator(labels, U_SUP)
    v = indicator(labels, V_SUP)
    w = indicator(labels, W_SUP)
    members = {wm.tobytes() for wm in family.ws}
    assert np.array_equal(family.M, np.outer(u, u) + np.outer(v, v) + 4 * np.outer(w, w))
    # the other two ambichiral combinations also appear in the family
    z2 = np.outer(u, v) + np.outer(v, u) + 4 * np.outer(w, w)
    z9 = 2 * (np.outer(u + v, w) + np.outer(w, u + v))
    assert z2.tobytes() in members
    assert z9.tobytes() in members


def test_annular_entry_sums(annular):
    assert np.array_equal(annular[(0, 0, 0)], np.eye(12, dtype=np.int64))
    sums = {la: int(F.sum()) for la, F in annular.items()}
    assert sum(sums.values()) == 1568
    assert sum(s * s for s in sums.values()) == 86816

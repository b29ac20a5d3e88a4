"""The twelve release checks for the flagship level-4 reconstruction.

Each check returns (ok, detail) and is pure computation against the memoized
pipeline; run_criterion() caches one check's outcome so the CLI and the test
gate share one run. Two checks state their target through facts the package
proves rather than through bare numbers: the embedding scan count is tied to
a closed-form census of every simple algebra the scan could find, and the
reversal clause of the graph algebra asserts the twisted and conjugated
anti-homomorphisms. The literal rule a.b = t(b).a is refuted by the unit row
(1.b = b but t(b).1 = t(b)), so it is reported as information only. The
block structure of both algebras (criterion 12) is read off exact integer
ranks: a full-rank trace form, the center, and the ideal the commutators
generate. The paper's tables here, the matrix units among them, check what
graphalgebra derives instead of feeding it.
"""

from fractions import Fraction as F
from functools import lru_cache

import numpy as np

from . import CertificationError
from . import embedding as emb
from . import exactla as xla
from . import fusion as fr
from . import graphalgebra as ga
from . import modular as md
from . import pipeline as pl
from . import splitting as sp
from . import weights as wt

SQ2 = np.sqrt(2)

# 35 conformal dimensions over the level-4 alcove, canonical order
H_LEVEL4 = [
    F(0), F(15, 64), F(5, 16), F(15, 64),
    F(9, 16), F(39, 64), F(1, 2), F(3, 4), F(39, 64), F(9, 16),
    F(63, 64), F(1), F(55, 64), F(71, 64), F(15, 16),
    F(55, 64), F(21, 16), F(71, 64), F(1), F(63, 64),
    F(3, 2), F(95, 64), F(21, 16), F(25, 16), F(87, 64), F(5, 4),
    F(111, 64), F(3, 2), F(87, 64), F(21, 16), F(2),
    F(111, 64), F(25, 16), F(95, 64), F(3, 2),
]

# branching supports of the three ambient sectors
U_SUP = [(0, 0, 0), (2, 1, 0), (0, 1, 2), (0, 4, 0)]
V_SUP = [(1, 0, 1), (4, 0, 0), (1, 2, 1), (0, 0, 4)]
W_SUP = [(1, 1, 1)]

# the distinct-matrix census of the splitting search, norms 1 through 8
CENSUS = {1: 8, 2: 11, 3: 8, 4: 5, 5: 6, 6: 12, 7: 0, 8: 3}

# normative products among the six doublet vertices
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

# the displayed block pattern of the regular matrix of each pair (a, b), by
# its sector b: one string per row of 12 x 12 blocks, where 0 is a zero
# block, a is G_a, s is G_a (G_1 + G_2), 2 is G_2 G_a and 9 is G_9 G_a
BLOCK_PATTERNS = {
    1: ("a000", "0a00", "00a0", "000a"),
    3: ("0a00", "as00", "0029", "009a"),
    6: ("00a0", "00a9", "0900", "a200"),
    11: ("000a", "0092", "aa00", "0900"),
}

# the displayed Perron weights of vertices 1..12, in closed form
_W5, _W6 = np.sqrt(2 * (2 + SQ2)), np.sqrt(2 + SQ2)
GRAPH_DIMS = dict(enumerate([1.0, 1.0, 1 + SQ2, 1 + SQ2, _W5, _W6, _W6, 2 + SQ2, SQ2, _W5, _W6, _W6], start=1))

# the displayed involutions of the vertex set, which the derived ones must
# reproduce: the twist flips each doublet, conjugation transposes the algebra
DISPLAYED_INVOLUTIONS = {
    "twist": {1: 1, 2: 2, 3: 4, 4: 3, 5: 5, 6: 7, 7: 6, 8: 8, 9: 9, 10: 10, 11: 12, 12: 11},
    "conj": {1: 1, 2: 2, 3: 3, 4: 4, 5: 10, 6: 11, 7: 12, 8: 8, 9: 9, 10: 5, 11: 6, 12: 7},
}


def _ambient_indicators(labels):
    """The indicator vectors u, v, w of the three branching supports."""
    out = np.zeros((3, len(labels)), dtype=np.int64)
    for row, support in zip(out, (U_SUP, V_SUP, W_SUP)):
        row[[labels.index(mu) for mu in support]] = 1
    return out


# dimension and dual Coxeter number of the classical series, from the rank
# where each stops being isomorphic to an earlier one
_SERIES = (
    ("A", 1, lambda n: n * (n + 2), lambda n: n + 1),
    ("B", 2, lambda n: n * (2 * n + 1), lambda n: 2 * n - 1),
    ("C", 3, lambda n: n * (2 * n + 1), lambda n: n + 1),
    ("D", 4, lambda n: n * (2 * n - 1), lambda n: 2 * n - 2),
)
_EXCEPTIONAL = (("G", 2, 14, 4), ("F", 4, 52, 9), ("E", 6, 78, 12), ("E", 7, 133, 18), ("E", 8, 248, 30))

# the four SU(4) embeddings named in the literature
SU4_KNOWN = {("SU(6)", 2), ("Spin(15)", 4), ("SU(10)", 6), ("Spin(20)", 8)}


def _simple_algebras_below(bound):
    """(family, rank, dim, dual_coxeter) of every simple algebra, one per
    isomorphism class, whose level-1 charge dim/(1+h) is below bound. The
    charge grows with the rank in each series, so each series stops at its
    first rank over the bound."""
    out = []
    for fam, n, dim, h in _SERIES:
        while F(dim(n), 1 + h(n)) < bound:
            out.append((fam, n, dim(n), h(n)))
            n += 1
    out += [a for a in _EXCEPTIONAL if F(a[2], 1 + a[3]) < bound]
    return out


def check_embedding_scan():
    # c_base(k) < dim(base) at every level, so an ambient whose level-1
    # charge reaches dim(base) can never solve the scan
    catalog = emb.load_catalog()
    have = {(a.family, a.rank, a.dim, a.dual_coxeter) for a in catalog}
    counts, missing = {}, []
    for base in ("SU(2)", "SU(3)", "SU(4)"):
        dim = next(a.dim for a in catalog if a.compact_name == base)
        missing += [a for a in _simple_algebras_below(dim) if a not in have]
        counts[base] = len(emb.scan_embeddings(base, catalog))
    two = [(e.level, e.ambient.compact_name) for e in emb.scan_embeddings("SU(2)", catalog)]
    four = {(e.ambient.compact_name, e.level) for e in emb.scan_embeddings("SU(4)", catalog)}
    known_ok = SU4_KNOWN <= four
    ok = (
        counts == {"SU(2)": 3, "SU(3)": 14, "SU(4)": 19}
        and two == [(4, "SU(3)"), (10, "Spin(5)"), (28, "G2")]
        and known_ok
        and not missing
    )
    detail = (
        f"SU(2)={counts['SU(2)']} (want 3, ambients {two}), "
        f"SU(3)={counts['SU(3)']} (want 14), SU(4)={counts['SU(4)']} (want 19, "
        f"the four known embeddings present: {known_ok}); catalog complete below "
        f"each base's charge bound: {not missing}"
    )
    return ok, detail


def check_conformal_dimensions():
    b7 = wt.algebra("B", 7)
    hs_b7 = {wt.conformal_dimension(b7, 1, w) for w in wt.enumerate_alcove(b7, 1)}
    base = pl.base_data()
    ok = hs_b7 == {F(0), F(1, 2), F(15, 16)} and sorted(base.hs) == sorted(H_LEVEL4)
    detail = f"ambient dims {sorted(hs_b7)}; level-4 multiset of {len(base.hs)} exact rationals"
    return ok, detail


def check_modular_relations():
    data = pl.base_data()
    s, t = data.s, data.t
    eye = np.eye(len(data.labels))
    C = s @ s
    st = s @ t
    res = max(
        np.abs(s @ s.conj().T - eye).max(),
        np.abs(t @ t.conj().T - eye).max(),
        np.abs(st @ st @ st - C).max(),
        np.abs(C @ C - eye).max(),
        np.abs(np.linalg.matrix_power(t, 64) - eye).max(),
    )
    return res < 1e-9, f"max relation residual {res:.2e} (tol 1e-09)"


def check_fusion_recursion():
    spec = wt.algebra("A", 3)
    worst = 0.0
    for k in range(1, 5):
        rec = fr.fusion_matrices(spec, k)
        data = md.modular_data(spec, k)
        ten = md.verlinde_tensor(data)
        for i, lam in enumerate(data.labels):
            worst = max(worst, float(np.abs(ten[i] - np.round(ten[i].real)).max()))
            if not np.array_equal(rec[lam], np.round(ten[i].real).astype(np.int64)):
                return False, f"recursion and trace formula disagree at level {k}, {lam}"
    return worst < 1e-6, f"levels 1..4 equal entrywise; max rounding defect {worst:.2e}"


def check_invariant():
    data = pl.base_data()
    M = pl.invariant().matrix
    u, v, w = _ambient_indicators(data.labels)
    block = np.outer(u, u) + np.outer(v, v) + 4 * np.outer(w, w)
    Mf = M.astype(complex)
    res = max(
        np.abs(Mf @ data.s - data.s @ Mf).max(),
        np.abs(Mf @ data.t - data.t @ Mf).max(),
    )
    ok = (
        np.array_equal(M, block)
        and int(M.trace()) == 12
        and int((M.T @ M).trace()) == 48
        and res < 1e-7
    )
    detail = (
        f"block form with coefficient 4 on the spinor square: {np.array_equal(M, block)}; "
        f"trace {int(M.trace())}, gram trace {int((M.T @ M).trace())}, commutators {res:.2e}"
    )
    return ok, detail


def check_splitting():
    fam = pl.family()
    from collections import Counter

    mult = Counter(fam.mult)
    # each pair's N_l M N_m^T is one of fam.members, and pairs with one
    # member share one writing, so rebuilding each distinct (writing, member)
    # link once covers all the pairs; C holds the links' coefficients over
    # the ws, zero-padded, since a writing names only the ws found before it
    links = sorted({(c, int(fam.pair_member[p])) for p, c in fam.decomp.items()})
    C = np.zeros((len(links), len(fam.ws)), dtype=np.int64)
    for i, (c, _) in enumerate(links):
        C[i, : len(c)] = c
    W = np.stack(fam.ws).reshape(len(fam.ws), -1)
    dt = xla.product_dtype(len(fam.ws) * int(np.abs(C).max()) * int(np.abs(W).max()))
    rebuilt = C.astype(dt) @ W.astype(dt)
    target = fam.members[[k for _, k in links]].reshape(len(links), -1)
    rebuilt_ok = bool((rebuilt == target).all())
    census = sp.norm_census(fam)
    ok = (
        fam.rank == 33
        and census == CENSUS
        and mult == {1: 18, 2: 15}
        and fam.slot_count == 48
        and rebuilt_ok
    )
    detail = (
        f"rank {fam.rank}, census {census}, "
        f"{mult[1]}+{mult[2]} members -> {fam.slot_count} slots, "
        f"all {len(fam.decomp)} writings rebuilt: {rebuilt_ok}"
    )
    return ok, detail


def check_chiral_generators():
    lift = pl.chiral_lift()
    par = pl.parity()
    comps = sp.component_graphs(lift)
    blocks_ok = len(comps) == 4 and all(
        all(map(np.array_equal, comps[0].generators, c.generators)) for c in comps[1:]
    )
    transpose_ok = np.array_equal(lift.generators[-1], lift.generators[0].T)
    V, R = lift.Vs.tensor, par.Rs.tensor
    dt = xla.product_dtype(V.shape[-1] * int(np.abs(V).max()) * int(np.abs(R).max()))
    V, R = V.astype(dt), R.astype(dt)
    # one V_l against every R_m per step: [m] holds V_l R_m on the left and
    # R_m V_l on the right, so no more than 35 products are held at once
    commute_ok = all(np.array_equal(v @ R, R @ v) for v in V)
    ok = blocks_ok and transpose_ok and commute_ok
    detail = (
        f"four identical 12x12 blocks: {blocks_ok}; right fundamental is the "
        f"left transpose: {transpose_ok}; all 1225 left/right pairs commute: {commute_ok}"
    )
    return ok, detail


def check_masses():
    graph = pl.module_graph()
    data = pl.base_data()
    beta = graph.dims[5]
    qd = fr.quantum_dimensions(wt.algebra("A", 3), 4)
    mu010 = qd[data.index[(0, 1, 0)]]
    alcove_mass = ga.quantum_mass(qd)
    graph_mass = ga.quantum_mass(GRAPH_DIMS.values())
    sub_mass = ga.quantum_mass(GRAPH_DIMS[a] for a in pl.quantum_graph().J)
    dims_ok = all(abs(graph.dims[a] - GRAPH_DIMS[a]) < 1e-9 for a in range(1, 13))
    res = max(
        abs(beta - np.sqrt(2 * (2 + SQ2))),
        abs(mu010 - (2 + SQ2)),
        abs(alcove_mass - 128 * (3 + 2 * SQ2)),
        abs(graph_mass - 16 * (2 + SQ2)),
        abs(sub_mass - 4),
        abs(graph_mass**2 / sub_mass - alcove_mass),
    )
    ok = dims_ok and res < 1e-9
    detail = f"vertex dimension list as displayed: {dims_ok}; max mass residual {res:.2e}"
    return ok, detail


def check_graph_algebra():
    qg = pl.quantum_graph()
    G = qg.G

    def prod(a, b):
        return {c + 1: int(G[b][a - 1, c]) for c in range(12) if G[b][a - 1, c]}

    table_ok = all(prod(x, a) == want for (x, a), want in DOUBLET_PRODUCTS.items())

    def antihom(S):
        # a.b = S(S(b).S(a)) for every ordered pair
        return all(
            prod(a, b) == {S[c]: m for c, m in prod(S[b], S[a]).items()}
            for a in range(1, 13)
            for b in range(1, 13)
        )

    # the derived involutions, which must be the displayed ones
    T, C = qg.twist, qg.conj
    twist_ok = T == DISPLAYED_INVOLUTIONS["twist"] and antihom(T)
    conj_ok = C == DISPLAYED_INVOLUTIONS["conj"] and antihom(C)
    reversal_bad = sum(
        prod(a, b) != prod(T[b], a) for a in range(1, 13) for b in range(1, 13)
    )
    fracs, crossed_sols = ga.crossed_branch(pl.doublet_system())
    crossed_ok = crossed_sols == [] and len(fracs) > 0
    ok = table_ok and twist_ok and conj_ok and crossed_ok
    detail = (
        f"product table exact: {table_ok}; twist anti-homomorphism "
        f"a.b = t(t(b).t(a)): {twist_ok}; conjugation anti-homomorphism: {conj_ok}; "
        f"literal reversal a.b = t(b).a (refuted by the unit row, not asserted) "
        f"fails on {reversal_bad} of 144 ordered pairs; crossed conjugation branch "
        f"forces {len(fracs)} half-integer cells and has no integer solution: {crossed_ok}"
    )
    return ok, detail


@lru_cache(maxsize=None)
def _oc_regular():
    """(mats, defect): the 48 quantum-symmetry matrices in the order of
    oc.pairs, and closure_defect of them with themselves, which criteria 10
    and 12 both certify."""
    oc = pl.quantum_symmetries()
    mats = dict(enumerate(oc.O[p] for p in oc.pairs))
    return tuple(mats.values()), ga.closure_defect(mats, mats)


def check_realization():
    oc = pl.quantum_symmetries()
    G = oc.qg.G
    smap = pl.slot_map()
    labels = pl.base_data().labels

    closure_ok = _oc_regular()[1] == 0

    # the four displayed block patterns: the only copy in the package, so
    # they check oc_matrices' derivation from the product rule
    def pattern(a, b):
        Ga = G[a]
        block = {"0": 0 * Ga, "a": Ga, "s": Ga @ (G[1] + G[2]), "2": G[2] @ Ga, "9": G[9] @ Ga}
        return np.block([[block[c] for c in row] for row in BLOCK_PATTERNS[b]])

    patterns_ok = set(BLOCK_PATTERNS) == set(oc.qg.sectors) and all(
        np.array_equal(oc.O[p], pattern(*p)) for p in oc.pairs
    )

    u, v, w = _ambient_indicators(labels)
    amb_ok = (
        np.array_equal(smap.W0[(1, 1)], np.outer(u, u) + np.outer(v, v) + 4 * np.outer(w, w))
        and np.array_equal(smap.W0[(2, 1)], np.outer(u, v) + np.outer(v, u) + 4 * np.outer(w, w))
        and np.array_equal(smap.W0[(9, 1)], 2 * (np.outer(u + v, w) + np.outer(w, u + v)))
    )

    # the slot map's own certificates, on the map it returned: the essential
    # factorization of every slot and the product identity, which covers
    # every twisted grid
    slot_W = {z: smap.W0[p] for z, p in smap.pair_of.items()}
    factor_ok = not ga.unfactored_slots(slot_W, smap.pair_of, smap.E, smap.Ered)
    failures = ga.product_identity_failures(pl.chiral_lift(), pl.parity(), labels, smap.slot_of, oc)
    grid_ok = len(failures) == 0
    ok = closure_ok and patterns_ok and amb_ok and factor_ok and grid_ok
    detail = (
        f"48-element closure: {closure_ok}; block patterns: {patterns_ok}; "
        f"ambichiral block forms: {amb_ok}; essential factorization of all 48: {factor_ok}; "
        f"all {len(oc.pairs) ** 2} twisted grids decompose: {grid_ok}"
    )
    return ok, detail


def check_dimension_sums():
    ann = pl.annular()
    d_lam = [int(m.sum()) for m in ann.values()]
    oc = pl.quantum_symmetries()
    SX = pl.dual_matrices()
    d_x = [int(SX[p].sum()) for p in oc.pairs]
    got = (sum(d_lam), sum(x * x for x in d_lam), sum(d_x), sum(x * x for x in d_x))
    ok = got == (1568, 86816, 1864, 86816)
    detail = f"annular sums {got[0]}, {got[1]}; dual sums {got[2]}, {got[3]}"
    return ok, detail


def _blocks(b):
    """The block sizes of a BlockStructure as a sum, like 8·1 + 2²."""
    parts = [f"{b.ones}·1"] if b.ones else []
    if b.size:
        parts.append(f"{b.size}²")
    return " + ".join(parts)


def check_block_structures():
    galg = pl.graph_algebra()
    try:
        ga.matrix_units(galg)
        units_ok = True
    except CertificationError:
        units_ok = False
    G = galg.G
    b12 = ga.block_structure([G[a] for a in range(1, 13)])
    b48 = ga.block_structure(*_oc_regular())
    ok = (
        units_ok
        and (b12.center, b12.ones, b12.size) == (9, 8, 2)
        and (b48.center, b48.ones, b48.size) == (33, 32, 4)
    )
    detail = (
        f"matrix units at 1e-09: {units_ok}; centers {b12.center} and {b48.center}; "
        f"trace-form ranks {b12.trace_rank} and {b48.trace_rank}; "
        f"blocks {_blocks(b12)} and {_blocks(b48)}"
    )
    return ok, detail


CRITERIA = [
    (1, "conformal embedding scan counts", check_embedding_scan),
    (2, "conformal dimension values", check_conformal_dimensions),
    (3, "modular relations", check_modular_relations),
    (4, "fusion recursion against the trace formula", check_fusion_recursion),
    (5, "modular invariant block form", check_invariant),
    (6, "splitting rank, census and rebuild", check_splitting),
    (7, "chiral generator structure", check_chiral_generators),
    (8, "quantum dimensions and masses", check_masses),
    (9, "graph algebra product table and reversal", check_graph_algebra),
    (10, "quantum symmetry realization", check_realization),
    (11, "dimension sums", check_dimension_sums),
    (12, "block diagonalization", check_block_structures),
]


@lru_cache(maxsize=None)
def run_criterion(num):
    """One check, as a (number, name, ok, detail) tuple."""
    for n, name, fn in CRITERIA:
        if n == num:
            return (num, name, *fn())
    raise KeyError(num)


def run_all():
    """All twelve checks, as (number, name, ok, detail) tuples."""
    return tuple(run_criterion(num) for num, _, _ in CRITERIA)

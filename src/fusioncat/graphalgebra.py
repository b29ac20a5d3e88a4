"""Self-fusion of the quantum graph and its algebra of quantum symmetries.

Both algebras are given by structure constants, and one identity states
them: X_x X_y = sum_z (R_y)[x, z] X_z, where R_y is the regular matrix of
y. closure_defect counts the pairs where it fails, one left factor at a
time, in the dtype exactla.product_dtype picks. It certifies the graph
algebra (X = R = G), the quantum symmetries (X = R = O) and their dual
action on the graph (X = SX, R = O).

The vacuum rows of the annular matrices pin every vertex matrix but the
doublets' (vertices with equal vacuum columns) and every doublet sum, in one
exact solve of F_lam = sum_a (F_lam)[1, a] G_a (Behrend, Pearce, Petkova and
Zuber, hep-th/9908036). On a graph with no doublets, such as E6 of SU(2) or
E5 of SU(3), that solve is the whole algebra, certified by closure alone.
Otherwise the doublet members come from an exact linear system stated by
generic rules, lattice enumeration and a closure filter; the survivors must
form one orbit of doublet swaps, and the lexicographic maximum is kept. The
flagship's crossed conjugation branch has no integer solution.

quantum_graph reads off the algebra conjugation (G_a^T = G_b), the twist
(of the involutive anti-automorphisms keeping the module graph's integer
vertex keys, the one moving the most vertices), the modular subalgebra J
(the vertices of one T eigenvalue) and the sectors of its right cosets. On
that sit the basis pairs of the quantum symmetries, their regular matrices
from the product rule (x (x) s)(a (x) b) = xa (x) bs, the dual action, and
the slot map, certified by the essential factorization and the product
identity over every pair. The center of either algebra is an exact integer
rank on its structure constants, and so are its block sizes
(block_structure). A failed check raises CertificationError, so the
certification also runs under python -O.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import isqrt

import numpy as np

from . import CertificationError
from . import exactla as xla
from . import splitting as sp

__all__ = [
    "GraphAlgebra", "partial_algebra", "DoubletSystem", "shared_doublet_system", "doublet_solutions",
    "crossed_branch", "closure_defect", "solve_graph_algebra",
    "QuantumGraph", "quantum_graph",
    "OcAlgebra", "pair_index", "basis_pairs", "reduce_pair", "oc_matrices", "chiral_conjugate",
    "conjugate_pair", "dual_annular",
    "essential_matrices", "reduced_essential", "SlotMap", "unfactored_slots",
    "product_identity_failures", "slot_symmetry_map", "toric_pair_grid",
    "matrix_units", "center_dimension", "BlockStructure", "block_structure", "quantum_mass",
]


@dataclass
class GraphAlgebra:
    G: dict  # vertex -> nonnegative integer matrix, vertices 1..n
    doublet_survivors: int  # closure-exact solutions before the canonical pick


def _require(ok, stage, detail):
    if not ok:
        raise CertificationError(stage, detail)


def partial_algebra(annular):
    """The part of the algebra the annular family determines on its own,
    through its vacuum rows E[lam, a] = (F_lam)[1, a]: F_lam = sum_a
    E[lam, a] G_a. Vertices with equal columns of E, the doublets, enter
    through their sum alone, so each class of equal columns is one unknown
    of E G = F, solved once with the cells of every F_lam as right-hand
    sides. Returns vertex -> pinned G_a and doublet (u, v) -> G_u + G_v."""
    F = annular.tensor
    classes = {}
    for a, col in enumerate(F[:, 0].T, start=1):
        classes.setdefault(col.tobytes(), []).append(a)
    classes = [tuple(c) for c in classes.values()]
    _require(max(map(len, classes)) <= 2, "graph_algebra", "more than two vertices share a vacuum column")
    sys = xla.LinearSystem(len(classes))
    sys.add(F[:, 0, [c[0] - 1 for c in classes]], F.reshape(len(F), -1))
    res = sys.rref()
    _require(res.consistent and res.rank == len(classes), "graph_algebra",
             f"the annular matrices are no combination of {len(classes)} vertex matrices over their vacuum rows")
    lead = res.lead[:, None]
    _require(not (res.rhs % lead).any() and res.rhs.min() >= 0, "graph_algebra",
             "the vacuum rows pin a matrix that is not a nonnegative integer matrix")
    pinned = dict(zip(classes, (res.rhs // lead).astype(np.int64).reshape(-1, *F.shape[1:])))
    return ({c[0]: M for c, M in pinned.items() if len(c) == 1},
            {c: M for c, M in pinned.items() if len(c) == 2})


def _transpose(size):
    """vec(X^T) = vec(X)[_transpose(size)] for a size x size X."""
    return np.arange(size * size).reshape(size, size).T.reshape(-1)


@dataclass(frozen=True)
class DoubletSystem:
    """What shared_doublet_system states, over x = (vec X_u for each doublet
    (u, v) of `sums`, in order), each vec row-major. With no doublets there
    is no x: rref and branch are None."""
    rref: xla.RrefResult  # the shared constraints, reduced
    caps: np.ndarray  # the cap of every cell of x: its doublet sum
    knowns: dict  # vertex -> pinned matrix
    sums: dict  # doublet (u, v) -> G_u + G_v
    branch: tuple  # the doublet whose sum is its own transpose


def shared_doublet_system(annular) -> DoubletSystem:
    """partial_algebra's matrices and sums, and the constraints both
    conjugation branches share on X_u = G_u, G_v = S - X_u for each doublet
    (u, v) of sum S: closure, X_u G_a = sum_c (G_a)[u, c] G_c, for each
    pinned a but the unit 1; commutation with the annular matrix of each
    fundamental label; the unit row of X_u; X_e = X_d^T where S_d^T = S_e.
    The one doublet whose sum is its own transpose is the branch. Its
    reduced form holds 411 x 21 entries on the flagship, its rows 411 x 433.
    A graph with no doublets keeps what the vacuum rows pin."""
    knowns, sums = partial_algebra(annular)
    if not sums:
        return DoubletSystem(None, np.zeros(0, dtype=np.int64), knowns, sums, None)
    branch = [d for d, S in sums.items() if np.array_equal(S, S.T)]
    _require(len(branch) == 1, "graph_algebra",
             f"{len(branch)} doublet sums are their own transpose, where one splits the branches")
    size = len(knowns[1])
    n = size * size
    I, In = np.eye(n, dtype=np.int64), np.eye(size, dtype=np.int64)
    sys = xla.LinearSystem(len(sums) * n)

    def state(parts, rhs):  # parts: (doublet index k, the coefficients of vec X_k)
        A = np.zeros((len(rhs), len(sums) * n), dtype=np.int64)
        for k, M in parts:
            A[:, k * n : (k + 1) * n] += M
        sys.add(A, rhs)

    zero = np.zeros(n, dtype=np.int64)
    fundamental = [Fl for lab, Fl in annular.items() if sum(lab) == 1]
    for k, (u, _) in enumerate(sums):
        for a in knowns.keys() - {1}:
            # closure; m is row u of G_a, and doublet (x, y) adds m_x X_x + m_y (S - X_x)
            m = knowns[a][u - 1]
            parts = [(k, np.kron(In, knowns[a].T))]
            parts += [(j, (m[y - 1] - m[x - 1]) * I) for j, (x, y) in enumerate(sums) if m[x - 1] != m[y - 1]]
            rhs = sum(m[c - 1] * M for c, M in knowns.items()) + sum(m[y - 1] * S for (_, y), S in sums.items())
            state(parts, rhs.reshape(-1))
        for Fl in fundamental:  # [X_u, F_lam] = 0
            state([(k, np.kron(In, Fl.T) - np.kron(Fl, In))], zero)
        state([(k, I[:size])], In[u - 1])  # the first row is the unit row of X_u
    for (i, Sd), (j, Se) in combinations(enumerate(sums.values()), 2):
        if np.array_equal(Sd.T, Se):  # conjugation transposes: X_e = X_d^T
            state([(j, I), (i, -I[_transpose(size)])], zero)
    caps = np.concatenate([S.reshape(-1) for S in sums.values()])
    return DoubletSystem(sys.rref(), caps, knowns, sums, branch[0])


def _solve_doublets(shared: DoubletSystem, self_conjugate):
    """The branch's reduced system and its lattice points, unpacked: the
    shared blocks restated from their reduced form, and the branch doublet's
    X = X^T or X + X^T = S, for its member X and sum S."""
    sys = xla.LinearSystem.from_rref(shared.rref)
    S, k = shared.sums[shared.branch], list(shared.sums).index(shared.branch)
    size, n = len(S), S.size
    I = np.eye(n, dtype=np.int64)
    T = I[_transpose(size)]
    A = np.zeros((n, len(shared.sums), n), dtype=np.int64)
    A[:, k] = I - T if self_conjugate else I + T
    sys.add(A.reshape(n, -1), 0 if self_conjugate else S.reshape(-1))
    res = sys.rref()
    pts = xla.lattice_points(res, shared.caps) if res.consistent else []
    return res, [tuple(np.array(x, dtype=np.int64).reshape(-1, size, size)) for x in pts]


def doublet_solutions(shared: DoubletSystem, self_conjugate=True):
    """Integer candidates for the open doublet members, one per doublet of
    shared.sums: the lattice points of the doublet system, each cell capped
    by its doublet sum. The branch doublet's member is symmetric (the kept
    branch) or crossed with its partner, X + X^T = S (empty)."""
    return _solve_doublets(shared, self_conjugate)[1]


def crossed_branch(shared: DoubletSystem):
    """The crossed conjugation branch, from one reduced system: the values
    its rational solution forces on cells outright (pivots with no free
    columns) that are proper fractions, sorted, and its integer solutions
    as doublet_solutions lists them."""
    res, sols = _solve_doublets(shared, False)
    _require(res.consistent, "graph_algebra", "the crossed branch is not even rationally solvable")
    forced = [
        Fraction(int(b), int(d))
        for d, row, b in zip(res.lead, res.coeffs, res.rhs)
        if not row.any()
    ]
    return sorted(f for f in forced if f.denominator != 1), sols


def _assemble(shared: DoubletSystem, *unknowns):
    G = dict(shared.knowns)
    for ((u, v), S), X in zip(shared.sums.items(), unknowns):
        G[u], G[v] = X, S - X
    return dict(sorted(G.items()))


def closure_defect(mats, regular):
    """Number of ordered pairs (x, y) with X_x X_y != sum_z (R_y)[x, z] X_z,
    where mats holds the X and regular the regular matrices R that carry the
    structure constants, both dicts in basis order. 0 means the X represent
    the algebra: (G, G) for the graph algebra, (O, O) for the quantum
    symmetries, (SX, O) for their dual action. One left factor x at a time,
    each side is one 2-D product in the dtype product_dtype picks from a
    bound on every partial sum: X_x [X_0 | ... | X_{n-1}] gives every
    X_x X_y, and R[:, x, :] times the flattened X every sum_z (R_y)[x, z] X_z,
    so no stack of n products is held."""
    X = np.stack(list(mats.values()))
    R = np.stack(list(regular.values()))
    n, a, _ = X.shape
    xmax, rmax = int(np.abs(X).max()), int(np.abs(R).max())
    dt = xla.product_dtype(max(a * xmax * xmax, n * rmax * xmax))
    X, R = X.astype(dt), R.astype(dt)
    right = X.transpose(1, 0, 2).reshape(a, n * a)  # [X_0 | ... | X_{n-1}]
    flat = X.reshape(n, a * a)
    bad = 0
    for x in range(n):
        # lhs[a, y, b] = (X_x X_y)[a, b]; rhs[y, a, b] = sum_z (R_y)[x, z] (X_z)[a, b]
        lhs = (X[x] @ right).reshape(a, n, a)
        rhs = (R[:, x, :] @ flat).reshape(n, a, a)
        bad += int((lhs.transpose(1, 0, 2) != rhs).any(axis=(1, 2)).sum())
    return bad


def _structure(G):
    """T[a, b, c] = (G_b)[a, c], 0-based: a.b = sum_c T[a, b, c] c."""
    return np.stack([G[b] for b in sorted(G)], axis=1)


def _relabelings(n, classes):
    """Every permutation s of the vertices 1..n, 0-based (a goes to
    s[a - 1] + 1), that maps each class into itself and fixes the rest."""
    for images in product(*map(permutations, classes)):
        s = np.arange(n)
        for C, img in zip(classes, images):
            s[np.subtract(C, 1)] = np.subtract(img, 1)
        yield s


def _single(row):
    """b if row is the unit row of vertex b, else None."""
    b = int(np.argmax(row))
    return b + 1 if row[b] == 1 and np.count_nonzero(row) == 1 else None


def canonical_survivor(survivors, doublets):
    """The kept closure-exact resolution: the lexicographic maximum of
    (G_1, ..., G_n) flattened. Every survivor must be the kept one relabeled
    by swaps inside the doublets (vertex pairs), so the pick fixes a gauge
    and nothing else."""
    G = max(survivors, key=lambda S: tuple(np.concatenate([S[a].reshape(-1) for a in sorted(S)])))
    T = _structure(G)
    swaps = [np.ix_(s, s, s) for s in _relabelings(len(T), doublets)]
    for TS in map(_structure, survivors):
        _require(any(np.array_equal(TS[at], T) for at in swaps), "graph_algebra",
                 "a closure-exact survivor is no doublet relabeling of the kept one")
    return G


def solve_graph_algebra(shared: DoubletSystem) -> GraphAlgebra:
    """The kept branch's closure-exact resolution of the doublet system;
    with no doublets, the pinned matrices are the one candidate."""
    cands = doublet_solutions(shared) if shared.sums else [()]
    survivors = [G for G in (_assemble(shared, *t) for t in cands) if closure_defect(G, G) == 0]
    _require(survivors, "graph_algebra", "no closure-exact doublet resolution")
    G = canonical_survivor(survivors, tuple(shared.sums))
    for a, Ga in G.items():
        _require(Ga.min() >= 0 and _single(Ga[0]) == a,
                 "graph_algebra", f"G_{a} is not a nonnegative unit-row matrix")
    return GraphAlgebra(G=G, doublet_survivors=len(survivors))


# ---------------------------------------------------------------------------
# the quantum graph: conjugation, twist, modular subalgebra and sectors
# ---------------------------------------------------------------------------

@dataclass
class QuantumGraph:
    """The structure the quantum symmetries are built on, every field read
    off the graph algebra and the module graph by quantum_graph."""
    G: dict  # vertex -> regular matrix of the graph algebra
    conj: dict  # vertex -> the vertex whose matrix is its transpose
    twist: dict  # vertex -> its image under the twist
    J: tuple  # the modular subalgebra
    sectors: tuple  # the representative of each coset c.J, ascending
    red: dict  # vertex b -> (c, j), c a sector, j in J, c.j = b
    reach: dict  # fundamental label -> the vertex its action takes 1 to


def vertex_conjugation(G):
    """a -> the unique b with G_a^T = G_b."""
    match = {a: [b for b in G if np.array_equal(G[a].T, G[b])] for a in G}
    for a, m in match.items():
        _require(len(m) == 1, "quantum_graph", f"G_{a} transposed is not one G_b")
    return {a: m[0] for a, m in match.items()}


def modular_subalgebra(G, annular, hs, dims):
    """The vertices b whose vacuum support {lam : (F_lam)[1, b] != 0} takes
    a single value of h_lam mod 1, that is one T eigenvalue: the ambichiral
    vertices of Boeckenhauer, Evans and Kawahigashi (CMP 1999). They must
    hold the unit and span a subalgebra on which the Perron weights dims
    multiply."""
    J = tuple(b for b in G if len({hs[lab] % 1 for lab, F in annular.items() if F[0, b - 1]}) == 1)
    _require(1 in J, "quantum_graph", "the unit is not in the modular subalgebra")
    rest = [b - 1 for b in G if b not in J]
    for j, k in product(J, J):
        row = G[k][j - 1]
        _require(not row[rest].any(), "quantum_graph", f"{j}.{k} leaves the modular subalgebra {J}")
        dim = sum(int(row[b - 1]) * dims[b] for b in J)
        _require(abs(dim - dims[j] * dims[k]) < 1e-9 * dim, "quantum_graph",
                 f"the Perron weights do not multiply on {j}.{k}")
    return J


def sector_reduction(G, J, dims):
    """The sectors and every vertex b as (c, j) with c.j = b: the right
    cosets c.J, read off the rows c of the G_j where each is a single
    vertex. The cosets must partition the vertices, |J| vertices each. The
    sector of a coset is its vertex of least Perron weight, then least name,
    and its own products with J must give the coset."""
    times = {c: [_single(G[j][c - 1]) for j in J] for c in G}
    cosets = {frozenset(t) for t in times.values() if None not in t}
    _require(sorted(b for C in cosets for b in C) == sorted(G)
             and all(len(C) == len(J) for C in cosets),
             "quantum_graph", f"the cosets c.{J} do not partition the vertices")
    red = {}
    for C in cosets:
        least = min(dims[b] for b in C)
        c = min(b for b in C if dims[b] < least * (1 + 1e-9))
        _require(set(times[c]) == C, "quantum_graph",
                 f"the sector {c} does not reach its coset through {J}")
        red.update((b, (c, j)) for b, j in zip(times[c], J))
    return tuple(sorted({c for c, _ in red.values()})), dict(sorted(red.items()))


def vertex_twist(G, keys):
    """The twist: of the relabelings that keep the integer vertex keys (the
    module graph's naming keys), the involutive anti-automorphisms t,
    t(a.b) = t(b).t(a), the one that moves the most vertices; it must be the
    only one that moves that many."""
    classes = {}
    for a in G:
        classes.setdefault(keys[a], []).append(a)
    T = _structure(G)
    found = [
        s for s in _relabelings(len(T), list(classes.values()))
        if np.array_equal(s[s], np.arange(len(s)))
        and np.array_equal(T[np.ix_(s, s, s)].transpose(1, 0, 2), T)
    ]
    _require(found, "quantum_graph", "no involutive anti-automorphism keeps the vertex keys")
    moved = [int((s != np.arange(len(s))).sum()) for s in found]
    most = max(moved)
    _require(moved.count(most) == 1, "quantum_graph",
             f"{moved.count(most)} involutive anti-automorphisms move {most} vertices")
    s = found[moved.index(most)]
    return {a: int(s[a - 1]) + 1 for a in G}


def quantum_graph(galg: GraphAlgebra, graph, annular, hs) -> QuantumGraph:
    """Derive the QuantumGraph of the graph algebra galg. graph is the
    module graph (integer key and Perron weight of every vertex), annular
    the module action of every label and hs its conformal dimension."""
    G, dims = galg.G, graph.dims
    conj = vertex_conjugation(G)
    twist = vertex_twist(G, graph.keys)
    J = modular_subalgebra(G, annular, hs, dims)
    sectors, red = sector_reduction(G, J, dims)
    reach = {lab: _single(F[0]) for lab, F in annular.items() if sum(lab) == 1}
    _require(None not in reach.values(), "quantum_graph",
             "a fundamental label does not take vertex 1 to one vertex")
    return QuantumGraph(G, conj, twist, J, sectors, red, reach)


# ---------------------------------------------------------------------------
# quantum symmetries: the algebra of basis pairs
# ---------------------------------------------------------------------------

def pair_index(qg: QuantumGraph, pair):
    a, b = pair
    return qg.sectors.index(b) * len(qg.G) + (a - 1)


def basis_pairs(qg: QuantumGraph):
    return [(a, b) for b in qg.sectors for a in qg.G]


def reduce_pair(qg: QuantumGraph, a, b):
    """An arbitrary formal pair a (x) b written over the basis pairs: the
    subalgebra part j of b = c.j crosses over and multiplies a from the
    left, j.a (x) c."""
    c, j = qg.red[b]
    n = len(qg.G)
    vec = np.zeros(len(qg.sectors) * n, dtype=np.int64)
    start = pair_index(qg, (1, c))
    vec[start : start + n] = qg.G[a][j - 1]
    return vec


@dataclass
class OcAlgebra:
    qg: QuantumGraph
    pairs: list
    O: dict  # pair -> nonnegative integer regular matrix


def oc_matrices(qg: QuantumGraph) -> OcAlgebra:
    """Regular matrices of the basis pairs, from the product rule
    (x (x) s)(a (x) b) = xa (x) bs: the left factors multiply as the graph
    algebra does, the right factor in the opposite order, as a right action
    does, and reduce_pair writes each product pair over the basis."""
    G = qg.G
    # red[c, t] = c (x) t over the basis pairs, for any two vertices
    red = np.array([[reduce_pair(qg, c, t) for t in G] for c in G])
    # right[s, b, c] = c (x) bs = sum_t (G_s)[b, t] red[c, t]
    right = np.tensordot(np.stack([G[s] for s in qg.sectors]), red, axes=(2, 1))
    pairs = basis_pairs(qg)
    N = len(pairs)
    # the row of (x, s) in O_(a, b) is xa (x) bs = sum_c (G_a)[x, c] right[s, b, c]
    O = {(a, b): (G[a] @ right[:, b - 1]).reshape(N, N) for a, b in pairs}
    _require(np.array_equal(O[(1, 1)], np.eye(N, dtype=np.int64))
             and all(v.min() >= 0 for v in O.values()),
             "quantum_symmetries", "the regular matrices are not a unital nonnegative family")
    return OcAlgebra(qg=qg, pairs=pairs, O=O)


def chiral_conjugate(qg: QuantumGraph, pair):
    """Swap the two factors and reduce; lands on a single basis pair."""
    k = _single(reduce_pair(qg, pair[1], pair[0]))
    _require(k, "quantum_symmetries", f"{pair} with its factors swapped is not one basis pair")
    return basis_pairs(qg)[k - 1]


def conjugate_pair(qg: QuantumGraph, pair):
    a, b = pair
    return (qg.conj[a], qg.conj[b])


def dual_annular(qg: QuantumGraph):
    """Action of each basis pair on the graph vertices. The right factor
    acts through the row view (G'_b)_{ac} = (G_a)_{bc}, which is
    _structure(G)[b - 1]."""
    G, T = qg.G, _structure(qg.G)
    return {(a, b): G[a] @ T[b - 1] for (a, b) in basis_pairs(qg)}


# ---------------------------------------------------------------------------
# essential matrices and the factorization of the toric family
# ---------------------------------------------------------------------------

def essential_matrices(annular):
    """One rectangular matrix per vertex: rows indexed by the alcove in the
    annular family's label order, columns by the vertices, entries read off
    the annular family."""
    F = annular.tensor
    return {a: F[:, a - 1] for a in range(1, F.shape[1] + 1)}


def reduced_essential(E, J):
    """Keep only the columns of the modular subalgebra J."""
    return {a: Ea * np.isin(np.arange(1, Ea.shape[1] + 1), J) for a, Ea in E.items()}


@dataclass
class SlotMap:
    pair_of: dict  # slot -> basis pair
    slot_of: dict  # basis pair -> slot
    E: dict
    Ered: dict
    W0: dict  # basis pair -> toric matrix of that slot
    qg: QuantumGraph


def unfactored_slots(W, pair_of, E, Ered):
    """The slots z, ascending, whose toric matrix W[z] is not E_a Ered_b^T,
    (a, b) = pair_of[z]."""
    return [
        z for z, (a, b) in sorted(pair_of.items()) if not np.array_equal(W[z], E[a] @ Ered[b].T)
    ]


def product_identity_failures(lift, parity, labels, slot_of, oc: OcAlgebra):
    """The index pairs (x, y) into oc.pairs, ascending, where
    (V_l R_m)[x, y] = sum_z (O_conj(y))[x, z] (W_z)[l, m] fails for some
    labels l, m, each pair read at its slot in slot_of. Entry (l, m) of the
    left side is toric_pair_grid at (x, conj(y)), so this checks every
    twisted grid against its decomposition over the slot matrices."""
    pairs = oc.pairs
    order = [slot_of[p] for p in pairs]
    V, Rm = (T.tensor.take(T.rows(labels), 0).take(order, 1).take(order, 2)
             for T in (lift.Vs, parity.Rs))
    W = np.stack([lift.fam.ws[lift.slots[z][0]] for z in order])
    Oconj = np.stack([oc.O[conjugate_pair(oc.qg, y)] for y in pairs])
    npairs = len(pairs)
    vmax, rmax, wmax, omax = (int(np.abs(M).max()) for M in (V, Rm, W, Oconj))
    dt = xla.product_dtype(npairs * max(vmax * rmax, omax * wmax))
    V, Rm, W, Oconj = (M.astype(dt) for M in (V, Rm, W, Oconj))
    bad = np.zeros((npairs, npairs), dtype=bool)
    for l in range(len(labels)):
        # lhs[m, x, y] = (V_l R_m)[x, y]; rhs[y, x, m] = sum_z (O_conj(y))[x, z] (W_z)[l, m]
        lhs = V[l][None] @ Rm
        rhs = Oconj @ W[:, l, :]
        bad |= (lhs != rhs.transpose(2, 1, 0)).any(axis=0)
    return np.argwhere(bad)


def slot_symmetry_map(lift, parity, annular, labels, oc: OcAlgebra) -> SlotMap:
    """Identify each toric slot with a basis pair: its vertex is its name
    in its component (component_graphs), and its sector that of its
    component. The vacuum component is the unit's, and the right action of
    each fundamental label carries slot 0 into the component of the sector
    of the vertex that label takes 1 to. unfactored_slots and
    product_identity_failures must then find nothing."""
    qg = oc.qg
    E = essential_matrices(annular)
    Ered = reduced_essential(E, qg.J)
    Wslot = {z: lift.fam.ws[i] for z, (i, _) in enumerate(lift.slots)}

    vertex_of, comp_of = {}, {}
    for c, graph in enumerate(sp.component_graphs(lift)):
        for a, z in enumerate(graph.ordering, start=1):
            vertex_of[z], comp_of[z] = a, c
    sector_of_comp = {comp_of[0]: 1}
    for lab, v in qg.reach.items():
        z = _single(parity.Rs[lab][0])
        _require(z, "slot_map", f"row 0 of the right action of {lab} is not a unit row")
        sector_of_comp[comp_of[z - 1]] = qg.red[v][0]
    _require(len(sector_of_comp) == len(qg.sectors), "slot_map",
             f"the {len(qg.sectors)} sectors sit on fewer components")
    pair_of = {z: (vertex_of[z], sector_of_comp[comp_of[z]]) for z in range(len(lift.slots))}
    _require(set(pair_of.values()) == set(oc.pairs), "slot_map", "the slot assignment is not a bijection")
    unfactored = unfactored_slots(Wslot, pair_of, E, Ered)
    if unfactored:
        z = unfactored[0]
        a, b = pair_of[z]
        raise CertificationError("slot_map", f"slot {z} does not factor as E_{a} Ered_{b}^T")

    # the product identity over every pair of slots certifies the assignment
    slot_of = {p: z for z, p in pair_of.items()}
    failures = product_identity_failures(lift, parity, labels, slot_of, oc)
    if len(failures):
        x, y = failures[0]
        raise CertificationError(
            "slot_map", f"the product identity fails at ({oc.pairs[x]}, {oc.pairs[y]})"
        )
    W0 = {p: Wslot[slot_of[p]] for p in oc.pairs}
    return SlotMap(pair_of=pair_of, slot_of=slot_of, E=E, Ered=Ered, W0=W0, qg=qg)


def toric_pair_grid(lift, parity, smap: SlotMap, labels, x, y):
    """The toric matrix of the doubly twisted pair (x, y): entry (lam, mu) is
    the slot-x/conjugate-slot-y coefficient of the twisted action."""
    zx = smap.slot_of[x]
    zy = smap.slot_of[conjugate_pair(smap.qg, y)]
    rows = lift.Vs.tensor[lift.Vs.rows(labels), zx]
    cols = parity.Rs.tensor[parity.Rs.rows(labels), :, zy]
    return rows @ cols.T


# ---------------------------------------------------------------------------
# block diagonalization
# ---------------------------------------------------------------------------

def matrix_units(galg: GraphAlgebra):
    """Matrix units of the graph algebra: eight one-dimensional idempotents
    and one 2x2 quadruple (whose representation appears twice).

    Coefficient table over the basis, entries in the field generated by
    sqrt(2), sqrt(2+sqrt(2)) and i; floating evaluation, checked to 1e-9.
    """
    u = np.sqrt(2)
    v = u + 1.0
    w = u + 2.0
    sw = np.sqrt(w)
    i1 = 1j
    X = np.array([
        [sw, sw, v * sw, v * sw, 2 * v, u + 2, u + 2, w ** 1.5, u * sw, 2 * v, u + 2, u + 2],
        [u + 2, u + 2, -u, -u, 2 * sw, -u * sw, -u * sw, 2, -2 * v, 2 * sw, -u * sw, -u * sw],
        [sw, sw, v * sw, v * sw, 2 * i1 * v, i1 * w, i1 * w, -w ** 1.5, -u * sw, -2 * i1 * v, -i1 * w, -i1 * w],
        [u + 2, u + 2, -u, -u, 2 * i1 * sw, -i1 * u * sw, -i1 * u * sw, -2, 2 * v, -2 * i1 * sw, i1 * u * sw, i1 * u * sw],
        [u + 2, u + 2, -u, -u, -2 * i1 * sw, i1 * u * sw, i1 * u * sw, -2, 2 * v, 2 * i1 * sw, -i1 * u * sw, -i1 * u * sw],
        [sw, sw, v * sw, v * sw, -2 * i1 * v, -i1 * w, -i1 * w, -w ** 1.5, -u * sw, 2 * i1 * v, i1 * w, i1 * w],
        [u + 2, u + 2, -u, -u, -2 * sw, u * sw, u * sw, 2, -2 * v, -2 * sw, u * sw, u * sw],
        [sw, sw, v * sw, v * sw, -2 * v, -u - 2, -u - 2, w ** 1.5, u * sw, -2 * v, -u - 2, -u - 2],
    ], dtype=complex)
    n = np.array([16 * w ** 1.5, 32, 16 * w ** 1.5, 32, 32, 16 * w ** 1.5, 32, 16 * w ** 1.5])
    Gc = {a: galg.G[a].astype(complex) for a in range(1, 13)}
    stack = np.stack(list(Gc.values()))
    mu = {(s + 1, s + 1): np.tensordot(X[s], stack, axes=1) / n[s] for s in range(8)}
    mu[(9, 9)] = (Gc[1] - Gc[2] + Gc[3] - Gc[4]) / 4
    mu[(9, 10)] = (Gc[11] - Gc[12]) / (2 * u)
    mu[(10, 10)] = (Gc[1] - Gc[2] - Gc[3] + Gc[4]) / 4
    mu[(10, 9)] = (Gc[6] - Gc[7]) / (2 * u)

    singles = [mu[(s, s)] for s in range(1, 9)]
    # (product, what it must equal): orthogonal idempotents, a 2x2 matrix
    # unit system orthogonal to them, and a partition of the identity
    rules = [(m @ m2, m if i == j else 0)
             for i, m in enumerate(singles) for j, m2 in enumerate(singles)]
    two = (9, 10)
    rules += [(mu[(a, b)] @ mu[(b, c)], mu[(a, c)]) for a in two for b in two for c in two]
    rules += [(mu[(a, a)] @ m, 0) for a in two for m in singles]
    rules.append((sum(singles) + mu[(9, 9)] + mu[(10, 10)], np.eye(12)))
    _require(all(np.abs(A - B).max() < 1e-9 for A, B in rules),
             "matrix_units", "the matrix units fail their relations at tolerance 1e-09")
    return mu


def _commutators(R):
    """D[y, x, z] = (R_y)[x, z] - (R_x)[y, z], so x y - y x = sum_z D[y, x, z] z."""
    return R - R.transpose(1, 0, 2)


def center_dimension(regular, defect=None):
    """Dimension of the center of an algebra, read off its structure
    constants: `regular` lists the regular matrices in basis order, with
    x y = sum_z (R_y)[x, z] z. The element sum_x c_x x is central iff
    sum_x c_x ((R_y)[x, z] - (R_x)[y, z]) = 0 for every (y, z): an integer
    (n^2, n) system whose rank is exact. Structure constants only describe
    an algebra that closes, so closure is certified first: defect is
    closure_defect of the regular matrices with themselves, computed here
    unless the caller already has it."""
    R = np.stack(list(regular))
    n = len(R)
    if defect is None:
        mats = dict(enumerate(R))
        defect = closure_defect(mats, mats)
    _require(defect == 0, "center_dimension",
             "the regular matrices do not close, so they are no algebra's structure constants")
    # row (y, z), column x: (R_y)[x, z] - (R_x)[y, z]; the zero rows left out
    D = _commutators(R)
    system = xla.LinearSystem(n)
    system.add(D.transpose(0, 2, 1)[D.any(axis=1)])
    return n - system.rref().rank


def _int_product(A, B, bound):
    """A @ B for integer A and B as integers, computed in the dtype
    product_dtype picks for `bound`, a bound on every partial sum."""
    dt = xla.product_dtype(bound)
    P = A.astype(dt) @ B.astype(dt)
    return P if dt is object else P.astype(np.int64)


@dataclass(frozen=True)
class BlockStructure:
    """A semisimple algebra over C as a sum of matrix blocks: `ones` blocks
    of size 1 and, when `size` is not 0, one block of size x size. The exact
    ranks it is read from are kept: the trace form's and the center's."""

    trace_rank: int
    center: int
    ones: int
    size: int

    @property
    def sizes(self):
        return [1] * self.ones + ([self.size] if self.size else [])


def block_structure(regular, defect=None) -> BlockStructure:
    """The block sizes of an algebra over C from three exact integer ranks of
    its structure constants, `regular` as in center_dimension (which also
    certifies closure; defect is passed on to it).

    The trace form Tr(R_x R_y) has full rank exactly when the algebra is
    semisimple, a sum of blocks M_d. The center has one dimension per block.
    The commutators x y - y x span the traceless part of each block, and the
    two-sided ideal they generate is the sum of the blocks of size above 1:
    its dimension is n minus the number of blocks of size 1. The ideal is
    closed under v -> v R_y (times y on the right) and v -> v L_y (on the
    left, L_y[x, z] = (R_x)[y, z]), one LinearSystem block a round, until
    its rank stops growing. With at most one block left over its size is the
    square root of what remains; with more the ranks do not fix the sizes,
    and CertificationError is raised, as it is for a trace form of lower
    rank."""
    regular = list(regular)
    center = center_dimension(regular, defect)
    R = np.stack(regular)
    n = len(R)
    rmax = int(np.abs(R).max())
    # Tr(R_x R_y): R_x flattened against R_y transposed and flattened
    trace = xla.LinearSystem(n)
    trace.add(_int_product(R.reshape(n, n * n), R.transpose(0, 2, 1).reshape(n, n * n).T,
                           n * n * rmax * rmax))
    trace_rank = trace.rref().rank
    _require(trace_rank == n, "block_structure",
             f"the trace form has rank {trace_rank} < {n}, so the algebra is not semisimple")

    D = _commutators(R)
    ideal = xla.LinearSystem(n)
    ideal.add(D[D.any(axis=2)])  # row (y, x): x y - y x
    dim = -1
    while (res := ideal.rref()).rank != dim:
        dim, B = res.rank, res.rows()
        bound = n * int(np.abs(B).max(initial=0)) * rmax
        # (B R_y)[i, z] lands at [y, i, z], (B L_y)[i, z] = sum_x B[i, x] (R_x)[y, z] at [i, y, z]
        right = _int_product(B, R, bound).reshape(-1, n)
        left = _int_product(B, R.reshape(n, n * n), bound).reshape(-1, n)
        ideal.add(np.concatenate([right, left]))
    ones = n - dim
    big = center - ones
    _require(0 <= big <= 1, "block_structure",
             f"center {center} and {ones} blocks of size 1 leave {big} larger blocks, "
             "whose sizes the ranks do not determine")
    size = isqrt(dim)
    _require(size * size == dim and (size >= 2 if big else size == 0), "block_structure",
             f"{dim} dimensions in {big} blocks of size above 1 are no square of such a size")
    return BlockStructure(trace_rank, center, ones, size)


def quantum_mass(dims):
    """Sum of squared quantum dimensions."""
    return float(sum(d * d for d in dims))

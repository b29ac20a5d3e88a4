"""Self-fusion of the 12-vertex quantum graph and its algebra of quantum
symmetries.

Both algebras are given by structure constants, and one identity states
them: X_x X_y = sum_z (R_y)[x, z] X_z, where R_y is the regular matrix of
y. closure_defect counts the pairs where it fails, eight left factors at a
time, each side one stacked matrix product: in float32 while a bound from
the largest entries keeps every partial sum up to 2**24, in float64 up to
2**53 and in exact integers past it. It certifies the graph algebra
(X = R = G), the quantum symmetries (X = R = O) and their dual action on
the graph (X = SX, R = O), and slot_symmetry_map checks the toric slot
products the same way.

The annular matrices pin ten of the twelve graph-algebra matrices outright
(six vertices directly, three doublet sums, one permutation); the remaining
doublet members are recovered by an exact linear system followed by integer
lattice enumeration and a full closure filter. The system is stated as one
144-row integer block per constraint on the row-major vec of an unknown X:
the closure identity with X unknown (X G_a is kron(I, G_a^T) vec X), the
commutator with each generator F (kron(I, F^T) - kron(F, I)), the unit first
row (a selector) and the transpose conjugation (a fixed permutation). Two
closure-exact solutions survive, one swap orbit; the canonical
representative is fixed by a single row predicate. The alternative doublet
pairing (self-paired conjugation on the first doublet replaced by the crossed
one) admits no integer solution at all, which is checked, not assumed: one
solve of that branch gives both its forced half-integer cells and its empty
lattice enumeration.

On top of the algebra sit the 48-element quantum symmetries: sector-reduced
basis pairs, their regular matrices derived from the product rule
(x (x) s)(a (x) b) = xa (x) bs, the dual annular action on the graph, the
slot map that names each toric slot by its component's canonical naming
and certifies it by the essential-matrix factorization and the product
identity, and the block diagonalization into matrix units. The center of
either algebra is an exact integer rank on its structure constants, taken
once closure has certified them. A failed check raises CertificationError,
so the certification also runs under python -O.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import CertificationError
from . import exactla as xla
from . import splitting as sp

__all__ = [
    "TWIST",
    "VERTEX_CONJ",
    "SECTOR_VALUES",
    "SECTOR_RED",
    "SUBALGEBRA",
    "JCOLS",
    "GraphAlgebra",
    "partial_algebra",
    "shared_doublet_system",
    "doublet_solutions",
    "crossed_branch",
    "closure_defect",
    "solve_graph_algebra",
    "OcAlgebra",
    "pair_index",
    "reduce_pair",
    "oc_matrices",
    "chiral_conjugate",
    "conjugate_pair",
    "dual_annular",
    "essential_matrices",
    "reduced_essential",
    "SlotMap",
    "slot_symmetry_map",
    "toric_pair_grid",
    "matrix_units",
    "center_dimension",
    "generic_eigenvalue_multiplicities",
    "quantum_mass",
    "GRAPH_DIMS",
]

# involutions of the vertex set: the twist flips each doublet, conjugation
# transposes the algebra
TWIST = {1: 1, 2: 2, 3: 4, 4: 3, 5: 5, 6: 7, 7: 6, 8: 8, 9: 9, 10: 10, 11: 12, 12: 11}
VERTEX_CONJ = {1: 1, 2: 2, 3: 3, 4: 4, 5: 10, 6: 11, 7: 12, 8: 8, 9: 9, 10: 5, 11: 6, 12: 7}

SUBALGEBRA = (1, 2, 9)  # vertices spanning the modular subalgebra
JCOLS = (0, 1, 8)  # the same, 0-based

SECTOR_VALUES = (1, 3, 6, 11)
# every vertex as sector * subalgebra element
SECTOR_RED = {
    1: (1, 1), 2: (1, 2), 9: (1, 9),
    3: (3, 1), 4: (3, 2), 8: (3, 9),
    6: (6, 1), 7: (6, 2), 10: (6, 9),
    11: (11, 1), 12: (11, 2), 5: (11, 9),
}

GRAPH_DIMS = {a: dim for a, (_, dim) in sp.VERTEX_TARGETS.items()}


@dataclass
class GraphAlgebra:
    G: dict  # vertex -> 12x12 nonnegative integer matrix
    doublet_survivors: int  # closure-exact solutions before the canonical pick


def _require(ok, stage, detail):
    if not ok:
        raise CertificationError(stage, detail)


def partial_algebra(annular):
    """The part of the algebra the annular family determines on its own:
    G_1, G_2, G_5, G_8, G_9, G_10 and the three doublet sums."""
    F = annular
    I = np.eye(12, dtype=np.int64)
    G = {1: I, 2: F[(0, 0, 4)], 5: F[(1, 0, 0)], 8: F[(0, 1, 0)], 10: F[(0, 0, 1)]}
    nine2 = F[(1, 1, 1)] - 2 * F[(0, 1, 0)]
    G[9] = nine2 // 2
    S34 = F[(0, 1, 2)] - I
    S67 = F[(0, 1, 1)] - G[5]
    S1112 = F[(1, 1, 0)] - G[10]
    eq = np.array_equal
    # the sums are overdetermined; every route must agree
    for ok, detail in (
        (eq(G[2], F[(4, 0, 0)]), "G_2 differs between the labels (0,0,4) and (4,0,0)"),
        (eq(G[2] @ G[2], I) and sorted(G[2].sum(0)) == [1] * 12, "G_2 is not an involution"),
        ((nine2 % 2 == 0).all() and G[9].min() >= 0, "G_9 is not a nonnegative integer matrix"),
        (eq(S34, F[(2, 1, 0)] - I) and eq(S34, F[(2, 0, 2)]) and eq(S34, F[(0, 2, 0)]),
         "the routes to G_3 + G_4 disagree"),
        (eq(S67, F[(1, 1, 2)] - G[5]) and eq(S67, F[(1, 2, 0)] - G[5]),
         "the routes to G_6 + G_7 disagree"),
        (eq(S1112, F[(1, 0, 2)] - G[10]) and eq(S1112, F[(2, 1, 1)] - G[10]),
         "the routes to G_11 + G_12 disagree"),
        (eq(G[9] @ G[9], I + G[2]) and eq(G[2] @ G[9], G[9]), "the subalgebra relations fail"),
    ):
        _require(ok, "graph_algebra", detail)
    return G, {34: S34, 67: S67, 1112: S1112}


# vec(X^T) = vec(X)[_TRANSPOSE] for a 12 x 12 X
_TRANSPOSE = np.arange(144).reshape(12, 12).T.reshape(-1)


def shared_doublet_system(annular):
    """The 25 constraint blocks both conjugation branches state over
    x = (vec X3, vec X6, vec X11), each vec row-major, one integer block of
    rows per constraint, as the reduced form of one LinearSystem; and the
    cap of every cell. The reduced form holds only the coefficients of the
    free columns: 411 x 21 entries where the system's rows hold 411 x 433."""
    knowns, sums = partial_algebra(annular)
    n = 144
    I, I12 = np.eye(n, dtype=np.int64), np.eye(12, dtype=np.int64)
    block = {3: 0, 6: 1, 11: 2}  # unknown vertex -> its block of x
    # every G_c as const[c] + sign * X_u, with var[c] = (u, sign): a known
    # matrix, an unknown, or a doublet sum minus its unknown member
    const = {c: M.reshape(-1) for c, M in knowns.items()}
    var = {}
    for u, (v, S) in zip(block, ((4, sums[34]), (7, sums[67]), (12, sums[1112]))):
        const[u], var[u] = 0, (u, 1)
        const[v], var[v] = S.reshape(-1), (u, -1)
    sys = xla.LinearSystem(3 * n)

    def state(parts, rhs):
        A = np.zeros((len(rhs), 3 * n), dtype=np.int64)
        for u, M in parts:
            A[:, block[u] * n : (block[u] + 1) * n] += M
        sys.add(A, rhs)

    zero = np.zeros(n, dtype=np.int64)
    for X in block:
        for a in (2, 5, 8, 9, 10):
            # the closure identity with X unknown: X G_a = sum_c (G_a)[X, c] G_c
            m = knowns[a][X - 1]
            parts = [(X, np.kron(I12, knowns[a].T))]
            parts += [(var[c][0], -m[c - 1] * var[c][1] * I) for c in var if m[c - 1]]
            state(parts, sum(m[c - 1] * const[c] for c in range(1, 13)))
        for Fg in (knowns[5], knowns[8]):  # [X, F] = 0 for both generators
            state([(X, np.kron(I12, Fg.T) - np.kron(Fg, I12))], zero)
        state([(X, I[:12])], I12[X - 1])  # the first row is the unit row of X
    # conjugation transposes: X11 = X6^T
    state([(11, I), (6, -I[_TRANSPOSE])], zero)
    return sys.rref(), np.concatenate([sums[k].reshape(-1) for k in (34, 67, 1112)])


def _doublet_system(annular, self_conjugate_first, shared=None):
    """The system of doublet_solutions and the cap of every cell: the
    shared blocks, `shared` or stated anew, restated from their reduced
    form, and the branch's last block, X3 = X3^T or X3 + X3^T = G3 + G4."""
    base, caps = shared or shared_doublet_system(annular)
    sys, n = xla.LinearSystem.from_rref(base), len(_TRANSPOSE)
    I = np.eye(n, dtype=np.int64)
    A = np.zeros((n, 3 * n), dtype=np.int64)
    # caps[:n] is the first doublet's sum G3 + G4
    sign, rhs = (-1, 0) if self_conjugate_first else (1, caps[:n])
    A[:, :n] = I + sign * I[_TRANSPOSE]
    sys.add(A, rhs)
    return sys, caps


def _solve_doublets(annular, self_conjugate_first, shared):
    """The reduced doublet system and its lattice points, unpacked."""
    sys, caps = _doublet_system(annular, self_conjugate_first, shared)
    res = sys.rref()
    pts = xla.lattice_points(res, caps) if res.consistent else []
    return res, [tuple(np.array(x, dtype=np.int64).reshape(3, 12, 12)) for x in pts]


def doublet_solutions(annular, self_conjugate_first=True, shared=None):
    """Integer candidates for the open doublet members X3, X6, X11.

    Constraints: multiplication against every known row must close over the
    twelve matrices, both generators must commute with each unknown, the
    first row is a unit row, X11 = X6^T, and the first doublet is either
    self-conjugate (X3 symmetric, the kept branch) or crossed
    (X3 + X3^T equal to the doublet sum, which turns out empty).
    Every cell is capped by its doublet sum, so complements stay nonnegative
    and the enumeration of every lattice point in the box is finite.
    `shared` is shared_doublet_system(annular), stated once for both
    branches; without it the shared blocks are stated anew.
    """
    return _solve_doublets(annular, self_conjugate_first, shared)[1]


def crossed_branch(annular, shared=None):
    """The crossed conjugation branch, from one reduced system: the values
    its rational solution forces on cells outright (pivots with no free
    columns) that are proper fractions, sorted, and its integer solutions
    as doublet_solutions lists them. `shared` as for doublet_solutions."""
    res, sols = _solve_doublets(annular, False, shared)
    if not res.consistent:
        raise CertificationError(
            "graph_algebra", "the crossed branch is not even rationally solvable"
        )
    forced = [
        Fraction(int(b), int(d))
        for d, row, b in zip(res.lead, res.coeffs, res.rhs)
        if not row.any()
    ]
    return sorted(f for f in forced if f.denominator != 1), sols


def _assemble(annular, X3, X6, X11):
    knowns, sums = partial_algebra(annular)
    G = {**knowns, 3: X3, 6: X6, 11: X11}
    G.update({4: sums[34] - X3, 7: sums[67] - X6, 12: sums[1112] - X11})
    return {a: G[a] for a in range(1, 13)}


def closure_defect(mats, regular):
    """Number of ordered pairs (x, y) with X_x X_y != sum_z (R_y)[x, z] X_z,
    where mats holds the X and regular the regular matrices R that carry the
    structure constants, both dicts in basis order. 0 means the X represent
    the algebra: (G, G) for the graph algebra, (O, O) for the quantum
    symmetries, (SX, O) for their dual action.

    Eight left factors at a time, each side is one stack of a x a products
    (see product_dtype): X_x X_y for every y, and sum_z (R_y)[x, z] X_z one
    row of the X at a time, in the dtype product_dtype picks from a bound
    on every partial sum."""
    X = np.stack(list(mats.values()))
    R = np.stack(list(regular.values()))
    n, a, _ = X.shape
    xmax, rmax = int(np.abs(X).max()), int(np.abs(R).max())
    dt = xla.product_dtype(max(a * xmax * xmax, n * rmax * xmax))
    X, R = X.astype(dt), R.astype(dt)
    rows = X.transpose(1, 0, 2)  # [a, z, b] = (X_z)[a, b]
    bad = 0
    for s in range(0, n, 8):
        # lhs[x, y, a, b] = (X_x X_y)[a, b]; rhs[x, a, y, b] = sum_z (R_y)[x, z] (X_z)[a, b]
        lhs = X[s : s + 8, None] @ X[None]
        rhs = R[:, s : s + 8].transpose(1, 0, 2)[:, None] @ rows[None]
        bad += int((lhs.transpose(0, 2, 1, 3) != rhs).any(axis=(1, 3)).sum())
    return bad


def solve_graph_algebra(annular, shared=None) -> GraphAlgebra:
    """The kept branch's closure-exact resolution; `shared` as for
    doublet_solutions."""
    cands = doublet_solutions(annular, True, shared)
    survivors = [
        G for G in (_assemble(annular, *t) for t in cands) if closure_defect(G, G) == 0
    ]
    if not survivors:
        raise CertificationError("graph_algebra", "no closure-exact doublet resolution")
    # the survivors form one swap orbit; pick the representative whose
    # second doublet sends vertex 3 to 5 + 7
    picked = [
        G for G in survivors
        if G[6][2, 4] == 1 and G[6][2, 6] == 1 and G[6][2].sum() == 2
    ]
    if len(picked) != 1:
        raise CertificationError(
            "graph_algebra",
            f"canonical predicate matched {len(picked)} of {len(survivors)}",
        )
    G = picked[0]
    for a in range(1, 13):
        unit_row = np.zeros(12, dtype=np.int64)
        unit_row[a - 1] = 1
        if G[a].min() < 0 or not np.array_equal(G[a][0], unit_row):
            raise CertificationError("graph_algebra", f"G_{a} is not a nonnegative unit-row matrix")
        if not np.array_equal(G[a].T, G[VERTEX_CONJ[a]]):
            raise CertificationError("graph_algebra", f"G_{a} transposed is not G_{VERTEX_CONJ[a]}")
    return GraphAlgebra(G=G, doublet_survivors=len(survivors))


# ---------------------------------------------------------------------------
# quantum symmetries: the 48-element algebra of basis pairs
# ---------------------------------------------------------------------------

def pair_index(pair):
    a, b = pair
    return SECTOR_VALUES.index(b) * 12 + (a - 1)


def basis_pairs():
    return [(a, b) for b in SECTOR_VALUES for a in range(1, 13)]


def reduce_pair(G, a, b):
    """An arbitrary formal pair a (x) b written over the 48 basis pairs:
    the subalgebra part of b crosses over and multiplies a from the left."""
    c, j = SECTOR_RED[b]
    vec = np.zeros(48, dtype=np.int64)
    for z in range(12):
        m = int(G[a][j - 1, z])
        if m:
            vec[pair_index((z + 1, c))] += m
    return vec


@dataclass
class OcAlgebra:
    galg: GraphAlgebra
    pairs: list
    O: dict  # pair -> 48x48 nonnegative integer matrix


def oc_matrices(galg: GraphAlgebra) -> OcAlgebra:
    """Regular matrices of the 48 basis pairs, from the product rule
    (x (x) s)(a (x) b) = xa (x) bs: the left factors multiply as the graph
    algebra does, the right factor in the opposite order, as a right action
    does, and reduce_pair writes each product pair over the basis."""
    G = galg.G
    # red[c, t] = c (x) t over the basis pairs, for any two vertices
    red = np.array([[reduce_pair(G, c, t) for t in range(1, 13)] for c in range(1, 13)])
    # right[s, b, c] = c (x) bs = sum_t (G_s)[b, t] red[c, t]
    right = np.tensordot(np.stack([G[s] for s in SECTOR_VALUES]), red, axes=(2, 1))
    pairs = basis_pairs()
    # the row of (x, s) in O_(a, b) is xa (x) bs = sum_c (G_a)[x, c] right[s, b, c]
    O = {(a, b): (G[a] @ right[:, b - 1]).reshape(48, 48) for a, b in pairs}
    _require(np.array_equal(O[(1, 1)], np.eye(48, dtype=np.int64))
             and all(v.min() >= 0 for v in O.values()),
             "quantum_symmetries", "the regular matrices are not a unital nonnegative family")
    return OcAlgebra(galg=galg, pairs=pairs, O=O)


def chiral_conjugate(G, pair):
    """Swap the two factors and reduce; lands on a single basis pair."""
    a, b = pair
    vec = reduce_pair(G, b, a)
    nz = np.nonzero(vec)[0]
    _require(len(nz) == 1 and vec[nz[0]] == 1,
             "quantum_symmetries", f"{pair} with its factors swapped is not one basis pair")
    return basis_pairs()[int(nz[0])]


def conjugate_pair(pair):
    a, b = pair
    return (VERTEX_CONJ[a], VERTEX_CONJ[b])


def dual_annular(galg: GraphAlgebra):
    """Action of each basis pair on the graph vertices, as 12x12 matrices.
    The right factor acts through the row view (G'_b)_{ac} = (G_a)_{bc},
    computed on demand."""
    G = galg.G
    GP = {
        b: np.array([[int(G[a][b - 1, c]) for c in range(12)] for a in range(1, 13)], dtype=np.int64)
        for b in range(1, 13)
    }
    return {(a, b): G[a] @ GP[b] for (a, b) in basis_pairs()}


# ---------------------------------------------------------------------------
# essential matrices and the factorization of the toric family
# ---------------------------------------------------------------------------

def essential_matrices(annular, labels):
    """One rectangular matrix per vertex: rows indexed by the alcove, columns
    by the vertices, entries read off the annular family."""
    return {
        a: np.array([[int(annular[lab][a - 1, b]) for b in range(12)] for lab in labels], dtype=np.int64)
        for a in range(1, 13)
    }


def reduced_essential(E):
    """Keep only the subalgebra columns."""
    out = {}
    for a, Ea in E.items():
        R = np.zeros_like(Ea)
        for c in JCOLS:
            R[:, c] = Ea[:, c]
        out[a] = R
    return out


@dataclass
class SlotMap:
    pair_of: dict  # slot -> basis pair
    slot_of: dict  # basis pair -> slot
    E: dict
    Ered: dict
    W0: dict  # basis pair -> toric matrix of that slot


def slot_symmetry_map(lift, parity, annular, labels, oc: OcAlgebra) -> SlotMap:
    """Identify each of the 48 toric slots with a basis pair.

    The vertex of a slot is its name in the canonical naming of its
    component (component_graphs, the naming the module graph uses). The
    sector comes from the component: the vacuum component is sector 1 and
    the right fundamental generators anchor the other three. Each slot's
    toric matrix must then factor as W_z = E_a Ered_b^T, and the product
    identity over every pair of slots certifies the whole assignment.
    """
    E = essential_matrices(annular, labels)
    Ered = reduced_essential(E)
    pairs = oc.pairs
    Wslot = {z: lift.fam.ws[i] for z, (i, _) in enumerate(lift.slots)}

    vertex_of, comp_of = {}, {}
    for c, (ordering, _, _) in enumerate(sp.component_graphs(lift)):
        for a, z in enumerate(ordering, start=1):
            vertex_of[z], comp_of[z] = a, c
    # sectors: component of slot 0 is 1; unit rows of the right generators
    # anchor the rest
    sector_of_comp = {comp_of[0]: 1}
    for lab, sector in (((1, 0, 0), 11), ((0, 1, 0), 3), ((0, 0, 1), 6)):
        row = np.nonzero(parity.Rs[lab][0])[0]
        _require(len(row) == 1, "slot_map", f"row 0 of the right action of {lab} is not a unit row")
        sector_of_comp[comp_of[int(row[0])]] = sector
    _require(len(sector_of_comp) == 4, "slot_map", "the four sectors sit on fewer components")
    pair_of = {z: (vertex_of[z], sector_of_comp[comp_of[z]]) for z in range(len(lift.slots))}
    _require(len(set(pair_of.values())) == 48, "slot_map", "the slot assignment is not a bijection")
    for z, (a, b) in pair_of.items():
        _require(np.array_equal(Wslot[z], E[a] @ Ered[b].T),
                 "slot_map", f"slot {z} does not factor as E_{a} Ered_{b}^T")

    # the product identity over every pair of slots certifies the assignment:
    # (V_l R_m)[x, y] = sum_z (O_conj(y))[x, z] (W_z)[l, m], indexed by pairs
    slot_of = {p: z for z, p in pair_of.items()}
    order = [slot_of[p] for p in pairs]
    at = np.ix_(order, order)
    V = np.stack([lift.Vs[lab][at] for lab in labels])
    Rm = np.stack([parity.Rs[lab][at] for lab in labels])
    W = np.stack([Wslot[z] for z in order])
    Oconj = np.stack([oc.O[conjugate_pair(y)] for y in pairs])
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
    if bad.any():
        x, y = np.argwhere(bad)[0]
        raise CertificationError(
            "slot_map", f"the product identity fails at ({pairs[x]}, {pairs[y]})"
        )

    W0 = {p: Wslot[slot_of[p]] for p in pairs}
    return SlotMap(pair_of=pair_of, slot_of=slot_of, E=E, Ered=Ered, W0=W0)


def toric_pair_grid(lift, parity, smap: SlotMap, labels, x, y):
    """The toric matrix of the doubly twisted pair (x, y): entry (lam, mu) is
    the slot-x/conjugate-slot-y coefficient of the twisted action."""
    zx = smap.slot_of[x]
    zy = smap.slot_of[conjugate_pair(y)]
    rows = np.stack([lift.Vs[lam][zx] for lam in labels])
    cols = np.stack([parity.Rs[mu][:, zy] for mu in labels])
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
    mu = {}
    for s in range(8):
        acc = np.zeros((12, 12), dtype=complex)
        for q in range(12):
            acc += X[s, q] * Gc[q + 1]
        mu[(s + 1, s + 1)] = acc / n[s]
    mu[(9, 9)] = (Gc[1] - Gc[2] + Gc[3] - Gc[4]) / 4
    mu[(9, 10)] = (Gc[11] - Gc[12]) / (2 * u)
    mu[(10, 10)] = (Gc[1] - Gc[2] - Gc[3] + Gc[4]) / 4
    mu[(10, 9)] = (Gc[6] - Gc[7]) / (2 * u)

    Z = np.zeros((12, 12))
    singles = [mu[(s, s)] for s in range(1, 9)]
    # (product, what it must equal): orthogonal idempotents, a 2x2 matrix
    # unit system orthogonal to them, and a partition of the identity
    rules = [(m @ m2, m if i == j else Z)
             for i, m in enumerate(singles) for j, m2 in enumerate(singles)]
    two = (9, 10)
    rules += [(mu[(a, b)] @ mu[(b, c)], mu[(a, c)]) for a in two for b in two for c in two]
    rules += [(mu[(a, a)] @ m, Z) for a in two for m in singles]
    rules.append((sum(singles) + mu[(9, 9)] + mu[(10, 10)], np.eye(12)))
    _require(all(np.abs(A - B).max() < 1e-9 for A, B in rules),
             "matrix_units", "the matrix units fail their relations at tolerance 1e-09")
    return mu


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
    # row (y, z), column x: (R_y)[x, z] - (R_x)[y, z]
    system = xla.LinearSystem(n)
    system.add((R.transpose(0, 2, 1) - R.transpose(1, 2, 0)).reshape(n * n, n))
    return n - system.rref().rank


def generic_eigenvalue_multiplicities(mats):
    """Sorted eigenvalue-cluster sizes of a random element of the span,
    eigenvalues within 1e-6 counting as one."""
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


def quantum_mass(dims):
    """Sum of squared quantum dimensions."""
    return float(sum(d * d for d in dims))

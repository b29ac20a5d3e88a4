"""Self-fusion of the 12-vertex quantum graph and its algebra of quantum
symmetries.

Both algebras are given by structure constants, and one identity states
them: X_x X_y = sum_z (R_y)[x, z] X_z, where R_y is the regular matrix of
y. closure_defect counts the pairs where it fails, one left factor at a
time; it certifies the graph algebra (X = R = G), the quantum symmetries
(X = R = O) and their dual action on the graph (X = SX, R = O), and
slot_symmetry_map checks the toric slot products the same way.

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
one) admits no integer solution at all, which is checked, not assumed.

On top of the algebra sit the 48-element quantum symmetries: sector-reduced
basis pairs, the four block patterns for their regular matrices, the dual
annular action on the graph, the essential-matrix factorization of the toric
family, and the block diagonalization into matrix units. A failed check
raises CertificationError, so the certification also runs under python -O.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import CertificationError
from . import exactla as xla

__all__ = [
    "TWIST",
    "VERTEX_CONJ",
    "SECTOR_VALUES",
    "SECTOR_RED",
    "SUBALGEBRA",
    "JCOLS",
    "GraphAlgebra",
    "partial_algebra",
    "doublet_solutions",
    "crossed_branch_fractions",
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

_SQ2 = np.sqrt(2)
_SW = np.sqrt(2 + _SQ2)
GRAPH_DIMS = {
    1: 1.0, 2: 1.0, 3: 1 + _SQ2, 4: 1 + _SQ2,
    5: _SQ2 * _SW, 6: _SW, 7: _SW, 8: 2 + _SQ2, 9: _SQ2,
    10: _SQ2 * _SW, 11: _SW, 12: _SW,
}


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


def _doublet_system(annular, self_conjugate_first):
    """The system of doublet_solutions over x = (vec X3, vec X6, vec X11),
    each vec row-major, stated one integer block of rows per constraint;
    and the cap of every cell."""
    knowns, sums = partial_algebra(annular)
    n = 144
    I, I12 = np.eye(n, dtype=np.int64), np.eye(12, dtype=np.int64)
    T = I[np.arange(n).reshape(12, 12).T.reshape(-1)]  # vec(X^T) = T vec(X)
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
        for row, b in zip(A, rhs):
            sys.add(row, b)

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
    # conjugation transposes: X11 = X6^T, and X3 = X3^T or X3 + X3^T = G3 + G4
    state([(11, I), (6, -T)], zero)
    if self_conjugate_first:
        state([(3, I - T)], zero)
    else:
        state([(3, I + T)], sums[34].reshape(-1))
    return sys, np.concatenate([sums[k].reshape(-1) for k in (34, 67, 1112)])


def doublet_solutions(annular, self_conjugate_first=True):
    """Integer candidates for the open doublet members X3, X6, X11.

    Constraints: multiplication against every known row must close over the
    twelve matrices, both generators must commute with each unknown, the
    first row is a unit row, X11 = X6^T, and the first doublet is either
    self-conjugate (X3 symmetric, the kept branch) or crossed
    (X3 + X3^T equal to the doublet sum, which turns out empty).
    Every cell is capped by its doublet sum, so complements stay nonnegative
    and the enumeration of every lattice point in the box is finite.
    """
    sys, caps = _doublet_system(annular, self_conjugate_first)
    res = sys.rref()
    if not res.consistent:
        return []
    pts = xla.lattice_points(res, caps)
    return [tuple(np.array(x, dtype=np.int64).reshape(3, 12, 12)) for x in pts]


def crossed_branch_fractions(annular):
    """Why the crossed conjugation branch dies: the rational solution forces
    some cells outright (pivots with no free columns), and several of those
    forced values are proper fractions. Returns them, sorted."""
    sys, _ = _doublet_system(annular, self_conjugate_first=False)
    res = sys.rref()
    if not res.consistent:
        raise CertificationError(
            "graph_algebra", "the crossed branch is not even rationally solvable"
        )
    forced = [
        Fraction(int(b), int(d))
        for d, row, b in zip(res.lead, res.coeffs, res.rhs)
        if not row.any()
    ]
    return sorted(f for f in forced if f.denominator != 1)


def _assemble(annular, X3, X6, X11):
    knowns, sums = partial_algebra(annular)
    G = {**knowns, 3: X3, 6: X6, 11: X11}
    G.update({4: sums[34] - X3, 7: sums[67] - X6, 12: sums[1112] - X11})
    return {a: G[a] for a in range(1, 13)}


def _left_defects(lhs, coeffs, basis):
    """Which stacked products lhs[y] differ from sum_z coeffs[y, z] basis[z]."""
    return (lhs != np.tensordot(coeffs, basis, axes=(1, 0))).any(axis=(1, 2))


def closure_defect(mats, regular):
    """Number of ordered pairs (x, y) with X_x X_y != sum_z (R_y)[x, z] X_z,
    where mats holds the X and regular the regular matrices R that carry the
    structure constants, both dicts in basis order. 0 means the X represent
    the algebra: (G, G) for the graph algebra, (O, O) for the quantum
    symmetries, (SX, O) for their dual action. One left factor at a time."""
    X = np.stack(list(mats.values()))
    R = np.stack(list(regular.values()))
    return sum(int(_left_defects(Xx @ X, R[:, x], X).sum()) for x, Xx in enumerate(X))


def solve_graph_algebra(annular) -> GraphAlgebra:
    cands = doublet_solutions(annular, self_conjugate_first=True)
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
    """Regular matrices of the 48 basis pairs, one block pattern per sector."""
    G = galg.G
    Z = np.zeros((12, 12), dtype=np.int64)

    def O_of(a, b):
        Ga = G[a]
        if b == 1:
            return np.block([[Ga, Z, Z, Z], [Z, Ga, Z, Z], [Z, Z, Ga, Z], [Z, Z, Z, Ga]])
        if b == 3:
            return np.block([
                [Z, Ga, Z, Z],
                [Ga, Ga @ (G[1] + G[2]), Z, Z],
                [Z, Z, G[2] @ Ga, G[9] @ Ga],
                [Z, Z, G[9] @ Ga, Ga]])
        if b == 6:
            return np.block([
                [Z, Z, Ga, Z],
                [Z, Z, Ga, G[9] @ Ga],
                [Z, G[9] @ Ga, Z, Z],
                [Ga, G[2] @ Ga, Z, Z]])
        if b == 11:
            return np.block([
                [Z, Z, Z, Ga],
                [Z, Z, G[9] @ Ga, G[2] @ Ga],
                [Ga, Ga, Z, Z],
                [Z, G[9] @ Ga, Z, Z]])
        raise ValueError(b)

    pairs = basis_pairs()
    O = {p: O_of(*p) for p in pairs}
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

    The sector of a slot comes from its component -- the vacuum component is
    sector 1 and the right fundamental generators anchor the other three --
    and the vertex from matching the slot's toric matrix against the
    essential factorization. Matching is ambiguous exactly on the doublet
    copies; those are taken in sorted order, and the choice is gauge (every
    alternative is an automorphism), which the product identity check at the
    end confirms.
    """
    E = essential_matrices(annular, labels)
    Ered = reduced_essential(E)
    pairs = oc.pairs
    Wcand = {p: E[p[0]] @ Ered[p[1]].T for p in pairs}
    Wslot = {z: lift.fam.ws[i] for z, (i, _) in enumerate(lift.slots)}

    _require(Counter(w.tobytes() for w in Wcand.values())
             == Counter(w.tobytes() for w in Wslot.values()),
             "slot_map", "the essential factorization does not reproduce the toric family")

    # sectors: component of slot 0 is 1; unit rows of the right generators
    # anchor the rest
    from .splitting import _components

    compid = _components(lift.V100, lift.V010, lift.V001)
    sector_of_comp = {int(compid[0]): 1}
    for lab, sector in (((1, 0, 0), 11), ((0, 1, 0), 3), ((0, 0, 1), 6)):
        row = np.nonzero(parity.Rs[lab][0])[0]
        _require(len(row) == 1, "slot_map", f"row 0 of the right action of {lab} is not a unit row")
        sector_of_comp[int(compid[int(row[0])])] = sector
    _require(len(sector_of_comp) == 4, "slot_map", "the four sectors sit on fewer components")

    compat = {}
    for z in range(48):
        b = sector_of_comp[int(compid[z])]
        compat[z] = sorted(
            (a, b) for a in range(1, 13) if Wslot[z].tobytes() == Wcand[(a, b)].tobytes()
        )
    pair_of = {z: compat[z][0] for z in range(48) if len(compat[z]) == 1}
    groups = defaultdict(list)
    for z in range(48):
        if len(compat[z]) != 1:
            groups[tuple(compat[z])].append(z)
    for cands, zs in groups.items():
        _require(len(cands) == len(zs) == 2, "slot_map", f"slots {zs} match {cands}")
        for z, p in zip(sorted(zs), cands):
            pair_of[z] = p
    _require(len(set(pair_of.values())) == 48, "slot_map", "the slot assignment is not a bijection")

    # the product identity over every pair of slots certifies the assignment
    slot_of = {p: z for z, p in pair_of.items()}
    order = [slot_of[p] for p in pairs]
    n = len(labels)
    Wstack = np.stack([Wslot[z] for z in order])
    Vstack = np.stack([lift.Vs[lab] for lab in labels])
    # R[w, (y, m)] = (R_m)[w, slot of y]
    R = np.stack([parity.Rs[lab][:, order] for lab in labels], axis=2).reshape(len(order), -1)
    # row x of the regular matrix of conj(y) expands the slot product x.y
    Oconj = np.stack([oc.O[conjugate_pair(y)] for y in pairs])
    for x in pairs:
        # lhs[y, l, m] = (V_l R_m)[slot of x, slot of y]
        lhs = (Vstack[:, slot_of[x]] @ R).reshape(n, len(order), n).transpose(1, 0, 2)
        bad = _left_defects(lhs, Oconj[:, pair_index(x)], Wstack)
        _require(not bad.any(), "slot_map",
                 f"the product identity fails at ({x}, {pairs[int(bad.argmax())]})")

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

def matrix_units(galg: GraphAlgebra, tol=1e-9):
    """Matrix units of the graph algebra: eight one-dimensional idempotents
    and one 2x2 quadruple (whose representation appears twice).

    Coefficient table over the basis, entries in the field generated by
    sqrt(2), sqrt(2+sqrt(2)) and i; floating evaluation, checked to tol.
    """
    u = _SQ2
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
    _require(all(np.abs(A - B).max() < tol for A, B in rules),
             "matrix_units", f"the matrix units fail their relations at tolerance {tol:g}")
    return mu


def center_dimension(mats):
    """Dimension of the center of the span: coefficient vectors whose
    combination commutes with every basis matrix."""
    mats = list(mats)
    n = len(mats)
    rows = []
    for A in mats:
        comms = [B @ A - A @ B for B in mats]
        rows.append(np.stack([C.reshape(-1) for C in comms], axis=1))
    big = np.concatenate(rows, axis=0)
    return n - np.linalg.matrix_rank(big)


def generic_eigenvalue_multiplicities(mats, seed=5, tol=1e-6):
    """Sorted eigenvalue-cluster sizes of a random element of the span."""
    rng = np.random.default_rng(seed)
    mats = list(mats)
    A = sum(c * M.astype(float) for c, M in zip(rng.standard_normal(len(mats)), mats))
    ev = np.sort_complex(np.linalg.eigvals(A))
    clusters = []
    for val in ev:
        for c in clusters:
            if abs(c[0] - val) < tol:
                c.append(val)
                break
        else:
            clusters.append([val])
    return sorted(len(c) for c in clusters)


def quantum_mass(dims):
    """Sum of squared quantum dimensions."""
    return float(sum(d * d for d in dims))

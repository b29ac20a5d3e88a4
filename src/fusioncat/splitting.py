"""Modular splitting: recover the toric-matrix family and the quantum graph
from one modular invariant plus the fusion ring.

The chain here is long but each stage has a sharp contract:

1.  modular_splitting: build the family K[l,m] = N_l M N_m^T as its
    distinct matrices and an index of which pair gives which (84 matrices
    for 35^2 pairs on the flagship; no array of r^4 entries is formed),
    measure each pair's norm against its conjugate partner (conjugation is
    read off the ring), and discover a generating family of matrices (the
    toric W's) with multiplicities, by exact integer span arithmetic plus a
    bounded subtraction search on the norm budget.
2.  class_actions: expansion coefficients of N_f W_i over the family, for
    the fundamental generators f of the ring, read off the family's own
    span; these are the 33x33 shadow of the chiral action.
3.  lift_chiral_generators: inflate the shadow to the slots (one per unit
    of multiplicity, at most 2), one generator per fundamental weight w.
    Forced cells come from the multiplicity pattern; the only unknowns live
    in doublet-by-doublet blocks. G_w of a self-conjugate w is symmetric by
    construction; any other is normal, a quadratic form in its unknowns
    evaluated over every assignment by exact matrix products, and that of
    its conjugate is its transpose. Commutation, nonnegativity of the
    recursion tower (which stops at its first negative row, and in height
    order meets the labels of level 2 first) and the row-zero norm sums pin
    the rest. The solution comes out unique and swap-invariant, which the
    code checks rather than assumes: a failed check raises
    CertificationError.
4.  parity_involution: the vertex involution P conjugating the left action
    into a commuting right action, built from the transpose map on the
    family: copy c of a member goes to copy c of its transpose, which fixes
    the most slots any such involution can; the commutation is checked.
5.  component_graphs: cut the slots into the components of the left
    generators and name the vertices of each by integer keys read off a
    tower on it (_name_component), once per lift: the vacuum slot is the
    base of its component, and the smallest slot with the same keys that of
    any other; a vertex's grading is the N-ality of the labels reaching
    it. extract_module_graph is the component of the vacuum slot, the
    quantum graph; the slot map of graphalgebra reads each slot's vertex
    from the same naming. No float takes part.

Stages return plain dataclasses; nothing here touches the embedding layer.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice, product

import numpy as np

from . import CertificationError
from . import exactla as xla
from . import fusion as fr

__all__ = [
    "SplitFamily",
    "modular_splitting",
    "class_actions",
    "ChiralLift",
    "lift_chiral_generators",
    "ParityData",
    "parity_involution",
    "toric_coefficient_grid",
    "ModuleGraph",
    "extract_module_graph",
    "component_graphs",
    "annular_matrices",
]


@dataclass
class SplitFamily:
    labels: list
    index: dict
    conj: np.ndarray
    M: np.ndarray
    members: np.ndarray  # the distinct N_l M N_m^T, first seen in (l, m) order, int64
    pair_member: np.ndarray  # (l, m) -> index into members of N_l M N_m^T
    norms: np.ndarray
    ws: list  # the toric W's: independent, in discovery order; ws[0] == M
    mult: list  # slot multiplicity per W
    decomp: dict  # (l, m) -> integer coefficients of N_l M N_m^T over ws
    trace: list  # how each new member was pulled out (for the curious)
    ring: fr.FusionRing  # the fusion ring the family was split from
    span: xla.IntSpan  # exact span of ws, in discovery order

    @property
    def rank(self) -> int:
        return len(self.ws)

    @property
    def slot_count(self) -> int:
        return sum(self.mult)


def _family_members(ring, M):
    """(members, pair_member): the distinct N_l M N_m^T, first seen in (l, m)
    order, and the (r, r) index of each pair's member. Built one l at a time
    as a stack of small products, in the dtype product_dtype picks, and
    deduplicated on the bytes of each product: float32, float64 and int64
    each write an integer one way, so equal bytes are equal matrices."""
    N = ring.tensor
    r = len(N)
    nmax, mmax = int(np.abs(N).max()), int(np.abs(M).max())
    dt = xla.product_dtype(r * r * nmax * nmax * mmax)
    Nd, NdT = N.astype(dt), N.transpose(0, 2, 1).astype(dt)
    Md = M.astype(dt)
    seen, members = {}, []
    pair_member = np.empty((r, r), dtype=np.int64)
    for l in range(r):
        slab = (Nd[l] @ Md)[None] @ NdT
        for m, row in enumerate(slab):
            k = seen.setdefault(row.tobytes(), len(seen))
            if k == len(members):
                members.append(row.astype(np.int64))
            pair_member[l, m] = k
    return np.stack(members), pair_member


def modular_splitting(ring, M) -> SplitFamily:
    """Discover the toric family among the N_l M N_m^T of the invariant M,
    its rows and columns in the order of the ring's labels.

    Norm of a pair = the (l, m) entry of the conjugate pair's member; the
    discovery sweep walks pairs in ascending norm and keeps every matrix that
    enlarges the exact span, deciding how new members split across slots by
    the norm budget. Deterministic: ties are broken by the canonical pair
    order and the minimal-slot writing.
    """
    labels = ring.labels
    index = {la: i for i, la in enumerate(labels)}
    r = len(labels)
    conj = _conjugation(ring, labels)
    members, pair_member = _family_members(ring, M)
    idx = np.arange(r)
    norms = members[pair_member[conj[:, None], conj[None, :]], idx[:, None], idx[None, :]]
    if norms.min() < 0:
        raise CertificationError("family", "a pair has a negative norm")

    total_slots = int((M * M).sum())
    span = xla.IntSpan()
    ws, mult, trace = [], [], []
    decomp, processed = {}, {}

    def writing_options(Kmat, norm):
        """If Kmat is in the current span with nonneg integer coords and the
        norm is reachable by some slot split, return the coords."""
        co = span.coords(Kmat.reshape(-1))
        if co is None:
            return None
        cs, den = co
        if den != 1 or min(cs, default=0) < 0:
            return []
        opts = [sorted(xla.square_split_options(c, m)) for c, m in zip(cs, mult)]

        def feas(i, target):
            if i == len(opts):
                return target == 0
            return any(feas(i + 1, target - s) for s in opts[i] if s <= target)

        return [cs] if feas(0, int(norm)) else []

    order = sorted((int(norms[l, m]), l, m) for l in range(r) for m in range(r))
    for norm, l, m in order:
        key = int(pair_member[l, m])
        if key in processed:
            decomp[(l, m)] = processed[key]
            continue
        Kmat = members[key]
        res = writing_options(Kmat, norm)
        if res is None:
            # outside the span: peel off old members, what is left is an
            # integer multiple of one new member
            writings = []
            nW = len(ws)

            def sub_rec(i, Rm, used, sqused):
                if sqused > norm:
                    return
                if i == nW:
                    if Rm.max() == 0:
                        return
                    g = int(np.gcd.reduce(Rm, axis=None))
                    for rr in range(1, g + 1):
                        if g % rr:
                            continue
                        for split in xla.coeff_splits(rr, int(norm) - sqused):
                            writings.append((list(used), Rm // rr, rr, split))
                    return
                wi = ws[i]
                cmax = int(norm)
                nzmask = wi > 0
                if nzmask.any():
                    cmax = min(cmax, int((Rm[nzmask] // wi[nzmask]).min()))
                for c in range(cmax, -1, -1):
                    mi = mult[i]
                    q, rem = divmod(c, mi)
                    minsq = (mi - rem) * q * q + rem * (q + 1) * (q + 1) if c else 0
                    sub_rec(
                        i + 1,
                        Rm - c * wi,
                        used + [(i, c)] if c else used,
                        sqused + minsq,
                    )

            sub_rec(0, Kmat.copy(), [], 0)
            if not writings:
                raise CertificationError("family", f"no consistent writing for pair {(l, m)}")
            sigs = {(w[1].tobytes(), w[2], tuple(w[3])) for w in writings}
            if len(sigs) > 1:
                used_slots = sum(mult)
                sigs = {
                    (wb, rr, split)
                    for wb, rr, split in sigs
                    if used_slots + len(split) <= total_slots
                }
            if not sigs:
                raise CertificationError(
                    "family", f"pair {(l, m)}: every writing needs more than {total_slots} slots"
                )
            wb, rr, split = sorted(sigs, key=lambda s: (len(s[2]), s[0]))[0]
            Wnew = np.frombuffer(wb, dtype=Kmat.dtype).reshape(r, r).copy()
            if not span.add(Wnew.reshape(-1)):
                raise CertificationError("family", f"pair {(l, m)}: new member is already in the span")
            ws.append(Wnew)
            mult.append(len(split))
            trace.append(
                dict(norm=norm, pair=(l, m), member=len(ws) - 1, coeff=rr,
                     split=tuple(split), competing=len(sigs))
            )
            res = writing_options(Kmat, norm)
        if not res:
            raise CertificationError(
                "family", f"pair {(l, m)}: in span but no norm-consistent nonnegative writing"
            )
        processed[key] = tuple(res[0])
        decomp[(l, m)] = tuple(res[0])

    if not np.array_equal(ws[0], M):
        raise CertificationError("family", "vacuum pair must reproduce the invariant")
    return SplitFamily(labels, index, conj, M, members, pair_member, norms, ws, mult, decomp, trace,
                       ring, span)


def _conjugation(mats, labels):
    """Position of each label's conjugate: the one label b with vacuum in
    l x b, read off the vacuum column of N_l."""
    vac = labels.index(tuple(0 for _ in labels[0]))
    conj = []
    for la in labels:
        col = mats[la][:, vac]
        if col.sum() != 1 or col.min() < 0:
            raise CertificationError("family", f"{la} has no unique conjugate in the ring")
        conj.append(int(np.flatnonzero(col)[0]))
    return np.array(conj)


def norm_census(fam: SplitFamily):
    """Distinct matrices among the N_l M N_m^T at each norm 1..8."""
    return {n: len(np.unique(fam.pair_member[fam.norms == n])) for n in range(1, 9)}


def class_actions(fam: SplitFamily):
    """Action of each fundamental generator f (the labels of level one) on
    the family: N_f W_i = sum_j L[i, j] W_j, exact and necessarily
    nonnegative integer. The generators come from the ring the family was
    split from, and the coordinates from the family's own span."""
    out = {}
    for f in fam.labels:
        if sum(f) != 1:
            continue
        L = np.zeros((fam.rank, fam.rank), dtype=np.int64)
        for i, w in enumerate(fam.ws):
            co = fam.span.coords((fam.ring[f] @ w).reshape(-1))
            if co is None or co[1] != 1 or min(co[0]) < 0:
                raise CertificationError(
                    "chiral_lift", f"N_{f} W_{i} is not a nonnegative integer sum of members"
                )
            L[i] = co[0]
        out[f] = L
    # transpose relations hold with rows weighted by slot multiplicity
    D = np.diag(fam.mult)
    for f, L in out.items():
        fbar = fam.labels[fam.conj[fam.index[f]]]
        if not np.array_equal(D @ L, (D @ out[fbar]).T):
            raise CertificationError("chiral_lift", f"actions of {f} and {fbar} are not transposes")
    return out


@dataclass
class ChiralLift:
    fam: SplitFamily
    slots: list  # slot -> (member index, copy number)
    slot_of: dict  # member index -> list of slots
    generators: tuple  # slot x slot matrix of each fundamental weight, omega_1 first
    Vs: fr.FusionRing  # label -> slot x slot matrix
    n_solutions: int

    @cached_property
    def components(self):
        """The named components, computed once; see component_graphs."""
        gens = self.generators
        compid = _components(gens)
        out, vacuum = [], None
        for c in range(compid.max() + 1):
            ordering, keys = _name_component(self.fam.labels, gens, np.flatnonzero(compid == c), vacuum)
            vacuum = vacuum or sorted(keys)
            at = np.ix_(ordering, ordering)
            out.append(ModuleGraph(ordering, tuple(G[at] for G in gens), dict(enumerate(keys, start=1))))
        return tuple(out)


def _build_template(L, mult, slot_of, size):
    """Forced entries of the slot-level matrix from the class-level one.
    Only doublet-to-doublet cells stay open."""
    V = np.zeros((size, size), dtype=np.int64)
    unknowns = []
    for i in range(L.shape[0]):
        for j in range(L.shape[1]):
            rr = int(L[i, j])
            zi, zj = slot_of[i], slot_of[j]
            if mult[i] == 1 and mult[j] == 1:
                V[zi[0], zj[0]] = rr
            elif mult[i] == 1 and mult[j] == 2:
                if rr % 2:
                    raise CertificationError(
                        "chiral_lift", "odd singlet-to-doublet row cannot split evenly"
                    )
                V[zi[0], zj[0]] = V[zi[0], zj[1]] = rr // 2
            elif mult[i] == 2 and mult[j] == 1:
                V[zi[0], zj[0]] = V[zi[1], zj[0]] = rr
            elif rr:
                unknowns.append((i, j, rr))
    return V, unknowns


def _fill(Vt, unk, slot_of, assign):
    V = Vt.copy()
    for (i, j, rr), a in zip(unk, assign):
        z, y = slot_of[i], slot_of[j]
        V[z[0], y[0]] = a
        V[z[0], y[1]] = rr - a
        V[z[1], y[0]] = rr - a
        V[z[1], y[1]] = a
    return V


def _normal_fills(Vt, unk, slot_of):
    """Every assignment of the doublet unknowns whose fill V commutes with
    its transpose.

    With E_k the +-1 pattern of doublet block k, V = V0 + sum_k a_k E_k. For
    B(X, Y) = X Y^T - X^T Y, V V^T - V^T V is then C + sum_k a_k L_k +
    sum_{k<=l} a_k a_l Q_kl with C = B(V0, V0), L_k = B(V0, E_k) + B(E_k, V0),
    Q_kk = B(E_k, E_k) and Q_kl = B(E_k, E_l) + B(E_l, E_k). Entries that no L
    or Q touches are fixed and must vanish in C. The assignments are
    evaluated in blocks: their monomials times the touched coefficients, as
    one matrix product per block, with no fill ever built.

    Every product runs in the dtype xla.product_dtype picks for one bound
    on all of them. With vmax = max(1, largest entry of V0) bounding the
    entries of V0 and of every E_k, a product in B has partial sums of at
    most size * vmax**2, and a coefficient is a sum of four such products.
    A monomial is at most rmax**2, rmax the largest range of an unknown, so
    a partial sum of mono @ coef is at most
    len(terms) * rmax**2 * 4 * size * vmax**2.
    """
    n = len(unk)
    V0 = _fill(Vt, unk, slot_of, [0] * n)
    E = [_fill(np.zeros_like(Vt), [(i, j, 0)], slot_of, [1]) for i, j, _ in unk]
    pairs = [(k, l) for k in range(n) for l in range(k, n)]
    vmax = max(int(np.abs(V0).max()), 1)
    rmax = max((rr for _, _, rr in unk), default=1)
    dt = xla.product_dtype((1 + n + len(pairs)) * rmax * rmax * 4 * len(V0) * vmax * vmax)
    V0, E = V0.astype(dt), [e.astype(dt) for e in E]

    def B(X, Y):
        return X @ Y.T - X.T @ Y

    terms = [B(V0, V0)] + [B(V0, e) + B(e, V0) for e in E]
    terms += [B(E[k], E[l]) + B(E[l], E[k]) if k != l else B(E[k], E[k]) for k, l in pairs]
    coef = np.stack(terms).reshape(len(terms), -1)
    touched = coef[1:].any(axis=0)
    if coef[0, ~touched].any():
        return []
    coef = coef[:, touched]
    out = []
    assigns = product(*[range(rr + 1) for _, _, rr in unk])
    # a few thousand assignments at a time keep the products small
    while chunk := list(islice(assigns, 2048)):
        a = np.array(chunk, dtype=dt).reshape(len(chunk), n)
        mono = np.column_stack([np.ones(len(a), dtype=dt), a] + [a[:, k] * a[:, l] for k, l in pairs])
        out += [tup for tup, bad in zip(chunk, (mono @ coef).any(axis=1)) if not bad]
    return out


def _symmetric_fills(Vt, unk, slot_of):
    """Every symmetric fill: transposed unknowns share one value, so the
    first of each transposed pair is free and sets its mate."""
    mate = [unk.index((j, i, rr)) for i, j, rr in unk]
    free = [k for k in range(len(unk)) if mate[k] >= k]
    out = []
    for vals in product(*[range(unk[k][2] + 1) for k in free]):
        assign = [0] * len(unk)
        for k, v in zip(free, vals):
            assign[k] = assign[mate[k]] = v
        out.append(_fill(Vt, unk, slot_of, assign))
    return out


def lift_chiral_generators(fam: SplitFamily) -> ChiralLift:
    if max(fam.mult) > 2:
        raise CertificationError("chiral_lift", f"a member has multiplicity {max(fam.mult)}, above 2")
    acts = class_actions(fam)
    n = len(fam.labels[0])
    omegas = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    bar = [omegas.index(fam.labels[fam.conj[fam.index[w]]]) for w in omegas]
    slots = [(i, c) for i, m in enumerate(fam.mult) for c in range(m)]
    size = len(slots)
    slot_of = {}
    for z, (i, c) in enumerate(slots):
        slot_of.setdefault(i, []).append(z)

    # a fill entry never exceeds the class-level entry it splits, so a
    # product of two generators has partial sums of at most size * lmax**2
    lmax = max(int(acts[w].max()) for w in omegas)
    dt = xla.product_dtype(size * lmax * lmax)
    # G_wbar is G_w^T, so only the generators with w <= wbar are searched: a
    # self-conjugate one over its symmetric fills, any other over its normal
    # ones; each candidate is cast once
    free = [i for i in range(n) if i <= bar[i]]
    cands = []
    for i in free:
        Vt, unk = _build_template(acts[omegas[i]], fam.mult, slot_of, size)
        if bar[i] == i:
            fills = _symmetric_fills(Vt, unk, slot_of)
        else:
            fills = [_fill(Vt, unk, slot_of, assign) for assign in _normal_fills(Vt, unk, slot_of)]
        cands.append([(V, V.astype(dt)) for V in fills])
        if bar[i] != i and not all(np.array_equal(Vd @ Vd.T, Vd.T @ Vd) for _, Vd in cands[-1]):
            raise CertificationError(
                "chiral_lift", f"a fill of {omegas[i]} solves the normality form but is not normal")

    norms0 = fam.norms[:, 0]
    sols = []
    for combo in product(*cands):
        # for rank <= 3 commutation among the searched generators is all
        # that is left: normality covers omega_1 with its conjugate, and
        # symmetry the self-conjugate generator
        if not all(np.array_equal(A @ B, B @ A) for (_, A), (_, B) in combinations(combo, 2)):
            continue
        found = dict(zip(free, (V for V, _ in combo)))
        gens = tuple(found[i] if i in found else found[bar[i]].T for i in range(n))
        # the tower stops at its first negative row; the level-2 rows come
        # first, and on the flagship they reject every fill but one
        T = fr.tower(fam.labels, gens)
        if T is not None and np.array_equal((T[:, 0] ** 2).sum(axis=1), norms0):
            sols.append((gens, fr.FusionRing(fam.labels, T)))

    if not sols:
        raise CertificationError("chiral_lift", "no chiral lift satisfies the constraint set")
    if len(sols) > 1:
        raise CertificationError(
            "chiral_lift",
            f"not pinned: {len(sols)} solutions; report them all instead of choosing silently",
        )
    gens, Vs = sols[0]
    for i in range(n):
        if not np.array_equal(gens[bar[i]], gens[i].T):
            raise CertificationError("chiral_lift", f"G_{omegas[bar[i]]} is not G_{omegas[i]} transposed")

    # doublet swaps must be automorphisms, so the unique solution is its own
    # canonical form; check the generators of the swap group
    for i, m in enumerate(fam.mult):
        if m != 2:
            continue
        perm = np.arange(size)
        a, b = slot_of[i]
        perm[a], perm[b] = perm[b], perm[a]
        for V in gens:
            if not np.array_equal(V[np.ix_(perm, perm)], V):
                raise CertificationError("chiral_lift", f"swapping doublet {i} is not an automorphism")

    return ChiralLift(fam, slots, slot_of, gens, Vs, len(sols))


@dataclass
class ParityData:
    P: np.ndarray  # the vertex involution as a permutation matrix
    Rs: fr.FusionRing  # label -> right-action matrix P V P
    fixed_points: int


def parity_involution(lift: ChiralLift) -> ParityData:
    """Involution P with P V_f P commuting with the whole left family.

    Transposition permutes the family members, and P sends copy c of member
    i to copy c of the member equal to W_i^T. Its fixed slots are those of
    self-transposed members, the most any transpose-compatible involution
    can fix. Any other such involution is P Q with Q a product of doublet
    swaps, which lift_chiral_generators certifies as automorphisms, so it
    gives the same P V_f P. P^2 = I and the commutation with every left
    generator are checked; CertificationError when either fails.
    """
    fam = lift.fam
    member = {w.tobytes(): i for i, w in enumerate(fam.ws)}
    perm = []
    for i, c in lift.slots:
        j = member.get(fam.ws[i].T.tobytes())
        if j is None or fam.mult[j] != fam.mult[i]:
            raise CertificationError("parity", f"W_{i} transposed is no member of multiplicity {fam.mult[i]}")
        perm.append(lift.slot_of[j][c])
    size = len(perm)
    P = np.eye(size, dtype=np.int64)[perm]
    # P V P is V[perm][:, perm^-1], which is V[perm][:, perm] once P @ P = I
    # says perm is an involution
    conj = np.ix_(perm, perm)
    # a product of a right and a left generator has partial sums of at most
    # size * vmax**2
    VF = lift.generators
    vmax = max(int(np.abs(Vf).max()) for Vf in VF)
    dt = xla.product_dtype(size * vmax * vmax)
    VF = [Vf.astype(dt) for Vf in VF]
    RF = [Vf[conj] for Vf in VF]
    if not (
        np.array_equal(P @ P, np.eye(size, dtype=np.int64))
        and all(np.array_equal(Rf @ Vg, Vg @ Rf) for Rf in RF for Vg in VF)
    ):
        raise CertificationError("parity", "the transpose involution does not give a commuting right action")
    Rs = fr.FusionRing(lift.Vs.labels, lift.Vs.tensor.take(perm, axis=1).take(perm, axis=2))
    return ParityData(P, Rs, int(np.trace(P)))


def toric_coefficient_grid(lift: ChiralLift, par: ParityData):
    """coeff[l, m, x] = (V_l R_m)[0, x]: the slot coefficients whose squares
    are the pair norms and which rebuild every K[l, m] from the family."""
    return np.einsum("lx,mxy->lmy", lift.Vs.tensor[:, 0], par.Rs.tensor)


@dataclass
class ModuleGraph:
    ordering: list  # slot index per vertex, vertices 1, 2, ... in order
    generators: tuple  # vertex x vertex matrix of each fundamental weight, omega_1 first
    keys: dict  # vertex (1-based) -> its integer key; see _name_component

    @cached_property
    def tau(self):  # vertex (1-based) -> grading mod N, 0 at vertex 1
        return {a: k[0] for a, k in self.keys.items()}

    @cached_property
    def dims(self):  # vertex (1-based) -> float Perron weight, for the checks only
        return fr.perron_weights(self.generators)


def _components(generators):
    """The component of each slot under the generators, numbered in the
    order of their smallest slots: the closure of the adjacency, by squaring."""
    adj = sum(generators)
    reach = (adj + adj.T + np.eye(len(adj), dtype=np.int64) > 0).astype(np.int64)
    for _ in range(len(adj).bit_length()):
        reach = (reach @ reach > 0).astype(np.int64)
    return np.unique(reach.argmax(axis=0), return_inverse=True)[1]


def _name_component(labels, generators, comp, vacuum=None):
    """(ordering, keys): the slots of the component comp as vertices 1, 2,
    ..., sorted by (key, slot), and their integer keys, read off one tower F
    of the generators on comp. From the base b, the key of a is (the
    N-ality sum_j j lam_j mod N = rank + 1 of the first label lam, in
    enumerate_alcove's order, with (F_lam)[b, a] != 0; the alcove index of
    that lam; the vacuum-row sum sum_lam (F_lam)[b, a]), so b is vertex 1.
    Every vertex must reach every other, and all the labels that take one
    vertex to another must have one N-ality, the grading. The base is the
    smallest slot, or with vacuum given, the smallest slot whose keys,
    sorted, are vacuum."""
    comp = sorted(map(int, comp))
    T = fr.tower(labels, [G[np.ix_(comp, comp)] for G in generators])
    if T is None:
        raise CertificationError("module_graph", "the tower on a component left the nonnegative cone")
    alcove = sorted(range(len(labels)), key=lambda j: (sum(labels[j]), [-x for x in labels[j]]))
    T = T[alcove]
    n = len(labels[0]) + 1
    nality = np.array([sum(j * x for j, x in enumerate(labels[k], 1)) % n for k in alcove])
    first, total = (T != 0).argmax(axis=0), T.sum(axis=0)
    if not T.any(axis=0).all():
        raise CertificationError("module_graph", f"a vertex of the component of {comp[0]} does not reach another")
    if ((T != 0) & (nality[:, None, None] != nality[first])).any():
        raise CertificationError("module_graph", f"the component of {comp[0]} is not graded by N-ality")

    def keys_from(b):
        return [(int(nality[f]), int(f), int(t)) for f, t in zip(first[b], total[b])]

    base = 0 if vacuum is None else next((b for b in range(len(comp)) if sorted(keys_from(b)) == vacuum), None)
    if base is None:
        raise CertificationError("module_graph", f"no slot of the component of {comp[0]} has the vacuum keys")
    keys = keys_from(base)
    names = sorted(range(len(comp)), key=lambda a: (keys[a], a))
    return [comp[a] for a in names], [keys[a] for a in names]


def component_graphs(lift: ChiralLift):
    """Every component of the slots under the left generators, as a
    canonically named ModuleGraph, the component of the vacuum slot first.
    The naming runs once per lift; later calls return the same tuple."""
    return lift.components


def extract_module_graph(lift: ChiralLift) -> ModuleGraph:
    """The quantum graph: the component of the vacuum slot, whose base,
    vertex 1, is the vacuum slot, and in which the last generator, that of
    the conjugate of omega_1, must be the transpose of the first."""
    graph = component_graphs(lift)[0]
    if not np.array_equal(graph.generators[-1], graph.generators[0].T):
        raise CertificationError("module_graph", "the conjugate generator is not the transpose")
    return graph


def annular_matrices(graph: ModuleGraph, labels):
    """One vertex x vertex matrix per label of the ring: the module action
    of the whole alcove, grown by the same tower as the ring itself."""
    F = fr.tower(labels, graph.generators)
    if F is None:
        raise CertificationError("annular", "the tower recursion left the nonnegative cone")
    return fr.FusionRing(labels, F)

"""Modular splitting: recover the toric-matrix family and the quantum graph
from one modular invariant plus the fusion ring.

The chain here is long but each stage has a sharp contract:

1.  modular_splitting: build the four-index family K[l,m] = N_l M N_m^T,
    measure each member's norm against its conjugate partner (conjugation is
    read off the ring), and discover a generating family of matrices (the
    toric W's) with multiplicities, by exact integer span arithmetic plus a
    bounded subtraction search on the norm budget.
2.  class_actions: expansion coefficients of N_f W_i over the family, for
    the fundamental generators f of the ring, read off the family's own
    span; these are the 33x33 shadow of the chiral action.
3.  lift_chiral_generators: inflate the shadow to the 48 slots (one slot
    per unit of multiplicity). Forced cells come from the multiplicity
    pattern; the only unknowns live in doublet-by-doublet blocks. Normality
    of the left generator is a quadratic form in its unknowns, evaluated
    over every assignment by exact matrix products; the middle generator is
    symmetric by construction. Cross-commutation, nonnegativity of the
    recursion tower (level 2 first, which is cheap, then the whole tower)
    and the row-zero norm sums pin the rest. The solution comes out unique
    and swap-invariant, which the code checks rather than assumes: a failed
    check raises CertificationError.
4.  parity_involution: the vertex involution P conjugating the left action
    into a commuting right action, built from the transpose map on the
    family: copy c of a member goes to copy c of its transpose, which fixes
    the most slots any such involution can; the commutation is checked.
5.  extract_module_graph: cut the 48 slots into the four twist components,
    read off the 12-vertex quantum graph, and name its vertices by their
    grading and Perron weight. component_graphs names every component the
    same way, and the slot map of graphalgebra reads each slot's vertex
    from that naming.

Stages return plain dataclasses; nothing here touches the embedding layer.
"""

from dataclasses import dataclass
from itertools import islice, product

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
    K: np.ndarray  # K[l, m] = N_l M N_m^T
    norms: np.ndarray
    ws: list  # independent family members, discovery order; ws[0] == M
    mult: list  # slot multiplicity per member
    decomp: dict  # (l, m) -> integer coefficients of K[l, m] over ws
    trace: list  # how each new member was pulled out (for the curious)
    ring: dict  # label -> fusion matrix the family was split from
    span: xla.IntSpan  # exact span of ws, in discovery order

    @property
    def rank(self) -> int:
        return len(self.ws)

    @property
    def slot_count(self) -> int:
        return sum(self.mult)


def _family_tensor(mats, labels, M):
    """K[l, m] = N_l M N_m^T, one l at a time as a stack of small products."""
    N = np.stack([mats[la] for la in labels])
    r = len(labels)
    nmax, mmax = int(np.abs(N).max()), int(np.abs(M).max())
    dt = xla.product_dtype(r * r * nmax * nmax * mmax)
    Nd, NdT = N.astype(dt), N.transpose(0, 2, 1).astype(dt)
    Md = M.astype(dt)
    K = np.empty((r, r, r, r), dtype=np.int64)
    for l in range(r):
        K[l] = (Nd[l] @ Md)[None] @ NdT
    return K


def modular_splitting(mats, labels, M) -> SplitFamily:
    """Discover the toric family under the K tensor of the invariant M.

    Norm of a pair = the (l, m) entry of the conjugate pair's member; the
    discovery sweep walks pairs in ascending norm and keeps every matrix that
    enlarges the exact span, deciding how new members split across slots by
    the norm budget. Deterministic: ties are broken by the canonical pair
    order and the minimal-slot writing.
    """
    index = {la: i for i, la in enumerate(labels)}
    r = len(labels)
    conj = _conjugation(mats, labels)
    K = _family_tensor(mats, labels, M)
    norms = np.zeros((r, r), dtype=np.int64)
    for l in range(r):
        for m in range(r):
            norms[l, m] = K[conj[l], conj[m]][l, m]
    if norms.min() < 0:
        raise CertificationError("family", "a pair has a negative norm")

    total_slots = int((M * M).sum())
    flat = K.reshape(r, r, r * r)
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

    order = sorted(
        ((int(norms[l, m]), l, m) for l in range(r) for m in range(r)),
        key=lambda tup: (tup[0], tup[1], tup[2]),
    )
    for norm, l, m in order:
        key = K[l, m].tobytes()
        if key in processed:
            decomp[(l, m)] = processed[key]
            continue
        Kmat = K[l, m]
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
    return SplitFamily(labels, index, conj, M, K, norms, ws, mult, decomp, trace, mats, span)


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
    """Distinct matrices among the K[l, m] at each norm 1..8."""
    r = len(fam.labels)
    out = {}
    for n in range(1, 9):
        seen = set()
        for l in range(r):
            for m in range(r):
                if fam.norms[l, m] == n:
                    seen.add(fam.K[l, m].tobytes())
        out[n] = len(seen)
    return out


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
    V100: np.ndarray
    V010: np.ndarray
    V001: np.ndarray
    Vs: dict  # label -> 48x48 matrix
    n_solutions: int


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
        a = np.array(chunk, dtype=dt).reshape(-1, n)
        mono = np.column_stack([np.ones(len(a), dtype=dt), a] + [a[:, k] * a[:, l] for k, l in pairs])
        out += [tup for tup, bad in zip(chunk, (mono @ coef).any(axis=1)) if not bad]
    return out


def lift_chiral_generators(fam: SplitFamily) -> ChiralLift:
    acts = class_actions(fam)
    L100, L010 = acts[(1, 0, 0)], acts[(0, 1, 0)]
    level = max(sum(la) for la in fam.labels)
    slots = []
    for i, m in enumerate(fam.mult):
        for c in range(m):
            slots.append((i, c))
    size = len(slots)
    slot_of = {}
    for z, (i, c) in enumerate(slots):
        slot_of.setdefault(i, []).append(z)

    V100t, unk100 = _build_template(L100, fam.mult, slot_of, size)
    V010t, unk010 = _build_template(L010, fam.mult, slot_of, size)

    # a fill entry never exceeds the class-level entry it splits, so a
    # product of two generators has partial sums of at most size * lmax**2
    lmax = int(max(L100.max(), L010.max()))
    dt = xla.product_dtype(size * lmax * lmax)
    cands100 = []
    for assign in _normal_fills(V100t, unk100, slot_of):
        V = _fill(V100t, unk100, slot_of, assign)
        Vd = V.astype(dt)
        if not np.array_equal(Vd @ Vd.T, Vd.T @ Vd):
            raise CertificationError("chiral_lift", f"fill {assign} solves the normality form but is not normal")
        cands100.append(V)

    # transposed 010 unknowns share one value, so every fill is symmetric
    sym_pairs, seen = [], set()
    for idx, (i, j, rr) in enumerate(unk010):
        if (j, i) in seen:
            continue
        seen.add((i, j))
        if i == j:
            sym_pairs.append(((idx,), rr))
        else:
            sym_pairs.append(((idx, unk010.index((j, i, rr))), rr))
    cands010 = []
    for vals in product(*[range(rr + 1) for (_, rr) in sym_pairs]):
        assign = [0] * len(unk010)
        for (idxs, rr), v in zip(sym_pairs, vals):
            for ii in idxs:
                assign[ii] = v
        cands010.append(_fill(V010t, unk010, slot_of, assign))

    norms0 = fam.norms[:, 0]
    sols = []
    cands010d = [V.astype(dt) for V in cands010]
    for V100 in cands100:
        V001, V100d = V100.T, V100.astype(dt)
        for V010, V010d in zip(cands010, cands010d):
            if not np.array_equal(V100d @ V010d, V010d @ V100d):
                continue
            # the level-2 tower costs a fraction of the full one, and on the
            # flagship it already rejects every fill but one
            low = fr.su4_tower(V100, V010, V001, min(level, 2))
            if not all(v.min() >= 0 for v in low.values()):
                continue
            Vs = fr.su4_tower(V100, V010, V001, level)
            if not all(v.min() >= 0 for v in Vs.values()):
                continue
            ok = all(
                int((Vs[la][0] ** 2).sum()) == int(norms0[fam.index[la]])
                for la in fam.labels
            )
            if ok:
                sols.append((V100, V010, Vs))

    if not sols:
        raise CertificationError("chiral_lift", "no chiral lift satisfies the constraint set")
    if len(sols) > 1:
        raise CertificationError(
            "chiral_lift",
            f"not pinned: {len(sols)} solutions; report them all instead of choosing silently",
        )
    V100, V010, Vs = sols[0]
    if not np.array_equal(V010, V010.T):
        raise CertificationError("chiral_lift", "the middle generator is not symmetric")

    # doublet swaps must be automorphisms, so the unique solution is its own
    # canonical form; check the generators of the swap group
    for i, m in enumerate(fam.mult):
        if m != 2:
            continue
        perm = np.arange(size)
        a, b = slot_of[i]
        perm[a], perm[b] = perm[b], perm[a]
        for V in (V100, V010):
            if not np.array_equal(V[np.ix_(perm, perm)], V):
                raise CertificationError("chiral_lift", f"swapping doublet {i} is not an automorphism")

    return ChiralLift(fam, slots, slot_of, V100, V010, V100.T, Vs, len(sols))


@dataclass
class ParityData:
    P: np.ndarray  # the vertex involution as a permutation matrix
    Rs: dict  # label -> right-action matrix P V P
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
    VF = (lift.V100, lift.V010, lift.V001)
    vmax = max(int(np.abs(Vf).max()) for Vf in VF)
    dt = xla.product_dtype(size * vmax * vmax)
    VF = [Vf.astype(dt) for Vf in VF]
    RF = [Vf[conj] for Vf in VF]
    if not (
        np.array_equal(P @ P, np.eye(size, dtype=np.int64))
        and all(np.array_equal(Rf @ Vg, Vg @ Rf) for Rf in RF for Vg in VF)
    ):
        raise CertificationError("parity", "the transpose involution does not give a commuting right action")
    Rs = {la: lift.Vs[la][conj] for la in fam.labels}
    return ParityData(P, Rs, int(np.trace(P)))


def toric_coefficient_grid(lift: ChiralLift, par: ParityData):
    """coeff[l, m, x] = (V_l R_m)[0, x]: the slot coefficients whose squares
    are the pair norms and which rebuild every K[l, m] from the family."""
    fam = lift.fam
    V0 = np.stack([lift.Vs[la][0] for la in fam.labels])  # 35 x 48
    Rstack = np.stack([par.Rs[la] for la in fam.labels])  # 35 x 48 x 48
    return np.einsum("lx,mxy->lmy", V0, Rstack)


@dataclass
class ModuleGraph:
    ordering: list  # slot index per vertex, vertices 1..12 in order
    F100: np.ndarray
    F010: np.ndarray
    F001: np.ndarray
    tau: dict  # vertex (1-based) -> Z4 grading
    dims: dict  # vertex (1-based) -> Perron weight
    compid: np.ndarray  # component id per slot


def _components(V100, V010, V001):
    size = V100.shape[0]
    adj = (V100 + V010 + V001) > 0
    compid = -np.ones(size, dtype=np.int64)
    c = 0
    for start in range(size):
        if compid[start] >= 0:
            continue
        compid[start] = c
        stack = [start]
        while stack:
            x = stack.pop()
            for y in np.nonzero(adj[x] | adj[:, x])[0]:
                if compid[y] < 0:
                    compid[y] = c
                    stack.append(int(y))
        c += 1
    return compid


def _grading(V100, comp, base):
    """Z4 grading along the generator, anchored to 0 at base."""
    tau = {base: 0}
    stack = [base]
    while stack:
        x = stack.pop()
        steps = [(int(y), 1) for y in np.nonzero(V100[x])[0]]
        steps += [(int(y), -1) for y in np.nonzero(V100[:, x])[0]]
        for y, step in steps:
            t = (tau[x] + step) % 4
            if y not in tau:
                tau[y] = t
                stack.append(y)
            elif tau[y] != t:
                raise CertificationError("module_graph", f"slot {y} has two gradings")
    if set(tau) != set(comp):
        raise CertificationError("module_graph", "the generator does not connect the component")
    return tau


_SQ2 = np.sqrt(2)
# (grading, Perron weight) per canonical vertex name
VERTEX_TARGETS = {
    1: (0, 1.0), 2: (0, 1.0), 3: (0, 1 + _SQ2), 4: (0, 1 + _SQ2),
    5: (1, np.sqrt(2 * (2 + _SQ2))), 6: (1, np.sqrt(2 + _SQ2)), 7: (1, np.sqrt(2 + _SQ2)),
    8: (2, 2 + _SQ2), 9: (2, _SQ2),
    10: (3, np.sqrt(2 * (2 + _SQ2))), 11: (3, np.sqrt(2 + _SQ2)), 12: (3, np.sqrt(2 + _SQ2)),
}


def _name_component(V100, V010, V001, comp, base):
    """Canonical vertex naming of one component: grading plus Perron weight,
    ties resolved toward the smaller name at the smaller slot. Returns the
    slot ordering for names 1..len(comp) and the weights."""
    comp = sorted(comp)
    tau = _grading(V100, comp, base)
    sub = (V100 + V010 + V001)[np.ix_(comp, comp)]
    pf = fr.perron_vector(sub, base=comp.index(base))
    mu_of = {z: pf[i] for i, z in enumerate(comp)}
    assign, used = {}, set()
    for z in comp:
        cands = [
            a
            for a, (t, m) in VERTEX_TARGETS.items()
            if a not in used and t == tau[z] and abs(m - mu_of[z]) < 1e-6
        ]
        if z == base:
            cands = [a for a in cands if a == 1]
        if not cands:
            raise CertificationError(
                "module_graph", f"slot {z} (grading {tau[z]}, weight {mu_of[z]:.6f}) has no name"
            )
        a = min(cands)
        assign[z] = a
        used.add(a)
    slot_by_name = {a: z for z, a in assign.items()}
    ordering = [slot_by_name[a] for a in range(1, len(comp) + 1)]
    return ordering, mu_of


def extract_module_graph(lift: ChiralLift) -> ModuleGraph:
    """The component of the vacuum slot under the left generators, with
    vertices named canonically: grading from the generator BFS, weight from
    the Perron vector, ties by smallest available name."""
    V100, V010, V001 = lift.V100, lift.V010, lift.V001
    compid = _components(V100, V010, V001)
    comp0 = [z for z in range(V100.shape[0]) if compid[z] == compid[0]]
    ordering, mu_of = _name_component(V100, V010, V001, comp0, 0)
    F100 = V100[np.ix_(ordering, ordering)]
    F010 = V010[np.ix_(ordering, ordering)]
    F001 = V001[np.ix_(ordering, ordering)]
    if not np.array_equal(F001, F100.T):
        raise CertificationError("module_graph", "the conjugate generator is not the transpose")
    return ModuleGraph(
        ordering,
        F100,
        F010,
        F001,
        {a: VERTEX_TARGETS[a][0] for a in range(1, 13)},
        {a: mu_of[z] for a, z in zip(range(1, 13), ordering)},
        compid,
    )


def component_graphs(lift: ChiralLift):
    """Canonically reordered generator blocks of every component. The base
    vertex of each component is its smallest slot of minimal Perron weight."""
    V100, V010, V001 = lift.V100, lift.V010, lift.V001
    compid = _components(V100, V010, V001)
    out = []
    for c in range(compid.max() + 1):
        comp = sorted(int(z) for z in np.nonzero(compid == c)[0])
        sub = (V100 + V010 + V001)[np.ix_(comp, comp)]
        pf = fr.perron_vector(sub, base=0)
        mn = pf.min()
        base = min(comp[i] for i in range(len(comp)) if pf[i] < mn * (1 + 1e-9))
        ordering, _ = _name_component(V100, V010, V001, comp, base)
        out.append(
            (
                ordering,
                V100[np.ix_(ordering, ordering)],
                V010[np.ix_(ordering, ordering)],
            )
        )
    return out


def annular_matrices(graph: ModuleGraph):
    """One 12x12 matrix per level-4 label: the module action of the whole
    alcove, grown by the same tower recursion as the ring itself."""
    F = fr.su4_tower(graph.F100, graph.F010, graph.F001, 4)
    if any(v.min() < 0 for v in F.values()):
        raise CertificationError("annular", "the tower recursion left the nonnegative cone")
    return F

"""Embedding-scan and invariant-solver oracles.

The rank-1 scan results are classical and fully known; they pin the charge
arithmetic. The SU(2), SU(3) and SU(4) counts are also recounted from scratch
over closed forms for every simple algebra the scan could possibly find. The
rank-2-in-rank-1 branching fixture has a hand-checkable solution (the
even-level diagonal-pair invariant), solved here end to end. The exact
invariant solve is checked against box_search, the float box search it
replaced, on the cases that search finishes.
"""

import time
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from fusioncat import embedding as emb
from fusioncat import modular as md
from fusioncat import weights as wt


def test_catalog_loads():
    cat = emb.load_catalog()
    names = {a.compact_name for a in cat}
    assert {"SU(2)", "SU(6)", "Spin(15)", "SU(10)", "Spin(20)", "G2", "E8"} <= names
    spin15 = next(a for a in cat if a.compact_name == "Spin(15)")
    assert spin15.dim == 105 and spin15.dual_coxeter == 13


def test_scan_su2():
    sols = emb.scan_embeddings("SU(2)")
    got = {(s.ambient.compact_name, s.level) for s in sols}
    assert got == {("SU(3)", 4), ("Spin(5)", 10), ("G2", 28)}


def test_scan_su3_count():
    sols = emb.scan_embeddings("SU(3)")
    assert len(sols) == 14


def test_scan_su4_count_and_known_entries():
    sols = emb.scan_embeddings("SU(4)")
    got = {(s.ambient.compact_name, s.level) for s in sols}
    assert {("SU(6)", 2), ("Spin(15)", 4), ("SU(10)", 6), ("Spin(20)", 8)} <= got
    assert len(sols) == 19


def closed_form_algebras(bound):
    """(family, rank, dim, h) for each simple algebra up to isomorphism with
    level-1 charge dim/(1+h) below bound: A_n (n>=1), B_n (n>=2), C_n (n>=3),
    D_n (n>=4) and the five exceptionals."""
    series = [
        ("A", 1, lambda n: (n * (n + 2), n + 1)),  # charge n
        ("B", 2, lambda n: (n * (2 * n + 1), 2 * n - 1)),  # charge n + 1/2
        ("C", 3, lambda n: (n * (2 * n + 1), n + 1)),  # charge n(2n+1)/(n+2)
        ("D", 4, lambda n: (n * (2 * n - 1), 2 * n - 2)),  # charge n
    ]
    out = []
    for fam, n, dim_h in series:
        # every charge above rises with n, so the first rank over the bound
        # ends the series
        dim, h = dim_h(n)
        while F(dim, 1 + h) < bound:
            out.append((fam, n, dim, h))
            n += 1
            dim, h = dim_h(n)
    for alg in [("G", 2, 14, 4), ("F", 4, 52, 9), ("E", 6, 78, 12),
                ("E", 7, 133, 18), ("E", 8, 248, 30)]:
        if F(alg[2], 1 + alg[3]) < bound:
            out.append(alg)
    return out


@pytest.mark.parametrize("base,rank,want", [("SU(2)", 1, 3), ("SU(3)", 2, 14), ("SU(4)", 3, 19)])
def test_scan_is_complete_by_closed_form_recount(base, rank, want):
    spec = wt.algebra("A", rank)
    d, g = spec.dim, spec.dual_coxeter
    # c_base(k) = k d/(k+g) stays below d, so no ambient with level-1 charge
    # d or more can match: the closed-form list holds every candidate
    cands = [a for a in closed_form_algebras(d) if a[:2] != ("A", rank)]
    cat = {(a.family, a.rank, a.dim, a.dual_coxeter) for a in emb.load_catalog()}
    assert set(cands) <= cat
    # d - c is a positive multiple of 1/(1+h), so the level k = c g/(d - c)
    # is at most c g (1+h) = dim g; walk the levels up to that bound
    kmax = max(dim for _, _, dim, _ in cands) * g
    level_of = {wt.central_charge(spec, k): k for k in range(1, kmax + 1)}
    recount = {
        (fam, n, level_of[F(dim, 1 + h)])
        for fam, n, dim, h in cands
        if F(dim, 1 + h) in level_of
    }
    assert len(recount) == want
    scan = {(e.ambient.family, e.ambient.rank, e.level) for e in emb.scan_embeddings(base)}
    assert scan == recount


def test_scan_charges_exact():
    for s in emb.scan_embeddings("SU(4)"):
        cG = wt.central_charge(wt.algebra("A", 3), s.level)
        assert isinstance(s.charge, F)
        assert cG == s.charge
        assert F(s.ambient.dim, 1 + s.ambient.dual_coxeter) == s.charge


def test_branching_su2_in_su3():
    A1, A2 = wt.algebra("A", 1), wt.algebra("A", 2)
    classes = emb.branch_candidates(A1, 4, A2, 1)
    by_label = {c.ambient_label: c.support for c in classes}
    assert by_label[(0, 0)] == ((0,), (4,))
    assert by_label[(1, 0)] == ((2,),)
    assert by_label[(0, 1)] == ((2,),)


def test_branching_su4_in_spin15():
    A3, B7 = wt.algebra("A", 3), wt.algebra("B", 7)
    classes = emb.branch_candidates(A3, 4, B7, 1)
    by_h = {wt.conformal_dimension(B7, 1, c.ambient_label): set(c.support) for c in classes}
    assert by_h[F(0)] == {(0, 0, 0), (2, 1, 0), (0, 1, 2), (0, 4, 0)}
    assert by_h[F(1, 2)] == {(1, 0, 1), (4, 0, 0), (1, 2, 1), (0, 0, 4)}
    assert by_h[F(15, 16)] == {(1, 1, 1)}


def test_solve_invariant_d4_fixture():
    A1, A2 = wt.algebra("A", 1), wt.algebra("A", 2)
    data = md.modular_data(A1, 4)
    classes = emb.branch_candidates(A1, 4, A2, 1)
    sols = emb.solve_invariant(data, classes)
    assert len(sols) == 1
    M = sols[0].matrix
    assert M[0, 0] == 1 and M[2, 2] == 2 and M[0, 4] == 1 and M[4, 0] == 1
    assert M.trace() == 4
    assert (M * M).sum() == 8
    assert np.abs(M @ data.s - data.s @ M).max() < 1e-9
    # the two nontrivial ambient classes each contribute the weight-2 vertex once
    assert list(sols[0].branch_vector((1, 0))) == [0, 0, 1, 0, 0]
    assert list(sols[0].branch_vector((0, 1))) == [0, 0, 1, 0, 0]


def test_solve_invariant_diagonal_when_ambient_equals_base():
    A3 = wt.algebra("A", 3)
    data = md.modular_data(A3, 1)
    classes = emb.branch_candidates(A3, 1, A3, 1)
    sols = emb.solve_invariant(data, classes)
    assert len(sols) == 1
    assert np.array_equal(sols[0].matrix, np.eye(4, dtype=np.int64))


def test_solve_invariant_spin15():
    A3, B7 = wt.algebra("A", 3), wt.algebra("B", 7)
    data = md.modular_data(A3, 4)
    classes = emb.branch_candidates(A3, 4, B7, 1)
    sols = emb.solve_invariant(data, classes)
    assert len(sols) >= 1
    inv = emb.pick_invariant(sols)
    M = inv.matrix
    idx = data.index
    u = [(0, 0, 0), (2, 1, 0), (0, 1, 2), (0, 4, 0)]
    v = [(1, 0, 1), (4, 0, 0), (1, 2, 1), (0, 0, 4)]
    w = [(1, 1, 1)]
    expect = np.zeros((35, 35), dtype=np.int64)
    for block, coef in ((u, 1), (v, 1), (w, 4)):
        for x in block:
            for y in block:
                expect[idx[x], idx[y]] += coef
    assert np.array_equal(M, expect)
    assert M.trace() == 12 and (M * M).sum() == 48
    assert np.abs(M @ data.s - data.s @ M).max() < 1e-7
    assert np.abs(M @ data.t - data.t @ M).max() < 1e-7
    # branch vectors recover the three blocks, spinor with coefficient 2
    assert [data.labels[i] for i in np.nonzero(inv.branch_vector((0,) * 7))[0]] == sorted(
        u, key=data.index.get
    )
    spinor = next(lam for lam, _ in inv.branches if wt.conformal_dimension(B7, 1, lam) == F(15, 16))
    bw = inv.branch_vector(spinor)
    assert bw[idx[(1, 1, 1)]] == 2 and bw.sum() == 2


# (base rank, level, ambient family, ambient rank)
BOX_CASES = [(1, 4, "A", 2), (1, 10, "B", 2), (3, 2, "A", 5), (3, 1, "A", 3), (3, 4, "B", 7)]


def case(rank, k, fam, arank):
    base = wt.algebra("A", rank)
    return md.modular_data(base, k), emb.branch_candidates(base, k, wt.algebra(fam, arank), 1)


def box_search(data, classes, box=4, tol=1e-7):
    """The invariant search the exact solve replaced, as (M, branches) pairs
    in the solver's order: every class's coefficients run over 0..box, the
    vacuum class pinned to 1 at the vacuum, vacuum class first. After class
    j, row 0 of [M, s] less the squares so far must vanish to tol on the
    labels no later class touches; a full M must commute with s and t to
    tol. Its first split of each M is kept."""
    s, t, r = data.s, data.t, len(data.labels)
    vac = next(c for c in classes if c.ambient_h == 0)
    order = [vac] + [c for c in classes if c is not vac]
    sups = [[data.index[mu] for mu in c.support] for c in order]
    last = np.zeros(r, dtype=np.int64)
    for j, sup in enumerate(sups):
        last[sup] = j
    found = {}

    def dfs(j, resid, parts):
        if j == len(order):
            M = sum(np.outer(b, b) for b in parts).astype(np.int64)
            if max(np.abs(M @ s - s @ M).max(), np.abs(M @ t - t @ M).max()) <= tol:
                found.setdefault(M.tobytes(), (M, [(c.ambient_label, b.astype(np.int64))
                                                   for c, b in zip(order, parts)]))
            return
        for coeffs in product(range(box + 1), repeat=len(sups[j])):
            b = np.zeros(r)
            b[sups[j]] = coeffs
            if j == 0 and b[0] != 1:
                continue
            nxt = (b @ s if j == 0 else resid) - (s[0] @ b) * b
            if np.abs(nxt[last <= j]).max(initial=0) <= tol:
                dfs(j + 1, nxt, parts + [b])

    dfs(0, None, [])
    return sorted(found.values(), key=lambda f: (int((f[0] * f[0]).sum()), f[0].tobytes()))


@pytest.mark.parametrize("spec", BOX_CASES, ids=lambda c: "A%d_%d-%s%d" % c)
def test_exact_solve_matches_the_box_search(spec):
    data, classes = case(*spec)
    sols, ref = emb.solve_invariant(data, classes), box_search(data, classes)
    assert len(sols) == len(ref) == 1
    for inv, (M, branches) in zip(sols, ref):
        assert inv.matrix.dtype == np.int64 and np.array_equal(inv.matrix, M)
        assert [lam for lam, _ in inv.branches] == [lam for lam, _ in branches]
        assert all(np.array_equal(b, c) for (_, b), (_, c) in zip(inv.branches, branches))


@pytest.mark.parametrize("spec", BOX_CASES + [(2, 5, "A", 5)], ids=lambda c: "A%d_%d-%s%d" % c)
def test_invariants_obey_gannons_bound(spec):
    data, classes = case(*spec)
    s0 = data.s[0].real
    for inv in emb.solve_invariant(data, classes):
        assert (inv.matrix * np.outer(s0, s0)).max() <= 1 + 1e-12
        # the bound is sum_ij S_0i M_ij S_0j = M_00 = 1
        assert abs(s0 @ inv.matrix @ s0 - 1) < 1e-12


def test_su3_level5_in_su6_has_one_invariant():
    # the box search did not finish on this case in a minute
    data, classes = case(2, 5, "A", 5)
    start = time.perf_counter()
    sols = emb.solve_invariant(data, classes)
    assert time.perf_counter() - start < 1.0
    assert len(sols) == 1
    M = sols[0].matrix
    assert int((M * M).sum()) == 24 and M[0, 0] == 1
    assert np.abs(M @ data.s - data.s @ M).max() < 1e-9
    assert np.abs(M @ data.t - data.t @ M).max() < 1e-9
    assert np.array_equal(sum(np.outer(b, b) for _, b in sols[0].branches), M)


@pytest.mark.parametrize("layer,at", [(0, (0, 1)), (3, (14, 6)), (15, (30, 30))])
def test_a_raised_numerator_changes_the_flagship_commutant(layer, at, monkeypatch):
    data, classes = case(3, 4, "B", 7)
    block = emb.pick_invariant(emb.solve_invariant(data, classes)).matrix
    m, Z = md.s_numerators(data)
    Z[(layer, *at)] += 1
    monkeypatch.setattr(md, "s_numerators", lambda d: (m, Z))
    assert not any(np.array_equal(inv.matrix, block) for inv in emb.solve_invariant(data, classes))


def test_a_support_that_mixes_conformal_weights_still_gives_t_invariants():
    # (1,) has h = 1/8, so no entry may tie it to the vacuum's h = 0
    data, classes = case(1, 4, "A", 2)
    vac = classes[0]
    mixed = [emb.BranchClass(vac.ambient_label, vac.ambient_h, ((0,), (1,), (4,)))] + classes[1:]
    sols = emb.solve_invariant(data, mixed)
    assert [inv.matrix.tolist() for inv in sols] == [emb.solve_invariant(data, classes)[0].matrix.tolist()]
    for inv in sols:
        assert np.abs(inv.matrix @ data.t - data.t @ inv.matrix).max() < 1e-12

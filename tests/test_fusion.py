"""Fusion-ring oracles.

The recursion towers of every rank are held against the Verlinde numbers
(an independent construction through the s matrix), and the q-deformed
dimension product formula against the Perron vector of the generator graph.
"""

import numpy as np
import pytest

from fusioncat import CertificationError
from fusioncat import fusion as fr
from fusioncat import modular as md
from fusioncat import weights as wt

A1 = wt.algebra("A", 1)
A2 = wt.algebra("A", 2)
A3 = wt.algebra("A", 3)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tower_matches_verlinde(k):
    data = md.modular_data(A3, k)
    oracle = md.verlinde_matrices(data)
    built = fr.fusion_matrices(A3, k)
    assert set(built) == set(oracle)
    for la in oracle:
        assert np.array_equal(built[la], oracle[la]), la


@pytest.mark.parametrize(
    "spec,k",
    [(A1, k) for k in [*range(1, 41), 119]] + [(A2, k) for k in range(1, 15)],
    ids=lambda x: getattr(x, "name", x),
)
def test_pieri_tower_matches_verlinde(spec, k):
    oracle = md.verlinde_matrices(md.modular_data(spec, k))
    built = fr.fusion_matrices(spec, k)
    assert list(built) == wt.enumerate_alcove(spec, k)
    for la in oracle:
        assert built[la].dtype == np.int64, la
        assert np.array_equal(built[la], oracle[la]), la


def _matmul_tower(F100, F010, F001, k):
    """su4_tower's recursion with matrix products: the reference for its
    row gathers."""
    N = {(0, 0, 0): np.eye(F100.shape[0], dtype=np.int64),
         (1, 0, 0): F100, (0, 1, 0): F010, (0, 0, 1): F001}
    for l in range(2, k + 1):
        for p in range(l):
            for q in range(p + 1):
                term = F100 @ N[(l - p - 1, p - q, q)]
                for sub in [(l - p - 2, p - q + 1, q), (l - p - 1, p - q - 1, q + 1),
                            (l - p - 1, p - q, q - 1)]:
                    if min(sub) >= 0:
                        term = term - N[sub]
                N[(l - p, p - q, q)] = term
        for q in range(1, l + 1):
            N[(0, l - q, q)] = N[(q, l - q, 0)].T
        N[(0, l, 0)] = F010 @ N[(0, l - 1, 0)] - N[(1, l - 2, 1)] - N[(0, l - 2, 0)]
    return N


def _assert_same_tower(built, want):
    assert list(built) == list(want)
    for la, N in want.items():
        assert built[la].dtype == np.int64 and np.array_equal(built[la], N), la


@pytest.mark.parametrize("k", range(7))
def test_gather_tower_matches_the_product_recursion_on_the_alcove(k):
    seeds = [fr.fundamental_matrix(A3, k, f) for f in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    _assert_same_tower(fr.su4_tower(*seeds, k), _matmul_tower(*seeds, k))


@pytest.mark.parametrize("k", [2, 4])
def test_gather_tower_matches_the_product_recursion_on_the_slots(chiral_lift, k):
    # the 48-slot generators have entries up to 2
    seeds = chiral_lift.V100, chiral_lift.V010, chiral_lift.V001
    assert max(int(V.max()) for V in seeds) == 2
    _assert_same_tower(fr.su4_tower(*seeds, k), _matmul_tower(*seeds, k))


def test_rings_of_every_rank_skip_the_s_matrix(monkeypatch):
    assert md not in vars(fr).values()

    def refuse(*args):
        raise AssertionError("the fusion layer read modular data")

    monkeypatch.setattr(md, "modular_data", refuse)
    monkeypatch.setattr(md, "verlinde_tensor", refuse)
    for spec, k in ((A1, 12), (A2, 5), (A3, 2)):
        mats = fr.fusion_matrices(spec, k)
        assert all(m.dtype == np.int64 for m in mats.values())


def test_fusion_rings_reject_what_they_do_not_cover():
    for spec in (wt.algebra("A", 4), wt.algebra("B", 2)):
        with pytest.raises(ValueError, match="A1..A3"):
            fr.fusion_matrices(spec, 1)


def test_ring_closure_a3_level4():
    mats = fr.fusion_matrices(A3, 4)
    labels = wt.enumerate_alcove(A3, 4)
    idx = {la: i for i, la in enumerate(labels)}
    rng = np.random.default_rng(7)
    for _ in range(12):
        a, b = (labels[rng.integers(35)] for _ in range(2))
        lhs = mats[a] @ mats[b]
        rhs = sum(int(mats[a][idx[b], idx[c]]) * mats[c] for c in labels)
        assert np.array_equal(lhs, rhs), (a, b)


def test_conjugation_is_transpose():
    mats = fr.fusion_matrices(A3, 4)
    for la, N in mats.items():
        assert np.array_equal(mats[wt.conjugate(A3, la)], N.T)


def test_quantum_dimensions_closed_forms():
    dims = fr.quantum_dimensions(A3, 4)
    labels = wt.enumerate_alcove(A3, 4)
    idx = {la: i for i, la in enumerate(labels)}
    sq2 = np.sqrt(2)
    beta = np.sqrt(2 * (2 + sq2))
    assert abs(dims[idx[(1, 0, 0)]] - beta) < 1e-12
    assert abs(dims[idx[(0, 1, 0)]] - (2 + sq2)) < 1e-12
    assert abs(dims[idx[(0, 0, 1)]] - beta) < 1e-12
    assert abs(dims[idx[(0, 0, 0)]] - 1) < 1e-12
    # total mass of the level-4 ring
    assert abs((dims**2).sum() - 128 * (3 + 2 * sq2)) < 1e-6


def test_quantum_dimensions_reject_the_b_series():
    with pytest.raises(ValueError, match="A series"):
        fr.quantum_dimensions(wt.algebra("B", 3), 1)


def test_quantum_dimensions_match_perron():
    dims = fr.quantum_dimensions(A3, 4)
    mats = fr.fusion_matrices(A3, 4)
    adj = mats[(1, 0, 0)] + mats[(0, 1, 0)] + mats[(0, 0, 1)]
    pf = fr.perron_vector(adj)
    assert np.abs(pf - dims).max() < 1e-9
    # and the generator matrix itself has PF eigenvalue beta
    beta = np.sqrt(2 * (2 + np.sqrt(2)))
    assert np.abs(mats[(1, 0, 0)] @ dims - beta * dims).max() < 1e-9


def test_quantum_dimensions_match_smatrix_row():
    data = md.modular_data(A3, 4)
    dims = fr.quantum_dimensions(A3, 4)
    assert np.abs(data.s[0] / data.s[0, 0] - dims).max() < 1e-9


def test_generator_graph_level1():
    mats = fr.fusion_matrices(A3, 1)
    # at level 1 the generator permutes the four vertices cyclically
    N = mats[(1, 0, 0)]
    assert (N.sum(axis=0) == 1).all() and (N.sum(axis=1) == 1).all()
    assert np.array_equal(np.linalg.matrix_power(N, 4), np.eye(4, dtype=np.int64))


def test_a_tower_that_leaves_the_cone_is_rejected(monkeypatch):
    tower = fr.su4_tower

    def broken(*args):
        mats = tower(*args)
        mats[(1, 1, 0)] = mats[(1, 1, 0)].copy()
        mats[(1, 1, 0)][0, 0] = -1
        return mats

    monkeypatch.setattr(fr, "su4_tower", broken)
    with pytest.raises(CertificationError, match="ring"):
        fr.fusion_matrices(A3, 3)


def test_a_corrupted_a2_tower_is_rejected(monkeypatch):
    tower = fr.pieri_tower

    def broken(*args):
        mats = tower(*args)
        mats[(1, 1)] = mats[(1, 1)].copy()
        mats[(1, 1)][2, 0] = -1
        return mats

    monkeypatch.setattr(fr, "pieri_tower", broken)
    with pytest.raises(CertificationError, match="ring"):
        fr.fusion_matrices(A2, 3)

"""Fusion-ring oracles.

The tower is held against the Verlinde numbers (an independent
construction through the s matrix) at every rank, and its row gathers
against the same recursion written with matrix products; the q-deformed
dimension product formula is held against the Perron vector of the
generator graph.
"""

from math import comb

import numpy as np
import pytest

from fusioncat import CertificationError
from fusioncat import fusion as fr
from fusioncat import modular as md
from fusioncat import weights as wt

A1 = wt.algebra("A", 1)
A2 = wt.algebra("A", 2)
A3 = wt.algebra("A", 3)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
def test_tower_matches_verlinde(k):
    data = md.modular_data(A3, k)
    oracle = md.verlinde_matrices(data)
    built = fr.fusion_matrices(A3, k)
    assert set(built) == set(oracle)
    for la in oracle:
        assert np.array_equal(built[la], oracle[la]), la


@pytest.mark.parametrize(
    "spec,k",
    [(A1, k) for k in [*range(41), 119]] + [(A2, k) for k in range(15)],
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
    """The A3 recursion with matrix products, its middle labels (0, l, 0)
    grown from the middle generator and its labels (0, p, q) as transposes
    of their conjugates: the reference for the tower's row gathers."""
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


def _assert_same_tower(labels, seeds, k):
    built = fr.FusionRing(labels, fr.tower(labels, seeds))
    want = _matmul_tower(*seeds, k)
    assert set(built) <= set(want)
    for la, N in built.items():
        assert N.dtype == np.int64 and np.array_equal(N, want[la]), la


def _generators(labels):
    """The adjacency of each fundamental weight among the labels."""
    return [fr._adjacency(labels, fr._orbit(len(labels[0]), i)) for i in range(len(labels[0]))]


@pytest.mark.parametrize("k", range(7))
def test_gather_tower_matches_the_product_recursion_on_the_alcove(k):
    labels = wt.enumerate_alcove(A3, k)
    _assert_same_tower(labels, _generators(labels), k)


@pytest.mark.parametrize("k", [2, 4])
def test_gather_tower_matches_the_product_recursion_on_the_slots(chiral_lift, k):
    # the 48-slot generators have entries up to 2
    seeds = chiral_lift.generators
    assert len(seeds) == 3
    assert max(int(V.max()) for V in seeds) == 2
    _assert_same_tower(wt.enumerate_alcove(A3, k), seeds, k)


@pytest.mark.parametrize("spec", [A1, A2, A3], ids=lambda s: s.name)
def test_the_orbit_of_each_fundamental_weight_starts_at_it(spec):
    n = spec.rank
    for i in range(n):
        orbit = fr._orbit(n, i)
        omega = tuple(int(j == i) for j in range(n))
        # minuscule: C(n + 1, i + 1) weights with labels in {-1, 0, 1}
        assert orbit[0] == omega and len(set(orbit)) == len(orbit) == comb(n + 1, i + 1)
        assert {x for mu in orbit for x in mu} <= {-1, 0, 1}


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


def _corrupt_a_product(monkeypatch, spec, k, lo, cell):
    """Make the gather G_1 N_lo, which grows the row of lo + omega_1 in the
    level-k tower of spec, write -1 into `cell`."""
    ring = fr.fusion_matrices(spec, k)
    G1, N = ring[(1,) + (0,) * (spec.rank - 1)], ring[lo]
    left_product = fr.left_product

    def broken(F):
        times = left_product(F)

        def corrupted(X, out):
            Y = times(X, out)
            if np.array_equal(F, G1) and np.array_equal(X, N):
                Y[cell] = -1
            return Y

        return corrupted

    monkeypatch.setattr(fr, "left_product", broken)


def test_a_tower_that_leaves_the_cone_is_rejected(monkeypatch):
    _corrupt_a_product(monkeypatch, A3, 3, (0, 1, 0), (0, 0))
    with pytest.raises(CertificationError, match="ring"):
        fr.fusion_matrices(A3, 3)


def test_a_corrupted_a2_tower_is_rejected(monkeypatch):
    _corrupt_a_product(monkeypatch, A2, 3, (0, 1), (2, 0))
    with pytest.raises(CertificationError, match="ring"):
        fr.fusion_matrices(A2, 3)


def test_a_non_fusion_generator_stops_the_tower(monkeypatch):
    # a second edge out of the vacuum, to (0, 1): the A2 generator of
    # omega_1 no longer fuses, and the tower leaves the cone
    labels = wt.enumerate_alcove(A2, 3)
    generators = _generators(labels)
    generators[0][0, labels.index((0, 1))] += 1
    assert fr.tower(labels, generators) is None
    adjacency = fr._adjacency

    def broken(labels, weights):
        G = adjacency(labels, weights)
        if weights[0] == (1, 0):
            G[0, labels.index((0, 1))] += 1
        return G

    monkeypatch.setattr(fr, "_adjacency", broken)
    with pytest.raises(CertificationError, match="^ring: the tower recursion left the nonnegative cone"):
        fr.fusion_matrices(A2, 3)

"""Oracles for the exact linear algebra helpers.

The integer row-space tracker is checked against numpy's floating rank on
random integer families, and the lattice enumerator against brute force.
Entries beyond int64 take the Python-int path, and forcing that path on the
flagship's doublet system must give the same points. The enumerator leaves
no reference cycle behind.
"""

import gc

import numpy as np

from fusioncat import exactla as xla
from fusioncat import graphalgebra as ga


def test_intspan_rank_matches_numpy():
    rng = np.random.default_rng(0)
    for trial in range(20):
        base = rng.integers(-4, 5, size=(6, 12))
        mix = rng.integers(-3, 4, size=(14, 6))
        fam = mix @ base
        sp = xla.IntSpan()
        cnt = sum(sp.add(r) for r in fam)
        assert cnt == np.linalg.matrix_rank(fam.astype(float)), trial


def test_intspan_coords_reconstruct():
    sp = xla.IntSpan()
    rows = [np.array(r) for r in [[1, 2, 0], [0, 1, 1], [2, 5, 1]]]
    inserted = [r for r in rows if sp.add(r)]
    assert len(inserted) == 2  # third row is dependent
    probe = 3 * rows[0] - 2 * rows[1]
    co = sp.coords(probe)
    assert co == ([3, -2], 1)  # numerators over a common denominator
    assert sp.coords(np.array([0, 0, 1])) is None
    assert sp.coords(np.array([5, 0, 7])) is None


def test_coeff_splits():
    assert xla.coeff_splits(4, 4) == [(1, 1, 1, 1)]
    assert xla.coeff_splits(3, 9) == [(3,)]
    assert xla.coeff_splits(2, 2) == [(1, 1)]
    assert xla.coeff_splits(2, 4) == [(2,)]
    assert xla.coeff_splits(5, 13) == [(3, 2)]
    assert xla.coeff_splits(3, 5) == [(2, 1)]
    assert xla.coeff_splits(1, 2) == []
    # every split really has the required sum and sum of squares
    for tot, sq in [(6, 14), (7, 21), (8, 22)]:
        for s in xla.coeff_splits(tot, sq):
            assert sum(s) == tot and sum(c * c for c in s) == sq


def test_square_split_options():
    # 4 split over at most 2 slots: 4=4 -> 16, 4=3+1 -> 10, 4=2+2 -> 8
    assert xla.square_split_options(4, 2) == {8, 10, 16}
    assert xla.square_split_options(1, 3) == {1}
    assert xla.square_split_options(0, 2) == {0}


def test_sparse_rref_unique_solution():
    sys = xla.LinearSystem(2)
    sys.add([1, 1], 3)
    sys.add([1, -1], 1)
    res = sys.rref()
    assert res.consistent and res.rank == 2 and res.free_cols == []
    pts = xla.lattice_points(res, caps=[5, 5])
    assert pts == [[2, 1]]


def test_sparse_rref_inconsistent():
    sys = xla.LinearSystem(2)
    sys.add([1, 1], 1)
    sys.add([2, 2], 3)
    res = sys.rref()
    assert not res.consistent


def test_lattice_points_underdetermined():
    sys = xla.LinearSystem(3)
    sys.add([1, 1, 1], 4)
    res = sys.rref()
    assert res.consistent and res.rank == 1
    pts = xla.lattice_points(res, caps=[2, 2, 2])
    assert sorted(pts) == sorted(
        [[0, 2, 2], [2, 0, 2], [2, 2, 0], [2, 1, 1], [1, 2, 1], [1, 1, 2]]
    )


def test_lattice_points_against_brute_force():
    rng = np.random.default_rng(1)
    for trial in range(10):
        n = 6
        A = rng.integers(-2, 3, size=(3, n))
        caps = rng.integers(1, 4, size=n)
        x0 = np.array([rng.integers(0, c + 1) for c in caps])
        b = A @ x0
        sys = xla.LinearSystem(n)
        for i in range(3):
            sys.add(A[i], b[i])
        res = sys.rref()
        assert res.consistent
        pts = xla.lattice_points(res, caps=[int(c) for c in caps])
        # brute force
        import itertools

        brute = [
            list(x)
            for x in itertools.product(*[range(int(c) + 1) for c in caps])
            if (A @ np.array(x) == b).all()
        ]
        assert sorted(pts) == sorted(brute), trial
        assert list(x0) in pts


def test_lattice_points_fractional_pivot_rejected():
    # 2x = 1 over the integers has no lattice point
    sys = xla.LinearSystem(1)
    sys.add([2], 1)
    res = sys.rref()
    assert res.consistent  # consistent over Q
    assert xla.lattice_points(res, caps=[3]) == []


def test_entries_beyond_int64_stay_exact():
    big = 2**70 + 3
    sp = xla.IntSpan()
    assert sp.add(np.array([big, 1, 0], dtype=object))
    assert sp.add(np.array([1, big, 1], dtype=object))
    probe = np.array([5 * big - 2, 5 - 2 * big, -2], dtype=object)
    assert sp.coords(probe) == ([5, -2], 1)
    assert sp.coords(np.array([1, 0, 0])) is None

    # x0 + big x1 = big over 0 <= x0 <= big, 0 <= x1 <= 1
    sys = xla.LinearSystem(2)
    sys.add([1, big], big)
    res = sys.rref()
    assert res.coeffs.dtype == object
    assert xla.lattice_points(res, caps=[big, 1]) == [[big, 0], [0, 1]]


def test_forced_python_int_path_gives_identical_points(annular, monkeypatch):
    sys, caps = ga._doublet_system(annular, self_conjugate_first=True)
    fast = xla.lattice_points(sys.rref(), caps)
    # with no int64 headroom the rows and their sums are Python ints; small
    # products still run exactly in float64
    monkeypatch.setattr(xla, "_SAFE", 1)
    sys, caps = ga._doublet_system(annular, self_conjugate_first=True)
    res = sys.rref()
    assert res.coeffs.dtype == object
    slow = xla.lattice_points(res, caps)
    assert len(fast) == 48 and slow == fast


def test_doublet_solve_leaves_no_cyclic_garbage(annular):
    """Everything the flagship doublet solve allocates is freed by reference
    counting: with the cyclic collector off, a collection afterwards finds
    nothing."""
    ga.doublet_solutions(annular)
    gc.collect()
    gc.disable()
    try:
        sols = ga.doublet_solutions(annular)
        assert len(sols) == 48
        del sols
        assert gc.collect() == 0
    finally:
        gc.enable()

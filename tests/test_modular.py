"""Oracles for the modular data layer.

The rank-1 matrix below is the hand-computable fixture; everything bigger is
checked through relations (unitarity, the braid relation, the conjugation
square) and through integrality of the induced fusion numbers.
"""

import numpy as np
import pytest

from fusioncat import modular as md
from fusioncat import weights as wt

TOL = 1e-9


def test_a1_level1_smatrix_closed_form():
    data = md.modular_data(wt.algebra("A", 1), 1)
    expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.abs(data.s - expect).max() < 1e-12


def test_relations_a3_level4():
    data = md.modular_data(wt.algebra("A", 3), 4)
    s, t = data.s, data.t
    n = s.shape[0]
    assert n == 35
    eye = np.eye(n)
    assert np.abs(s @ s.conj().T - eye).max() < TOL
    assert np.abs(t @ t.conj().T - eye).max() < TOL
    assert np.abs(s - s.T).max() < TOL
    C = s @ s
    assert np.abs(C @ C - eye).max() < TOL
    st = s @ t
    assert np.abs(st @ st @ st - C).max() < TOL
    assert np.abs(np.linalg.matrix_power(t, 64) - eye).max() < TOL
    # charge conjugation really is the label-reversal permutation
    perm = np.zeros((n, n))
    perm[np.arange(n), data.conj_perm] = 1
    assert np.abs(C - perm).max() < TOL
    # quantum dimensions positive on the vacuum row
    assert (s[0].real > 1e-12).all() and np.abs(s[0].imag).max() < TOL


@pytest.mark.parametrize(
    "family,rank,k",
    [("A", 1, 1), ("A", 1, 4), ("A", 1, 6), ("A", 2, 3), ("A", 2, 4), ("A", 3, 2), ("A", 3, 4)],
)
def test_verlinde_integrality(family, rank, k):
    data = md.modular_data(wt.algebra(family, rank), k)
    mats = md.verlinde_matrices(data)
    n = len(data.labels)
    vac = data.labels[0]
    assert np.array_equal(mats[vac], np.eye(n, dtype=np.int64))
    for lam, N in mats.items():
        assert N.min() >= 0
        # row of the vacuum reads off the label itself
        assert list(N[0]) == [1 if mu == lam else 0 for mu in data.labels]


def test_a2_level1_is_z3():
    data = md.modular_data(wt.algebra("A", 2), 1)
    mats = md.verlinde_matrices(data)
    idx = data.index
    N10 = mats[(1, 0)]
    assert N10[idx[(1, 0)], idx[(0, 1)]] == 1
    assert N10[idx[(1, 0)], idx[(0, 0)]] == 0
    assert N10[idx[(0, 1)], idx[(0, 0)]] == 1


def test_fusion_conjugation_transpose():
    data = md.modular_data(wt.algebra("A", 3), 3)
    mats = md.verlinde_matrices(data)
    for lam, N in mats.items():
        lbar = wt.conjugate(wt.algebra("A", 3), lam)
        assert np.array_equal(mats[lbar], N.T)


def per_pair_reference(spec, k):
    """The Kac-Peterson sum one (a, b) pair and one Weyl permutation at a
    time, with exact Fraction phases; s must match it bit for bit."""
    N = spec.rank + 1
    kappa = k + spec.dual_coxeter
    labels = wt.enumerate_alcove(spec, k)
    r = len(labels)
    shifted = [wt.barycentric(tuple(x + 1 for x in la)) for la in labels]
    perms = list(wt.weyl_group(N).items())
    s = np.zeros((r, r), dtype=complex)
    for a in range(r):
        for b in range(a + 1):
            z = 0j
            for p, sg in perms:
                e = sum(shifted[a][p[i]] * shifted[b][i] for i in range(N))
                z += sg * np.exp(-2j * np.pi * float(e) / kappa)
            s[a, b] = s[b, a] = z
    s *= (1j) ** (N * (N - 1) // 2) * N ** -0.5 * float(kappa) ** (-spec.rank / 2)
    c = wt.central_charge(spec, k)
    hs = [wt.conformal_dimension(spec, k, la) for la in labels]
    t = np.diag([np.exp(2j * np.pi * float(h - c / 24)) for h in hs])
    index = {la: i for i, la in enumerate(labels)}
    conj = np.array([index[wt.conjugate(spec, la)] for la in labels])
    return s, t, hs, conj


@pytest.mark.parametrize("rank,k", [(1, 60), (2, 10), (3, 4)])
def test_integer_phase_products_match_the_per_pair_sum_bit_for_bit(rank, k):
    spec = wt.algebra("A", rank)
    data = md.modular_data(spec, k)
    s, t, hs, conj = per_pair_reference(spec, k)
    # compared as bits, so signed zeros too: the catalog writes -0.0 and 0.0 differently
    assert np.array_equal(data.s.view(np.int64), s.view(np.int64))
    assert np.array_equal(data.t, t)
    assert data.hs == hs
    assert np.array_equal(data.conj_perm, conj)


@pytest.mark.parametrize("rank,k", [(1, 1), (1, 4), (1, 13), (2, 1), (2, 5), (2, 7), (3, 1), (3, 4), (3, 5)])
def test_exact_numerators_reproduce_s(rank, k):
    spec = wt.algebra("A", rank)
    data = md.modular_data(spec, k)
    m, Z = md.s_numerators(data)
    N, kappa = rank + 1, k + spec.dual_coxeter
    assert m == N * kappa and Z.dtype == np.int64
    # the layers are a basis's coordinates: phi(m) of them
    assert len(Z) == sum(1 for e in range(m) if np.gcd(e, m) == 1)
    sigma = (1j) ** (N * (N - 1) // 2) / np.sqrt(N) / kappa ** (rank / 2)
    zeta = np.exp(2j * np.pi * np.arange(len(Z)) / m)
    assert np.abs(sigma * np.tensordot(zeta, Z, axes=1) - data.s).max() < 1e-12


# run under python -O by the python_O fixture
PYTHON_O = {
    "unaudited algebras": (
        "from fusioncat import modular as md, weights as wt\n"
        "try:\n"
        "    md.modular_data(wt.algebra('A', 4), 2)\n"
        "except ValueError as e:\n"
        "    print('raised:', e)\n"
    ),
}


def test_unaudited_algebras_raise_under_python_O(python_O):
    """The input guard is a ValueError, so it survives python -O."""
    with pytest.raises(ValueError, match="A1..A3"):
        md.modular_data(wt.algebra("A", 4), 2)
    with pytest.raises(ValueError, match="A1..A3"):
        md.modular_data(wt.algebra("B", 2), 1)
    stdout, raised = python_O["unaudited algebras"]
    assert not raised, raised
    assert stdout.startswith("raised: phase conventions audited for A1..A3 only")

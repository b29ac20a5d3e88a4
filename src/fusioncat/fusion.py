"""Fusion rings of the level-k A-series categories.

For rank 3 the full tower of fusion matrices is grown from the three
generator adjacencies by the standard Chebyshev-style recursion on columns
of the weight triangle; rank 1 and 2 just take the Verlinde numbers. The
tower function is deliberately size-agnostic because the same recursion is
reused later on 12x12 and 48x48 module adjacencies.
"""

import numpy as np

from . import CertificationError
from . import modular as md
from . import weights as wt

__all__ = [
    "GENERATOR_WEIGHTS",
    "fundamental_matrix",
    "su4_tower",
    "fusion_matrices",
    "quantum_dimensions",
    "perron_vector",
]


# weight systems of the three generator representations of A3
GENERATOR_WEIGHTS = {
    (1, 0, 0): [(1, 0, 0), (-1, 1, 0), (0, -1, 1), (0, 0, -1)],
    (0, 1, 0): [(0, 1, 0), (1, -1, 1), (1, 0, -1), (-1, 0, 1), (-1, 1, -1), (0, -1, 0)],
    (0, 0, 1): [(0, 0, 1), (1, -1, 0), (0, 1, -1), (-1, 0, 0)],
}


def fundamental_matrix(spec: wt.AlgebraSpec, k: int, fund):
    """Level-truncated adjacency of tensoring with a generator: add each of
    its weights to the row label and keep whatever stays in the alcove."""
    labels = wt.enumerate_alcove(spec, k)
    idx = {la: i for i, la in enumerate(labels)}
    r = len(labels)
    N = np.zeros((r, r), dtype=np.int64)
    for la, i in idx.items():
        for d in GENERATOR_WEIGHTS[fund]:
            mu = tuple(x + y for x, y in zip(la, d))
            if min(mu) >= 0 and sum(mu) <= k:
                N[i, idx[mu]] += 1
    return N


def su4_tower(F100, F010, F001, k: int):
    """Grow matrices for every level <= k weight of A3 out of the three
    seeds. Works on any size; the seeds only have to satisfy the A3 fusion
    relations for the output to mean anything.
    """
    size = F100.shape[0]
    N = {
        (0, 0, 0): np.eye(size, dtype=np.int64),
        (1, 0, 0): F100,
        (0, 1, 0): F010,
        (0, 0, 1): F001,
    }
    for l in range(2, k + 1):
        for p in range(l):
            for q in range(p + 1):
                lab = (l - p, p - q, q)
                term = F100 @ N[(l - p - 1, p - q, q)]
                for sub in [
                    (l - p - 2, p - q + 1, q),
                    (l - p - 1, p - q - 1, q + 1),
                    (l - p - 1, p - q, q - 1),
                ]:
                    if min(sub) >= 0:
                        term = term - N[sub]
                N[lab] = term
        for q in range(1, l + 1):
            N[(0, l - q, q)] = N[(q, l - q, 0)].T
        N[(0, l, 0)] = F010 @ N[(0, l - 1, 0)] - N[(1, l - 2, 1)] - N[(0, l - 2, 0)]
    return N


def fusion_matrices(spec: wt.AlgebraSpec, k: int):
    """All fusion matrices at level k, keyed by label."""
    if spec.family == "A" and spec.rank == 3:
        F100 = fundamental_matrix(spec, k, (1, 0, 0))
        F010 = fundamental_matrix(spec, k, (0, 1, 0))
        F001 = fundamental_matrix(spec, k, (0, 0, 1))
        mats = su4_tower(F100, F010, F001, k)
        if any(m.min() < 0 for m in mats.values()):
            raise CertificationError("ring", "the tower recursion left the nonnegative cone")
        return mats
    # lower ranks: straight from the s matrix
    return md.verlinde_matrices(md.modular_data(spec, k))


def quantum_dimensions(spec: wt.AlgebraSpec, k: int) -> np.ndarray:
    """q-deformed Weyl dimensions over the alcove, canonical order.

    dim_q = prod over positive roots (i..j) of [sum (lam_t + 1)] / [j-i+1]
    with [m] = sin(pi m / kappa) / sin(pi / kappa).
    """
    if spec.family != "A":
        raise ValueError(f"q-deformed Weyl dimensions cover the A series only, not {spec.name}")
    n = spec.rank
    kappa = k + spec.dual_coxeter
    qint = lambda m: np.sin(np.pi * m / kappa) / np.sin(np.pi / kappa)
    labels = wt.enumerate_alcove(spec, k)
    out = np.empty(len(labels))
    for pos, la in enumerate(labels):
        val = 1.0
        for i in range(n):
            for j in range(i, n):
                val *= qint(sum(la[t] + 1 for t in range(i, j + 1))) / qint(j - i + 1)
        out[pos] = val
    return out


def perron_vector(adj, base: int = 0, tol: float = 1e-12, itmax: int = 10000):
    """Positive eigenvector of an irreducible nonnegative matrix, scaled to
    1.0 at `base`. Power iteration on adj + I (the shift kills periodicity)."""
    size = adj.shape[0]
    A = adj.astype(float) + np.eye(size)
    v = np.ones(size) / np.sqrt(size)
    for _ in range(itmax):
        w = A @ v
        w /= np.linalg.norm(w)
        if np.abs(w - v).max() < tol:
            v = w
            break
        v = w
    else:
        raise RuntimeError("power iteration did not settle")
    assert v[base] > 0
    return v / v[base]

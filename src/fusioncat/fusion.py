"""Fusion rings of the level-k A-series categories, in integers only.

Every ring is grown from generator adjacencies by the truncated Pieri rule,
the Kac-Walton formula (Walton, Nucl. Phys. B340, 1990). Tensoring with the
vector representation F adds each of its weights eps_1..eps_{n+1} to a
label and drops what leaves the alcove, so
N_lam = F N_{lam-eps_1} - sum_{i>=2} N_{lam-eps_1+eps_i}, summed over the
dominant terms only. A label with first Dynkin label 0 takes the transpose
of its conjugate's matrix. Ranks 1 and 2 need nothing else; rank 3 also
needs the middle generator for the labels (0, l, 0). The rank-3 tower is
deliberately size-agnostic because the same recursion is reused later on
12x12 and 48x48 module adjacencies. Both towers multiply by a generator
without a matrix product, by gathering and adding rows, which is exact in
int64. A ring is one read-only (r, r, r) int64 tensor in alcove order, which
its catalog record shares; a FusionRing maps the labels to its rows. Nothing
here reads the s matrix: the Verlinde numbers of modular.py are an oracle.
"""

from collections.abc import Mapping

import numpy as np

from . import CertificationError
from . import weights as wt

__all__ = [
    "GENERATOR_WEIGHTS",
    "fundamental_matrix",
    "left_product",
    "su4_tower",
    "pieri_tower",
    "FusionRing",
    "fusion_matrices",
    "quantum_dimensions",
    "perron_vector",
]


# weight systems of the vector representations of A1 and A2 and of the
# three generator representations of A3
GENERATOR_WEIGHTS = {
    (1,): [(1,), (-1,)],
    (1, 0): [(1, 0), (-1, 1), (0, -1)],
    (1, 0, 0): [(1, 0, 0), (-1, 1, 0), (0, -1, 1), (0, 0, -1)],
    (0, 1, 0): [(0, 1, 0), (1, -1, 1), (1, 0, -1), (-1, 0, 1), (-1, 1, -1), (0, -1, 0)],
    (0, 0, 1): [(0, 0, 1), (1, -1, 0), (0, 1, -1), (-1, 0, 0)],
}


def fundamental_matrix(spec: wt.AlgebraSpec, k: int, fund):
    """Level-truncated adjacency of tensoring with a generator: add each of
    its weights to the row label and keep whatever stays in the alcove."""
    return _adjacency(wt.enumerate_alcove(spec, k), GENERATOR_WEIGHTS[fund])


def _adjacency(labels, weights):
    """The adjacency of adding each weight to the row label, among the
    labels."""
    idx = {la: i for i, la in enumerate(labels)}
    N = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for la, i in idx.items():
        for d in weights:
            j = idx.get(tuple(x + y for x, y in zip(la, d)))
            if j is not None:
                N[i, j] += 1
    return N


def left_product(F):
    """X -> F X for a nonnegative integer matrix F with few nonzeros per
    row, exact in int64 and without a matrix product: row i of F X is the
    sum of the rows j of X, each taken F[i, j] times, one gather per term.
    X must be a square int64 matrix of F's size."""
    r = F.shape[0]
    terms = F.sum(axis=1)
    rows, cols = np.nonzero(F)
    reps = F[rows, cols]
    rows, cols = rows.repeat(reps), cols.repeat(reps)
    # term t of row i reads idx[t, i]; row r of the padded operand is zero
    # and pads the rows with fewer terms
    idx = np.full((terms.max(), r), r)
    idx[np.arange(len(rows)) - (terms.cumsum() - terms)[rows], rows] = cols
    padded = np.zeros((r + 1, r), dtype=np.int64)

    def times(X):
        padded[:r] = X
        return padded[idx].sum(axis=0)

    return times


def su4_tower(F100, F010, F001, k: int, gathers=None):
    """Grow matrices for every level <= k weight of A3 out of the three
    seeds, nonnegative integer matrices. Works on any size; the seeds only
    have to satisfy the A3 fusion relations for the output to mean
    anything. The products with the seeds are row gathers: `gathers` is
    (left_product(F100), left_product(F010)), built here when not given,
    so a caller that grows several towers on one seed builds its table
    once."""
    size = F100.shape[0]
    times100, times010 = gathers or (left_product(F100), left_product(F010))
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
                term = times100(N[(l - p - 1, p - q, q)])
                for sub in [
                    (l - p - 2, p - q + 1, q),
                    (l - p - 1, p - q - 1, q + 1),
                    (l - p - 1, p - q, q - 1),
                ]:
                    if min(sub) >= 0:
                        term -= N[sub]
                N[lab] = term
        for q in range(1, l + 1):
            N[(0, l - q, q)] = N[(q, l - q, 0)].T
        N[(0, l, 0)] = times010(N[(0, l - 1, 0)]) - N[(1, l - 2, 1)] - N[(0, l - 2, 0)]
    return N


def pieri_tower(spec: wt.AlgebraSpec, k: int):
    """Every level-k fusion matrix of A1 or A2, from the vector
    representation alone: an (r, r, r) int64 tensor whose row i is the
    matrix of the i-th alcove label, each written in place."""
    if spec.family != "A" or spec.rank > 2:
        raise ValueError(f"the vector Pieri tower covers A1 and A2, not {spec.name}")
    labels = wt.enumerate_alcove(spec, k)
    at = {la: i for i, la in enumerate(labels)}
    eps = GENERATOR_WEIGHTS[(1,) + (0,) * (spec.rank - 1)]
    times = left_product(_adjacency(labels, eps))
    shift = lambda la, e: tuple(x + y for x, y in zip(la, e))

    N = np.empty((len(labels),) * 3, dtype=np.int64)
    N[0] = np.eye(len(labels), dtype=np.int64)
    # canonical order: a label comes after everything of lower level, and
    # after its conjugate when its first Dynkin label is 0
    for i, la in enumerate(labels[1:], 1):
        if la[0] == 0:
            N[i] = N[at[wt.conjugate(spec, la)]].T
            continue
        lo = (la[0] - 1,) + la[1:]
        N[i] = times(N[at[lo]])
        for e in eps[1:]:
            sub = shift(lo, e)
            if min(sub) >= 0:
                N[i] -= N[at[sub]]
    return N


class FusionRing(Mapping):
    """Label -> fusion matrix: row i of `tensor` is that of labels[i]."""

    def __init__(self, labels, tensor):
        self.labels, self.tensor = labels, tensor
        self._at = {la: i for i, la in enumerate(labels)}

    def __getitem__(self, la):
        return self.tensor[self._at[la]]

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)


def fusion_matrices(spec: wt.AlgebraSpec, k: int) -> FusionRing:
    """All fusion matrices at level k for A1..A3, keyed by label: one
    tensor, certified nonnegative and then made read-only."""
    if spec.family != "A" or spec.rank > 3:
        raise ValueError(f"fusion rings cover A1..A3 only, not {spec.name}")
    labels = wt.enumerate_alcove(spec, k)
    if spec.rank == 3:
        F100 = fundamental_matrix(spec, k, (1, 0, 0))
        F010 = fundamental_matrix(spec, k, (0, 1, 0))
        F001 = fundamental_matrix(spec, k, (0, 0, 1))
        mats = su4_tower(F100, F010, F001, k)
        tensor = np.stack([mats[la] for la in labels])
    else:
        tensor = pieri_tower(spec, k)
    if tensor.min() < 0:
        raise CertificationError("ring", "the tower recursion left the nonnegative cone")
    # the catalog record and the cached pipeline ring share the tensor
    tensor.flags.writeable = False
    return FusionRing(labels, tensor)


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


def perron_vector(adj, base: int = 0):
    """Positive eigenvector of an irreducible nonnegative matrix, scaled to
    1.0 at `base`. Power iteration on adj + I (the shift kills periodicity)
    until no entry moves by 1e-12, at most 10000 steps; since adj + I >= I,
    every iterate stays positive at `base`."""
    if (adj < 0).any():
        raise ValueError("the Perron vector needs a nonnegative matrix")
    size = adj.shape[0]
    A = adj.astype(float) + np.eye(size)
    v = np.ones(size) / np.sqrt(size)
    for _ in range(10000):
        w = A @ v
        w /= np.linalg.norm(w)
        if np.abs(w - v).max() < 1e-12:
            v = w
            break
        v = w
    else:
        raise RuntimeError("power iteration did not settle")
    return v / v[base]

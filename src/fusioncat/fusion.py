"""Fusion rings of the level-k A-series categories, in integers only.

Every ring and every module action is grown by one tower, the Kac-Walton
formula (Walton, Nucl. Phys. B340, 1990) restricted to minuscule
generators. Every fundamental weight omega_i of A_n is minuscule: the
weights of its representation are its Weyl orbit, each of multiplicity 1.
For a label lam != 0 with first nonzero Dynkin index i and lo = lam -
omega_i, N_lam = G_i N_lo - sum N_{lo+mu}, summed over the orbit of omega_i
but omega_i itself and over the terms among the labels: a term off the
alcove sits on a finite wall and drops, and none passes the affine wall.
The labels are walked in <lam, 2 rho> order, which drops strictly from lam
to every term. The generators G_i are the ring's own adjacencies for a
fusion ring and the module graph's for a module, of any size. Every product
with a generator gathers and adds rows instead of multiplying matrices,
which is exact in int64. A tower is one (r, size, size) int64 tensor in the
labels' order; a FusionRing maps the labels to its rows, and a fusion
ring's tensor is read-only, shared by its catalog record. Nothing here
reads the s matrix: the Verlinde numbers of modular.py are an oracle.
"""

from collections.abc import Mapping
from functools import lru_cache

import numpy as np

from . import CertificationError
from . import weights as wt

__all__ = [
    "left_product",
    "tower",
    "su4_tower",
    "FusionRing",
    "fusion_matrices",
    "quantum_dimensions",
    "perron_vector",
    "perron_weights",
]


def _orbit(n: int, i: int):
    """The Weyl orbit of the fundamental weight omega_i of A_n (i from 0),
    omega_i first: closed under the simple reflections s_j(mu) = mu - mu_j
    alpha_j, where alpha_j is row j of the Cartan matrix."""
    cartan = [[2 if a == b else -1 if abs(a - b) == 1 else 0 for b in range(n)] for a in range(n)]
    orbit = [tuple(int(a == i) for a in range(n))]
    for mu in orbit:
        for j, alpha in enumerate(cartan):
            nu = tuple(m - mu[j] * c for m, c in zip(mu, alpha))
            if nu not in orbit:
                orbit.append(nu)
    return orbit


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
    X and out are square int64 matrices of F's size, and F X is written
    into out."""
    r = F.shape[0]
    # one (row, column) pair per term, row-major: entry F[i, j] repeats i r + j
    rows, cols = np.divmod(np.arange(r * r).repeat(F.reshape(-1)), r)
    terms = np.bincount(rows, minlength=r)
    # term t of row i reads idx[t, i]; row r of the padded operand is zero
    # and pads the rows with fewer terms
    idx = np.full((terms.max(), r), r)
    idx[np.arange(len(rows)) - (terms.cumsum() - terms)[rows], rows] = cols
    padded = np.zeros((r + 1, r), dtype=np.int64)

    def times(X, out):
        padded[:r] = X
        return padded.take(idx, axis=0).sum(axis=0, out=out)

    return times


@lru_cache(maxsize=None)
def _steps(labels):
    """The tower's recursion on a tuple of A_n labels, as (row, i, lo, subs)
    in <lam, 2 rho> order: row lam is generators[i] times row lo, less the
    rows subs. The zero weight, the identity, has i None, and omega_i,
    which is generators[i] itself, has lo None. Cached, since the chiral
    lift grows a tower on the same labels for every candidate."""
    n = len(labels[0])
    at = {la: j for j, la in enumerate(labels)}
    orbits = [_orbit(n, i) for i in range(n)]
    steps = []
    for la in sorted(labels, key=lambda la: sum(j * (n + 1 - j) * x for j, x in enumerate(la, 1))):
        i = next((j for j, x in enumerate(la) if x), None)
        if i is None or sum(la) == 1:
            steps.append((at[la], i, None, ()))
            continue
        lo = la[:i] + (la[i] - 1,) + la[i + 1 :]
        terms = (tuple(x + y for x, y in zip(lo, mu)) for mu in orbits[i][1:])
        steps.append((at[la], i, at[lo], tuple(at[t] for t in terms if t in at)))
    return tuple(steps)


def tower(labels, generators):
    """The matrix of every label of A_n, n = len(labels[0]), grown from the
    nonnegative integer matrices generators[i] of omega_i by the minuscule
    Kac-Walton step of the module docstring: an (r, size, size) int64
    tensor whose row j is that of labels[j], or None at the first row, in
    height order, with a negative entry. The labels must hold the zero
    weight and, with each label, every label it steps down to."""
    size = generators[0].shape[0]
    times = [left_product(G) for G in generators]
    T = np.empty((len(labels), size, size), dtype=np.int64)
    for row, i, lo, subs in _steps(tuple(labels)):
        out = T[row]
        if i is None:
            out[:] = np.eye(size, dtype=np.int64)
        elif lo is None:
            out[:] = generators[i]
        else:
            times[i](T[lo], out)
            for j in subs:
                out -= T[j]
        if out.min() < 0:
            return None
    return T


# perfbench/tracer.py's FUNCTIONS wraps fusion.su4_tower by name; the alias
# goes with that entry (ROADMAP item 6)
su4_tower = tower


class FusionRing(Mapping):
    """Label -> matrix, of a fusion ring or of its action on a module: row
    i of `tensor` is that of labels[i]."""

    def __init__(self, labels, tensor):
        self.labels, self.tensor = labels, tensor
        self._at = {la: i for i, la in enumerate(labels)}

    def __getitem__(self, la):
        return self.tensor[self._at[la]]

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)

    def rows(self, labels):
        """The row of tensor of each of labels, in order."""
        return [self._at[la] for la in labels]


def fusion_matrices(spec: wt.AlgebraSpec, k: int) -> FusionRing:
    """All fusion matrices at level k for A1..A3, keyed by label: one
    tower on the adjacencies of the fundamental weights, certified
    nonnegative and then made read-only."""
    if spec.family != "A" or spec.rank > 3:
        raise ValueError(f"fusion rings cover A1..A3 only, not {spec.name}")
    labels = wt.enumerate_alcove(spec, k)
    tensor = tower(labels, [_adjacency(labels, _orbit(spec.rank, i)) for i in range(spec.rank)])
    if tensor is None:
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


def perron_weights(generators):
    """Vertex (1-based) -> Perron weight of the graph of the summed
    generators, 1.0 at vertex 1, in floats."""
    return dict(enumerate(perron_vector(sum(generators)).tolist(), start=1))

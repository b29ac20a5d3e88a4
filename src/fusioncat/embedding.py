"""Conformal embeddings: the central-charge Diophantine scan, branching
candidates gated by conformal dimensions, and the exact invariant solver.

The scan answers: for which positive integer levels k does the level-k
central charge of the base algebra equal the level-1 central charge of some
other simple algebra. Everything is Fractions; a solution is a solution
exactly or not at all.

The invariant solver is exact linear algebra. On the entries of M inside
the branching classes' support squares, commutation with t holds by
construction and commutation with s is a set of integer equations, since s
is cyclotomic (Coste and Gannon, 1994). Their nonnegative integer points
lie under Gannon's (1994) bound M_ij S_0i S_0j <= 1, and each is kept when
it splits into rank-one squares M = sum_L b_L b_L^T, one per ambient class.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import product
from math import isqrt

import numpy as np

from . import CertificationError
from . import exactla as xla
from . import modular as md
from . import weights as wt

__all__ = [
    "SimpleAlgebra",
    "load_catalog",
    "Embedding",
    "scan_embeddings",
    "BranchClass",
    "branch_candidates",
    "Invariant",
    "solve_invariant",
    "pick_invariant",
    "NoInvariantError",
]


@dataclass(frozen=True)
class SimpleAlgebra:
    family: str
    rank: int
    dim: int
    dual_coxeter: int
    compact_name: str

    @property
    def level_one_charge(self) -> Fraction:
        return Fraction(self.dim, 1 + self.dual_coxeter)


def load_catalog():
    """Simple algebras with no isomorphic duplicates (B1, C1, C2, D2, D3
    are omitted in favor of their A/B aliases)."""
    raw = json.loads(
        resources.files("fusioncat").joinpath("data/groups.json").read_text()
    )
    return [SimpleAlgebra(**a) for a in raw["algebras"]]


@dataclass(frozen=True)
class Embedding:
    base: SimpleAlgebra
    ambient: SimpleAlgebra
    level: int  # level of the base algebra; the ambient sits at level 1
    charge: Fraction


def _find(catalog, key):
    if isinstance(key, str):
        hits = [a for a in catalog if a.compact_name == key]
    else:
        fam, rank = key
        hits = [a for a in catalog if a.family == fam and a.rank == rank]
    if len(hits) != 1:
        raise KeyError(f"algebra {key!r} not in catalog")
    return hits[0]


def scan_embeddings(base_key, catalog=None):
    """All exact solutions of c_base(k) = c_ambient(1) with the ambient a
    different simple algebra and k a positive integer. The base algebra at
    its own level 1 is the trivial solution and is not reported."""
    catalog = catalog or load_catalog()
    base = _find(catalog, base_key)
    d, g = base.dim, base.dual_coxeter
    out = []
    for K in catalog:
        if K == base:
            continue
        c = K.level_one_charge
        if c >= d:
            continue  # charge saturates below the dimension
        k = c * g / (d - c)
        if k.denominator == 1 and k >= 1:
            out.append(Embedding(base, K, int(k), c))
    out.sort(key=lambda e: (e.level, e.ambient.dim, e.ambient.compact_name))
    return out


@dataclass(frozen=True)
class BranchClass:
    ambient_label: tuple
    ambient_h: Fraction
    support: tuple  # base labels mu with h_mu - h_Lambda a nonnegative integer


def branch_candidates(base_spec, k, ambient_spec, ambient_level=1):
    """Branching supports: for each ambient label, the base labels whose
    conformal dimension exceeds the ambient one by a nonnegative integer."""
    cb = wt.central_charge(base_spec, k)
    ca = wt.central_charge(ambient_spec, ambient_level)
    if cb != ca:
        raise ValueError(f"not a conformal embedding: central charges {cb} and {ca} differ")
    base_labels = wt.enumerate_alcove(base_spec, k)
    hs = {mu: wt.conformal_dimension(base_spec, k, mu) for mu in base_labels}
    out = []
    for lam in wt.enumerate_alcove(ambient_spec, ambient_level):
        hl = wt.conformal_dimension(ambient_spec, ambient_level, lam)
        sup = tuple(
            mu for mu in base_labels if (hs[mu] - hl).denominator == 1 and hs[mu] >= hl
        )
        out.append(BranchClass(lam, hl, sup))
    return out


class NoInvariantError(RuntimeError):
    pass


@dataclass(frozen=True)
class Invariant:
    matrix: np.ndarray
    branches: tuple  # (ambient_label, integer coefficient vector) per class

    def branch_vector(self, ambient_label):
        for lam, v in self.branches:
            if lam == ambient_label:
                return v
        raise KeyError(ambient_label)


def _square_split(R, sups):
    """The first b_L, one per support in order, with R = sum_L b_L b_L^T,
    each nonnegative and zero off its support; None if there is none. Each
    b_L runs in ascending lexicographic order under the proven bound
    b_mu^2 <= R_mu_mu, and what it leaves must lie in the later squares."""
    if not sups:
        return None if R.any() else []
    later = np.zeros(R.shape, dtype=bool)
    for c in sups[1:]:
        later[np.ix_(c, c)] = True
    for coeffs in product(*(range(isqrt(int(R[c, c])) + 1) for c in sups[0])):
        b = np.zeros(len(R), dtype=np.int64)
        b[sups[0]] = coeffs
        left = R - np.outer(b, b)
        if left.min() >= 0 and not left[~later].any():
            if (rest := _square_split(left, sups[1:])) is not None:
                return [b, *rest]
    return None


def solve_invariant(data: md.ModularData, classes):
    """All M = sum of per-class squares commuting with s and t, sorted so
    the smallest Tr(M^T M) comes first.

    The unknowns are M_ij, i <= j, in some class's support square with
    h_i - h_j an integer; M is symmetric and zero elsewhere, so it commutes
    with t. It commutes with s exactly when it commutes with every integer
    layer of md.s_numerators. Those equations and M_00 = 1 form one
    LinearSystem, whose points are enumerated under Gannon's bound:
    S^-1 M S = M, M >= 0 and S_0 > 0 give sum_ij S_0i M_ij S_0j = M_00 = 1,
    so M_ij <= 1/(S_0i S_0j), floored after a 1e-9 relative margin up, far
    above the rounding of s. Each point is split into the classes' squares,
    vacuum class first, and the first split is kept (_square_split); a
    point with no split is dropped.
    """
    if data.labels[0] != (0,) * data.spec.rank:
        raise CertificationError("invariant", f"label 0 is {data.labels[0]}, not the vacuum")
    vac_classes = [c for c in classes if c.ambient_h == 0]
    if len(vac_classes) != 1:
        raise CertificationError("invariant", f"{len(vac_classes)} vacuum classes, not one")
    order = vac_classes + [c for c in classes if c is not vac_classes[0]]
    sups = [[data.index[mu] for mu in c.support] for c in order]
    if 0 not in sups[0]:
        raise CertificationError("invariant", "the vacuum class does not branch to the vacuum")

    r, hs = len(data.labels), data.hs
    cells = sorted({(i, j) for sup in sups for i in sup for j in sup
                    if i <= j and (hs[i] - hs[j]).denominator == 1})
    iu, ju = np.array(cells).T
    n = len(cells)
    _, Z = md.s_numerators(data)
    # a row of E_u has one nonzero entry, so an entry of E_u Zj - Zj E_u is
    # a difference of two entries of Zj
    dt = xla.product_dtype(2 * int(np.abs(Z).max()))
    E = np.zeros((n, r, r), dtype=dt)  # E[u]: the symmetric unit matrix of cell u
    E[np.arange(n), iu, ju] = E[np.arange(n), ju, iu] = 1
    sys = xla.LinearSystem(n)
    for Zj in Z.astype(dt):
        A = (E @ Zj - Zj @ E).reshape(n, -1).T.astype(np.int64)  # column u: [E_u, Zj]
        sys.add(A[A.any(axis=1)])
    sys.add(np.eye(n, dtype=np.int64)[cells.index((0, 0))], 1)
    s0 = data.s[0].real
    caps = np.floor((1 + 1e-9) / (s0[iu] * s0[ju])).astype(np.int64)

    res, sols = sys.rref(), []
    for x in xla.lattice_points(res, caps) if res.consistent else []:
        M = np.zeros((r, r), dtype=np.int64)
        M[iu, ju] = M[ju, iu] = x
        if (parts := _square_split(M, sups)) is not None:
            sols.append(Invariant(M, tuple((c.ambient_label, b) for c, b in zip(order, parts))))
    return sorted(sols, key=lambda inv: (int((inv.matrix * inv.matrix).sum()), inv.matrix.tobytes()))


def pick_invariant(sols) -> Invariant:
    if not sols:
        raise NoInvariantError("no invariant found in the square-sum ansatz")
    return sols[0]

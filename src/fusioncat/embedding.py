"""Conformal embeddings: the central-charge Diophantine scan, branching
candidates gated by conformal dimensions, and the exact invariant solver.

The scan answers: for which positive integer levels k does the level-k
central charge of the base algebra equal the level-1 central charge of some
other simple algebra. Everything is Fractions; a solution is a solution
exactly or not at all.

The invariant solver takes the branching classes and looks for sums of
rank-one squares M = sum_L b_L b_L^T (one nonnegative integer vector per
ambient class, vacuum coefficient pinned to 1) that commute with s and t.
Candidates are cut down by a vacuum-row residual argument before any full
commutator is formed: row 0 of [M, s] = 0 says a^T s = (s_0 a) a^T plus one
rank-one term per class, so the residual after peeling the vacuum class must
be supported exactly where the remaining classes live, and must be matched
there class by class.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import product

import numpy as np

from . import CertificationError
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


def solve_invariant(data: md.ModularData, classes, box: int = 4, tol: float = 1e-7):
    """All M = sum of per-class squares commuting with s and t, deduplicated,
    sorted so the smallest Tr(M^dagger M) comes first.

    box bounds every branching coefficient; 4 is generous for everything at
    desk scale (coefficients here are 1 or 2).
    """
    idx, s, t = data.index, data.s, data.t
    r = len(data.labels)
    vac = 0
    if data.labels[0] != (0,) * data.spec.rank:
        raise CertificationError("invariant", f"label 0 is {data.labels[0]}, not the vacuum")
    vac_classes = [c for c in classes if c.ambient_h == 0]
    if len(vac_classes) != 1:
        raise CertificationError("invariant", f"{len(vac_classes)} vacuum classes, not one")
    order = vac_classes + [c for c in classes if c is not vac_classes[0]]
    sups = [[idx[mu] for mu in c.support] for c in order]
    if vac not in sups[0]:
        raise CertificationError("invariant", "the vacuum class does not branch to the vacuum")

    # after peeling class j, coordinates that no later class touches must
    # carry no residual
    last_touch = np.zeros(r, dtype=np.int64)
    for j, sup in enumerate(sups):
        for c in sup:
            last_touch[c] = max(last_touch[c], j)
    finalized = [np.nonzero(last_touch <= j)[0] for j in range(len(order))]

    s0 = s[0]
    found = {}

    def vector(sup, coeffs):
        v = np.zeros(r)
        for c, x in zip(sup, coeffs):
            v[c] = x
        return v

    def dfs(j, resid, parts):
        if j == len(order):
            M = np.zeros((r, r), dtype=np.int64)
            for b in parts:
                M += np.outer(b, b).astype(np.int64)
            if np.abs(M @ s - s @ M).max() > tol:
                return
            if np.abs(M @ t - t @ M).max() > tol:
                return
            branches = tuple(
                (c.ambient_label, b.astype(np.int64)) for c, b in zip(order, parts)
            )
            found.setdefault(M.tobytes(), Invariant(M, branches))
            return
        sup = sups[j]
        for coeffs in product(range(box + 1), repeat=len(sup)):
            b = vector(sup, coeffs)
            nxt = resid - (s0 @ b) * b
            if np.abs(nxt[finalized[j]]).max() > tol:
                continue
            dfs(j + 1, nxt, parts + [b])

    vac_sup = sups[0]
    vpos = vac_sup.index(vac)
    free = [c for i, c in enumerate(vac_sup) if i != vpos]
    for coeffs in product(range(box + 1), repeat=len(free)):
        a = np.zeros(r)
        a[vac] = 1
        for c, x in zip(free, coeffs):
            a[c] = x
        resid = a @ s - (s0 @ a) * a
        if np.abs(resid[finalized[0]]).max() > tol:
            continue
        dfs(1, resid, [a])

    sols = sorted(
        found.values(),
        key=lambda inv: (int((inv.matrix * inv.matrix).sum()), inv.matrix.tobytes()),
    )
    return sols


def pick_invariant(sols) -> Invariant:
    if not sols:
        raise NoInvariantError("no invariant found in the square-sum ansatz")
    return sols[0]

"""Weight-lattice arithmetic for the A and B series, all of it exact.

Weights are tuples of Dynkin labels. The only data a downstream consumer
needs from here are the inner-product form on fundamental weights, alcove
enumeration at a level, conformal dimensions, and the permutation model of
the A-series Weyl group. No floats anywhere in this module.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from . import CertificationError

__all__ = [
    "AlgebraSpec",
    "algebra",
    "quadratic_form",
    "inner",
    "weight_level",
    "enumerate_alcove",
    "conformal_dimension",
    "central_charge",
    "conjugate",
    "n_ality",
    "barycentric",
    "labels_from_barycentric",
    "weyl_group",
]


@dataclass(frozen=True)
class AlgebraSpec:
    """A simple Lie algebra named by Cartan family and rank."""

    family: str
    rank: int

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def dual_coxeter(self) -> int:
        if self.family == "A":
            return self.rank + 1
        if self.family == "B":
            return 2 * self.rank - 1
        raise ValueError(f"unsupported family {self.family!r}")

    @property
    def dim(self) -> int:
        n = self.rank
        if self.family == "A":
            return n * (n + 2)
        if self.family == "B":
            return n * (2 * n + 1)
        raise ValueError(f"unsupported family {self.family!r}")

    @property
    def comarks(self):
        n = self.rank
        if self.family == "A":
            return (1,) * n
        # B series: (1, 2, ..., 2, 1); rank >= 2 enforced in algebra()
        return (1,) + (2,) * (n - 2) + (1,)


@lru_cache(maxsize=None)
def algebra(family: str, rank: int) -> AlgebraSpec:
    if family not in ("A", "B"):
        raise ValueError(f"unsupported family {family!r}")
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    if family == "B" and rank < 2:
        raise ValueError("B1 is A1; ask for that instead")
    return AlgebraSpec(family, rank)


@lru_cache(maxsize=None)
def quadratic_form(spec: AlgebraSpec):
    """Inner products of fundamental weights, normalized to long roots of
    length squared 2. Returned as a tuple-of-tuples of Fractions.

    For A_n this is min(i,j) - ij/N; for B_n the last fundamental weight is
    the spinor and picks up the half-integral column.
    """
    n = spec.rank
    if spec.family == "A":
        N = n + 1
        return tuple(
            tuple(Fraction(min(i, j) * (N - max(i, j)), N) for j in range(1, N))
            for i in range(1, N)
        )

    def q(i, j):
        i, j = min(i, j), max(i, j)
        if j < n:
            return Fraction(i)
        if i < n:
            return Fraction(i, 2)
        return Fraction(n, 4)

    return tuple(tuple(q(i, j) for j in range(1, n + 1)) for i in range(1, n + 1))


def inner(spec: AlgebraSpec, x, y) -> Fraction:
    """<x, y> = sum_ij x_i Q_ij y_j for the quadratic form Q, summed over
    the integer form D Q (see _integer_form) and divided by D once."""
    D, M = _integer_form(spec)
    n = spec.rank
    if len(x) != n or len(y) != n:
        raise ValueError(f"{spec.name} weights have {n} Dynkin labels, not {len(x)} and {len(y)}")
    return Fraction(sum(a * sum(m * b for m, b in zip(row, y)) for a, row in zip(x, M)), D)


@lru_cache(maxsize=None)
def _integer_form(spec: AlgebraSpec):
    """(D, M): D the lcm of the denominators of quadratic_form, M the form
    times D, as integers."""
    Q = quadratic_form(spec)
    D = lcm(*(q.denominator for row in Q for q in row))
    return D, tuple(tuple(int(q * D) for q in row) for row in Q)


def weight_level(spec: AlgebraSpec, lam) -> int:
    return sum(c * x for c, x in zip(spec.comarks, lam))


def enumerate_alcove(spec: AlgebraSpec, k: int):
    """All integrable highest weights at level k, in canonical order:
    ascending level, lexicographically descending within a level."""
    if k < 0:
        raise ValueError(f"level must be nonnegative, got {k}")
    cm = spec.comarks

    def fill(i, budget):
        # every tail w[i:] with sum_j cm[j] w[j] <= budget
        if i == len(cm):
            yield ()
            return
        for x in range(budget // cm[i] + 1):
            for rest in fill(i + 1, budget - cm[i] * x):
                yield (x, *rest)

    out = list(fill(0, k))
    out.sort(key=lambda w: (weight_level(spec, w), tuple(-x for x in w)))
    return out


def conformal_dimension(spec: AlgebraSpec, k: int, lam) -> Fraction:
    """h = <lam, lam + 2 rho> / (2 (k + g))."""
    shifted = tuple(x + 2 for x in lam)
    return inner(spec, lam, shifted) / (2 * (k + spec.dual_coxeter))


def central_charge(spec: AlgebraSpec, k: int) -> Fraction:
    return Fraction(k * spec.dim, k + spec.dual_coxeter)


def conjugate(spec: AlgebraSpec, lam):
    if spec.family == "A":
        return tuple(reversed(lam))
    return tuple(lam)  # B-series representations are self-conjugate


def n_ality(spec: AlgebraSpec, lam) -> int:
    """Z_{N} grading of an A-series weight (congruence class of the rep)."""
    if spec.family != "A":
        raise ValueError(f"n-ality is graded for the A series only, not {spec.name}")
    N = spec.rank + 1
    return sum((i + 1) * x for i, x in enumerate(lam)) % N


def barycentric(lam):
    """Traceless partial-sum coordinates of an A-series weight.

    len(lam)+1 entries; adjacent differences give back the Dynkin labels.
    """
    ext = tuple(lam) + (0,)
    N = len(ext)
    sums = [Fraction(sum(ext[i:])) for i in range(N)]
    mean = sum(sums) / N
    return tuple(s - mean for s in sums)


def labels_from_barycentric(coords):
    return tuple(coords[i] - coords[i + 1] for i in range(len(coords) - 1))


@lru_cache(maxsize=None)
def weyl_group(N: int):
    """The A-series Weyl group as permutations of N barycentric slots.

    Generated by adjacent transpositions and closed off by breadth-first
    search; returns {perm: signature}. Order is N!.
    """
    ident = tuple(range(N))
    gens = []
    for i in range(N - 1):
        g = list(ident)
        g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))
    seen = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(N))
                if q not in seen:
                    seen[q] = -seen[p]
                    nxt.append(q)
        frontier = nxt
    if len(seen) != factorial(N):
        raise CertificationError("weyl_group", f"the closure has {len(seen)} elements, not {N}!")
    return seen

"""Exact integer linear algebra, sized for the problems in this package.

One fraction-free echelon core serves IntSpan (an incremental row space that
also writes a member over the inserted basis), LinearSystem (A x = b, whose
reduced form gives each pivot unknown by an integer row
d x_p + sum_f a_f x_f = b over the free unknowns) and lattice_points (the
bounded nonnegative integer points of that solution space).

The core's rows are primitive, positive in their own pivot column and zero
in every other pivot column. A vector is reduced against all of them in one
step after scaling by the lcm of their pivot entries, so no rational number
is ever formed: the integer-preserving elimination of Bareiss (1968),
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", with row contents divided out. Arithmetic is numpy int64 when
an explicit bound keeps every intermediate below 2**62, Python ints
(object arrays) otherwise. product_dtype applies the same rule to integer
matrix products elsewhere in the package, with float64 (BLAS) first: its
sums of integers are exact up to 2**53.
"""

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from . import CertificationError

__all__ = ["product_dtype", "IntSpan", "coeff_splits", "square_split_options", "LinearSystem",
           "RrefResult", "lattice_points"]

# int64 holds every intermediate value below this bound
_SAFE = 2**62


def _exact(bound):
    """The dtype that holds every integer of magnitude below `bound`."""
    return np.int64 if bound < _SAFE else object


def product_dtype(bound):
    """The dtype in which an integer matrix product is exact when no partial
    sum exceeds `bound` in magnitude: float64 up to 2**53, where BLAS adds
    integers without rounding, else the exact integer dtype."""
    return np.float64 if bound <= 2**53 else _exact(bound + 1)


def _absmax(a) -> int:
    return int(abs(a).max()) if a.size else 0


class _Echelon:
    """Reduced integer rows. Pivots are taken among the first `npivot`
    columns; the columns after them (a right-hand side, coordinate tags)
    ride along in every row operation."""

    def __init__(self, npivot, width):
        self.npivot = npivot
        self._buf = np.zeros((8, width), dtype=np.int64)  # rows, then spare room
        self.pivots = np.zeros(0, dtype=np.intp)
        self.lead = []  # pivot entry of each row, positive
        self.top = []  # largest absolute entry of each row

    @property
    def rows(self):
        return self._buf[: len(self.lead)]

    def reduce(self, v, vmax):
        """(w, c): w = c v minus a combination of the rows, zero in every
        pivot column, with c > 0. `vmax` bounds the entries of v."""
        a = v[self.pivots]
        hit = a.nonzero()[0]
        if not hit.size:
            return v, 1
        lead = [self.lead[i] for i in hit]
        D = lcm(*lead)
        coef = [int(a[i]) * (D // l) for i, l in zip(hit, lead)]
        dt = _exact(D * vmax + sum(abs(c) * self.top[i] for c, i in zip(coef, hit)))
        R = self._buf[hit].astype(dt, copy=False)
        return D * v.astype(dt, copy=False) - np.array(coef, dtype=dt) @ R, D

    def insert(self, w):
        """Add a reduced row whose pivot part is nonzero, and clear its
        pivot column from the other rows."""
        p = int(w[: self.npivot].nonzero()[0][0])
        w = w // (int(np.gcd.reduce(w)) * (1 if w[p] > 0 else -1))
        wp, wmax = int(w[p]), _absmax(w)
        hit = self.rows[:, p].nonzero()[0]
        if hit.size:
            f = self._buf[hit, p]
            dt = _exact(wp * max(self.top[i] for i in hit) + _absmax(f) * wmax)
            R = wp * self._buf[hit].astype(dt) - np.outer(f.astype(dt), w.astype(dt))
            R //= np.gcd.reduce(R, axis=1)[:, None]
            self._store(hit, R)
            for i, row in zip(hit, R):
                self.lead[i], self.top[i] = int(row[self.pivots[i]]), _absmax(row)
        if len(self.lead) == len(self._buf):
            self._buf = np.concatenate([self._buf, np.zeros_like(self._buf)])
        self._store([len(self.lead)], w[None])
        self.pivots = np.append(self.pivots, p)
        self.lead.append(wp)
        self.top.append(wmax)

    def _store(self, at, R):
        # the buffer turns to Python ints for good once a row outgrows int64
        if R.dtype == object and self._buf.dtype != object and _absmax(R) >= _SAFE:
            self._buf = self._buf.astype(object)
        self._buf[at] = R


class IntSpan:
    """Incremental exact row space of integer vectors. Each stored row
    carries, in tag columns, its integer combination of the inserted basis
    (the vectors add() accepted), so coords() needs no second solve."""

    def __init__(self):
        self._core = None
        self._n = 0

    def _reduce(self, vec):
        v = np.asarray(vec)
        vmax = _absmax(v)
        v = v.astype(_exact(vmax))
        if self._core is None:
            self._n = len(v)
            self._core = _Echelon(self._n, 2 * self._n)
        # one tag column per basis vector; the rank is at most n
        return self._core.reduce(np.concatenate([v, np.zeros(self._n, dtype=v.dtype)]), vmax)

    def coords(self, vec):
        """(numerators, denominator) of vec over the inserted basis, in
        lowest terms with a positive denominator; None outside the span."""
        w, c = self._reduce(vec)
        if w[: self._n].any():
            return None
        u = [-int(x) for x in w[self._n : self._n + self.rank]]
        g = gcd(c, *u)
        return [x // g for x in u], c // g

    def add(self, vec) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        w, c = self._reduce(vec)
        if not w[: self._n].any():
            return False
        # the new row is c * vec minus earlier rows: tag the new basis vector
        w[self._n + self.rank] = c
        self._core.insert(w)
        return True

    @property
    def rank(self) -> int:
        return len(self._core.lead) if self._core else 0


def _partitions(total, maxc, parts, sq):
    """Weakly decreasing tuples of at most `parts` positive integers, each at
    most maxc, with sum total and sum of squares at most sq."""
    if total == 0:
        yield ()
    elif parts:
        for c in range(min(total, maxc), 0, -1):
            if c * c <= sq:
                for rest in _partitions(total - c, c, parts - 1, sq - c * c):
                    yield (c, *rest)


def coeff_splits(total, sq):
    """Multisets of positive integers with the given sum and sum of squares,
    each returned in weakly decreasing order."""
    return [p for p in _partitions(total, total, total, sq) if sum(c * c for c in p) == sq]


def square_split_options(c, parts):
    """All achievable sums of squares when writing c as at most `parts`
    positive integers. {0} when c == 0."""
    return {sum(x * x for x in p) for p in _partitions(c, c, parts, c * c)}


@dataclass
class RrefResult:
    """Reduced form of A x = b: the unknown pivot_cols[i] obeys
    lead[i] x_p + coeffs[i] . x[free_cols] = rhs[i], with lead[i] > 0."""

    consistent: bool
    ncols: int
    pivot_cols: list
    free_cols: list
    lead: np.ndarray
    coeffs: np.ndarray  # rank x len(free_cols)
    rhs: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


class LinearSystem:
    """Exact linear system A x = b, given one dense integer row at a time
    and reduced as the rows arrive. The reduced form is canonical, so it
    does not depend on the order of the rows or on repeats among them.
    Inconsistency is detected on insertion and reported by rref()."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._core = _Echelon(ncols, ncols + 1)  # the last column is the right-hand side
        self._consistent = True

    def add(self, row, rhs=0):
        """Append the equation row . x = rhs; `row` has ncols integers."""
        if not self._consistent:
            return
        v = np.append(np.asarray(row), rhs)
        big = _absmax(v)
        w, _ = self._core.reduce(v.astype(_exact(big)), big)
        if not w[:-1].any():
            if w[-1]:
                self._consistent = False
            return
        self._core.insert(w)

    def rref(self) -> RrefResult:
        core = self._core
        order = np.argsort(core.pivots, kind="stable")
        piv = [int(p) for p in core.pivots[order]]
        free = sorted(set(range(self.ncols)) - set(piv))
        R = core.rows[order]
        lead = R[np.arange(len(piv)), piv]
        return RrefResult(self._consistent, self.ncols, piv, free, lead, R[:, free], R[:, -1])


def lattice_points(res: RrefResult, caps):
    """Nonnegative integer solutions of the reduced system, with every
    coordinate bounded above by caps[col] inclusive, as full-length lists of
    ints in lexicographic order of the free values.

    Depth-first over the free columns. Pivot row i needs
    0 <= rhs_i - coeffs_i . x <= lead_i caps[p_i]; the unassigned free
    columns can move that value by at most the suffix sums of their positive
    and negative parts times their caps, so one comparison of integer
    vectors prunes every row at each node. Integrality is checked at leaves.
    """
    if not res.consistent:
        raise CertificationError("lattice_points", "the system has no rational solution")
    free, piv = res.free_cols, res.pivot_cols
    cf = [int(caps[c]) for c in free]
    top = [int(d) * int(caps[p]) for d, p in zip(res.lead, piv)]
    reach = [
        abs(int(b)) + sum(abs(int(x)) * c for x, c in zip(row, cf)) + t
        for b, row, t in zip(res.rhs, res.coeffs, top)
    ]
    dt = _exact(max(reach, default=0))
    A, rhs, lead = res.coeffs.astype(dt), res.rhs.astype(dt), res.lead.astype(dt)

    def suffix(P):  # row k: sums over the free columns k.., last row zero
        return np.vstack([np.cumsum(P[:, ::-1], axis=1)[:, ::-1].T, np.zeros((1, len(piv)), dt)])

    # the least and the most the unassigned free columns can subtract
    lo = suffix(np.where(A < 0, A, 0) * np.array(cf, dtype=dt))
    hi = suffix(np.where(A > 0, A, 0) * np.array(cf, dtype=dt)) + np.array(top, dtype=dt)
    cols = A.T.copy()
    sols = []
    assign = [0] * len(free)

    def dfs(depth, r):
        if depth == len(free):
            if (r % lead).any():
                return
            x = [0] * res.ncols
            for c, val in [*zip(free, assign), *zip(piv, (r // lead).tolist())]:
                x[c] = int(val)
            sols.append(x)
            return
        for val in range(cf[depth] + 1):
            rv = r - val * cols[depth]
            if (rv >= lo[depth + 1]).all() and (rv <= hi[depth + 1]).all():
                assign[depth] = val
                dfs(depth + 1, rv)

    if (rhs >= lo[0]).all() and (rhs <= hi[0]).all():
        dfs(0, rhs)
    return sols

"""Exact integer linear algebra, sized for the problems in this package.

One fraction-free echelon core serves IntSpan (an incremental row space that
also writes a member over the inserted basis), LinearSystem (A x = b, whose
reduced form gives each pivot unknown by an integer row
d x_p + sum_f a_f x_f = b over the free unknowns) and lattice_points (the
bounded nonnegative integer points of that solution space).

The core's rows are primitive, positive in their own pivot column and zero
in every other pivot column. A block of vectors is reduced against all of
them in one product after scaling by the lcm of their pivot entries, so no
rational number is ever formed: the integer-preserving elimination of
Bareiss (1968), "Sylvester's identity and multistep integer-preserving
Gaussian elimination", with row contents divided out. What is left of the
block is brought to the same form and merged in, again one product for the
old rows. Arithmetic is numpy int64 when an explicit bound keeps every
intermediate below 2**62, Python ints (object arrays) otherwise.
product_dtype applies the same rule to integer matrix products, with
the BLAS float dtypes first: float32 up to 2**24, float64 up to 2**53, where
their sums of integers are exact.
"""

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from . import CertificationError

__all__ = ["product_dtype", "IntSpan", "coeff_splits", "square_split_options", "LinearSystem",
           "RrefResult", "lattice_points"]

# int64 holds every intermediate value below this bound
_SAFE = 2**62
# multiply-adds in one product of a stack, float32 up to 2**24 and float64
# up to 2**53 (product_dtype); bounds its working set
_SMALL = 2**18


def _exact(bound):
    """The dtype that holds every integer of magnitude below `bound`."""
    return np.int64 if bound < _SAFE else object


def product_dtype(bound):
    """The dtype in which an integer matrix product is exact when no partial
    sum exceeds `bound` in magnitude: float32 up to 2**24 and float64 up to
    2**53, the largest integers each holds exactly, so BLAS adds them
    without rounding; else the exact integer dtype. Every partial sum of
    any subset of the terms is an integer no larger than the bound, so the
    order in which BLAS adds them does not matter. float32 halves the
    working set of the products and of the stacks they read.

    In a float dtype, state the work as stacks of small products, never as
    one wide product: a stack bounds the working set, where one
    (2304, 48) @ (48, 1225) float64 product holds a 22.6 MB result. The
    package runs OpenBLAS on one thread (see fusioncat/__init__.py), and
    there a stack costs no more than one product: on a 2-vCPU machine the
    48 right-hand sides (48, 48) @ (48, 35) of slot_symmetry_map took
    0.18 ms as one stack and 0.28 ms as one (2304, 48) @ (48, 35) product
    (float64). With two threads the single product took 3.3 ms."""
    if bound <= 2**24:
        return np.float32
    return np.float64 if bound <= 2**53 else _exact(bound + 1)


def _absmax(a) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


class _Echelon:
    """Reduced integer rows. Pivots are taken among the first `npivot`
    columns; the columns after them (a right-hand side, coordinate tags)
    ride along in every row operation."""

    def __init__(self, npivot, rows, reduced=False):
        """`rows` must be reduced against each other: the pivot of each, its
        first nonzero column among the first `npivot`, is zero in the
        others. They are kept primitive and positive at their pivots;
        `reduced` says they are so already, as the rows of an RrefResult
        are, and the echelon keeps `rows` itself."""
        self.npivot = npivot
        self.pivots = (rows[:, :npivot] != 0).argmax(axis=1)
        at = np.arange(len(rows)), self.pivots
        if not reduced:
            rows = _primitive(rows) * np.where(rows[at] > 0, 1, -1)[:, None]
        self._buf = _fit(rows)  # the rows, then spare room
        self.lead = rows[at].tolist()
        self.top = np.abs(rows).max(axis=1).tolist() if rows.size else []  # largest |entry|

    @property
    def rows(self):
        return self._buf[: len(self.lead)]

    def reduce(self, V, vmax):
        """(W, D): every row of W is D times that row of V minus a
        combination of the rows, zero in every pivot column, with D > 0.
        `vmax` bounds the entries of V, which may be reduced in place and
        returned as W: every caller passes a block it built for this call.
        One product serves the whole block, and only over the columns where
        it can be nonzero: the pivot columns cancel by construction."""
        A = V[:, self.pivots]
        hit = A.any(axis=0).nonzero()[0]
        if not hit.size:
            return V, 1
        A, piv, rows = A[:, hit], self.pivots[hit], hit.tolist()
        lead = [self.lead[i] for i in rows]
        D = lcm(*lead)
        scale = [D // l for l in lead]
        reach = max(s * self.top[i] for s, i in zip(scale, rows))
        psum = len(rows) * _absmax(A) * reach
        dt, pdt = _exact(D * vmax + psum), product_dtype(psum)
        R = self._buf[hit]
        cols = R.any(axis=0)
        cols[piv] = False
        cols = cols.nonzero()[0]
        C = A if D == 1 else A.astype(dt) * np.array(scale, dtype=dt)
        C, B = C.astype(pdt), R[:, cols].astype(pdt)
        W = V.astype(dt, copy=False)
        if D != 1:
            W *= D
        W[:, piv] = 0
        # the product runs in float32 up to 2**24 and in float64 up to
        # 2**53; stacked row slices bound the working set of each to _SMALL
        # multiply-adds, and on one BLAS thread the doublet constraints
        # reduce as fast as with one product per block
        step = max(1, _SMALL // max(1, B.size))
        for s in range(0, len(W), step):
            W[s : s + step, cols] -= _integral(C[s : s + step] @ B, dt)
        return W, D

    def merge(self, new):
        """Add the rows of `new`, an echelon of rows reduced against these,
        and clear its pivot columns from these rows in one reduction."""
        if not new.lead:
            return
        n, k = len(self.lead), len(new.lead)
        hit = self.rows[:, new.pivots].any(axis=1).nonzero()[0]
        if hit.size:
            R = _primitive(new.reduce(self._buf[hit], max(self.top[i] for i in hit))[0])
            self._store(hit, R)
            lead = R[np.arange(len(hit)), self.pivots[hit]]
            for i, l, t in zip(hit.tolist(), lead.tolist(), np.abs(R).max(axis=1).tolist()):
                self.lead[i], self.top[i] = l, t
        if n + k > len(self._buf):
            buf = np.empty((2 * n + k, self._buf.shape[1]), dtype=self._buf.dtype)
            buf[:n] = self.rows
            self._buf = buf
        self._store(np.arange(n, n + k), new.rows)
        self.pivots = np.concatenate([self.pivots, new.pivots])
        self.lead += new.lead
        self.top += new.top

    def _store(self, at, R):
        # the rows turn to Python ints for good once one outgrows int64
        R = _fit(R)
        if R.dtype == object:
            self._buf = self._buf.astype(object)
        self._buf[at] = R


def _echelonize(W, npivot):
    """The echelon of W's row space, for rows W already reduced against
    another echelon; None when some combination of them is zero in the
    first `npivot` columns but not in the rest.

    In rounds: of the first rows to lead in each column, those that are
    zero where the others lead are reduced already; they join, and the rest
    is reduced against them in one product. The last leading column always
    joins, and on sparse blocks a round takes dozens of rows."""
    out = _Echelon(npivot, W[:0])
    while len(W := W[W.any(axis=1)]):
        lc = (W[:, :npivot] != 0).argmax(axis=1)
        if not W[np.arange(len(W)), lc].all():
            return None
        first = np.unique(lc, return_index=True)[1]
        alone = first[np.count_nonzero(W[first][:, lc[first]], axis=1) == 1]
        step = _Echelon(npivot, W[alone])
        out.merge(step)
        rest = np.ones(len(W), dtype=bool)
        rest[alone] = False
        W = step.reduce(W[rest], _absmax(W))[0]
    return out


def _integral(P, dt):
    """An exact integer product P in dtype dt (Python ints, not floats, when
    dt is object)."""
    return P.astype(np.int64).astype(dt) if P.dtype.kind == "f" else P.astype(dt)


def _fit(R):
    """R in int64 when its entries allow it, else Python ints."""
    return R.astype(np.int64) if R.dtype == object and _absmax(R) < _SAFE else R


def _primitive(R):
    """Every row of R divided by its content; a zero row stays zero."""
    g = np.gcd.reduce(R, axis=1)
    g[g == 0] = 1
    return R // g[:, None]


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
            self._core = _Echelon(self._n, np.zeros((0, 2 * self._n), dtype=np.int64))
        # one tag column per basis vector; the rank is at most n
        W, c = self._core.reduce(np.concatenate([v, np.zeros(self._n, dtype=v.dtype)])[None], vmax)
        return W[0], c

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
        self._core.merge(_Echelon(self._n, w[None]))
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
    lead[i] x_p + coeffs[i] . x[free_cols] = rhs[i], with lead[i] > 0;
    rhs[i] is a row when b is a block of right-hand sides."""

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

    def rows(self, rhs=False):
        """The reduced rows, one per pivot, over the ncols unknowns, and with
        `rhs` the right-hand side as one more column. Of a homogeneous
        system, the rows without it are a basis of the row space."""
        rows = np.zeros((self.rank, self.ncols + rhs), dtype=self.coeffs.dtype)
        rows[np.arange(self.rank), self.pivot_cols] = self.lead
        rows[:, self.free_cols] = self.coeffs
        if rhs:
            rows[:, -1] = self.rhs
        return rows


class LinearSystem:
    """Exact linear system A x = b, given as blocks of dense integer rows and
    reduced as they arrive. The reduced form is canonical, so it does not
    depend on the order of the rows, on repeats among them or on how they
    are split into blocks. Inconsistency is detected on insertion and
    reported by rref()."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        # the echelon of [A | b], made by the first block added
        self._core = None
        self._consistent = True

    def add(self, rows, rhs=0):
        """Append the equations rows . x = rhs: `rows` is one row of ncols
        integers or a block of them, `rhs` a number, one per row, or one
        row of k right-hand sides per row, k fixed by the first block added.

        The block is reduced against the echelon in one product, what is
        left is brought to reduced form on its own, and that is merged in
        with one more product for the old rows. A block that contradicts
        itself or the echelon makes the system inconsistent; from then on
        rows are ignored."""
        if not self._consistent:
            return
        A = np.atleast_2d(np.asarray(rows))
        V = np.column_stack([A, np.broadcast_to(rhs, (len(A),) + np.shape(rhs)[1:])])
        if self._core is None:
            self._core = _Echelon(self.ncols, V[:0])
        big = _absmax(V)
        W, _ = self._core.reduce(V.astype(_exact(big), copy=False), big)
        new = _echelonize(W, self.ncols)
        if new is None:
            self._consistent = False
        else:
            self._core.merge(new)

    @classmethod
    def from_rref(cls, res):
        """The system whose reduced form is `res`, stated from its rows
        without reducing them again; rows added to it leave `res`
        unchanged."""
        out = cls(res.ncols)
        out._core = _Echelon(res.ncols, res.rows(rhs=True), reduced=True)
        out._consistent = res.consistent
        return out

    def rref(self) -> RrefResult:
        core = self._core or _Echelon(self.ncols, np.zeros((0, self.ncols + 1), dtype=np.int64))
        order = np.argsort(core.pivots, kind="stable")
        piv = [int(p) for p in core.pivots[order]]
        free = sorted(set(range(self.ncols)) - set(piv))
        R = core.rows[order]
        lead = R[np.arange(len(piv)), piv]
        # a copy of the right-hand sides, so the result does not keep every row
        rhs = R[:, self.ncols :] if R.shape[1] > self.ncols + 1 else R[:, -1]
        return RrefResult(self._consistent, self.ncols, piv, free, lead, R[:, free], rhs.copy())


def lattice_points(res: RrefResult, caps):
    """Nonnegative integer solutions of the reduced system, with every
    coordinate bounded above by caps[col] inclusive, as full-length lists of
    ints in lexicographic order of the free values.

    Pivot row i needs 0 <= rhs_i - coeffs_i . x <= lead_i caps[p_i]. A row
    with no free coefficient is a constant, checked once for those bounds
    and for divisibility by its lead. The other rows are searched depth
    first over the free columns: the unassigned ones can move the value by
    at most the suffix sums of their positive and negative parts times their
    caps, so one comparison of integer vectors prunes every row at each
    node. Integrality is checked at leaves.
    """
    if not res.consistent:
        raise CertificationError("lattice_points", "the system has no rational solution")
    free, piv = res.free_cols, np.array(res.pivot_cols, dtype=np.int64)
    cf = [int(caps[c]) for c in free]
    top = np.array([int(d) * int(caps[p]) for d, p in zip(res.lead, piv)], dtype=object)
    # no value met below exceeds this in magnitude
    dt = _exact(_absmax(res.rhs) + _absmax(res.coeffs) * sum(cf) + _absmax(top))
    A, rhs, lead, top = res.coeffs.astype(dt), res.rhs.astype(dt), res.lead.astype(dt), top.astype(dt)
    fixed = ~A.any(axis=1)
    r0, l0 = rhs[fixed], lead[fixed]
    if (r0 < 0).any() or (r0 > top[fixed]).any() or (r0 % l0).any():
        return []
    x0 = np.zeros(res.ncols, dtype=object)
    x0[piv[fixed]] = r0 // l0
    piv, A, rhs, lead, top = (v[~fixed] for v in (piv, A, rhs, lead, top))

    def suffix(P):  # row k: sums over the free columns k.., last row zero
        return np.vstack([np.cumsum(P[:, ::-1], axis=1)[:, ::-1].T, np.zeros((1, len(piv)), dt)])

    # the least and the most the unassigned free columns can subtract
    lo = suffix(np.where(A < 0, A, 0) * np.array(cf, dtype=dt))
    hi = suffix(np.where(A > 0, A, 0) * np.array(cf, dtype=dt)) + top
    cols = A.T.copy()
    sols = []
    assign = [0] * len(free)

    # dfs is handed itself: a closure over its own name would be a reference
    # cycle, keeping everything it closes over alive until the cyclic
    # collector runs
    def dfs(dfs, depth, r):
        if depth == len(free):
            if (r % lead).any():
                return
            x = x0.copy()
            x[free], x[piv] = assign, r // lead
            sols.append([int(v) for v in x])
            return
        for val in range(cf[depth] + 1):
            rv = r - val * cols[depth]
            if (rv >= lo[depth + 1]).all() and (rv <= hi[depth + 1]).all():
                assign[depth] = val
                dfs(dfs, depth + 1, rv)

    if (rhs >= lo[0]).all() and (rhs <= hi[0]).all():
        dfs(dfs, 0, rhs)
    return sols

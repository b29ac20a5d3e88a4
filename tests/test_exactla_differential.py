"""The integer echelon core against sympy, and the lattice enumerator
against brute force, on small random integer systems drawn by hypothesis;
and the reduced form's independence of row order and repeated rows.

Both libraries are optional: without them this module is skipped.
"""

import itertools
from math import gcd

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from fusioncat import exactla as xla  # noqa: E402

SETTINGS = hypothesis.settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)


def matrices(max_rows=5, max_cols=5, lo=-4, hi=4):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


@SETTINGS
@hypothesis.given(matrices(), st.data())
def test_intspan_matches_sympy(rows, data):
    sp = xla.IntSpan()
    accepted = []
    for k, row in enumerate(rows):
        grew = sp.add(np.array(row))
        before = sympy.Matrix(rows[:k]).rank() if k else 0
        assert grew == (sympy.Matrix(rows[: k + 1]).rank() > before)
        if grew:
            accepted.append(row)
    assert sp.rank == len(accepted) == sympy.Matrix(rows).rank()

    n = len(rows[0])
    mix = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    inside = [sum(c * r[j] for c, r in zip(mix, rows)) for j in range(n)]
    other = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    for probe in (inside, other):
        co = sp.coords(np.array(probe))
        in_span = sympy.Matrix(accepted + [probe]).rank() == len(accepted) if accepted else not any(probe)
        if not in_span:
            assert co is None
            continue
        nums, den = co
        assert den > 0 and gcd(den, *nums) == 1
        combo = [sum(sympy.Rational(c, den) * r[j] for c, r in zip(nums, accepted)) for j in range(n)]
        assert combo == probe


@SETTINGS
@hypothesis.given(matrices(), st.data())
def test_rref_matches_sympy(A, data):
    m, n = len(A), len(A[0])
    b = data.draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    sys = xla.LinearSystem(n)
    for row, rhs in zip(A, b):
        sys.add(row, rhs)
    res = sys.rref()
    R, pivots = sympy.Matrix([row + [rhs] for row, rhs in zip(A, b)]).rref()
    assert res.consistent == (n not in pivots)
    if not res.consistent:
        return
    assert res.rank == len(pivots)
    assert sorted(res.pivot_cols + res.free_cols) == list(range(n))
    # integer rows, positive pivots, nothing shared between pivot columns
    mine = sympy.zeros(res.rank, n + 1)
    for i, p in enumerate(res.pivot_cols):
        row = [int(res.lead[i])] + [int(x) for x in res.coeffs[i]] + [int(res.rhs[i])]
        assert row[0] > 0 and gcd(*row) == 1
        mine[i, p] = row[0]
        for c, x in zip(res.free_cols, row[1:-1]):
            mine[i, c] = x
        mine[i, n] = row[-1]
    assert mine.rref()[0] == R[: res.rank, :]
    assert len(sympy.Matrix(A).nullspace()) == len(res.free_cols)


@SETTINGS
@hypothesis.given(matrices(), st.data())
def test_rref_ignores_row_order_and_repeats(A, data):
    # the reduced form is canonical, so a system may be stated in any order
    # and with repeated rows
    b = data.draw(st.lists(st.integers(-6, 6), min_size=len(A), max_size=len(A)))
    eqs = list(zip(A, b))
    repeats = data.draw(st.lists(st.sampled_from(eqs), max_size=2 * len(eqs)))
    shuffled = data.draw(st.permutations(eqs + repeats))

    def reduced(rows):
        sys = xla.LinearSystem(len(A[0]))
        for row, rhs in rows:
            sys.add(row, rhs)
        res = sys.rref()
        if not res.consistent:
            return False
        return res.pivot_cols, res.lead.tolist(), res.coeffs.tolist(), res.rhs.tolist()

    assert reduced(shuffled) == reduced(eqs)


@pytest.mark.parametrize("safe", [xla._SAFE, 1], ids=["int64", "python-int"])
@SETTINGS
@hypothesis.given(matrices(max_rows=6), st.data())
def test_block_add_matches_row_by_row(safe, A, data):
    # the same rows, shuffled and repeated, added one at a time and in
    # blocks give the same reduced form, or are both inconsistent; with
    # safe = 1 the rows and their sums are Python ints
    b = data.draw(st.lists(st.integers(-6, 6), min_size=len(A), max_size=len(A)))
    eqs = list(zip(A, b))
    repeats = data.draw(st.lists(st.sampled_from(eqs), max_size=2 * len(eqs)))
    rows, rhs = zip(*data.draw(st.permutations(eqs + repeats)))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    bounds = [0, *cuts, len(rows)]

    def reduced(blocks):
        sys = xla.LinearSystem(len(A[0]))
        for block, r in blocks:
            sys.add(block, r)
        res = sys.rref()
        if not res.consistent:
            return False
        return res.pivot_cols, res.lead.tolist(), res.coeffs.tolist(), res.rhs.tolist()

    saved, xla._SAFE = xla._SAFE, safe
    try:
        one = reduced(zip(rows, rhs))
        blocks = reduced(
            (list(rows[s:e]), list(rhs[s:e])) for s, e in zip(bounds, bounds[1:]) if e > s
        )
    finally:
        xla._SAFE = saved
    assert blocks == one


@SETTINGS
@hypothesis.given(
    st.integers(1, 3).flatmap(
        lambda m: st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=m, max_size=m),
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
            )
        )
    )
)
def test_lattice_points_match_the_box(case):
    A, caps, x0 = case
    n = len(caps)
    x0 = [min(x, c) for x, c in zip(x0, caps)]
    b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    sys = xla.LinearSystem(n)
    for row, rhs in zip(A, b):
        sys.add(row, rhs)
    pts = xla.lattice_points(sys.rref(), caps)
    box = [
        list(x)
        for x in itertools.product(*[range(c + 1) for c in caps])
        if all(sum(a * v for a, v in zip(row, x)) == rhs for row, rhs in zip(A, b))
    ]
    assert sorted(pts) == box
    assert x0 in pts


@SETTINGS
@hypothesis.given(matrices(max_rows=6), st.data())
def test_a_system_restated_from_its_reduced_form_extends_alike(A, data):
    # a system stated again from its reduced form has that reduced form, and
    # one more block gives both the same; the reduced form stays as it was
    n = len(A[0])
    rhs = data.draw(st.lists(st.integers(-6, 6), min_size=len(A), max_size=len(A)))
    more = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=3))
    more_rhs = data.draw(st.lists(st.integers(-6, 6), min_size=len(more), max_size=len(more)))

    def form(res):
        if not res.consistent:
            return False
        return res.pivot_cols, res.lead.tolist(), res.coeffs.tolist(), res.rhs.tolist()

    sys = xla.LinearSystem(n)
    sys.add(A, rhs)
    res = sys.rref()
    again = xla.LinearSystem.from_rref(res)
    assert form(again.rref()) == form(res)
    sys.add(more, more_rhs)
    again.add(more, more_rhs)
    assert form(again.rref()) == form(sys.rref())
    assert form(xla.LinearSystem.from_rref(res).rref()) == form(res)

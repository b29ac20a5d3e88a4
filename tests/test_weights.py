"""Frozen oracles for the weight-lattice layer.

The h-value list below was computed by hand from the inner-product tables
(partial sums against the symmetrized-Cartan inverse) before the module was
written, and is the reference the implementation has to hit exactly.
"""

import math
from fractions import Fraction as F
from itertools import permutations

import numpy as np
import pytest

from fusioncat import CertificationError
from fusioncat import embedding as emb
from fusioncat import fusion as fr
from fusioncat import weights as wt

A1 = wt.algebra("A", 1)
A2 = wt.algebra("A", 2)
A3 = wt.algebra("A", 3)
B7 = wt.algebra("B", 7)


# 35 conformal dimensions of the level-4 alcove of A3, in canonical order
# (ascending level, lexicographically descending inside a level).
H_A3_K4 = [
    F(0), F(15, 64), F(5, 16), F(15, 64),
    F(9, 16), F(39, 64), F(1, 2), F(3, 4), F(39, 64), F(9, 16),
    F(63, 64), F(1), F(55, 64), F(71, 64), F(15, 16),
    F(55, 64), F(21, 16), F(71, 64), F(1), F(63, 64),
    F(3, 2), F(95, 64), F(21, 16), F(25, 16), F(87, 64), F(5, 4),
    F(111, 64), F(3, 2), F(87, 64), F(21, 16), F(2),
    F(111, 64), F(25, 16), F(95, 64), F(3, 2),
]


def test_algebra_card_data():
    assert A3.dual_coxeter == 4
    assert A3.dim == 15
    assert B7.dual_coxeter == 13
    assert B7.dim == 105
    assert B7.comarks == (1, 2, 2, 2, 2, 2, 1)


def test_quadratic_form_a3_exact():
    Q = wt.quadratic_form(A3)
    assert Q == (
        (F(3, 4), F(1, 2), F(1, 4)),
        (F(1, 2), F(1, 1), F(1, 2)),
        (F(1, 4), F(1, 2), F(3, 4)),
    )


def test_quadratic_form_b7_exact():
    Q = wt.quadratic_form(B7)
    rows = [
        [1, 1, 1, 1, 1, 1, F(1, 2)],
        [1, 2, 2, 2, 2, 2, 1],
        [1, 2, 3, 3, 3, 3, F(3, 2)],
        [1, 2, 3, 4, 4, 4, 2],
        [1, 2, 3, 4, 5, 5, F(5, 2)],
        [1, 2, 3, 4, 5, 6, 3],
        [F(1, 2), 1, F(3, 2), 2, F(5, 2), 3, F(7, 4)],
    ]
    for i in range(7):
        for j in range(7):
            assert Q[i][j] == rows[i][j]
            assert Q[i][j] == Q[j][i]


def test_alcove_a3_level4_order_and_size():
    alc = wt.enumerate_alcove(A3, 4)
    assert len(alc) == 35
    assert alc[0] == (0, 0, 0)
    assert alc[1:4] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    # the level-4 block is not palindromic, so this entry pins the tie order
    assert alc[22] == (3, 0, 1)
    levels = [sum(w) for w in alc]
    assert levels == sorted(levels)


def test_conformal_dimensions_a3_level4_frozen():
    alc = wt.enumerate_alcove(A3, 4)
    hs = [wt.conformal_dimension(A3, 4, w) for w in alc]
    assert hs == H_A3_K4


def test_conformal_dimension_conjugation_invariant():
    alc = wt.enumerate_alcove(A3, 4)
    for w in alc:
        wbar = wt.conjugate(A3, w)
        assert wbar in alc
        assert wt.conformal_dimension(A3, 4, w) == wt.conformal_dimension(A3, 4, wbar)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("B", 7)])
def test_inner_matches_the_fraction_sum_over_the_form(family, rank):
    """The integer form gives exactly sum_ij x_i Q_ij y_j summed in
    Fractions, and h = <lam, lam + 2 rho> / (2 (k + g))."""
    spec = wt.algebra(family, rank)
    Q = wt.quadratic_form(spec)
    for k in range(8):
        for lam in wt.enumerate_alcove(spec, k):
            shifted = tuple(x + 2 for x in lam)
            want = sum((F(x) * Q[i][j] * shifted[j] for i, x in enumerate(lam) for j in range(rank)),
                       start=F(0))
            assert wt.inner(spec, lam, shifted) == want
            assert wt.conformal_dimension(spec, k, lam) == want / (2 * (k + spec.dual_coxeter))


def test_b7_level1():
    alc = wt.enumerate_alcove(B7, 1)
    assert len(alc) == 3
    hs = {wt.conformal_dimension(B7, 1, w) for w in alc}
    assert hs == {F(0), F(1, 2), F(15, 16)}


def _alcove_by_cube(spec, k):
    """The cube filter that enumerate_alcove's bounded recursion replaced:
    every tuple of [0, k]^rank whose comark-weighted sum is at most k,
    ascending in that sum, lexicographically descending within it. The cube
    is one small-integer array, so B7 at level 7 (8^7 tuples) takes
    milliseconds."""
    cube = np.indices((k + 1,) * spec.rank, dtype=np.int16).reshape(spec.rank, -1)
    inside = map(tuple, cube[:, np.array(spec.comarks) @ cube <= k].T.tolist())
    return sorted(inside, key=lambda w: (sum(c * x for c, x in zip(spec.comarks, w)),
                                         tuple(-x for x in w)))


ALCOVES = [(A1, 119), (A2, 14)] + [(A3, k) for k in (4, 5, 6)] + [(B7, k) for k in range(1, 8)]


@pytest.mark.parametrize("spec,k", ALCOVES, ids=[f"{s.family}{s.rank}-{k}" for s, k in ALCOVES])
def test_alcove_matches_the_cube_filter(spec, k):
    assert wt.enumerate_alcove(spec, k) == _alcove_by_cube(spec, k)


def test_central_charge():
    assert wt.central_charge(A3, 4) == F(15, 2)
    assert wt.central_charge(A1, 1) == F(1)
    assert wt.central_charge(B7, 1) == F(15, 2)


def test_n_ality():
    assert wt.n_ality(A3, (1, 0, 0)) == 1
    assert wt.n_ality(A3, (1, 1, 1)) == 2
    assert wt.n_ality(A3, (0, 4, 0)) == 0
    assert wt.n_ality(A3, (0, 0, 1)) == 3


def _parity(perm):
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def test_weyl_group_a3():
    W = wt.weyl_group(4)
    assert len(W) == math.factorial(4)
    assert sum(1 for s in W.values() if s == 1) == 12
    # signatures agree with inversion-count parity
    for p, s in W.items():
        assert s == _parity(p)
    # closed under composition, signature is a homomorphism
    elems = list(W)
    for p in elems[:6]:
        for q in elems[:6]:
            r = tuple(p[q[i]] for i in range(4))
            assert r in W
            assert W[r] == W[p] * W[q]
    assert set(W) == set(permutations(range(4)))


def test_simple_reflection_fixture():
    # swapping the first two barycentric coordinates realizes
    # (l1, l2, l3) -> (-l1, l1+l2, l3) on Dynkin labels
    lam = (1, 0, 0)
    coords = wt.barycentric(lam)
    assert coords == (F(3, 4), F(-1, 4), F(-1, 4), F(-1, 4))
    swapped = (coords[1], coords[0], coords[2], coords[3])
    assert wt.labels_from_barycentric(swapped) == (-1, 1, 0)
    lam2 = (2, 1, 3)
    c2 = wt.barycentric(lam2)
    s2 = (c2[1], c2[0], c2[2], c2[3])
    assert wt.labels_from_barycentric(s2) == (-2, 3, 3)


# each line must raise ValueError, with or without python -O
BAD_INPUTS = (
    "wt.algebra('C', 3)",
    "wt.algebra('A', 0)",
    "wt.algebra('B', 1)",
    "wt.enumerate_alcove(wt.algebra('A', 2), -1)",
    "cat.edges_of([[0, 1], [0, 0]], ['a', 'b'], directed=False)",
    "wt.inner(wt.algebra('A', 3), (1, 0), (0, 0, 1))",
    "wt.n_ality(wt.algebra('B', 2), (1, 0))",
    "emb.branch_candidates(wt.algebra('A', 3), 4, wt.algebra('B', 6), 1)",
    "fr.perron_vector(np.array([[-1, 0], [0, 0]]))",
)


def test_input_checks_raise_under_python_O(python_O):
    """The input checks are ValueErrors, not asserts, so python -O keeps them."""
    from fusioncat import catalog as cat

    for line in BAD_INPUTS:
        with pytest.raises(ValueError):
            eval(line, {"wt": wt, "cat": cat, "emb": emb, "fr": fr, "np": np})
    stdout, raised = python_O["input checks"]
    assert not raised, raised
    assert stdout.splitlines() == ["raised"] * len(BAD_INPUTS)


# each line must raise CertificationError from the invariant stage, with or
# without python -O; A1_K2 is the modular data of A1 at level 2
DERIVED_FAILURES = (
    "emb.solve_invariant(replace(A1_K2, labels=A1_K2.labels[::-1]), [])",
    "emb.solve_invariant(A1_K2, [])",
    "emb.solve_invariant(A1_K2, [emb.BranchClass((0,), F(0), ((2,),))])",
)


# run under python -O by the python_O fixture
PYTHON_O = {
    "input checks": (
        "import numpy as np\n"
        "from fusioncat import catalog as cat, embedding as emb, fusion as fr, weights as wt\n"
        f"for line in {BAD_INPUTS!r}:\n"
        "    try:\n"
        "        eval(line)\n"
        "        print('accepted:', line)\n"
        "    except ValueError:\n"
        "        print('raised')\n"
    ),
    # the child is shared, so the factorial stub is removed again at the end
    "derived checks": (
        "from dataclasses import replace\n"
        "from fractions import Fraction as F\n"
        "from math import factorial\n"
        "from fusioncat import CertificationError, embedding as emb, modular as md, weights as wt\n"
        "A1_K2 = md.modular_data(wt.algebra('A', 1), 2)\n"
        f"for line in {DERIVED_FAILURES!r}:\n"
        "    try:\n"
        "        eval(line)\n"
        "        print('accepted:', line)\n"
        "    except CertificationError as e:\n"
        "        print('raised', e.stage)\n"
        "wt.factorial = lambda n: 0\n"
        "try:\n"
        "    wt.weyl_group.__wrapped__(3)\n"
        "    print('accepted: a Weyl group of the wrong order')\n"
        "except CertificationError as e:\n"
        "    print('raised', e.stage)\n"
        "finally:\n"
        "    wt.factorial = factorial\n"
    ),
}


def test_derived_checks_raise_under_python_O(monkeypatch, python_O):
    """The checks on derived facts are CertificationErrors, not asserts, so
    python -O keeps them too."""
    from dataclasses import replace

    from fusioncat import modular as md

    env = {"emb": emb, "replace": replace, "F": F, "A1_K2": md.modular_data(A1, 2)}
    for line in DERIVED_FAILURES:
        with pytest.raises(CertificationError, match="^invariant: "):
            eval(line, env)
    monkeypatch.setattr(wt, "factorial", lambda n: 0)
    with pytest.raises(CertificationError, match="^weyl_group: "):
        wt.weyl_group.__wrapped__(3)
    stdout, raised = python_O["derived checks"]
    assert not raised, raised
    assert stdout.splitlines() == ["raised invariant"] * len(DERIVED_FAILURES) + ["raised weyl_group"]

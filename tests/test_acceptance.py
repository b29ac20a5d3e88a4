"""Release gate: one test per shipped acceptance criterion.

Each test runs its own check in the test body and prints its pass/fail line
before asserting, so the tee'd pytest log doubles as the acceptance report
and a pipeline stage that raises fails only the criteria that need it.
Criterion 1 ties the scan counts to a closed-form census of the simple
algebras; criterion 9 asserts the twisted and conjugated reversal identities
and reports the refuted literal rule a.b = t(b).a as information only.
"""

import pytest

from fusioncat import acceptance as acc
from fusioncat import graphalgebra as ga


@pytest.mark.parametrize(
    "num,name",
    [(num, name) for num, name, _ in acc.CRITERIA],
    ids=[f"criterion{num:02d}_{name}" for num, name, _ in acc.CRITERIA],
)
def test_criterion(num, name):
    _, _, ok, detail = acc.run_criterion(num)
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criteria_10_and_12_share_one_closure_of_the_48(monkeypatch):
    sizes = []
    closure_defect = ga.closure_defect

    def counted(mats, regular):
        sizes.append(len(mats))
        return closure_defect(mats, regular)

    monkeypatch.setattr(ga, "closure_defect", counted)
    acc._oc_regular.cache_clear()
    assert acc.check_realization()[0]
    assert acc.check_block_structures()[0]
    assert sizes.count(48) == 1


@pytest.fixture(scope="module")
def criteria_6_and_7():
    """Both checks with the float32 products product_dtype picks."""
    return acc.check_splitting(), acc.check_chiral_generators()


def test_criteria_6_and_7_on_forced_products(criteria_6_and_7, forced_products):
    assert (acc.check_splitting(), acc.check_chiral_generators()) == criteria_6_and_7
    assert criteria_6_and_7[0][0] and criteria_6_and_7[1][0]
    assert forced_products.chosen == [forced_products.dtype] * 2

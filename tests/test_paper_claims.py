"""The paper's two relations, as far as the lab shows them.

Each test is a row of the README's claims ledger that no other test pins.
The ledger's eps - sm rows are pinned by
``test_sum_graphs.test_exclusive_exceeds_sum_index``; a df - ceil(sm/2) gap
of +2 is open and claimed nowhere.
"""

import pytest

import sumlab as sl
from sumlab import LabelKind


def test_df_exceeds_half_sm_by_one_at_any_range():
    # Du[: sm = 4 is the partition floor and df = 3 equals best_df_lower,
    # each the lower bound its ascent starts from, so both are exact at any
    # range
    g = sl.parse_graph6("Du[")
    sm, df = sl.sum_index(g), sl.difference_index(g)
    assert (sm.value, df.value) == (4, 3)
    assert sm.range_free and df.range_free
    assert df.value - (sm.value + 1) // 2 == 1


@pytest.mark.parametrize("s,sm_lower,gap", [
    (21, 7, -2), (58, 9, -3), (122, 11, -4), (289, 14, -5),
])
def test_df_falls_below_half_sm_without_search(s, sm_lower, gap):
    # a chain of s triangles: the bundled certificate has two edge
    # differences and best_df_lower is ceil(4/2) = 2, so df = 2, while the
    # s triangles give sm >= best_sm_lower; df - ceil(sm/2) is at most
    # 2 - ceil(sm_lower/2)
    inst = sl.chained_odd_cycles(1, s)
    verdict = sl.verify_certificate(inst.certificate(LabelKind.DIFF))
    assert verdict.passed and verdict.observed == 2
    assert sl.best_df_lower(inst.graph) == 2
    assert sl.best_sm_lower(inst.graph) == sm_lower
    assert 2 - (sm_lower + 1) // 2 == gap


@pytest.mark.parametrize("k", range(4, 15))
def test_df_exceeds_half_sm_by_one_on_subdivided_complete_without_search(k):
    # K_k with one edge subdivided: the bundled certificates give df <= k - 1
    # and sm <= 2k - 4, and diff_degree_bound and sum_degree_bound give the
    # same values from below, so df - ceil(sm/2) = (k - 1) - (k - 2) = 1
    inst = sl.subdivided_complete(k)
    df, sm = (sl.verify_certificate(inst.certificate(kind))
              for kind in (LabelKind.DIFF, LabelKind.SUM))
    assert df.passed and sm.passed
    assert sl.best_df_lower(inst.graph) == k - 1 == df.claimed
    assert sl.best_sm_lower(inst.graph) == 2 * k - 4 == sm.claimed
    assert df.claimed - (sm.claimed + 1) // 2 == 1

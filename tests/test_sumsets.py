import random

import pytest

import sumlab as sl
from sumlab import SumsetError


def test_sumset_examples():
    assert sl.sumset({1, 2, 3}, {1, 2, 3}) == frozenset({2, 3, 4, 5, 6})
    assert sl.sumset({0}, {7}) == frozenset({7})
    assert sl.sumset({0, 1, 5}, {0, 10}) == frozenset({0, 1, 5, 10, 11, 15})


def test_sumset_rejects_empty():
    with pytest.raises(SumsetError):
        sl.sumset(set(), {1})


def test_span_examples():
    assert sl.span({1, 5, 9}) == 8
    assert sl.span({3}) == 0
    assert sl.span({-4, 10}) == 14
    with pytest.raises(SumsetError):
        sl.span(set())


def test_common_difference_examples():
    assert sl.common_difference({0, 4}, {2, 8}) == 2
    assert sl.common_difference({0, 1}, {5}) == 1
    assert sl.common_difference({0, 6}, {3, 9}) == 6
    with pytest.raises(SumsetError):
        sl.common_difference({0}, {4})


def test_stanchescu_example_hypothesis_fires():
    v = sl.stanchescu_check({0, 1, 2}, {0, 1, 2})
    assert v.hypothesis_holds
    assert v.conclusion_holds
    assert (v.spanA_over_d, v.rhsA) == (2, 2)
    assert (v.spanB_over_d, v.rhsB) == (2, 2)


def test_stanchescu_vacuous_regression_case():
    # |A+B| = 4 is not below 2+2+2-2-0 = 4, so the hypothesis fails and the
    # (false) conclusion is never asserted
    v = sl.stanchescu_check({0, 10}, {0, 1})
    assert not v.hypothesis_holds
    assert v.spanA_over_d == 10
    assert v.rhsA == 2


def test_stanchescu_undefined_difference():
    with pytest.raises(SumsetError):
        sl.stanchescu_check({0}, {0})


def test_cardinality_lower_bound_random():
    rng = random.Random(101)
    for _ in range(10_000):
        a = frozenset(rng.sample(range(40), rng.randint(1, 8)))
        b = frozenset(rng.sample(range(40), rng.randint(1, 8)))
        assert len(sl.sumset(a, b)) >= len(a) + len(b) - 1


def _is_ap_pair(a, b):
    """Both sets lie on arithmetic progressions with one common difference."""
    # a set of integers on a progression of difference d has span at least
    # d (|x| - 1), with equality exactly when no term is missing
    d = sl.common_difference(a, b)
    return all(sl.span(x) == d * (len(x) - 1) for x in (a, b))


def test_equality_iff_common_difference_aps():
    # when a set is a singleton the minimum is attained unconditionally, so
    # the equivalence is over pairs with at least two elements each
    rng = random.Random(103)
    seen_equal = seen_larger = 0
    for _ in range(4000):
        if rng.random() < 0.5:
            d = rng.randint(1, 5)
            a = {rng.randint(0, 10) + d * i for i in range(rng.randint(2, 6))}
            b = {rng.randint(0, 10) + d * i for i in range(rng.randint(2, 6))}
        else:
            a = set(rng.sample(range(30), rng.randint(2, 6)))
            b = set(rng.sample(range(30), rng.randint(2, 6)))
        if len(a) < 2 or len(b) < 2:
            continue
        equal = len(sl.sumset(a, b)) == len(a) + len(b) - 1
        assert equal == _is_ap_pair(a, b)
        seen_equal += equal
        seen_larger += not equal
    assert seen_equal and seen_larger


def test_equality_trivial_for_singletons():
    rng = random.Random(131)
    for _ in range(200):
        a = set(rng.sample(range(30), rng.randint(1, 6)))
        b = {rng.randint(0, 30)}
        assert len(sl.sumset(a, b)) == len(a)


def test_sumset_commutative_and_translation_covariant():
    rng = random.Random(107)
    for _ in range(500):
        a = frozenset(rng.sample(range(-20, 20), rng.randint(1, 6)))
        b = frozenset(rng.sample(range(-20, 20), rng.randint(1, 6)))
        c = rng.randint(-15, 15)
        assert sl.sumset(a, b) == sl.sumset(b, a)
        shifted = frozenset(x + c for x in a)
        assert sl.sumset(shifted, b) == frozenset(x + c for x in sl.sumset(a, b))


def test_stability_safety_net_structured():
    """Structured draws make the hypothesis fire often; the conclusion must
    hold every single time."""
    rng = random.Random(109)
    fired = 0
    for _ in range(10_000):
        d = rng.randint(1, 4)
        la, lb = rng.randint(2, 8), rng.randint(2, 8)
        a0, b0 = rng.randint(0, 6), rng.randint(0, 6)
        a = [a0 + d * i for i in range(la)]
        b = [b0 + d * i for i in range(lb)]
        if rng.random() < 0.5:
            a[rng.randrange(la)] = rng.randint(0, 30)
        sa, sb = set(a), set(b)
        if len(sa) == 1 and len(sb) == 1:
            continue
        v = sl.stanchescu_check(sa, sb)
        if v.hypothesis_holds:
            fired += 1
            assert v.conclusion_holds
    assert fired > 1000


def test_span_quotients_are_exact():
    rng = random.Random(113)
    for _ in range(500):
        a = set(rng.sample(range(0, 60, 3), rng.randint(2, 6)))
        b = set(rng.sample(range(0, 60, 3), rng.randint(1, 6)))
        d = sl.common_difference(a, b)
        assert d % 3 == 0
        assert sl.span(a) % d == 0 and sl.span(b) % d == 0

import random

import pytest

import sumlab as sl
from sumlab import Certificate, LabelKind, LabellingError, VertexLabelling
from sumlab.labelling import (
    certificates_from_json,
    certificates_to_json,
)


def _labelling(values):
    return VertexLabelling.from_dict(values)


def test_derive_sum_on_edge():
    e = sl.derive_edge_labelling(sl.complete_graph(2), _labelling({0: 0, 1: 1}), LabelKind.SUM)
    assert e.values() == (1,)


def test_derive_rejects_non_injective():
    with pytest.raises(LabellingError):
        _labelling({0: 1, 1: 1})


def test_derive_rejects_domain_mismatch():
    f = _labelling({0: 0, 1: 1})
    with pytest.raises(LabellingError):
        sl.derive_edge_labelling(sl.complete_graph(3), f, LabelKind.SUM)


def test_chained_labelling_uses_two_differences():
    for k, s in ((1, 1), (2, 3), (3, 2)):
        g = sl.chained_odd_cycles(k, s).graph
        f = _labelling({i: i + 1 for i in range(g.n)})
        e = sl.derive_edge_labelling(g, f, LabelKind.DIFF)
        assert set(e.values()) <= {1, 2 * k}


def test_distinct_value_count_examples():
    kk = sl.subdivided_complete_kk(5, 2)
    cert = kk.certificate(LabelKind.SUM)
    e = sl.derive_edge_labelling(kk.graph, cert.labelling, LabelKind.SUM)
    assert sl.distinct_value_count(e) == 5

    empty = sl.derive_edge_labelling(sl.Graph(3), _labelling({0: 0, 1: 1, 2: 2}), LabelKind.SUM)
    assert sl.distinct_value_count(empty) == 0

    path = sl.path_graph(6)
    e = sl.derive_edge_labelling(path, _labelling({i: i for i in range(6)}), LabelKind.DIFF)
    assert sl.distinct_value_count(e) == 1


def test_gnk_certificate_counts_ten():
    inst = sl.gnk(6, 4)
    cert = inst.certificate(LabelKind.SUM)
    assert sl.verify_certificate(cert).passed
    assert cert.claimed_value == 10


def test_verify_certificate_negative_control():
    kk = sl.subdivided_complete_kk(5, 2)
    cert = kk.certificate(LabelKind.SUM)
    wrong = Certificate(cert.graph, cert.labelling, cert.claim_kind, 4)
    verdict = sl.verify_certificate(wrong)
    assert not verdict.passed
    assert verdict.observed == 5


def test_chained_certificate_verifies():
    inst = sl.chained_odd_cycles(2, 3)
    verdict = sl.verify_certificate(inst.certificate(LabelKind.DIFF))
    assert verdict.passed and verdict.claimed == 2


def _random_injective(rng, n):
    values = rng.sample(range(-30, 31), n)
    return _labelling({v: values[v] for v in range(n)})


def test_distinct_counts_invariant_under_symmetries(connected_by_n):
    rng = random.Random(11)
    for n in range(2, 7):
        for g in rng.sample(connected_by_n[n], min(5, len(connected_by_n[n]))):
            f = _random_injective(rng, n)
            for kind in LabelKind:
                base = sl.distinct_value_count(sl.derive_edge_labelling(g, f, kind))
                c = rng.randint(-50, 50)
                a = rng.randint(1, 5)
                for h in (lambda x: x + c, lambda x: -x, lambda x: a * x):
                    variant = VertexLabelling(tuple((v, h(x)) for v, x in f.items))
                    e = sl.derive_edge_labelling(g, variant, kind)
                    assert sl.distinct_value_count(e) == base


def test_diff_labels_always_positive(connected_by_n):
    rng = random.Random(13)
    for n in range(2, 7):
        for g in rng.sample(connected_by_n[n], min(5, len(connected_by_n[n]))):
            e = sl.derive_edge_labelling(g, _random_injective(rng, n), LabelKind.DIFF)
            assert all(x >= 1 for x in e.values())


def test_certificate_json_round_trip():
    inst = sl.subdivided_complete(5)
    text = certificates_to_json(list(inst.certificates))
    back = certificates_from_json(text)
    assert tuple(back) == inst.certificates

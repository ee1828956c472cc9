import math

import pytest

import sumlab as sl
from sumlab import FamilyError, LabelKind


def test_chained_structure():
    inst = sl.chained_odd_cycles(2, 3)
    assert inst.graph.n == 13
    assert inst.graph.m == 15
    assert inst.certificate(LabelKind.DIFF).claimed_value == 2
    assert inst.params["girth"] == 5
    assert sl.girth(inst.graph) == 5


def test_chained_single_triangle():
    inst = sl.chained_odd_cycles(1, 1)
    assert inst.graph == sl.cycle_graph(3)
    assert inst.certificate(LabelKind.DIFF).claimed_value == 2


def test_chained_girth_metadata_matches():
    for k, s in ((1, 2), (2, 2), (3, 2), (4, 1)):
        inst = sl.chained_odd_cycles(k, s)
        assert sl.girth(inst.graph) == 2 * k + 1 == inst.params["girth"]
        assert sl.count_cycles_of_length(inst.graph, 2 * k + 1) >= s


def test_prism_structure():
    inst = sl.prism(3)
    assert inst.graph.n == 6 and inst.graph.m == 9
    assert sl.count_cycles_of_length(inst.graph, 3) == 2
    assert sl.is_bipartite(sl.prism(4).graph)
    assert sl.girth(sl.prism(5).graph) == 4
    assert set(sl.degree_sequence(inst.graph).degrees) == {3}
    assert inst.certificates == ()


def test_subdivided_complete_certificates():
    inst = sl.subdivided_complete(4)
    assert inst.certificate(LabelKind.DIFF).claimed_value == 3
    assert inst.certificate(LabelKind.SUM).claimed_value == 4

    inst5 = sl.subdivided_complete(5)
    cert = inst5.certificate(LabelKind.SUM)
    e = sl.derive_edge_labelling(inst5.graph, cert.labelling, LabelKind.SUM)
    assert set(e.values()) == set(range(3, 9))
    assert cert.claimed_value == 6

    assert sl.subdivided_complete(6).certificate(LabelKind.DIFF).claimed_value == 5


def test_subdivided_complete_shape():
    inst = sl.subdivided_complete(4)
    g = inst.graph
    assert g.n == 5
    assert not g.has_edge(0, 1)
    assert g.has_edge(0, 4) and g.has_edge(1, 4)
    with pytest.raises(FamilyError):
        sl.subdivided_complete(3)


def test_subdivided_clique_pair_counts():
    for k in (2, 3, 4):
        lo = math.comb(k, 2) + 2 * k
        for n in range(lo, 13):
            inst = sl.subdivided_complete_kk(n, k)
            assert inst.graph.n == n + k * (k - 1)
            assert inst.graph.m == math.comb(n, 2) + k * (k - 1)
            assert inst.certificate(LabelKind.SUM).claimed_value == 2 * n - 2 * k - 1


def test_subdivided_clique_pair_instances():
    inst = sl.subdivided_complete_kk(5, 2)
    assert inst.graph.n == 7 and inst.graph.m == 12
    assert inst.certificate(LabelKind.SUM).claimed_value == 5

    inst93 = sl.subdivided_complete_kk(9, 3)
    assert inst93.certificate(LabelKind.SUM).claimed_value == 11

    with pytest.raises(FamilyError):
        sl.subdivided_complete_kk(5, 3)
    with pytest.raises(FamilyError):
        sl.subdivided_complete_kk(8, 1)


def test_gnk_fig_instance():
    inst = sl.gnk(6, 4)
    g = inst.graph
    assert g.n == 13
    cert = inst.certificate(LabelKind.SUM)
    assert cert.claimed_value == 10
    assert sl.verify_certificate(cert).passed


def test_gnk_degree_profile():
    for k in (3, 4, 5):
        for n in range(3 * k - 6, 13):
            g = sl.gnk(n, k).graph
            degs = list(sl.degree_sequence(g).degrees)
            blocked = 3 * (k - 2)
            expected = sorted(
                [k + 2] * blocked            # U vertices missing one extra vertex
                + [k + 3] * (n - blocked)    # U vertices adjacent to all three
                + [n] * k                    # W side of the complete bipartite part
                + [n - k + 2] * 3            # the three added vertices
            )
            assert degs == expected


def test_family_refuses_a_certificate_that_fails(monkeypatch):
    monkeypatch.setattr("sumlab.families.verify_certificate",
                        lambda c: sl.CertificateVerdict(False, 3, c.claimed_value))
    with pytest.raises(FamilyError, match="^generated chained-cycles certificate "
                                          "failed verification: claimed 2, observed 3$"):
        sl.chained_odd_cycles(1, 2)


def test_gnk_certificate_value_at_most_n_plus_k():
    for n, k in ((6, 4), (9, 5), (7, 4), (12, 5)):
        cert = sl.gnk(n, k).certificate(LabelKind.SUM)
        assert cert.claimed_value <= n + k


def test_gnk_parameter_errors():
    with pytest.raises(FamilyError):
        sl.gnk(5, 4)
    with pytest.raises(FamilyError):
        sl.gnk(6, 2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: sl.odd_cycle_bound(sl.complete_graph(3), 0), ValueError, "k must be at least 1"),
    (lambda: sl.chained_odd_cycles(0, 1), FamilyError,
     "chained_odd_cycles requires k >= 1 and s >= 1"),
    (lambda: sl.prism(2), FamilyError, "prism requires n >= 3"),
    (lambda: sl.cycle_graph(2), sl.GraphError, "cycle needs at least 3 vertices"),
    (lambda: sl.VertexLabelling(((0, 1), (0, 2))).validate(), sl.LabellingError,
     "repeated vertex in labelling"),
])
def test_invalid_arguments_are_rejected(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_all_bundled_certificates_verify():
    instances = [
        sl.chained_odd_cycles(2, 3),
        sl.subdivided_complete(5),
        sl.subdivided_complete_kk(5, 2),
        sl.subdivided_complete_kk(9, 3),
        sl.gnk(6, 4),
        sl.gnk(9, 5),
    ]
    for inst in instances:
        for cert in inst.certificates:
            assert sl.verify_certificate(cert).passed


def test_missing_certificate_kind():
    with pytest.raises(FamilyError):
        sl.prism(3).certificate(LabelKind.SUM)

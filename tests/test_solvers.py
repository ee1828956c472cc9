import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import sumlab as sl
from sumlab import LabelKind, SearchConfig, SolverError


def _observed(g, res, kind):
    e = sl.derive_edge_labelling(g, res.witness, kind)
    return sl.distinct_value_count(e)


def _check(g, res, kind):
    assert _observed(g, res, kind) == res.value
    labels = res.witness.as_dict()
    assert set(labels) == set(range(g.n))
    return res.value


@pytest.mark.parametrize(
    "graph,expect",
    [
        (sl.complete_graph(2), 1),
        (sl.prism(3).graph, 5),
        (sl.subdivided_complete(4).graph, 4),
        (sl.subdivided_complete_kk(5, 2).graph, 5),
        (sl.chained_odd_cycles(1, 2).graph, 4),
    ],
)
def test_sum_index_known_values(graph, expect):
    res = sl.sum_index(graph)
    assert _check(graph, res, LabelKind.SUM) == expect
    assert res.exhaustive_within_range


@pytest.mark.parametrize(
    "graph,expect",
    [
        (sl.subdivided_complete(4).graph, 3),
        (sl.subdivided_complete(5).graph, 4),
        (sl.chained_odd_cycles(2, 2).graph, 2),
        (sl.path_graph(4), 1),
    ],
)
def test_difference_index_known_values(graph, expect):
    res = sl.difference_index(graph)
    assert _check(graph, res, LabelKind.DIFF) == expect
    assert res.exhaustive_within_range


def test_edgeless_graphs_have_zero_index():
    g = sl.Graph(3)
    for fn in (sl.sum_index, sl.difference_index):
        res = fn(g)
        assert res.value == 0
        assert res.witness.as_dict() == {0: 0, 1: 1, 2: 2}


def _naive_min(g, is_sum, bound):
    """Exhaustive minimum and lexicographically least witness over injective
    labellings into {0..bound} that use the label 0."""
    best_val = best_wit = None
    for labs in permutations(range(bound + 1), g.n):
        if 0 not in labs:
            continue
        vals = set()
        for u, v in g.edges:
            vals.add(labs[u] + labs[v] if is_sum else abs(labs[u] - labs[v]))
        c = len(vals)
        if best_val is None or c < best_val or (c == best_val and labs < best_wit):
            best_val, best_wit = c, labs
    return best_val, best_wit


def test_solver_matches_naive_enumeration(connected_by_n):
    for n in range(1, 5):
        for g in connected_by_n[n]:
            bound = 2 * g.n
            cfg = SearchConfig(label_bound=bound)
            for is_sum, fn in ((True, sl.sum_index), (False, sl.difference_index)):
                res = fn(g, cfg)
                value, witness = _naive_min(g, is_sum, bound)
                assert res.value == value
                assert tuple(res.witness.as_dict()[v] for v in range(g.n)) == witness


def test_solver_matches_naive_enumeration_n5(connected_by_n):
    for g in connected_by_n[5]:
        cfg = SearchConfig(label_bound=10)
        for is_sum, fn in ((True, sl.sum_index), (False, sl.difference_index)):
            res = fn(g, cfg)
            value, witness = _naive_min(g, is_sum, 10)
            assert res.value == value
            assert tuple(res.witness.as_dict()[v] for v in range(g.n)) == witness


def test_bipartite_half_bound(connected_by_n):
    for n in range(2, 6):
        for g in connected_by_n[n]:
            if not sl.is_bipartite(g).bipartite:
                continue
            sm = sl.sum_index(g).value
            df = sl.difference_index(g).value
            assert df >= (sm + 1) // 2


def test_escalation_trace_monotone_and_stable():
    g = sl.prism(3).graph
    res = sl.sum_index(g, SearchConfig(escalate=True))
    values = [v for _, v in res.escalation_trace]
    assert len(values) >= 2
    assert values == sorted(values, reverse=True)
    assert values[-1] == values[-2]
    bounds = [b for b, _ in res.escalation_trace]
    assert all(b2 == 2 * b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert res.range_used == bounds[-1]


def test_node_budget_yields_flagged_upper_bound():
    g = sl.prism(4).graph
    res = sl.sum_index(g, SearchConfig(node_budget=10))
    assert not res.exhaustive_within_range
    assert res.nodes_expanded <= 10 + 1
    assert res.value >= 5
    assert _observed(g, res, LabelKind.SUM) == res.value


def test_label_bound_validation():
    with pytest.raises(SolverError):
        sl.sum_index(sl.complete_graph(4), SearchConfig(label_bound=2))


def test_results_deterministic():
    g = sl.subdivided_complete(5).graph
    a = sl.sum_index(g)
    b = sl.sum_index(g)
    assert a.value == b.value
    assert a.witness == b.witness
    assert a.nodes_expanded == b.nodes_expanded


def test_larger_range_never_increases_value(connected_by_n):
    rng = random.Random(5)
    for g in rng.sample(connected_by_n[5], 4):
        small = sl.sum_index(g, SearchConfig(label_bound=g.n - 1)).value
        large = sl.sum_index(g, SearchConfig(label_bound=3 * g.n)).value
        assert large <= small


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_values_invariant_under_relabelling(connected_by_n, data):
    # the feasibility search pins and windows labels along a branch order
    # that follows the vertex numbering; the values must not
    n = data.draw(st.integers(2, 5), label="n")
    g = data.draw(st.sampled_from(connected_by_n[n]), label="graph")
    perm = data.draw(st.permutations(range(n)), label="perm")
    h = sl.Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    for fn in (sl.sum_index, sl.difference_index, sl.exclusive_sum_number):
        assert fn(h).value == fn(g).value


def _sum_number_outcome(g, cfg):
    try:
        res = sl.sum_number(g, cfg)
    except SolverError as exc:
        return str(exc)
    return res.value, res.exhaustive_within_range


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_sum_number_invariant_under_relabelling(connected_by_n, data):
    # the sum-number search orders twins by vertex index and starts from the
    # minimum degree; neither may change the value or the range verdict
    n = data.draw(st.integers(2, 5), label="n")
    g = data.draw(st.sampled_from(connected_by_n[n]), label="graph")
    perm = data.draw(st.permutations(range(n)), label="perm")
    h = sl.Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    cfg = SearchConfig(label_bound=2 * n + 1)
    assert _sum_number_outcome(h, cfg) == _sum_number_outcome(g, cfg)

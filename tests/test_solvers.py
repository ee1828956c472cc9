import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, count, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import sumlab as sl
from sumlab import LabelKind, SearchConfig, SolverError, graphs, partition, solvers
from sumlab.partition import _positive, _step, _sum_graph, floor, refuter


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
    # its vertices are twins, and its one partition, the empty one, passes
    for mode in ("sum", "exclusive", "sum_graph"):
        assert refuter(g, mode)(0) is not None


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
    # every labelled graph on 4 vertices joins the connected classes, so the
    # edgeless and disconnected graphs reach the vertex order too
    pairs = list(combinations(range(4), 2))
    labelled4 = [
        sl.Graph(4, [e for i, e in enumerate(pairs) if mask >> i & 1])
        for mask in range(1 << len(pairs))
    ]
    for g in [g for n in range(1, 5) for g in connected_by_n[n]] + labelled4:
        bound = 2 * g.n
        cfg = SearchConfig(label_bound=bound)
        for is_sum, fn in ((True, sl.sum_index), (False, sl.difference_index)):
            res = fn(g, cfg)
            value, witness = _naive_min(g, is_sum, bound)
            assert res.value == value, (g.edges, fn)
            assert tuple(res.witness.as_dict()[v] for v in range(g.n)) == witness, (g.edges, fn)


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
            if not sl.is_bipartite(g):
                continue
            sm = sl.sum_index(g).value
            df = sl.difference_index(g).value
            assert df >= (sm + 1) // 2


def test_escalation_trace_monotone_and_stable():
    # in labels 0..5 the difference index of Es`o is 3 and the sum index of
    # EqoG is 4; in 0..10 they are 2 and 3, their range-free lower bounds,
    # where escalation stops.  Es^w's difference index 4 lies above
    # best_df_lower, so it stops when two rounds agree.  prism(3)'s (E{Sw) sum
    # index is range-free in the first round, which is the plain solve
    for fn, g6, bound, trace in (
        (sl.difference_index, "Es`o", 5, ((5, 3), (10, 2))),
        (sl.sum_index, "EqoG", 5, ((5, 4), (10, 3))),
        (sl.difference_index, "Es^w", None, ((21, 4), (42, 4))),
        (sl.sum_index, "E{Sw", None, ((21, 5),)),
    ):
        g = sl.parse_graph6(g6)
        res = fn(g, SearchConfig(label_bound=bound, escalate=True))
        assert res.escalation_trace == trace, g6
        values = [v for _, v in res.escalation_trace]
        assert values == sorted(values, reverse=True)
        assert res.range_free != (len(values) >= 2 and values[-1] == values[-2])
        bounds = [b for b, _ in res.escalation_trace]
        assert all(b2 == 2 * b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert res.range_used == bounds[-1]
        if len(trace) == 1:
            plain = fn(g, SearchConfig(label_bound=bound))
            assert (res.witness, res.nodes_expanded) == (plain.witness, plain.nodes_expanded)


def test_budget_cut_round_keeps_earlier_better_value(connected_by_n):
    # round one (labels 0..5) finds df(Es`o) = 3 and makes its witness
    # canonical in 132 nodes, the plain solve's; the descent of round two
    # (labels 0..10) finds 2 at node 151, so a budget from 132 to 150 runs
    # out in it and leaves 3 with round one's canonical witness
    g = sl.parse_graph6("Es`o")
    plain = sl.difference_index(g, SearchConfig(label_bound=5))
    assert (plain.value, plain.nodes_expanded) == (3, 132)
    for budget in (132, 150):
        res = sl.difference_index(
            g, SearchConfig(label_bound=5, escalate=True, node_budget=budget))
        assert (res.value, res.exhaustive_within_range, res.range_free) == (3, False, False)
        assert (res.escalation_trace, res.nodes_expanded) == (((5, 3), (10, 3)), budget + 1)
        assert res.witness == plain.witness
    for n in range(3, 5):
        for g in connected_by_n[n]:
            for fn in (sl.sum_index, sl.difference_index):
                for budget in range(5, 40, 3):
                    res = fn(g, SearchConfig(label_bound=n, escalate=True, node_budget=budget))
                    values = [v for _, v in res.escalation_trace]
                    assert values == sorted(values, reverse=True), (sl.emit_graph6(g), fn, budget)
                    assert res.value == values[-1]


def test_budget_cut_round_keeps_earlier_canonical_witness():
    # eps(EsWG) is 4 in labels 1..6, where the cheap cap is the bound, so
    # round one is the ascent and its canonical pass, 187 nodes in all, and
    # (2, 1, 6, 4, 5, 3) the witness.  Round two's descent (labels 1..12)
    # finds 3, the range-free floor, at node 213: a budget of 187 or 212 runs
    # out in that search and keeps round one's canonical witness, and one of
    # 213 runs out in the canonical pass of 3, which keeps the exact value
    # with the labelling found
    g = sl.parse_graph6("EsWG")
    plain = sl.exclusive_sum_number(g, SearchConfig(label_bound=6))
    assert (plain.value, plain.nodes_expanded) == (4, 187)
    assert plain.witness.as_dict() == {0: 2, 1: 1, 2: 6, 3: 4, 4: 5, 5: 3}
    for budget in (187, 212):
        res = sl.exclusive_sum_number(
            g, SearchConfig(label_bound=6, escalate=True, node_budget=budget))
        assert (res.value, res.exhaustive_within_range) == (4, False)
        assert (res.escalation_trace, res.nodes_expanded) == (((6, 4), (12, 4)), budget + 1)
        assert res.witness == plain.witness
    res = sl.exclusive_sum_number(g, SearchConfig(label_bound=6, escalate=True, node_budget=213))
    assert (res.value, res.exhaustive_within_range, res.range_free) == (3, False, True)
    assert (res.escalation_trace, res.nodes_expanded) == (((6, 4), (12, 3)), 214)
    assert res.witness.as_dict() == {0: 6, 1: 7, 2: 4, 3: 1, 4: 3, 5: 10}
    res.exclusive.validate(g)


def test_sum_index_budget_never_raises():
    # a budget that runs out in the partition refutation leaves the greedy
    # labelling, flagged; none drops below the exact value or overruns by
    # more than the tick that ran out
    for g6 in ("Eq~w", "D]o", "Dhs", "E{Sw"):
        g = sl.parse_graph6(g6)
        exact = sl.sum_index(g)
        for budget in range(0, exact.nodes_expanded, exact.nodes_expanded // 20 + 1):
            res = sl.sum_index(g, SearchConfig(node_budget=budget))
            assert not res.exhaustive_within_range
            assert res.nodes_expanded <= budget + 1
            assert res.value >= exact.value
            assert _observed(g, res, LabelKind.SUM) == res.value


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


@pytest.mark.parametrize("fn, first", [
    (sl.sum_index, 0), (sl.difference_index, 0),
    (sl.exclusive_sum_number, 1), (sl.sum_number, 1),
])
def test_label_range_rule(fn, first):
    # the driver's one range rule: K4's four labels need B >= first + 3
    least = first + 3
    with pytest.raises(SolverError, match=rf"cannot label 4 vertices in {first}\.\.{least - 1}$"):
        fn(sl.complete_graph(4), SearchConfig(label_bound=least - 1))
    try:
        fn(sl.complete_graph(4), SearchConfig(label_bound=least))
    except SolverError as err:
        assert "cannot label" not in str(err)


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


def test_escalation_repeats_no_search(monkeypatch):
    # a later round runs only the descent at its own bound: df(Es^w) is 4
    # above best_df_lower 3, so escalating adds the one proof at t = 3 in
    # labels 0..42 to the plain solve's searches, its nodes to theirs, and
    # keeps the witness
    calls = _spy(monkeypatch)
    g = sl.parse_graph6("Es^w")
    plain = sl.difference_index(g)
    assert calls == [(3, 12), (4, 12), (3, 21)]
    calls.clear()
    escalated = sl.difference_index(g, SearchConfig(escalate=True))
    assert calls == [(3, 12), (4, 12), (3, 21), (3, 42)]
    assert escalated.escalation_trace == ((21, 4), (42, 4))
    assert escalated.witness == plain.witness
    proof = solvers._NodeCounter(None)
    assert solvers._IndexSearch(g, LabelKind.DIFF, proof).search(3, 42) is None
    assert escalated.nodes_expanded == plain.nodes_expanded + proof.nodes


def _escalated_corpus(connected_by_n):
    """Every connected graph with 2 <= n <= 5, for each invariant, escalated
    from every label bound from the least that labels n vertices to 2n + 1,
    and from the default range."""
    for n in range(2, 6):
        for g in connected_by_n[n]:
            for fn, first in ((sl.sum_index, 0), (sl.difference_index, 0),
                              (sl.exclusive_sum_number, 1), (sl.sum_number, 1)):
                for bound in [*range(first + n - 1, 2 * n + 2), None]:
                    yield fn, g, SearchConfig(label_bound=bound, escalate=True)


def test_escalated_solves_repeat_no_search_and_match_the_plain_solve(connected_by_n,
                                                                    monkeypatch):
    # find is monotone in the cap, so each round descends from the value of
    # the round before, and its value is the least within its own range; a
    # round at the cheap cap, where the ascent ran, has no descent
    finds = _spy(monkeypatch)
    canonicals = _spy(monkeypatch, "canonical")
    solves = 0
    for fn, g, cfg in _escalated_corpus(connected_by_n):
        finds.clear()
        canonicals.clear()
        res = fn(g, cfg)
        where = (sl.emit_graph6(g), fn, cfg)
        for calls in (finds, canonicals):
            assert len(set(calls)) == len(calls), (where, calls)
        plain = fn(g, SearchConfig(label_bound=res.range_used))
        assert (res.value, res.witness, res.range_free, res.exhaustive_within_range) == (
            plain.value, plain.witness, plain.range_free, True), where
        solves += 1
    assert solves == 968


def test_budget_cut_keeps_canonical_witness():
    # Es^w: best_df_lower 3, the cheap pass (cap 12) finds 4 with the raw
    # labelling (5, 0, 3, 6, 2, 4) after 492 nodes and the canonical pass
    # takes 18 more; the proof at t = 3 then takes 1,228, so a budget of
    # 1,000 runs out inside it (at 2,000 the whole solve fits, in 1,738)
    g = sl.parse_graph6("Es^w")
    res = sl.difference_index(g, SearchConfig(node_budget=1_000))
    assert (res.value, res.nodes_expanded) == (4, 1_001)
    assert not res.exhaustive_within_range
    assert res.witness.as_dict() == {0: 0, 1: 1, 2: 2, 3: 3, 4: 5, 5: 4}
    assert res.witness == sl.difference_index(g).witness


def _twin_pairs(g):
    """Pairs u < v with N(u) - {v} = N(v) - {u}."""
    nbrs = [set(a) for a in g.adj]
    return [
        (u, v)
        for v in range(g.n)
        for u in range(v)
        if nbrs[u] - {v} == nbrs[v] - {u}
    ]


def _graphs_with_twins(connected_by_n):
    return [g for n in range(2, 6) for g in connected_by_n[n] if _twin_pairs(g)]


def test_canonical_witnesses_keep_twins_in_order(connected_by_n):
    graphs = _graphs_with_twins(connected_by_n)
    assert len(graphs) == 24
    for g in graphs:
        for fn in (sl.sum_index, sl.difference_index, sl.exclusive_sum_number):
            f = fn(g).witness.as_dict()
            assert all(f[u] < f[v] for u, v in _twin_pairs(g)), (sl.emit_graph6(g), fn)


def test_branch_order_places_lower_index_twins_first(connected_by_n):
    # the canonical pass bounds a twin's label below by the labels of its
    # lower-index twins, read when it is placed, so they must come earlier;
    # its first-label queries grow the order from vertex 0, and the default
    # start, which the feasibility search uses, keeps the same promise
    rng = random.Random(29)
    pairs = 0
    for n in range(2, 7):
        for g in connected_by_n[n]:
            for k in range(3):
                perm = list(range(n))
                if k:
                    rng.shuffle(perm)
                h = sl.Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
                for start in (None, 0):
                    step = {v: i for i, v in enumerate(graphs.branch_order(h, start))}
                    for u, v in _twin_pairs(h):
                        assert step[u] < step[v], (sl.emit_graph6(h), start, u, v)
                        pairs += 1
    # relabelling keeps the number of twin pairs: 271 over the classes
    assert pairs == 2 * 3 * 271


def test_values_invariant_under_reversal_of_twins(connected_by_n):
    # reversing the vertex order swaps which vertex of each twin pair has
    # the lower index, so the searches on the reversed graph keep each pair
    # in the opposite labelling order, and must reach the same values
    for g in _graphs_with_twins(connected_by_n):
        n = g.n
        h = sl.Graph(n, [(n - 1 - u, n - 1 - v) for u, v in g.edges])
        for fn in (sl.sum_index, sl.difference_index, sl.exclusive_sum_number):
            assert fn(h).value == fn(g).value, (sl.emit_graph6(g), fn)


class _Oracle:
    """Monotone stand-ins for an invariant's find and canonical searches: a
    target t is reached at cap c when t is at least the value at c.  Every
    call is recorded and ticks the node counter once; no search runs."""

    def __init__(self, counter, cheap_cap, cheap_value, value):
        self.counter = counter
        self.cheap_cap = cheap_cap
        self.cheap_value = cheap_value
        self.value = value
        self.calls = []

    def find(self, t, cap):
        self.calls.append(("find", t, cap))
        self.counter.tick()
        reached = self.cheap_value if cap <= self.cheap_cap else self.value
        return [0, 1, 10 + t] if t >= reached else None

    def canonical(self, t, cap, known):
        self.calls.append(("canonical", t, cap))
        self.counter.tick()
        return [0, 1, 2 + t]


def _scripted_solve(cheap_value, value, budget=None, bound=50):
    counter = solvers._NodeCounter(budget)
    oracle = _Oracle(counter, 8, cheap_value, value)
    spec = solvers._Ascent(
        invariant="scripted", find=oracle.find, lower=lambda: 1, limit=8, cheap_cap=8,
        canonical=oracle.canonical,
    )
    res = solvers._solve(spec, SearchConfig(node_budget=budget), sl.path_graph(3), 0,
                         bound, counter)
    full = [(t, cap) for what, t, cap in oracle.calls if what == "find" and cap >= bound]
    canonical = [t for what, t, _ in oracle.calls if what == "canonical"]
    return res, full, canonical


def test_proof_pass_stops_at_the_first_infeasible_target():
    # (a) the cheap value is optimal: one proof, just below it
    res, full, canonical = _scripted_solve(cheap_value=4, value=4)
    assert full == [(3, 50)]
    assert canonical == [4]
    assert (res.value, res.exhaustive_within_range) == (4, True)
    assert res.witness.as_dict() == {0: 0, 1: 1, 2: 6}
    # (b) the proofs keep finding labellings down to 3; the None at 2 ends them
    res, full, canonical = _scripted_solve(cheap_value=6, value=3)
    assert full == [(5, 50), (4, 50), (3, 50), (2, 50)]
    assert canonical == [6, 5, 4, 3]
    # above the lower bound, the value is exact only within the range
    assert (res.value, res.exhaustive_within_range, res.range_free) == (3, True, False)
    assert res.witness.as_dict() == {0: 0, 1: 1, 2: 5}
    # (c) six cheap finds, canonical(6), find(5), canonical(5): the budget of
    # nine runs out in find(4) and leaves 5 with its canonical witness
    res, full, canonical = _scripted_solve(cheap_value=6, value=3, budget=9)
    assert full == [(5, 50), (4, 50)]
    assert canonical == [6, 5]
    assert (res.value, res.exhaustive_within_range) == (5, False)
    assert res.witness.as_dict() == {0: 0, 1: 1, 2: 7}
    # a find at the lower bound 1 ends the descent; 0 is never searched, and
    # the value, at the lower bound, is exact at any range
    res, full, canonical = _scripted_solve(cheap_value=3, value=1)
    assert full == [(2, 50), (1, 50)]
    assert (res.value, res.exhaustive_within_range, res.range_free) == (1, True, True)


def _lower_solve(ticks, fallback, budget=None, escalate=False):
    """_solve on the scripted oracles (value 4 at every cap) with a lower
    bound that spends ``ticks`` nodes before it returns 1; also the number
    of times the driver called it."""
    counter = solvers._NodeCounter(budget)
    oracle = _Oracle(counter, 8, 4, 4)
    calls = []

    def lower():
        calls.append(None)
        for _ in range(ticks):
            counter.tick()
        return 1

    spec = solvers._Ascent(
        invariant="scripted", find=oracle.find, lower=lower, limit=8, cheap_cap=8,
        fallback=fallback, canonical=oracle.canonical, what="scripted",
    )
    res = solvers._solve(spec, SearchConfig(escalate=escalate, node_budget=budget),
                         sl.path_graph(3), 0, 50, counter)
    return res, len(calls)


def test_budget_in_the_lower_bound_follows_the_driver_rule():
    # a lower bound that searches (the partition floor) runs under the
    # driver's one budget rule: with a fallback, the result is limit, flagged
    for escalate in (False, True):
        res, calls = _lower_solve(10, [0, 1, 3], budget=5, escalate=escalate)
        assert (res.value, res.exhaustive_within_range, res.range_free) == (8, False, False)
        assert res.escalation_trace == ((50, 8),)
        assert (res.range_used, res.nodes_expanded, calls) == (50, 6, 1)
        assert res.witness.as_dict() == {0: 0, 1: 1, 2: 3}
    # without one, the budget error names the nodes spent
    with pytest.raises(SolverError, match="node budget of 5 ran out after 6 nodes"):
        _lower_solve(10, None, budget=5)
    # escalation rounds reuse the lower bound of the first
    res, calls = _lower_solve(10, None, escalate=True)
    assert res.escalation_trace == ((50, 4), (100, 4))
    assert calls == 1


def test_partition_floor_runs_once_per_escalated_solve(monkeypatch):
    calls = []
    real = solvers.floor

    def spy(*args):
        calls.append(args[1:4])
        return real(*args)

    monkeypatch.setattr(solvers, "floor", spy)
    # each first round's value lies above the floor, so a second round runs
    for fn, g6, bound in ((sl.sum_index, "EqoG", 5), (sl.exclusive_sum_number, "EsWG", 6),
                          (sl.sum_number, "Ds{", 9)):
        calls.clear()
        res = fn(sl.parse_graph6(g6), SearchConfig(label_bound=bound, escalate=True))
        assert len(res.escalation_trace) == 2
        assert len(calls) == 1, (fn, calls)


def test_sum_index_budget_out_in_the_floor():
    # Eq~w: the floor search takes 263 nodes, so a budget of 10 runs out in
    # it; the greedy labelling's 7 stands for one round, not range-free
    g = sl.parse_graph6("Eq~w")
    res = sl.sum_index(g, SearchConfig(label_bound=7, escalate=True, node_budget=10))
    assert (res.value, res.exhaustive_within_range, res.range_free) == (7, False, False)
    assert (res.escalation_trace, res.range_used, res.nodes_expanded) == (((7, 7),), 7, 11)
    assert _observed(g, res, LabelKind.SUM) == 7


def _spy(monkeypatch, field="find"):
    """The (target, cap) of every call the ascent driver makes to the
    invariant's ``field`` search, find or canonical; the searches that a
    canonical pass runs itself are not recorded as finds."""
    calls = []
    real = solvers._solve

    def solve(spec, *args):
        fn = getattr(spec, field)
        if fn is None:
            return real(spec, *args)

        def spied(t, cap, *known):
            calls.append((t, cap))
            return fn(t, cap, *known)

        return real(replace(spec, **{field: spied}), *args)

    monkeypatch.setattr(solvers, "_solve", solve)
    return calls


def test_real_solvers_prove_only_value_minus_one(monkeypatch):
    # K4: the typed-partition floor rules out r = 3 and 4 and passes 5 (118
    # nodes), and the cheap pass (cap 16) finds 5 at the floor's passing
    # partition, whose points it walks at a node each (49), so no full-range
    # search (cap 4n^2 = 64) runs; test_sum_graphs pins a budget cut in the
    # descent on Es^w's difference index
    calls = _spy(monkeypatch)
    res = sl.sum_number(sl.parse_graph6("C~"))
    assert (res.value, res.exhaustive_within_range, res.range_free) == (5, True, True)
    assert calls == [(5, 16)]
    assert [res.witness.as_dict()[v] for v in range(4)] == [7, 1, 10, 4]
    assert res.nodes_expanded == 167
    # Es^w: best_df_lower 3, the cheap pass (cap 12) fails at 3 and finds 4,
    # and the one full-range proof (cap n(n-1)/2 + n = 21) is t = 3
    calls.clear()
    g = sl.parse_graph6("Es^w")
    res = sl.difference_index(g)
    assert sl.best_df_lower(g) == 3
    assert (res.value, res.exhaustive_within_range, res.range_free) == (4, True, False)
    assert calls == [(3, 12), (4, 12), (3, 21)]


@pytest.mark.parametrize(
    "text", ["EsZ_", "Esz_", "Es^o", "Es^w", "Es~w", "EqzW", "Fqzmw", "Fqz^w"],
)
def test_exclusive_searches_no_target_below_its_value(monkeypatch, text):
    # eps exceeds best_sm_lower on these graphs (test_sum_graphs pins the
    # values), and the partition refutation rules out every target below
    # eps, so the ascent starts at eps and no label search runs below it
    calls = _spy(monkeypatch)
    g = sl.parse_graph6(text)
    res = sl.exclusive_sum_number(g)
    assert res.value > sl.best_sm_lower(g)
    assert res.range_free
    assert min(t for t, _ in calls) == res.value


def test_sum_refutation_matches_brute_force(connected_by_n):
    # brute force over {0..2n} reaches best_sm_lower on every connected graph
    # with n <= 4, so that range realises each minimum, and the refutation
    # must hold exactly below it
    for n in range(1, 5):
        for g in connected_by_n[n]:
            value, _ = _naive_min(g, True, 2 * n)
            assert value == sl.best_sm_lower(g), sl.emit_graph6(g)
            for t in range(g.m + 1):
                assert (refuter(g, "sum")(t) is None) == (t < value), (sl.emit_graph6(g), t)


def _passes_by_rank(g, t, mode):
    """Whether some typed partition of g's edges passes, by brute force over
    the partitions and exact rank over the rationals: no forbidden form may
    lie in the row space of the partition's equations.  Each class is a
    matching.  In the modes "sum" and "exclusive" there are at most t
    classes, each keyed by its first edge ab, and the forbidden forms are
    e_u - e_v for every pair and, if "exclusive", e_u + e_v - e_a - e_b for
    every non-edge uv and key ab.  In "sum_graph" an edge cd may also go to
    the class of a vertex w off it (w counts as an end), with the equation
    e_c + e_d = e_w; at most t classes are isolated, and with W the labels
    e_u and the isolated sums e_a + e_b, the forbidden forms are every z and
    z - y in W, e_u + e_v - z for every non-edge uv, and x + z - y for x
    isolated and z != x, and the solution space V must also hold a point
    with every label positive.  V is parametrised by its free coordinates z
    as F z, F having an identity row for each, so {z : F z >= 1} is pointed
    and is nonempty exactly when one of its vertices, F_S z = 1 for k
    independent rows S, satisfies every row."""
    n = g.n
    edges = list(g.edges)
    non_edges = [(u, v) for u, v in combinations(range(n), 2) if not g.has_edge(u, v)]

    def unit(*signed):
        w = [Fraction(0)] * n
        for sign, v in signed:
            w[v] += sign
        return w

    def reduced(basis, w):
        for q, row in basis:
            if w[q]:
                w = [x - w[q] * y for x, y in zip(w, row)]
        return w

    def neg(form):
        return [(-sign, v) for sign, v in form]

    def forbidden(classes):
        isolated = [[(1, v) for v in key] for key, _ in classes if len(key) == 2]
        if mode != "sum_graph":
            yield from (unit((1, u), (-1, v)) for u, v in combinations(range(n), 2))
            if mode == "exclusive":
                yield from (unit((1, u), (1, v), *neg(x)) for u, v in non_edges for x in isolated)
            return
        W = [[(1, u)] for u in range(n)] + isolated
        yield from (unit(*z) for z in W)
        yield from (unit(*z, *neg(y)) for z, y in combinations(W, 2))
        yield from (unit((1, u), (1, v), *neg(y)) for u, v in non_edges for y in W)
        yield from (unit(*x, *z, *neg(y)) for x in isolated for z in W if z is not x for y in W)

    def solve(rows):
        """z with rows . z = 1 each, or None when rows are dependent."""
        k = len(rows)
        m = [list(r) + [Fraction(1)] for r in rows]
        for c in range(k):
            p = next((i for i in range(c, k) if m[i][c]), None)
            if p is None:
                return None
            m[c], m[p] = m[p], m[c]
            m[c] = [x / m[c][c] for x in m[c]]
            m = [r if i == c else [x - r[c] * y for x, y in zip(r, m[c])] for i, r in enumerate(m)]
        return [r[k] for r in m]

    def positive(basis):
        pivots = dict(basis)
        free = [j for j in range(n) if j not in pivots]
        F = [[-pivots[u][j] for j in free] if u in pivots else [Fraction(u == j) for j in free]
             for u in range(n)]
        for rows in combinations(F, len(free)):
            z = solve(rows)
            if z is not None and all(sum(a * b for a, b in zip(r, z)) >= 1 for r in F):
                return True
        return False

    def passes(classes):
        basis = []  # (pivot, row with 1 at the pivot and 0 at the other pivots)
        for key, members in classes:
            for c, d in members:
                w = reduced(basis, unit((1, c), (1, d), *((-1, v) for v in key)))
                q = next((j for j, x in enumerate(w) if x), None)
                if q is not None:
                    w = [x / w[q] for x in w]
                    basis = [(j, [x - row[q] * y for x, y in zip(row, w)]) for j, row in basis]
                    basis.append((q, w))
        if any(not any(reduced(basis, w)) for w in forbidden(classes)):
            return False
        return mode != "sum_graph" or positive(basis)

    # classes: (key, edges), the key being the first edge (a, b) of an
    # isolated class or (w,) for w's class; the key's vertices are ends
    def assign(i, classes):
        if i == len(edges):
            return passes(classes)
        c, d = edges[i]
        for key, members in classes:
            if {c, d}.isdisjoint([*key, *(v for e in members for v in e)]):
                members.append((c, d))
                found = assign(i + 1, classes)
                members.pop()
                if found:
                    return True
        keyed = [key[0] for key, _ in classes if len(key) == 1]
        new = [(w,) for w in range(n) if mode == "sum_graph" and w not in (c, d, *keyed)]
        if sum(len(key) == 2 for key, _ in classes) < t:
            new.append((c, d))
        for key in new:
            classes.append((key, [(c, d)]))
            found = assign(i + 1, classes)
            classes.pop()
            if found:
                return True
        return False

    return assign(0, [])


def test_refutation_matches_rank_oracle(connected_by_n):
    # refuter's search at t must find nothing exactly when no typed
    # partition with at most t counted classes passes, from one below the
    # start that floor takes up to the first t that passes.  sm and eps:
    # every connected graph with n <= 5, where eps = sm, and five six-vertex
    # graphs with eps = sm + 1 that exercise the exclusive checks (the
    # sixth, Es~w, takes the oracle over 2 s); sigma, from the least
    # degree: every connected graph with 2 <= n <= 4 (on n = 5 the oracle
    # takes minutes)
    graphs = [g for n in range(1, 6) for g in connected_by_n[n]]
    graphs += [sl.parse_graph6(text) for text in ("EsZ_", "Esz_", "Es^o", "Es^w", "EqzW")]
    cases = [(g, mode, sl.best_sm_lower(g)) for g in graphs for mode in ("sum", "exclusive")]
    cases += [(g, "sum_graph", min(len(a) for a in g.adj))
              for n in range(2, 5) for g in connected_by_n[n]]
    for g, mode, start in cases:
        t = max(0, start - 1)
        while True:
            passes = _passes_by_rank(g, t, mode)
            assert (refuter(g, mode)(t) is None) == (not passes), (sl.emit_graph6(g), t, mode)
            if passes:
                break
            t += 1


def test_sum_graph_conditions_on_concrete_labels():
    # two "sum_graph" conditions that decide no refutation on n <= 5, so the
    # rank oracle cannot see them: on the path 0 - 1 - 2, with label 3 the
    # zero form and counted classes keyed by the edges 01 and 12, fits gives
    # the non-edge sums only when no non-edge sum lies in W and no isolated
    # sum repeats a label.  refuter keys the label classes (w, 3) from the
    # root, and fits must skip them, so each case runs with and without them
    non_edges = [(0, 2)]
    for label_classes in ([], [(0, 3), (1, 3), (2, 3)]):
        fits = _sum_graph(3, non_edges, [(0, 1), (1, 2)] + label_classes)
        assert fits([1, 5, 3, 0]) == {4}
        # the non-edge sum 1 + 3 is the label 4
        assert fits([1, 4, 3, 0]) is None
        # one counted class, whose sum 2 + 3 is the label 5; no other
        # condition fails, as the non-edge sum 7 and 5 + 2, 5 + 3 lie
        # outside W = {2, 3, 5}
        fits = _sum_graph(3, non_edges, [(0, 1)] + label_classes)
        assert fits([2, 3, 9, 0]) == {11}
        assert fits([2, 3, 5, 0]) is None


def test_refute_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="^unknown refutation mode 'signed'$"):
        refuter(sl.path_graph(3), "signed")


def _no_twins(adj):
    return [0] * len(adj)


def test_twin_cut_never_changes_a_refutation(connected_by_n, monkeypatch):
    # the lex-leader cut on twin swaps keeps the orbit-least passing
    # partition, so on every connected graph with 2 <= n <= 5 and in every
    # mode, refuter's search answers at each t from the mode's lower bound
    # to the floor as it does when the twin source reports no twins.  So it
    # does on EuvW's sum number, whose floor a cut that compared the image's
    # counted classes without renumbering them by first use would raise
    # from 6 to 7
    cases = [(g, mode) for n in range(2, 6) for g in connected_by_n[n]
             for mode in ("sum", "exclusive", "sum_graph")]
    cases.append((sl.parse_graph6("EuvW"), "sum_graph"))
    answers = []
    for g, mode in cases:
        lower = min(len(a) for a in g.adj) if mode == "sum_graph" else sl.best_sm_lower(g)
        t = lower
        search = refuter(g, mode)
        while search(t) is None:
            t += 1
        answers.append([(u, True) for u in range(lower, t)] + [(t, False)])
    monkeypatch.setattr(partition, "twins_below", _no_twins)
    for (g, mode), expect in zip(cases, answers):
        search = refuter(g, mode)
        assert [(t, search(t) is None) for t, _ in expect] == expect, (sl.emit_graph6(g), mode)


def test_twin_cut_ticks_fewer_nodes_on_complete_graphs(monkeypatch):
    def nodes(g):
        ticks = count()
        floor(refuter(g, "sum_graph"), g.n - 1, g.m + 1, ticks.__next__)
        return next(ticks)

    graphs_ = [sl.complete_graph(4), sl.complete_graph(5)]
    cut = [nodes(g) for g in graphs_]
    monkeypatch.setattr(partition, "twins_below", _no_twins)
    assert all(a < b for a, b in zip(cut, [nodes(g) for g in graphs_]))


def test_refuter_answers_do_not_depend_on_call_history(connected_by_n):
    # a refuter's search keeps nothing between calls: on every connected
    # graph with 2 <= n <= 5 and in every mode, asking for each t from the
    # mode's lower bound up to m and then from m down again gives each t
    # the same leaf, or None, in the same number of ticks both times
    for mode in ("sum", "exclusive", "sum_graph"):
        for g in (g for n in range(2, 6) for g in connected_by_n[n]):
            lower = min(len(a) for a in g.adj) if mode == "sum_graph" else sl.best_sm_lower(g)
            search = refuter(g, mode)
            answers = {}
            for t in [*range(lower, g.m + 1), *range(g.m, lower - 1, -1)]:
                ticks = count()
                answers.setdefault(t, []).append((search(t, ticks.__next__), next(ticks)))
            for t, (up, down) in answers.items():
                assert up == down, (sl.emit_graph6(g), mode, t)


def _pack(form, s):
    return sum(x << s * j for j, x in enumerate(form))


def _digits(x, n, s):
    """The n lowest digits of x in balanced base 2^s, lowest first."""
    out = []
    for _ in range(n):
        d = x & (1 << s) - 1
        d -= (d >> s - 1) << s  # a digit of 2^(s-1) or more is negative
        out.append(d)
        x = (x - d) >> s
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_forms_read_back_and_tell_sums_apart(data):
    # forms with n <= 8 coordinates and coefficients within the module's
    # digit bound 2^n, and sometimes two more whose sum is the sum of the
    # first two, so that equal sums are drawn too
    n = data.draw(st.integers(1, 8), label="n")
    s = n + 3  # the module's digit width
    top = 1 << n
    coeff = st.integers(-top, top)
    forms = data.draw(st.lists(st.lists(coeff, min_size=n, max_size=n), min_size=2, max_size=6),
                      label="forms")
    if data.draw(st.booleans()):
        c = [data.draw(st.integers(max(-top, x + y - top), min(top, x + y + top)))
             for x, y in zip(forms[0], forms[1])]
        forms += [c, [x + y - z for x, y, z in zip(forms[0], forms[1], c)]]
    labels = [_pack(f, s) for f in forms]
    assert [_digits(x, n, s) for x in labels] == forms
    pairs = list(combinations_with_replacement(range(len(forms)), 2))
    for (a, b), (c, d) in product(pairs, repeat=2):
        zero = not any(w + x - y - z for w, x, y, z in zip(forms[a], forms[b], forms[c], forms[d]))
        assert (labels[a] + labels[b] == labels[c] + labels[d]) == zero


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_bareiss_steps_match_lists(data):
    # from the identity, each equation f_c + f_d = f_a + f_b on four distinct
    # vertices is one Bareiss step on coefficient lists (lowest nonzero
    # coordinate as pivot, exact division by the last pivot) and one _step
    # on the packed labels at the module's width n + 3; the two must agree,
    # every division must be exact and every coefficient must stay within
    # 2^(n-1)
    n = data.draw(st.integers(4, 8), label="n")
    s = n + 3
    quads = st.permutations(range(n)).map(lambda p: p[:4])
    forms = [[int(u == j) for j in range(n)] for u in range(n)]
    labels = [_pack(f, s) for f in forms]
    prev = 1
    for c, d, a, b in data.draw(st.lists(quads, max_size=n), label="equations"):
        eq = [w + x - y - z for w, x, y, z in zip(forms[c], forms[d], forms[a], forms[b])]
        e = labels[c] + labels[d] - labels[a] - labels[b]
        assert e == _pack(eq, s)
        if not any(eq):
            continue
        q = next(j for j, x in enumerate(eq) if x)
        if eq[q] < 0:
            eq = [-x for x in eq]
        p = eq[q]
        steps = [[p * x - f[q] * y for x, y in zip(f, eq)] for f in forms]
        assert all(x % prev == 0 for f in steps for x in f)
        forms = [[x // prev for x in f] for f in steps]
        assert all(abs(x) <= 1 << n - 1 for f in forms for x in f)
        labels, prev = _step(labels, e, prev, s)
        assert (labels, prev) == ([_pack(f, s) for f in forms], p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_steps_on_typed_rows_match_lists(data):
    # the "sum_graph" mode's equations at the module's width n + 3: a label
    # class's f_c + f_d = f_w on three distinct vertices, or an isolated
    # class's f_c + f_d = f_a + f_b on four.  Up to n steps can be taken, so
    # every coefficient stays within 2^n, and the widest check form, x + z -
    # y with x = f_a + f_b and z = f_a + f_c sharing a vertex and y = f_d +
    # f_e, reads back from its packed int within 2^(n+2)
    n = data.draw(st.integers(5, 8), label="n")
    s = n + 3
    rows = st.permutations(range(n)).flatmap(lambda p: st.sampled_from([p[:3], p[:4]]))
    forms = [[int(u == j) for j in range(n)] for u in range(n)]
    labels = [_pack(f, s) for f in forms]
    prev = 1
    for c, d, *rest in data.draw(st.lists(rows, max_size=n + 1), label="equations"):
        eq = [forms[c][j] + forms[d][j] - sum(forms[x][j] for x in rest) for j in range(n)]
        e = labels[c] + labels[d] - sum(labels[x] for x in rest)
        assert e == _pack(eq, s)
        if not any(eq):
            continue
        q = next(j for j, x in enumerate(eq) if x)
        if eq[q] < 0:
            eq = [-x for x in eq]
        p = eq[q]
        steps = [[p * x - f[q] * y for x, y in zip(f, eq)] for f in forms]
        assert all(x % prev == 0 for f in steps for x in f)
        forms = [[x // prev for x in f] for f in steps]
        assert all(abs(x) <= 1 << n for f in forms for x in f)
        labels, prev = _step(labels, e, prev, s)
        assert (labels, prev) == ([_pack(f, s) for f in forms], p)
    a, b, c, d, e = data.draw(st.permutations(range(n)), label="check")[:5]
    check = [2 * forms[a][j] + forms[b][j] + forms[c][j] - forms[d][j] - forms[e][j]
             for j in range(n)]
    assert all(abs(x) < 1 << n + 2 for x in check)
    packed = 2 * labels[a] + labels[b] + labels[c] - labels[d] - labels[e]
    assert _digits(packed, n, s) == check


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_positivity_check_matches_brute_force(data):
    # F x > 0 against a search of the integer points in [-6, 6]^k, on up to
    # five rows with k <= 3.  If the system is feasible, {F x >= 1} has a
    # point on a minimal face: x = adj(M) 1 / det M for some r x r
    # nonsingular submatrix M, with the other coordinates 0.  So det M times
    # it, an integer point with F x >= |det M|, has coordinates at most r
    # times a cofactor: 6 with entries in [-3, 3] for r <= 2, and 6 with
    # entries in [-1, 1] for r = 3, whose 2 x 2 minors are at most 2
    k = data.draw(st.integers(1, 3), label="k")
    top = 3 if k <= 2 else 1
    rows = data.draw(st.lists(st.lists(st.integers(-top, top), min_size=k, max_size=k),
                              min_size=1, max_size=5), label="rows")
    brute = any(all(sum(a * b for a, b in zip(r, x)) > 0 for r in rows)
                for x in product(range(-6, 7), repeat=k))
    assert _positive(rows) == brute


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_sum_floor_invariant_under_relabelling(connected_by_n, data):
    # the refutation assigns edges in the branch order, whose ties fall to
    # the lower vertex index; the floor must not follow the numbering, in
    # any mode
    mode = data.draw(st.sampled_from(["sum", "exclusive", "sum_graph"]), label="mode")
    n = data.draw(st.integers(2, 5 if mode == "sum_graph" else 6), label="n")
    g = data.draw(st.sampled_from(connected_by_n[n]), label="graph")
    perm = data.draw(st.permutations(range(n)), label="perm")
    h = sl.Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    lower = min(len(a) for a in g.adj) if mode == "sum_graph" else sl.best_sm_lower(g)
    assert floor(refuter(h, mode), lower, h.m + 1) == floor(refuter(g, mode), lower, g.m + 1)


@pytest.mark.parametrize(
    "mode,top,expect",
    [("sum", 6, (642, 1_359, 1_163)), ("exclusive", 6, (648, 1_680, 1_833)),
     ("sum_graph", 5, (70, 2_523, 1_334))],
)
def test_floor_trees_are_pinned(connected_by_n, mode, top, expect):
    # floor as the solvers call it, on every connected graph with
    # 2 <= n <= top: the sum of the floors, the nodes of the refutations
    # that rule a target out, and those of the search that passes at the
    # floor, so that its trees are pinned apart from the label searches.  A
    # refutation that rules a target out visits its whole tree, so only the
    # passing count follows the order in which the search tries children
    total = refuted = passing = 0
    for g in (g for n in range(2, top + 1) for g in connected_by_n[n]):
        if mode == "sum_graph":
            lower, limit = min(len(a) for a in g.adj), g.m + 1
        elif mode == "sum":
            upper, _ = solvers._greedy_upper(g, True, graphs.branch_order(g))
            lower, limit = sl.best_sm_lower(g), upper
        else:
            lower, limit = sl.best_sm_lower(g), g.m + 1
        ticks, passed = count(), count()
        t = floor(refuter(g, mode), lower, limit, ticks.__next__)
        if t < limit:
            assert refuter(g, mode)(t, passed.__next__) is not None
        p = next(passed)
        total += t
        refuted += next(ticks) - p
        passing += p
    assert (total, refuted, passing) == expect


def _least_by_walks(search, t, cap):
    """The lexicographically least labelling with at most t values and
    labels in {floor..cap}: the first of the pinned lexicographic walks,
    f(0) = floor, floor + 1, ..., that finds one.  It uses the floor label,
    the fact that lets the walk go without a test for it."""
    floor = search.floor
    least = next(w for d in range(cap - floor + 1)
                 if (w := search.lexicographic(t, cap, d)) is not None)
    assert min(least) == floor
    return least


def _reference_ascent(g, kind, exclusive, bound):
    """Value and canonical witness by ascending every target: at the cheap
    cap, then at the full bound below the cheap value, then the pinned
    lexicographic walks at min(bound, max(2n, max(labels))).  None when no
    labelling fits."""
    search = solvers._IndexSearch(g, kind, solvers._NodeCounter(None), exclusive=exclusive)
    n = g.n
    lower = sl.best_sm_lower(g) if kind is LabelKind.SUM else sl.best_df_lower(g)
    value = labels = None
    top = g.m + 1
    for cap in (min(bound, 2 * n), bound):
        for t in range(lower, top):
            found = search.search(t, cap)
            if found is not None:
                value, labels, top = t, found, t
                break
    if labels is None:
        return None
    cap = min(bound, max(2 * n, max(labels)))
    return value, tuple(_least_by_walks(search, value, cap))


def test_descent_matches_reference_ascent(connected_by_n):
    for n in range(2, 6):
        for g in connected_by_n[n]:
            for fn, kind, exclusive, default in (
                (sl.sum_index, LabelKind.SUM, False, n * (n - 1) // 2 + n),
                (sl.difference_index, LabelKind.DIFF, False, n * (n - 1) // 2 + n),
                (sl.exclusive_sum_number, LabelKind.SUM, True, 4 * n * n),
            ):
                for label_bound in (None, *range(n - 1, 2 * n + 1)):
                    bound = default if label_bound is None else label_bound
                    expect = _reference_ascent(g, kind, exclusive, bound)
                    try:
                        res = fn(g, SearchConfig(label_bound=label_bound))
                    except SolverError:
                        got = None
                    else:
                        got = res.value, tuple(res.witness.as_dict()[v] for v in range(n))
                    assert got == expect, (sl.emit_graph6(g), fn, bound)


def test_witness_does_not_depend_on_the_feasibility_search(connected_by_n, monkeypatch):
    """The feasibility search may return any labelling that reaches its
    target: here it is replaced by one that returns the labelling of least
    cap, trying caps floor + n - 1, ..., cap in turn.  Every witness that the
    cheap pass reaches is the least labelling within min(bound, 2n), so the
    three index invariants keep their values and witnesses.  A witness found
    by the full-range descent still depends on the labelling found, whose
    greatest label may raise the canonical cap above 2n."""
    graphs = [g for n in range(2, 6) for g in connected_by_n[n]]
    graphs.append(sl.parse_graph6("Fs`_w"))
    solves = (sl.sum_index, sl.difference_index, sl.exclusive_sum_number)

    def outputs():
        return [(res.value, res.witness)
                for res in (fn(g) for g in graphs for fn in solves)]

    expect = outputs()
    real = solvers._IndexSearch.search

    def least_cap(self, target, cap):
        return next((found for c in range(self.floor + self.g.n - 1, cap + 1)
                     if (found := real(self, target, c)) is not None), None)

    monkeypatch.setattr(solvers._IndexSearch, "search", least_cap)
    assert outputs() == expect


def _value_count(g, f, is_sum, exclusive):
    """The number of distinct edge values (sums or differences) of the
    labelling f, or None when exclusive and a non-adjacent pair sums onto an
    edge sum."""
    edges = set(g.edges)
    vals = {f[u] + f[v] if is_sum else abs(f[u] - f[v]) for u, v in edges}
    if exclusive and any(
        f[u] + f[v] in vals
        for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in edges
    ):
        return None
    return len(vals)


def _first_in_product_order(g, value, floor, cap, is_sum, exclusive):
    """The first injective labelling in itertools.product order over
    {floor..cap}^n with at most ``value`` distinct edge values and, if
    exclusive, no non-adjacent pair summing onto an edge sum; None when
    there is none."""
    for f in product(range(floor, cap + 1), repeat=g.n):
        if len(set(f)) < g.n:
            continue
        count = _value_count(g, f, is_sum, exclusive)
        if count is not None and count <= value:
            return f
    return None


def test_canonical_witnesses_are_first_in_product_order(connected_by_n, monkeypatch):
    # the driver's canonical cap is read off its canonical calls; the last
    # one, at the value, made the witness
    calls = _spy(monkeypatch, "canonical")
    checked = 0
    for n in range(2, 6):
        for g in connected_by_n[n]:
            for fn, is_sum, exclusive in (
                (sl.sum_index, True, False),
                (sl.difference_index, False, False),
                (sl.exclusive_sum_number, True, True),
            ):
                if exclusive and n > 4:
                    continue
                calls.clear()
                res = fn(g)
                t, cap = calls[-1]
                assert t == res.value
                got = tuple(res.witness.as_dict()[v] for v in range(n))
                expect = _first_in_product_order(g, res.value, 1 if exclusive else 0, cap,
                                                 is_sum, exclusive)
                assert got == expect, (sl.emit_graph6(g), fn, cap)
                checked += 1
    assert checked == 2 * (1 + 2 + 6 + 21) + (1 + 2 + 6)


def test_least_matches_the_first_pinned_walk_that_finds_one(connected_by_n, monkeypatch):
    # least settles f(0) by feasibility queries that start from the known
    # labelling's bound; it must agree with the lexicographic walks tried at
    # every f(0) in turn, whichever of the witness and its reflection it is
    # given
    calls = _spy(monkeypatch, "canonical")
    for n in range(2, 7):
        for g in connected_by_n[n]:
            for fn, kind, exclusive in (
                (sl.sum_index, LabelKind.SUM, False),
                (sl.difference_index, LabelKind.DIFF, False),
                (sl.exclusive_sum_number, LabelKind.SUM, True),
            ):
                if exclusive and n > 5:
                    continue
                calls.clear()
                res = fn(g)
                t, cap = calls[-1]
                w = [res.witness.as_dict()[v] for v in range(n)]
                lo, hi = min(w), max(w)
                search = solvers._IndexSearch(g, kind, solvers._NodeCounter(None), exclusive)
                expect = _least_by_walks(search, t, cap)
                assert expect == w
                for known in (w, [lo + hi - x for x in w]):
                    assert search.least(t, cap, known) == expect, (sl.emit_graph6(g), fn, known)


def _search_by_brute_force(g, order, width, is_sum, exclusive):
    """target -> the labelling that the feasibility search at cap = floor +
    width must return, read off every position vector p (p[i] the position
    of order[i]) in product order: the least one with p[0] = width,
    injective positions of span at most width, p[1] > p[0], at most target
    distinct edge values and, if exclusive, no non-adjacent pair summing
    onto an edge sum; translated so that its least label is the floor.  A
    target with no such vector is absent."""
    n = g.n
    floor = 1 if exclusive else 0
    first = {}
    best = g.m + 1
    for rest in product(range(2 * width + 1), repeat=n - 1):
        pos = (width, *rest)
        least = min(pos)
        if len(set(pos)) < n or max(pos) - least > width or pos[1] < width:
            continue
        f = [0] * n
        for i, v in enumerate(order):
            f[v] = pos[i] - least + floor
        count = _value_count(g, f, is_sum, exclusive)
        if count is not None and count < best:
            first.update(dict.fromkeys(range(count, best), f))
            best = count
    return first


def test_search_finds_the_least_position_vector(connected_by_n):
    # every vertex takes its candidates in increasing position, so the
    # feasibility search returns the least position vector its cut allows;
    # K1,3, C4 and K4 take difference-mode candidates at midpoints, where
    # two new differences coincide
    checked = 0
    for n in range(2, 5):
        for g in connected_by_n[n]:
            for kind, exclusive in ((LabelKind.SUM, False), (LabelKind.DIFF, False),
                                    (LabelKind.SUM, True)):
                search = solvers._IndexSearch(g, kind, solvers._NodeCounter(None), exclusive)
                for cap in range(n - 1 + search.floor, 2 * n + 1):
                    expect = _search_by_brute_force(g, search.order, cap - search.floor,
                                                    kind is LabelKind.SUM, exclusive)
                    for t in range(g.m + 1):
                        assert search.search(t, cap) == expect.get(t), (
                            sl.emit_graph6(g), kind, exclusive, cap, t)
                        checked += 1
    assert checked == 647


def test_least_settles_the_first_label_of_a_dense_exclusive_witness():
    # FsOfW (eps 5 at n = 7): the lexicographic DFS alone took 7,139,691
    # nodes at (5, 28), refuting f(0) = 1 in the order 0..6
    g = sl.parse_graph6("FsOfW")
    counter = solvers._NodeCounter(None)
    search = solvers._IndexSearch(g, LabelKind.SUM, counter, exclusive=True)
    known = search.search(5, 28)
    counter.nodes = 0
    assert search.least(5, 28, known) == [2, 4, 7, 10, 3, 1, 5]
    assert counter.nodes == 558_118


# nodes_expanded of sum_index, difference_index and exclusive_sum_number, each
# at the default config and at node_budget=300 (301 when the budget runs out,
# None when it runs out before any exclusive labelling is found).  These pin
# the search trees, which a change to how candidates are computed must keep;
# a change that alters a tree on purpose updates the pins.  The sum index and
# exclusive counts include the partition refutations that find their floors.
_TREE_PINS = {
    # twins
    "K1,4": ("Ds_", (5, 5, 153, 153, 19, 19)),
    "K1,5": ("Esa?", (6, 6, 767, 301, 23, 23)),
    "K4-e": ("C}", (4, 4, 25, 25, 14, 14)),
    "K2,3": ("D]o", (14, 14, 158, 158, 79, 79)),
    "Dr{": ("Dr{", (186, 186, 20, 20, 147, 147)),
    "Esxw": ("Esxw", (875, 301, 328, 301, 588, 301)),
    # twin-free
    "C5": ("Dhc", (253, 253, 5, 5, 181, 181)),
    "C6": ("EhEG", (102, 102, 6, 6, 73, 73)),
    "P5": ("DhC", (73, 73, 5, 5, 67, 67)),
    "house": ("Dhs", (483, 301, 21, 21, 394, 301)),
    "prism3": ("E{Sw", (307, 301, 6, 6, 442, 301)),
    "bull": ("DyG", (196, 196, 5, 5, 165, 165)),
}


@pytest.mark.parametrize("name", list(_TREE_PINS))
def test_search_trees_are_pinned(name):
    g6, pins = _TREE_PINS[name]
    g = sl.parse_graph6(g6)
    got = []
    for solve in (sl.sum_index, sl.difference_index, sl.exclusive_sum_number):
        for cfg in (SearchConfig(), SearchConfig(node_budget=300)):
            try:
                got.append(solve(g, cfg).nodes_expanded)
            except SolverError:
                got.append(None)
    assert tuple(got) == pins


def test_exclusive_results_are_pinned(connected_by_n):
    """epsilon over the connected graphs with 2 <= n <= 6: to_json_dict()
    without wall_ms and node counts as sorted-key JSON lines joined by "\\n",
    and the node total apart, so that the exclusive branch of the search and
    the exclusive refutation keep their results and their trees."""
    corpus = [g for n in range(2, 7) for g in connected_by_n[n]]
    assert len(corpus) == 142
    nodes = 0
    lines = []
    for g in corpus:
        rec = sl.exclusive_sum_number(g).to_json_dict()
        del rec["wall_ms"]
        nodes += rec.pop("nodes_expanded")
        lines.append(json.dumps(rec, sort_keys=True))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "8f0e575780c509b72c632ae29d923ac79e973e6b586cda8e41724d06a97cc217"
    assert nodes == 81_822

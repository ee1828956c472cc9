"""Sum number, exclusive sum number, and the G_+(S, T) realisation."""

import random
from itertools import combinations, permutations

import pytest

import sumlab as sl
from sumlab import LabelKind, SearchConfig, SolverError


def _check_sum_graph(g, res):
    """The witness labelling plus its isolated labels must satisfy the full
    sum-graph condition: a pair is adjacent iff its sum is a label."""
    f = res.witness.as_dict()
    labels = sorted(f.values()) + list(res.isolated_labels)
    assert len(set(labels)) == len(labels)
    wset = set(labels)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.has_edge(u, v) == (f[u] + f[v] in wset)
    for w in res.isolated_labels:
        for z in wset:
            if z != w:
                assert w + z not in wset


def test_sum_number_k2():
    res = sl.sum_number(sl.complete_graph(2), SearchConfig(label_bound=20))
    assert res.value == 1
    _check_sum_graph(sl.complete_graph(2), res)


def test_sum_number_p3_tree():
    res = sl.sum_number(sl.path_graph(3), SearchConfig(label_bound=20))
    assert res.value == 1
    _check_sum_graph(sl.path_graph(3), res)


def test_sum_number_triangle():
    res = sl.sum_number(sl.complete_graph(3), SearchConfig(label_bound=30))
    assert res.value == 2
    _check_sum_graph(sl.complete_graph(3), res)


def test_sum_number_star_tree():
    g = sl.Graph(4, [(0, 1), (0, 2), (0, 3)])
    res = sl.sum_number(g, SearchConfig(label_bound=30))
    assert res.value == 1
    _check_sum_graph(g, res)


def test_sum_number_requires_connected():
    with pytest.raises(SolverError):
        sl.sum_number(sl.Graph(3, [(0, 1)]))
    with pytest.raises(SolverError):
        sl.sum_number(sl.Graph(1))


def test_exclusive_k2():
    res = sl.exclusive_sum_number(sl.complete_graph(2))
    assert res.value == 1
    assert res.exclusive.S == (1, 2)
    assert res.exclusive.T == (3,)


def test_exclusive_p3():
    res = sl.exclusive_sum_number(sl.path_graph(3))
    assert res.value == 2
    res.exclusive.validate(sl.path_graph(3))


def test_exclusive_k4_matches_sum_index():
    g = sl.complete_graph(4)
    res = sl.exclusive_sum_number(g)
    assert res.value == 5
    assert res.value == sl.sum_index(g).value
    res.exclusive.validate(g)


def test_exclusive_star():
    g = sl.Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    res = sl.exclusive_sum_number(g)
    assert res.value == 4  # the centre's edge sums are pairwise distinct
    res.exclusive.validate(g)


def test_exclusive_witness_dominates_sum_index(connected_by_n):
    rng = random.Random(17)
    pool = connected_by_n[4] + rng.sample(connected_by_n[5], 5)
    for g in pool:
        eps = sl.exclusive_sum_number(g)
        eps.exclusive.validate(g)
        # the induced vertex labelling realises exactly |T| distinct sums
        e = sl.derive_edge_labelling(g, eps.witness, LabelKind.SUM)
        assert sl.distinct_value_count(e) == len(eps.exclusive.T) == eps.value
        assert sl.sum_index(g).value <= eps.value


def test_sigma_at_most_exclusive():
    for g in (
        sl.complete_graph(2),
        sl.path_graph(3),
        sl.complete_graph(3),
        sl.path_graph(4),
        sl.Graph(4, [(0, 1), (0, 2), (0, 3)]),
    ):
        sigma = sl.sum_number(g, SearchConfig(label_bound=40))
        eps = sl.exclusive_sum_number(g, SearchConfig(label_bound=40))
        assert sigma.value <= eps.value


def _sigma_by_label_sets(g, bound):
    """Independent route to the sum number: enumerate label sets W within
    {1..bound}; W realises the graph plus r isolated vertices exactly when
    the graph on W (w1 ~ w2 iff w1+w2 in W) has r isolated labels and its
    non-isolated part is isomorphic to g."""
    n = g.n
    for r in range(1, g.m + 1):
        for W in combinations(range(1, bound + 1), n + r):
            wset = set(W)
            adj = {w: [] for w in W}
            for i, w1 in enumerate(W):
                for w2 in W[i + 1:]:
                    if w1 + w2 in wset:
                        adj[w1].append(w2)
                        adj[w2].append(w1)
            non_iso = [w for w in W if adj[w]]
            if len(non_iso) != n:
                continue
            idx = {w: i for i, w in enumerate(non_iso)}
            h = sl.Graph(
                n,
                [(idx[w], idx[x]) for w in non_iso for x in adj[w] if idx[w] < idx[x]],
            )
            if sl.canonical_form(h) == sl.canonical_form(g):
                return r
    return None


def _eps_by_assignments(g, bound):
    """Independent route to the exclusive sum number: try every injective
    assignment into {1..bound} and minimise the edge-sum set size.  Returns
    the minimum and the lexicographically least optimal assignment (by
    vertex) that uses the label 1."""
    n = g.n
    best_val = best_wit = None
    # permutations() yields assignments in lexicographic order
    for assign in permutations(range(1, bound + 1), n):
        T = {assign[u] + assign[v] for u, v in g.edges}
        ok = all(
            assign[u] + assign[v] not in T
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        )
        if not ok:
            continue
        if best_val is None or len(T) < best_val:
            best_val, best_wit = len(T), None
        if len(T) == best_val and best_wit is None and 1 in assign:
            best_wit = assign
    return best_val, best_wit


def test_sum_number_matches_label_set_enumeration():
    for g in (
        sl.complete_graph(2),
        sl.path_graph(3),
        sl.complete_graph(3),
        sl.path_graph(4),
        sl.Graph(4, [(0, 1), (0, 2), (0, 3)]),
    ):
        oracle = _sigma_by_label_sets(g, 12)
        solver = sl.sum_number(g, SearchConfig(label_bound=12)).value
        assert oracle == solver


def _sigma_by_assignments(g, bound):
    """Independent route to the sum number: try every injective assignment
    into {1..bound}, take the isolated labels I = T \\ S, and check the
    sum-graph conditions directly.  Returns the least |I|, or None when no
    assignment realises the graph."""
    n = g.n
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    best = None
    for assign in permutations(range(1, bound + 1), n):
        S = set(assign)
        T = {assign[u] + assign[v] for u, v in g.edges}
        W = S | T
        if any(assign[u] + assign[v] in W for u, v in non_edges):
            continue
        I = T - S
        if best is not None and len(I) >= best:
            continue
        # an isolated vertex is adjacent to nothing, graph vertex or isolated
        if any(w + z in W for w in I for z in W if z != w):
            continue
        best = len(I)
    return best


def test_sum_number_matches_assignment_enumeration(connected_by_n):
    for n in range(2, 6):
        bound = 2 * n + 2 if n < 5 else 9
        for g in connected_by_n[n]:
            value = _sigma_by_assignments(g, bound)
            cfg = SearchConfig(label_bound=bound)
            if value is None:
                with pytest.raises(SolverError, match=r"no sum labelling within label range"):
                    sl.sum_number(g, cfg)
                continue
            res = sl.sum_number(g, cfg)
            assert res.exhaustive_within_range
            assert res.value == value
            _check_sum_graph(g, res)


def _binary_tree_7():
    return sl.Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])


@pytest.mark.parametrize(
    "graph,cfg,expect",
    [
        # cycles other than C4 have sum number 2 (Harary 1994)
        (sl.cycle_graph(5), SearchConfig(node_budget=1_000_000), 2),
        (sl.cycle_graph(6), SearchConfig(node_budget=1_000_000), 2),
        (sl.cycle_graph(7), SearchConfig(node_budget=1_000_000), 2),
        # trees have sum number 1 (Ellingham 1993)
        (sl.path_graph(8), SearchConfig(node_budget=1_000_000), 1),
        (sl.Graph(6, [(0, v) for v in range(1, 6)]), SearchConfig(node_budget=1_000_000), 1),
        (_binary_tree_7(), SearchConfig(node_budget=1_000_000), 1),
        (sl.cycle_graph(4), SearchConfig(node_budget=1_000_000), 3),
        # sigma(K_n) = 2n - 3 for n >= 4 (Bergstrand et al. 1989)
        (sl.complete_graph(4), SearchConfig(label_bound=16), 5),
    ],
)
def test_sum_number_closed_forms(graph, cfg, expect):
    res = sl.sum_number(graph, cfg)
    assert res.exhaustive_within_range
    assert res.value == expect
    _check_sum_graph(graph, res)


def test_sum_number_budget_in_full_range_proof_flags_upper_bound():
    # the cheap pass at cap 16 finds sigma(C4) = 3; proving 2 infeasible over
    # the default range 1..64 needs far more than 20k nodes
    c4 = sl.cycle_graph(4)
    res = sl.sum_number(c4, SearchConfig(node_budget=20_000))
    assert res.value == 3
    assert not res.exhaustive_within_range
    _check_sum_graph(c4, res)


def test_exclusive_matches_assignment_enumeration(connected_by_n):
    for n in range(2, 5):
        for g in connected_by_n[n]:
            bound = 2 * n
            value, witness = _eps_by_assignments(g, bound)
            res = sl.exclusive_sum_number(g, SearchConfig(label_bound=bound))
            assert res.exhaustive_within_range
            assert res.value == value
            assert tuple(res.witness.as_dict()[v] for v in range(n)) == witness


def test_realize_gplus_examples():
    assert sl.realize_gplus({1, 2}, {3}) == sl.complete_graph(2)
    assert sl.realize_gplus({1, 2, 3}, {3, 5}).edges == ((0, 1), (1, 2))
    assert sl.realize_gplus({1, 2, 3}, set()).m == 0
    with pytest.raises(SolverError):
        sl.realize_gplus(set(), {1})


def test_shift_equivalence_examples():
    assert sl.shift_equivalence_check({1, 2}, {3}, 5)
    assert sl.shift_equivalence_check({1, 2, 3}, {3, 5}, 1)
    assert sl.shift_equivalence_check({1, 2}, {3}, 0)


def test_shift_equivalence_random():
    rng = random.Random(23)
    for _ in range(200):
        s = rng.sample(range(1, 40), rng.randint(1, 6))
        t = rng.sample(range(1, 80), rng.randint(0, 6))
        assert sl.shift_equivalence_check(s, t, rng.randint(0, 25))


def test_exclusive_range_too_small_raises():
    # labels {1..4} force a leaf pair of the 3-star to sum into T for every
    # choice of centre, so no exclusive labelling exists within the range
    star = sl.Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(SolverError):
        sl.exclusive_sum_number(star, SearchConfig(label_bound=4))


def test_exclusive_escalates_out_of_small_range():
    star = sl.Graph(4, [(0, 1), (0, 2), (0, 3)])
    res = sl.exclusive_sum_number(star, SearchConfig(label_bound=4, escalate=True))
    assert res.value == 3
    assert res.range_used > 4


def test_budget_exhaustion_is_not_reported_as_range_exhaustion():
    k5 = sl.parse_graph6("D~{")
    for fn in (sl.sum_number, sl.exclusive_sum_number):
        with pytest.raises(SolverError, match=r"node budget of 20 ran out after 21 nodes"):
            fn(k5, SearchConfig(node_budget=20))
    # an exhausted range, searched to the end, still says so
    star = sl.Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(SolverError, match=r"within label range 1\.\.4; increase"):
        sl.exclusive_sum_number(star, SearchConfig(label_bound=4))

"""Sum number, exclusive sum number, and the G_+(S, T) realisation."""

import hashlib
import json
import random
from dataclasses import replace
from itertools import combinations, permutations

import pytest

import sumlab as sl
from sumlab import LabelKind, SearchConfig, SolverError, solvers
from sumlab.partition import refuter


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


@pytest.mark.parametrize("S, T, message", [
    ((1, 2, 4), (3, 5), "assignment image differs from S"),
    ((1, 2, 3), (5,), r"edge \(0,1\) sums outside T"),
    ((1, 2, 3), (3, 4, 5), r"non-edge \(0,2\) sums into T"),
    ((1, 2, 3), (3, 5, 9), "T is not exactly the set of edge sums"),
])
def test_exclusive_witness_validate_rejects_tampering(S, T, message):
    # P3 labelled 1, 2, 3 is realised by S = (1, 2, 3), T = (3, 5)
    g = sl.path_graph(3)
    good = sl.ExclusiveWitness(S=(1, 2, 3), T=(3, 5), assignment=((0, 1), (1, 2), (2, 3)))
    good.validate(g)
    with pytest.raises(SolverError, match=message):
        replace(good, S=S, T=T).validate(g)


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
    """Independent route to the sum number: enumerate label sets W whose
    graph-vertex labels lie in {1..bound} and whose isolated labels lie in
    {1..2*bound} (they are edge sums, as in ``sum_number``); W realises the
    graph plus r isolated vertices exactly when the graph on W (w1 ~ w2 iff
    w1+w2 in W) has r isolated labels and its non-isolated part is
    isomorphic to g."""
    n = g.n
    for r in range(1, g.m + 1):
        for W in combinations(range(1, 2 * bound + 1), n + r):
            wset = set(W)
            adj = {w: [] for w in W}
            for i, w1 in enumerate(W):
                for w2 in W[i + 1:]:
                    if w1 + w2 in wset:
                        adj[w1].append(w2)
                        adj[w2].append(w1)
            non_iso = [w for w in W if adj[w]]
            if len(non_iso) != n or non_iso[-1] > bound:
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
    for g, bound in (
        (sl.complete_graph(2), 12),
        (sl.path_graph(3), 12),
        (sl.complete_graph(3), 12),
        (sl.path_graph(4), 12),
        (sl.Graph(4, [(0, 1), (0, 2), (0, 3)]), 12),
        # tight bounds: the isolated labels exceed the bound
        (sl.complete_graph(2), 2),
        (sl.path_graph(3), 3),
        (sl.complete_graph(3), 4),
    ):
        oracle = _sigma_by_label_sets(g, bound)
        solver = sl.sum_number(g, SearchConfig(label_bound=bound)).value
        assert oracle == solver


def _non_edges(g):
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]


def _sum_graph_sets(g, non_edges, assign):
    """The isolated labels I = T \\ S and W = S u T of an assignment of
    labels to the vertices, or None when the graph plus I is not a sum graph;
    the sum-graph conditions checked directly."""
    S = set(assign)
    T = {assign[u] + assign[v] for u, v in g.edges}
    W = S | T
    if any(assign[u] + assign[v] in W for u, v in non_edges):
        return None
    I = T - S
    # an isolated vertex is adjacent to nothing, graph vertex or isolated
    if any(w + z in W for w in I for z in W if z != w):
        return None
    return I, W


def _sum_labellings(g, bound):
    """Independent route to the sum number: every injective assignment into
    {1..bound} that realises the graph, with its isolated labels I = T \\ S
    and W = S u T."""
    non_edges = _non_edges(g)
    for assign in permutations(range(1, bound + 1), g.n):
        sets = _sum_graph_sets(g, non_edges, assign)
        if sets is not None:
            yield assign, *sets


def _sigma_by_assignments(g, bound):
    """The least |I| over ``_sum_labellings``, or None when no assignment
    realises the graph."""
    return min((len(I) for _, I, _ in _sum_labellings(g, bound)), default=None)


def test_sum_number_matches_assignment_enumeration(connected_by_n):
    # The optimal labellings found also bear out a lemma on the vertex with
    # the greatest label y: y + q, for each neighbour label q, lies above
    # every label and so is isolated (which gives sigma >= min degree), so
    # q < q' with q' - q in W would give (y + q) + (q' - q) = y + q' in W.
    checked = 0
    for n in range(2, 6):
        bound = 2 * n + 2 if n < 5 else 9
        for g in connected_by_n[n]:
            found = list(_sum_labellings(g, bound))
            value = min((len(I) for _, I, _ in found), default=None)
            cfg = SearchConfig(label_bound=bound)
            if value is None:
                with pytest.raises(SolverError, match=r"no sum labelling within label range"):
                    sl.sum_number(g, cfg)
                continue
            res = sl.sum_number(g, cfg)
            assert res.exhaustive_within_range
            assert res.value == value
            _check_sum_graph(g, res)
            for assign, I, W in found:
                if len(I) == value:
                    last = max(range(n), key=assign.__getitem__)
                    nbrs = sorted(assign[u] for u in g.adj[last])
                    assert not any(q - p in W for p, q in combinations(nbrs, 2))
                    checked += len(nbrs) > 1
    assert checked == 746


def _sigma_find(monkeypatch, g):
    """The find(r, cap, prove) that sum_number hands the ascent driver on g,
    taken from a solve, and the solve's value."""
    specs = []
    real = solvers._solve

    def solve(spec, *args):
        specs.append(spec)
        return real(spec, *args)

    monkeypatch.setattr(solvers, "_solve", solve)
    value = sl.sum_number(g).value
    monkeypatch.setattr(solvers, "_solve", real)
    return specs[0].find, value


def test_sum_number_find_matches_assignment_enumeration(connected_by_n, monkeypatch):
    # find(r, cap, prove) walks the integer points of the passing positive
    # typed partitions at r, so it must return a sum labelling with labels
    # in 1..cap and at most r isolated labels exactly when brute force finds
    # one there, at every cap the driver may ask for (n and above) and not
    # only at sigma: at the least r brute force reaches within the cap and
    # one below it, or at sigma where it reaches none.  The walk is complete
    # because every such labelling is a point of its own partition.  Asked
    # to prove r, it answers _REFUTED, which counts as no labelling, exactly
    # below sigma, as every sigma here is range-free
    checked = 0
    for n in range(2, 6):
        for g in connected_by_n[n]:
            top = 2 * n + 2 if n < 5 else 9
            least = {}  # cap -> the least |I| over labellings within it
            non_edges = _non_edges(g)
            for assign, I, _ in _sum_labellings(g, top):
                cap = max(assign)
                least[cap] = min(least.get(cap, len(I)), len(I))
            find, sigma = _sigma_find(monkeypatch, g)
            lower = min(len(a) for a in g.adj)
            for cap in range(n, top + 1):
                best = min((k for c, k in least.items() if c <= cap), default=None)
                for r in ([sigma] if best is None else [best - 1, best]):
                    if r < lower:
                        continue
                    f = find(r, cap, True)
                    assert (f is solvers._REFUTED) == (r < sigma), (sl.emit_graph6(g), r, cap)
                    if f is solvers._REFUTED:
                        f = None
                    assert (f is not None) == (best is not None and best <= r), (
                        sl.emit_graph6(g), r, cap)
                    if f is not None:
                        assert max(f) <= cap and min(f) >= 1
                        sets = _sum_graph_sets(g, non_edges, f)
                        assert sets is not None and len(sets[0]) <= r and len(set(f)) == n
                    checked += 1
    assert checked == 183


@pytest.mark.parametrize(
    "text,bound",
    # ranges in which a look-ahead one step too strong loses the optimum:
    # thresholds x < F - q - 1 (Dso, Esb_); sure reuses below M counted as
    # thresholds (Cu, DsW); a last label never covering a free sum when the
    # leaf before it has no placed neighbour (EqHO: 6 on the leaf, 7 = 2 + 5
    # on its neighbour); no cover term at all, or need one higher (Bo, Bw);
    # a last vertex whose edge sums y + q reuse old sums, which a count at the
    # next-to-last placement must not miss (Esrw)
    [("Dso", 6), ("Dso", 7), ("Esb_", 7), ("Cu", 5), ("DsW", 6), ("EqHO", 7),
     ("Bo", 4), ("Bw", 4), ("Esrw", 11)],
)
def test_sum_number_last_vertex_look_ahead_cases(text, bound):
    g = sl.parse_graph6(text)
    res = sl.sum_number(g, SearchConfig(label_bound=bound))
    assert res.exhaustive_within_range
    assert res.value == _sigma_by_assignments(g, bound)
    _check_sum_graph(g, res)


def _binary_tree_7():
    return sl.Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])


def _wheel(k):
    return sl.Graph(k + 1, [(i, (i + 1) % k) for i in range(k)] + [(k, i) for i in range(k)])


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
        (sl.complete_graph(5), SearchConfig(label_bound=40), 7),
        (sl.complete_graph(6), SearchConfig(), 9),
        (sl.complete_graph(7), SearchConfig(), 11),
        # the wheel W_k, a hub k joined to every vertex of the cycle C_k:
        # k/2 + 2 for even k >= 4, k for odd k >= 5 (Miller, Ryan, Slamin
        # and Smyth 1998)
        (_wheel(4), SearchConfig(), 4),
        (_wheel(5), SearchConfig(), 5),
        (_wheel(6), SearchConfig(), 5),
    ],
)
def test_sum_number_closed_forms(graph, cfg, expect):
    res = sl.sum_number(graph, cfg)
    assert res.exhaustive_within_range
    assert res.range_free
    assert res.value == expect
    _check_sum_graph(graph, res)


@pytest.mark.parametrize(
    "m,n,expect",
    # the lab's own values, each a partition floor with a witness checked
    # here; no closed form for K_{m,n} is pinned
    [(2, 3, 3), (2, 4, 4), (2, 5, 4), (2, 6, 4), (3, 3, 5), (3, 4, 5), (3, 5, 6), (4, 4, 7)],
)
def test_sum_number_of_complete_bipartite_graphs(m, n, expect):
    g = sl.Graph(m + n, [(u, v) for u in range(m) for v in range(m, m + n)])
    res = sl.sum_number(g)
    assert (res.value, res.range_free, res.exhaustive_within_range) == (expect, True, True)
    _check_sum_graph(g, res)


def test_sum_number_search_tree_of_k5_is_pinned():
    # the solve: the cheap pass refutes 4, 5 and 6 and reaches a passing
    # partition at 7 in 498 nodes, and takes its witness from it, in 12
    # more, one per point checked; a change that cuts the floor's tree on
    # purpose updates the pin
    res = sl.sum_number(sl.complete_graph(5), SearchConfig(label_bound=40))
    assert (res.value, res.exhaustive_within_range, res.range_free) == (7, True, True)
    assert res.nodes_expanded == 510


def test_node_budget_bounds_the_sum_number_points_walk():
    # K5 has no sum labelling with labels in 1..9, so each target's walk over
    # its passing partitions' points finds nothing: with no budget the solve
    # checks 72,084 points and ends with the range error; each point ticks a
    # node, so a budget of 2,000 cuts the walk instead
    g = sl.complete_graph(5)
    with pytest.raises(SolverError, match=r"^node budget of 2000 ran out after 2001 nodes "):
        sl.sum_number(g, SearchConfig(label_bound=9, node_budget=2_000))
    with pytest.raises(SolverError, match=r"^no sum labelling within label range 1\.\.9;"):
        sl.sum_number(g, SearchConfig(label_bound=9))


def test_sum_floor_never_exceeds_brute_force(connected_by_n):
    """The typed-partition floor against brute force from the sum-graph
    definition over labels 1..10, on every connected graph with n <= 5: the
    refutation never rules out the least number of isolated labels found
    there, and the floor, from the least degree as ``sum_number`` takes it,
    equals it on 28 graphs (on Ds{ the range is too small for sigma = 3, and
    K5 has no sum labelling in it).  Every sum number there is range-free."""
    equal = 0
    values = {}
    for n in range(2, 6):
        for g in connected_by_n[n]:
            brute = _sigma_by_assignments(g, 10)
            search = refuter(g, "sum_graph")
            lower = next((t for t in range(min(len(a) for a in g.adj), g.m + 1)
                          if search(t) is not None), g.m + 1)
            if brute is not None:
                assert refuter(g, "sum_graph")(brute) is not None, sl.emit_graph6(g)
                assert lower <= brute
                equal += lower == brute
            res = sl.sum_number(g)
            assert (res.value, res.range_free, res.exhaustive_within_range) == (lower, True, True)
            values[sl.emit_graph6(g)] = res.value
    assert equal == 28
    # four graphs the label search alone left budget-limited at 1M nodes
    assert [values[text] for text in ("Dus", "Du{", "Dr{", "Dv{")] == [4, 5, 4, 6]


def test_sum_number_results_are_pinned(connected_by_n):
    """sigma over the connected graphs with 2 <= n <= 5 at node_budget=20,000:
    to_json_dict() without wall_ms as sorted-key JSON, or the SolverError text
    when the budget runs out before any labelling is found, joined by "\\n",
    and the node total of the results apart, so that a change to how the
    partition search or its point walk runs keeps its results and its tree."""
    corpus = [g for n in range(2, 6) for g in connected_by_n[n]]
    assert len(corpus) == 30
    nodes = errors = limited = 0
    lines = []
    for g in corpus:
        try:
            rec = sl.sum_number(g, SearchConfig(node_budget=20_000)).to_json_dict()
        except SolverError as exc:
            errors += 1
            lines.append(str(exc))
            continue
        del rec["wall_ms"]
        nodes += rec["nodes_expanded"]
        limited += not rec["exhaustive"]
        lines.append(json.dumps(rec, sort_keys=True))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "08065bf4128e1def546caa45a467dd0621792391fc9dc90a5d5edac880ac5f82"
    assert (nodes, errors, limited) == (4_101, 0, 0)


@pytest.mark.parametrize(
    "text,value",
    # the six-vertex graphs whose typed-partition floor rises to sigma with
    # the positivity check: without it, their floors lay below their values
    [("Esq_", 2), ("EsXg", 2), ("EsXW", 3), ("EsZW", 3), ("Eqgw", 3), ("Eqyo", 3),
     ("Eqzo", 3), ("EsXo", 4), ("EsXw", 4), ("Eqno", 4)],
)
def test_sum_number_floor_is_exact_where_positivity_binds(text, value):
    g = sl.parse_graph6(text)
    lower = min(len(a) for a in g.adj)
    search = refuter(g, "sum_graph")
    assert next((t for t in range(lower, g.m + 1) if search(t) is not None), g.m + 1) == value
    res = sl.sum_number(g)
    assert (res.value, res.range_free, res.exhaustive_within_range) == (value, True, True)
    assert max(res.witness.as_dict().values()) <= 4 * g.n
    _check_sum_graph(g, res)


def test_difference_budget_in_full_range_proof_flags_upper_bound(monkeypatch):
    # Es^w: best_df_lower is 3, below the value 4, so the descent runs.  The
    # cheap pass at cap 12 fails at 3 (435 nodes) and finds 4 (57 more),
    # made canonical in 18 more; the one full-range search, t = 3 over
    # 0..21, takes 1,228 nodes, so a budget of 1,000 cuts it and flags the
    # upper bound
    calls = []
    real = solvers._IndexSearch.search

    def search(self, t, cap):
        calls.append((t, cap))
        return real(self, t, cap)

    monkeypatch.setattr(solvers._IndexSearch, "search", search)
    g = sl.parse_graph6("Es^w")
    res = sl.difference_index(g, SearchConfig(node_budget=1_000))
    assert (res.value, res.exhaustive_within_range, res.range_free) == (4, False, False)
    assert res.nodes_expanded == 1_001
    assert calls == [(3, 12), (4, 12), (3, 21)]
    f = res.witness.as_dict()
    assert len({abs(f[u] - f[v]) for u, v in g.edges}) == 4
    assert len(set(f.values())) == g.n and all(0 <= x <= 21 for x in f.values())


def test_exclusive_budget_in_full_range_proof_flags_upper_bound():
    # eps(Ds{) = 5: refuting 4 and passing 5 take 19 nodes, the cheap pass at
    # cap 2n = 10 finds S = (1, 2, 3, 9, 10) with 5 more, and making it
    # canonical at the same cap, S = (1, 2, 3, 4, 6), 12 more.  A budget cut in
    # the canonical pass (24 cuts it at its first node, 35 at its last) leaves
    # the exact, range-free value with the raw witness, flagged as not
    # exhaustive.
    g = sl.parse_graph6("Ds{")
    for budget in (24, 35):
        res = sl.exclusive_sum_number(g, SearchConfig(node_budget=budget))
        assert (res.value, res.nodes_expanded) == (5, budget + 1)
        assert not res.exhaustive_within_range
        assert res.range_free
        assert res.range_used == 100
        assert res.exclusive.S == (1, 2, 3, 9, 10)
        res.exclusive.validate(g)
    res = sl.exclusive_sum_number(g)
    assert (res.exclusive.S, res.nodes_expanded) == ((1, 2, 3, 4, 6), 36)


def test_sum_number_escalates_out_of_small_range():
    # neither K3 in 1..3 nor C4 in 1..4 has a sum labelling; the doubled
    # range reaches the range-free floor, where escalation stops.  Ds{ has 4
    # in 1..9 and its floor 3 in 1..18
    for g, bound, within, trace in ((sl.complete_graph(3), 3, None, ((6, 2),)),
                                    (sl.cycle_graph(4), 4, None, ((8, 3),)),
                                    (sl.parse_graph6("Ds{"), 9, 4, ((9, 4), (18, 3)))):
        assert _sigma_by_assignments(g, bound) == within
        res = sl.sum_number(g, SearchConfig(label_bound=bound, escalate=True))
        assert (res.exhaustive_within_range, res.range_free) == (True, True)
        assert res.escalation_trace == trace
        assert res.value == trace[-1][1]
        assert res.range_used == trace[-1][0]
        _check_sum_graph(g, res)


def test_sum_number_find_walks_each_partition_once(connected_by_n, monkeypatch):
    # each find runs one partition search, and walks the points of each
    # passing partition it reaches once, whether or not one of them is a
    # labelling
    walked = []
    real_points = solvers.points

    def points(leaf, n, cap):
        walked.append((tuple(leaf[0]), leaf[1], cap))
        return real_points(leaf, n, cap)

    real_solve = solvers._solve

    def solve(spec, *args):
        def find(r, cap, prove):
            walked.clear()
            found = spec.find(r, cap, prove)
            assert len(set(walked)) == len(walked), (r, cap, walked)
            return found

        return real_solve(replace(spec, find=find), *args)

    monkeypatch.setattr(solvers, "points", points)
    monkeypatch.setattr(solvers, "_solve", solve)
    solves = 0
    for n in range(2, 6):
        for g in connected_by_n[n]:
            for bound in range(5, 10):
                try:
                    sl.sum_number(g, SearchConfig(label_bound=bound, node_budget=5_000))
                except SolverError:
                    pass
                solves += 1
    assert solves == 150


def test_sum_number_searches_each_target_once(connected_by_n, monkeypatch):
    # the cheap pass proves the floor with the search that finds the
    # witness, so within one solve no target's partition search runs twice:
    # every connected graph with 3 <= n <= 5 at label ranges 1..5 to 1..9,
    # all within the cheap cap 4n, where no descent runs
    targets = []
    real = solvers.refuter

    def refuter_(g, mode):
        search = real(g, mode)

        def spied(t, *args):
            targets.append(t)
            return search(t, *args)

        return spied

    monkeypatch.setattr(solvers, "refuter", refuter_)
    solves = 0
    for n in range(3, 6):
        for g in connected_by_n[n]:
            for bound in range(5, 10):
                targets.clear()
                try:
                    sl.sum_number(g, SearchConfig(label_bound=bound, node_budget=5_000))
                except SolverError:
                    pass
                assert targets and len(set(targets)) == len(targets), (
                    sl.emit_graph6(g), bound, targets)
                solves += 1
    assert solves == 145


def test_exclusive_matches_assignment_enumeration(connected_by_n):
    for n in range(2, 5):
        for g in connected_by_n[n]:
            bound = 2 * n
            value, witness = _eps_by_assignments(g, bound)
            res = sl.exclusive_sum_number(g, SearchConfig(label_bound=bound))
            assert res.exhaustive_within_range
            assert res.value == value
            assert tuple(res.witness.as_dict()[v] for v in range(n)) == witness


def test_refutation_spares_every_found_labelling(connected_by_n):
    # a search at t that finds nothing claims that no labelling at any range
    # reaches t, so it must find a leaf wherever brute force over {1..2n}
    # finds a labelling, and none below the sum index's lower bound
    for n in range(2, 5):
        for g in connected_by_n[n]:
            value, _ = _eps_by_assignments(g, 2 * n)
            lower = sl.best_sm_lower(g)
            for t in range(g.m + 1):
                if t >= value:
                    assert refuter(g, "exclusive")(t) is not None, (sl.emit_graph6(g), t)
                elif t < lower:
                    assert refuter(g, "exclusive")(t) is None, (sl.emit_graph6(g), t)


def _eps_by_label_search(g):
    """The exclusive sum number within labels 1..4n^2 by the label search
    alone: ascend at cap 4n, then descend at the full cap while labellings
    are found."""
    search = solvers._IndexSearch(g, LabelKind.SUM, solvers._NodeCounter(None), exclusive=True)
    lower = sl.best_sm_lower(g)
    t = lower
    while search.search(t, 4 * g.n) is None:
        t += 1
    while t > lower and search.search(t - 1, 4 * g.n ** 2) is not None:
        t -= 1
    return t


def test_refutation_proves_the_label_search_values(connected_by_n):
    # every connected graph on 2-5 vertices whose exclusive sum number lies
    # above the sum index's lower bound has eps - 1 refuted, and eps never;
    # two relabellings of each graph give the same answers
    rng = random.Random(29)
    graphs = [g for n in range(2, 6) for g in connected_by_n[n]]
    assert len(graphs) == 30
    above = 0
    for g in graphs:
        eps = _eps_by_label_search(g)
        assert refuter(g, "exclusive")(eps) is not None, sl.emit_graph6(g)
        if eps > sl.best_sm_lower(g):
            above += 1
            assert refuter(g, "exclusive")(eps - 1) is None, sl.emit_graph6(g)
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = sl.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            for t in (eps - 1, eps):
                assert (refuter(h, "exclusive")(t) is None) == (
                    refuter(g, "exclusive")(t) is None), (sl.emit_graph6(g), perm)
    assert above > 0


@pytest.mark.parametrize(
    "text,eps,sm",
    # the six connected graphs on 6 vertices with eps = sm + 1, and the two
    # on 7 vertices with eps = sm + 2; then subdivided_complete_kk(5, 2) on 7
    # vertices (eps = sm + 1) and subdivided_complete_kk(6, 2) on 8 (eps =
    # sm + 2), two k = 2 members of that family
    [("EsZ_", 5, 4), ("Esz_", 6, 5), ("Es^o", 6, 5), ("Es^w", 7, 6), ("Es~w", 8, 7),
     ("EqzW", 6, 5), ("Fqzmw", 9, 7), ("Fqz^w", 9, 7), ("F^z?o", 6, 5), ("G^~u?W", 9, 7)],
)
def test_exclusive_exceeds_sum_index(text, eps, sm):
    g = sl.parse_graph6(text)
    res = sl.exclusive_sum_number(g)
    assert (res.value, res.exhaustive_within_range, res.range_free) == (eps, True, True)
    res.exclusive.validate(g)
    index = sl.sum_index(g)
    assert (index.value, index.exhaustive_within_range) == (sm, True)


def test_realize_gplus_examples():
    assert sl.realize_gplus({1, 2}, {3}) == sl.complete_graph(2)
    assert sl.realize_gplus({1, 2, 3}, {3, 5}).edges == ((0, 1), (1, 2))
    assert sl.realize_gplus({1, 2, 3}, set()).m == 0
    with pytest.raises(SolverError):
        sl.realize_gplus(set(), {1})


def _shift_keeps_graph(s, t, r):
    """Shifting S by r and T by 2r realises the same graph: u + v moves by 2r
    and the sorted order of S is kept."""
    return sl.realize_gplus(s, t) == sl.realize_gplus(
        [a + r for a in s], [b + 2 * r for b in t])


def test_shift_equivalence_examples():
    assert _shift_keeps_graph({1, 2}, {3}, 5)
    assert _shift_keeps_graph({1, 2, 3}, {3, 5}, 1)
    assert _shift_keeps_graph({1, 2}, {3}, 0)


def test_shift_equivalence_random():
    rng = random.Random(23)
    for _ in range(200):
        s = rng.sample(range(1, 40), rng.randint(1, 6))
        t = rng.sample(range(1, 80), rng.randint(0, 6))
        assert _shift_keeps_graph(s, t, rng.randint(0, 25))


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
    # the exclusive half runs on Dq{, which has no twins, so its count does
    # not depend on the twin order
    for fn, g6 in ((sl.sum_number, "D~{"), (sl.exclusive_sum_number, "Dq{")):
        with pytest.raises(SolverError, match=r"node budget of 20 ran out after 21 nodes"):
            fn(sl.parse_graph6(g6), SearchConfig(node_budget=20))
    # Ds{: a budget that runs out while the refutations look for the floor,
    # in refuting 4 (11 nodes) or in passing 5 (9 more), raises the same error
    for budget in (10, 19):
        with pytest.raises(SolverError, match=rf"node budget of {budget} ran out after {budget + 1} nodes before any exclusive sum"):
            sl.exclusive_sum_number(sl.parse_graph6("Ds{"), SearchConfig(node_budget=budget))
    # an exhausted range, searched to the end, still says so
    star = sl.Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(SolverError, match=r"within label range 1\.\.4; increase"):
        sl.exclusive_sum_number(star, SearchConfig(label_bound=4))

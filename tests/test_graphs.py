import hashlib
import random
import time
from itertools import combinations, islice, permutations

import pytest

import sumlab as sl
from sumlab import Graph, Graph6Error, EdgeListError, UnsupportedSizeError
from sumlab import graphs
from sumlab.graphs import branch_order


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def test_graph_normalises_edges():
    g = Graph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == ((0, 2), (1, 2))
    assert g.m == 2
    assert g.adj == ((2,), (2,), (0, 1))


def test_graph_rejects_loops_and_bad_endpoints():
    with pytest.raises(sl.GraphError):
        Graph(2, [(0, 0)])
    with pytest.raises(sl.GraphError):
        Graph(2, [(0, 2)])
    with pytest.raises(sl.GraphError):
        Graph(-1)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,n,edges",
    [
        ("A_", 2, ((0, 1),)),
        ("Bw", 3, ((0, 1), (0, 2), (1, 2))),
        ("A?", 2, ()),
        ("@", 1, ()),
    ],
)
def test_parse_graph6_known(text, n, edges):
    g = sl.parse_graph6(text)
    assert (g.n, g.edges) == (n, edges)


def test_parse_graph6_header_tolerated():
    assert sl.parse_graph6(">>graph6<<A_") == sl.complete_graph(2)


@pytest.mark.parametrize(
    "text",
    ["", "A", "Bww", "A\x1f", "~??", "B"],
)
def test_parse_graph6_malformed(text):
    with pytest.raises(Graph6Error):
        sl.parse_graph6(text)


def test_parse_graph6_error_carries_offset():
    with pytest.raises(Graph6Error) as err:
        sl.parse_graph6("B\x05\x05")
    assert err.value.offset == 1


def test_emit_graph6_known():
    assert sl.emit_graph6(sl.complete_graph(2)) == "A_"
    assert sl.emit_graph6(sl.complete_graph(3)) == "Bw"
    assert sl.emit_graph6(Graph(1)) == "@"


def test_emit_graph6_size_limit():
    # the 4-byte long form holds n <= 2^18 - 1; larger graphs would need the
    # 8-byte form, which is neither read nor written
    with pytest.raises(UnsupportedSizeError):
        sl.emit_graph6(Graph(1 << 18))


def test_graph6_long_form():
    # n = 63 is "~" and the groups 0, 0, 63; 63 * 62 / 2 bits fill 326 bytes
    assert sl.emit_graph6(Graph(63)) == "~??~" + "?" * 326
    assert sl.parse_graph6("~??~" + "?" * 326) == Graph(63)
    with pytest.raises(Graph6Error, match="8-byte"):
        sl.parse_graph6("~~?????~" + "?" * 326)
    with pytest.raises(Graph6Error):
        sl.parse_graph6("~??")
    with pytest.raises(Graph6Error):
        sl.parse_graph6("~??~" + "?" * 325)


def test_graph6_round_trip(connected_by_n):
    for n, graphs in connected_by_n.items():
        for g in graphs:
            assert sl.parse_graph6(sl.emit_graph6(g)) == g


def test_graph6_round_trip_is_linear_in_the_body():
    # n = 2,001 has a body of 333,500 bytes; a reader that holds the body as
    # one int and shifts it per pair took over a minute on this graph
    g = sl.chained_odd_cycles(1, 1000).graph
    start = time.perf_counter()
    back = sl.parse_graph6(sl.emit_graph6(g))
    assert time.perf_counter() - start < 10
    assert back == g


def test_graph6_round_trip_random():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(0, 12)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        assert sl.parse_graph6(sl.emit_graph6(g)) == g


def _check_graph6_against_networkx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    text = sl.emit_graph6(g)
    assert text.encode() + b"\n" == nx.to_graph6_bytes(h, header=False)
    back = nx.from_graph6_bytes(text.encode())
    assert sl.parse_graph6(text) == Graph(back.number_of_nodes(), back.edges()) == g


def test_graph6_agrees_with_networkx(connected_by_n, connected_7):
    nx = pytest.importorskip("networkx")
    for graphs in (*connected_by_n.values(), connected_7):
        for g in graphs:
            _check_graph6_against_networkx(nx, g)
    rng = random.Random(6)
    for n in range(63):
        for density in (0.1, 0.5, 0.9):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
            _check_graph6_against_networkx(nx, Graph(n, edges))


def test_graph6_long_form_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(117)
    for n in (62, 63, 117):
        for density in (0.0, 0.1, 0.5):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
            _check_graph6_against_networkx(nx, Graph(n, edges))
    _check_graph6_against_networkx(nx, sl.chained_odd_cycles(1, 58).graph)


# ---------------------------------------------------------------------------
# edge lists
# ---------------------------------------------------------------------------

def test_parse_edge_list_basic():
    assert sl.parse_edge_list("n 2\n0 1") == sl.complete_graph(2)


def test_parse_edge_list_duplicates_collapse():
    g = sl.parse_edge_list("n 3\n0 1\n1 0")
    assert g.edges == ((0, 1),)


@pytest.mark.parametrize(
    "text,line",
    [
        ("n 2\n0 0", 2),
        ("n 2\n0 2", 2),
        ("n 2\nx y", 2),
        ("m 2\n0 1", 1),
        ("n 2\n0 1 2", 2),
    ],
)
def test_parse_edge_list_errors(text, line):
    with pytest.raises(EdgeListError) as err:
        sl.parse_edge_list(text)
    assert err.value.line == line


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------

def test_degree_sequence_examples():
    assert sl.degree_sequence(sl.subdivided_complete(4).graph).degrees == (2, 3, 3, 3, 3)
    assert sl.degree_sequence(sl.prism(3).graph).degrees == (3,) * 6
    assert sl.degree_sequence(Graph(1)).degrees == (0,)


def test_degree_sequence_delta_accessor():
    ds = sl.degree_sequence(sl.path_graph(3))
    assert (ds.delta(1), ds.delta(2), ds.delta(3)) == (1, 1, 2)
    with pytest.raises(sl.GraphError):
        ds.delta(0)
    with pytest.raises(sl.GraphError):
        ds.delta(4)


def test_handshake(connected_by_n):
    for graphs in connected_by_n.values():
        for g in graphs:
            assert sum(sl.degree_sequence(g).degrees) == 2 * g.m


def test_branch_order():
    assert branch_order(Graph(0)) == []
    # 0, 2 and 4 tie at maximum degree 2, so the order starts at 0; then
    # 2 and 3 each have one ordered neighbour and 2 has the higher degree,
    # and 4 (degree 2) comes before 3 and 1 (degree 1), which tie on both
    g = Graph(5, [(2, 4), (2, 0), (4, 1), (0, 3)])
    assert branch_order(g) == [0, 2, 4, 1, 3]
    assert branch_order(g, 1) == [1, 4, 2, 0, 3]
    # stars at 1 and 4 tie at degree 3; the unreached star follows from its
    # centre, its degree beating the leaves' once no vertex has an ordered
    # neighbour, and every vertex appears exactly once
    stars = Graph(8, [(1, 7), (1, 3), (1, 5), (4, 6), (4, 0), (4, 2)])
    assert branch_order(stars) == [1, 3, 5, 7, 4, 0, 2, 6]


# ---------------------------------------------------------------------------
# bipartiteness
# ---------------------------------------------------------------------------

def _has_proper_two_colouring(g):
    # every colouring as a bitmask, vertex 0 fixed to colour 0: swapping the
    # two colours maps the colourings with vertex 0 at 1 onto these
    return any(all((c >> u ^ c >> v) & 1 for u, v in g.edges)
               for c in range(0, 1 << g.n, 2))


def test_bipartite_prism4_with_colouring():
    g = sl.prism(4).graph
    assert sl.is_bipartite(g)
    assert _has_proper_two_colouring(g)


def test_not_bipartite_prism3_short_witness():
    g = sl.prism(3).graph
    assert not sl.is_bipartite(g)
    # its two triangles are the shortest odd cycles
    assert sl.count_cycles_of_length(g, 3) == 2


def test_bipartite_empty_graph():
    assert sl.is_bipartite(Graph(0))
    assert sl.is_bipartite(Graph(4))


def test_is_bipartite_matches_brute_force(connected_by_n, connected_7):
    verdicts = [0, 0]
    for g in [g for gs in connected_by_n.values() for g in gs] + connected_7:
        expected = _has_proper_two_colouring(g)
        assert sl.is_bipartite(g) == expected, sl.emit_graph6(g)
        verdicts[expected] += 1
    # 996 connected classes on 1..7 vertices, of which 1, 1, 1, 3, 5, 17
    # and 44 are bipartite (OEIS A005142)
    assert verdicts == [924, 72]


# ---------------------------------------------------------------------------
# girth and cycle counting
# ---------------------------------------------------------------------------

def test_girth_examples():
    assert sl.girth(sl.chained_odd_cycles(3, 2).graph) == 7
    assert sl.girth(sl.complete_graph(4)) == 3
    assert sl.girth(sl.path_graph(5)) is None


def test_count_cycles_examples():
    assert sl.count_cycles_of_length(sl.complete_graph(4), 3) == 4
    assert sl.count_cycles_of_length(sl.prism(3).graph, 3) == 2
    assert sl.count_cycles_of_length(sl.chained_odd_cycles(2, 3).graph, 5) == 3


def _triangles_by_brute_force(g):
    edges = set(g.edges)
    return sum(1 for a, b, c in combinations(range(g.n), 3)
               if (a, b) in edges and (a, c) in edges and (b, c) in edges)


def test_triangle_count_matches_brute_force(connected_by_n, connected_7):
    """Triangles come from the edges, sum |N(u) & N(v)| / 3; the oracle
    tests every vertex triple."""
    rng = random.Random(3)
    graphs = [g for gs in connected_by_n.values() for g in gs] + connected_7
    for _ in range(120):
        n, density = rng.randint(0, 30), rng.randint(0, 10) / 10
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density]))
    graphs += [sl.complete_graph(n) for n in range(13)]
    for g in graphs:
        assert sl.count_cycles_of_length(g, 3) == _triangles_by_brute_force(g)
    assert sl.count_cycles_of_length(sl.chained_odd_cycles(1, 1000).graph, 3) == 1000


def _cycles_by_brute_force(g, length):
    edges = set(g.edges) | {(v, u) for u, v in g.edges}
    found = 0
    for subset in combinations(range(g.n), length):
        first = subset[0]
        for rest in permutations(subset[1:]):
            order = (first,) + rest + (first,)
            if all((order[i], order[i + 1]) in edges for i in range(length)):
                found += 1
    return found // 2


def test_cycle_counts_match_brute_force(connected_by_n):
    """Lengths 4..n+2; the oracle tries every vertex subset of that size and
    every order of it from its least vertex, and halves for the direction."""
    rng = random.Random(11)
    graphs = [g for gs in connected_by_n.values() for g in gs]
    for _ in range(40):
        n, density = rng.randint(4, 8), rng.randint(2, 9) / 10
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density]))
    for g in graphs:
        for length in range(4, g.n + 3):
            assert sl.count_cycles_of_length(g, length) == _cycles_by_brute_force(g, length)


def test_cycle_count_past_n_runs_no_search():
    # a path search over K11 for 12-cycles took over 7 s before it was cut
    start = time.perf_counter()
    assert sl.count_cycles_of_length(sl.complete_graph(11), 12) == 0
    assert time.perf_counter() - start < 1


def test_count_cycles_rejects_short_lengths():
    with pytest.raises(sl.GraphError):
        sl.count_cycles_of_length(sl.complete_graph(3), 2)


def test_girth_matches_cycle_enumeration(connected_by_n):
    for graphs in connected_by_n.values():
        for g in graphs:
            by_count = None
            for length in range(3, g.n + 1):
                if sl.count_cycles_of_length(g, length):
                    by_count = length
                    break
            assert sl.girth(g) == by_count


# ---------------------------------------------------------------------------
# canonical forms and enumeration
# ---------------------------------------------------------------------------

def test_canonical_form_identifies_relabellings():
    p3a = Graph(3, [(0, 1), (1, 2)])
    p3b = Graph(3, [(2, 1), (0, 2)])
    assert sl.canonical_form(p3a) == sl.canonical_form(p3b)
    assert sl.canonical_form(p3a) != sl.canonical_form(sl.complete_graph(3))


def test_canonical_form_k4_minus_edge():
    base = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    forms = set()
    for perm in ((0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2)):
        edges = [(perm[u], perm[v]) for u, v in base.edges]
        forms.add(sl.canonical_form(Graph(4, edges)))
    assert len(forms) == 1


def test_canonical_form_permutation_invariant(connected_by_n):
    rng = random.Random(7)
    for n in range(2, 7):
        for g in rng.sample(connected_by_n[n], min(4, len(connected_by_n[n]))):
            want = sl.canonical_form(g)
            for _ in range(100):
                perm = list(range(n))
                rng.shuffle(perm)
                h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
                assert sl.canonical_form(h) == want


def _brute_canonical(g):
    """Test-only oracle: the least column-major adjacency bit string over all
    vertex orders, by taking min over every permutation, encoded as graph6
    bytes (first byte n + 63, then 6-bit groups + 63, zero padded)."""
    n = g.n
    adj = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        adj[u][v] = adj[v][u] = 1
    cells = [(i, j) for j in range(1, n) for i in range(j)]
    best = min(tuple([adj[p[i]][p[j]] for i, j in cells]) for p in permutations(range(n)))
    bits = "".join(map(str, best))
    bits += "0" * (-len(bits) % 6)
    return bytes([n + 63] + [int(bits[k:k + 6], 2) + 63 for k in range(0, len(bits), 6)])


def test_canonical_form_matches_brute_force_bytes():
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            assert sl.canonical_form(g) == _brute_canonical(g)
    rng = random.Random(2024)
    sample = [
        sl.complete_graph(8),
        Graph(8),
        sl.cycle_graph(8),
        # disconnected: two 4-cycles, K4 plus four isolated vertices,
        # two triangles, P3 beside C4
        Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]),
        Graph(8, combinations(range(4), 2)),
        Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)]),
    ]
    for n in (6, 7, 8):
        for p in (0.3, 0.5, 0.7):
            sample.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    for g in sample:
        assert sl.canonical_form(g) == _brute_canonical(g), g.edges


def test_canonical_form_matches_brute_force_on_connected_six(connected_by_n):
    # every connected 6-vertex graph under one seeded relabelling each; the
    # exhaustive test above stops at n = 5
    rng = random.Random(6)
    for g in connected_by_n[6]:
        perm = list(range(6))
        rng.shuffle(perm)
        h = Graph(6, [(perm[u], perm[v]) for u, v in g.edges])
        assert sl.canonical_form(h) == _brute_canonical(h), g.edges


def test_canonical_form_census_matches_networkx_atlas(connected_by_n, connected_7):
    nx = pytest.importorskip("networkx")
    atlas: dict[int, list[bytes]] = {}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n and nx.is_connected(h):
            atlas.setdefault(n, []).append(sl.canonical_form(Graph(n, h.edges())))
    assert sorted(atlas) == list(range(1, 8))
    for n, keys in atlas.items():
        graphs = connected_7 if n == 7 else connected_by_n[n]
        ours = [sl.canonical_form(g) for g in graphs]
        # one-to-one: distinct keys on both sides, and the same set of them
        assert len(set(keys)) == len(keys) == len(set(ours)) == len(ours)
        assert set(keys) == set(ours)


def test_canonical_form_agrees_with_networkx_isomorphism():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(2, 8)
        pairs = list(combinations(range(n), 2))
        m = rng.randint(0, len(pairs))
        g = Graph(n, rng.sample(pairs, m))
        h = Graph(n, rng.sample(pairs, m))
        same = sl.canonical_form(g) == sl.canonical_form(h)
        gx, hx = nx.Graph(g.edges), nx.Graph(h.edges)
        gx.add_nodes_from(range(n))
        hx.add_nodes_from(range(n))
        assert same == nx.is_isomorphic(gx, hx), (g.edges, h.edges)
        outcomes.add(same)
    assert outcomes == {True, False}


def test_canonical_form_size_limit():
    with pytest.raises(UnsupportedSizeError):
        sl.canonical_form(Graph(9))


def test_enumerate_connected_census(connected_by_n, connected_7):
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for n, count in expected.items():
        graphs = connected_7 if n == 7 else connected_by_n[n]
        assert len(graphs) == count
        assert all(sl.is_connected(g) for g in graphs)
        forms = {sl.canonical_form(g) for g in graphs}
        assert len(forms) == count


def _every_subset_census(top):
    """Test-local reference without orbit pruning: every nonempty subset of
    every parent, level by level, deduplicated by canonical_form."""
    levels = {1: [Graph(1)]}
    for n in range(2, top + 1):
        seen, out = set(), []
        for parent in levels[n - 1]:
            for mask in range(1, 1 << (n - 1)):
                extra = tuple((i, n - 1) for i in range(n - 1) if mask >> i & 1)
                g = Graph(n, parent.edges + extra)
                key = sl.canonical_form(g)
                if key not in seen:
                    seen.add(key)
                    out.append(g)
        levels[n] = out
    return levels


def test_enumerate_connected_yield_order(connected_by_n, connected_7):
    """The scan reports follow the yield order, so pruning must not move it:
    the same graphs in the same order as trying every subset (n <= 6), and
    the pinned order at n = 7."""
    assert _every_subset_census(6) == connected_by_n
    text = "\n".join(sl.emit_graph6(g) for g in connected_7)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c8e1cca3fdec9f27faddabd4eca8b34ad4db427ef26073aed433b8874a2bea34"
    )


def test_enumerate_connected_searches_one_child_per_orbit(monkeypatch):
    """One search per orbit-least subset, per level, and none besides: at
    n = 7 that is the orbit count under the parents' full automorphism
    groups, and an accepted graph's generators come from the search that
    accepted it, so no parent is searched a second time."""
    calls: dict[int, int] = {}
    core = graphs._canonical_core

    def counted(adj, *rest, **options):
        calls[len(adj)] = calls.get(len(adj), 0) + 1
        return core(adj, *rest, **options)

    monkeypatch.setattr(graphs, "_canonical_core", counted)
    assert sum(1 for _ in sl.enumerate_connected(7)) == 853
    assert calls == {2: 1, 3: 2, 4: 8, 5: 44, 6: 333, 7: 3771}


def test_enumerate_connected_eight_vertex_prefix():
    """The first 300 classes at n = 8: connected, pairwise non-isomorphic
    (canonical_form, and networkx on every pair with equal degrees), and in
    the pinned order.  The whole stream (11,117 classes) is checked in CI."""
    nx = pytest.importorskip("networkx")
    head = list(islice(sl.enumerate_connected(8), 300))
    assert all(g.n == 8 and sl.is_connected(g) for g in head)
    assert len({sl.canonical_form(g) for g in head}) == 300
    by_degrees: dict[tuple[int, ...], list] = {}
    for g in head:
        by_degrees.setdefault(sl.degree_sequence(g).degrees, []).append(nx.Graph(g.edges))
    for same in by_degrees.values():
        for a, b in combinations(same, 2):
            assert not nx.is_isomorphic(a, b)
    text = "\n".join(sl.emit_graph6(g) for g in head)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "023c8591aecd7e8cddfc265c5ffe86a8ad73be2e4b7c0db004bbe3cca891b120"
    )


def _pairwise_twins_below(g):
    """Test-local oracle: per vertex v, the u < v with N(u) - {v} = N(v) - {u}."""
    nbrs = [set(a) for a in g.adj]
    return [sum(1 << u for u in range(v) if nbrs[u] - {v} == nbrs[v] - {u})
            for v in range(g.n)]


def _twin_cases():
    rng = random.Random(28)
    for n in range(10):
        for density in (0.0, 0.2, 0.5, 0.8, 1.0):
            for _ in range(6):
                yield Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
    for n in range(10):
        yield sl.complete_graph(n)
        yield Graph(n)
    for a in range(1, 5):
        for b in range(a, 6):
            yield _complete_bipartite(a, b)
    for leaves in range(1, 9):
        yield _complete_bipartite(1, leaves)


def _masks(g):
    """The adjacency bitmasks that ``graphs``' bitmask searches take."""
    return [sum(1 << u for u in a) for a in g.adj]


def test_twins_below_matches_the_pairwise_definition():
    for g in _twin_cases():
        assert graphs.twins_below(_masks(g)) == _pairwise_twins_below(g), (g.n, g.edges)


def _group_order(n, gens):
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for s in gens:
            q = tuple(s[v] for v in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return len(group)


def _maps_edges_onto_edges(g, p):
    return {tuple(sorted((p[u], p[v]))) for u, v in g.edges} == set(g.edges)


def _image(mask, p):
    return sum(1 << p[i] for i in range(len(p)) if mask >> i & 1)


# the two start partitions: one cell, as canonical_form searches, and one
# cell per degree, as the census does
_STARTS = (False, True)


def test_search_generates_the_automorphism_group(connected_by_n):
    for degree_cells in _STARTS:
        for n, gs in connected_by_n.items():
            for g in gs:
                case = (degree_cells, g.edges)
                _, gens = graphs._canonical_core(_masks(g), degree_cells=degree_cells)
                assert all(_maps_edges_onto_edges(g, p) for p in gens), case
                autos = [p for p in permutations(range(n)) if _maps_edges_onto_edges(g, p)]
                assert _group_order(n, gens) == len(autos), case
                least = [m for m in range(1, 1 << n) if all(_image(m, p) >= m for p in autos)]
                assert graphs._orbit_least_masks(n, gens) == least, case


def test_canonical_core_stops_at_a_known_key(connected_by_n):
    """A graph whose key is known stops with (None, []); one whose class is
    not known, with every other class's key known, returns the key and a
    generating set of a search without ``known``.  Both starts, each with
    keys from its own start."""
    # the known counts of connected graphs (OEIS A001349), so a search that
    # drops a class cannot shrink the input
    assert [len(connected_by_n[n]) for n in range(2, 7)] == [1, 2, 6, 21, 112]
    rng = random.Random(33)
    for degree_cells in _STARTS:
        def core(adj, known=frozenset()):
            return graphs._canonical_core(adj, known, degree_cells=degree_cells)

        for n in range(2, 7):
            keyed = []
            for g in connected_by_n[n]:
                p = list(range(n))
                rng.shuffle(p)
                h = Graph(n, [(p[u], p[v]) for u, v in g.edges])
                adj = _masks(h)
                keyed.append((h, adj, core(adj)[0]))
            keys = {key for _, _, key in keyed}
            assert None not in keys and len(keys) == len(keyed)
            for h, adj, key in keyed:
                case = (degree_cells, h.edges)
                assert core(adj, frozenset({key})) == (None, []), case
                got, gens = core(adj, keys - {key})
                assert got == key, case
                assert all(_maps_edges_onto_edges(h, p) for p in gens), case
                autos = sum(_maps_edges_onto_edges(h, p) for p in permutations(range(n)))
                assert _group_order(n, gens) == autos, case


def test_degree_cell_key_is_a_complete_invariant(connected_by_n):
    """The census's key, the least string over degree-sorted orders, is
    equal on two graphs exactly when their canonical forms are: every
    connected graph with n <= 6 under four relabellings each."""
    rng = random.Random(43)
    for n, gs in connected_by_n.items():
        key_to_form, form_to_key = {}, {}
        for g in gs:
            for _ in range(4):
                p = list(range(n))
                rng.shuffle(p)
                h = Graph(n, [(p[u], p[v]) for u, v in g.edges])
                key, _ = graphs._canonical_core(_masks(h), degree_cells=True)
                form = sl.canonical_form(h)
                assert key_to_form.setdefault(key, form) == form, h.edges
                assert form_to_key.setdefault(form, key) == key, h.edges
        assert len(key_to_form) == len(gs)


def _complete_bipartite(a, b):
    return Graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


@pytest.mark.parametrize(
    "g",
    [
        # n = 7: the complete graph, stars, cycles and bipartite graphs, whose
        # groups are large or come mostly from tied leaves
        sl.complete_graph(7),
        _complete_bipartite(1, 6),
        sl.cycle_graph(7),
        _complete_bipartite(3, 4),
        _complete_bipartite(2, 5),
        Graph(7, [e for e in combinations(range(7), 2) if (e[1] - e[0]) % 7 not in (1, 6)]),
        # n = 8: whole twin classes in one cell and disconnected graphs, where
        # the last vertex is placed in its parent and children are cut there
        Graph(8),
        sl.complete_graph(8),
        Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]),
        Graph(8, combinations(range(4), 2)),
    ],
    ids=["K7", "K1,6", "C7", "K3,4", "K2,5", "co-C7", "empty8", "K8", "2C4", "K4+4K1"],
)
def test_search_generates_the_automorphism_group_beyond_six(g):
    _, gens = graphs._canonical_core(_masks(g))
    assert all(_maps_edges_onto_edges(g, p) for p in gens)
    # every one of the n! permutations, tried by brute force
    autos = sum(_maps_edges_onto_edges(g, p) for p in permutations(range(g.n)))
    assert _group_order(g.n, gens) == autos


def test_search_automorphisms_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    cube = nx.convert_node_labels_to_integers(nx.hypercube_graph(3))
    for h in (cube, nx.cycle_graph(8), nx.complete_bipartite_graph(4, 4)):
        g = Graph(8, h.edges())
        _, gens = graphs._canonical_core(_masks(g))
        assert all(_maps_edges_onto_edges(g, p) for p in gens)
        want = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        assert _group_order(8, gens) == want


def test_seven_vertex_stream_invariants(connected_7):
    """graph6 round-trips and the girth/cycle-count agreement hold on the
    full seven-vertex stream (the six-and-under cases are covered above)."""
    for g in connected_7:
        assert sl.parse_graph6(sl.emit_graph6(g)) == g
        by_count = None
        for length in range(3, g.n + 1):
            if sl.count_cycles_of_length(g, length):
                by_count = length
                break
        assert sl.girth(g) == by_count


def test_enumerate_connected_range():
    with pytest.raises(UnsupportedSizeError):
        list(sl.enumerate_connected(0))
    with pytest.raises(UnsupportedSizeError):
        list(sl.enumerate_connected(9))

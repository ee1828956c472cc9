import random

import pytest

import sumlab as sl
from sumlab import bounds
from sumlab.bounds import _odd_cycle_int


def test_odd_cycle_bound_chained():
    g = sl.chained_odd_cycles(1, 2).graph
    assert sl.odd_cycle_bound(g, 1) == pytest.approx(12 ** (1 / 3) + 1)
    assert _odd_cycle_int(1, sl.count_cycles_of_length(g, 3)) == 4


def test_odd_cycle_bound_k4():
    g = sl.complete_graph(4)
    assert sl.odd_cycle_bound(g, 1) == pytest.approx(24 ** (1 / 3) + 1)
    assert _odd_cycle_int(1, sl.count_cycles_of_length(g, 3)) == 4


def test_odd_cycle_bound_vacuous_on_bipartite():
    assert sl.odd_cycle_bound(sl.prism(4).graph, 1) == 1.0
    assert _odd_cycle_int(1, sl.count_cycles_of_length(sl.prism(4).graph, 3)) == 0


def test_odd_cycle_bound_exact_integer_root():
    # 36 triangles make (4k+2)s = 216 = 6^3: the bound is exactly 7 and the
    # integer strengthening must not round it up
    g = sl.chained_odd_cycles(1, 36).graph
    assert sl.count_cycles_of_length(g, 3) == 36
    assert sl.odd_cycle_bound(g, 1) == pytest.approx(7.0)
    assert _odd_cycle_int(1, sl.count_cycles_of_length(g, 3)) == 7


def test_iroot_of_zero_and_one():
    for e in (1, 2, 3, 7):
        assert bounds._iroot(0, e) == 0
        assert bounds._iroot(1, e) == 1


def test_odd_cycle_bound_monotone_in_count():
    vals = [sl.odd_cycle_bound(sl.chained_odd_cycles(1, s).graph, 1) for s in range(1, 5)]
    assert vals == sorted(vals)


def test_diff_degree_bound_examples():
    assert sl.diff_degree_bound(sl.subdivided_complete(4).graph) == 3
    assert sl.diff_degree_bound(sl.prism(5).graph) == 3
    assert sl.diff_degree_bound(sl.path_graph(3)) == 1


def test_sum_degree_bound_examples():
    assert sl.sum_degree_bound(sl.prism(4).graph) == 5
    assert sl.sum_degree_bound(sl.subdivided_complete(4).graph) == 4
    assert sl.sum_degree_bound(sl.complete_graph(2)) == 1


def test_bound_report_prism():
    rep = sl.bound_report(sl.prism(3).graph)
    assert rep.best_sm_lower == 5
    assert rep.best_df_lower == 3
    assert rep.min_degree_bound == 3


def test_bound_report_edgeless():
    for n in (0, 4):
        rep = sl.bound_report(sl.Graph(n))
        assert rep.best_sm_lower == 0
        assert rep.best_df_lower == 0
        assert rep.sum_degree_bound == 0


@pytest.mark.parametrize("g6, sm, df", [
    ("Cs", 3, 2),    # K1,3: three distinct sums at the centre
    ("Ds_", 4, 2),   # K1,4: four sums, differences pair up about the centre
    ("Bo", 2, 1),    # P3
])
def test_best_lower_bounds_include_max_degree(g6, sm, df):
    g = sl.parse_graph6(g6)
    rep = sl.bound_report(g)
    assert (rep.best_sm_lower, rep.best_df_lower) == (sm, df)
    assert (sl.best_sm_lower(g), sl.best_df_lower(g)) == (sm, df)
    assert sl.sum_index(g).value == sm
    assert sl.difference_index(g).value == df


def test_bound_report_positive_for_nonempty():
    rep = sl.bound_report(sl.complete_graph(2))
    assert rep.best_sm_lower >= 1
    assert rep.best_df_lower >= 1


def test_degree_bounds_leave_gap_on_subdivided_clique_pair():
    # the degree bounds alone do not reach the true sum index here; the exact
    # solver closes the gap
    kk = sl.subdivided_complete_kk(5, 2)
    rep = sl.bound_report(kk.graph)
    assert rep.best_sm_lower <= 5
    assert sl.sum_index(kk.graph).value == 5


def _random_graphs(count, max_n, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_n)
        p = rng.random()
        yield sl.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_best_sm_lower_matches_bound_report(connected_by_n, connected_7):
    # best_sm_lower skips the cycle lengths whose closed-walk cap cannot
    # raise the bound and stops at an even closed-walk trace; it must match
    # the bound over every length that bound_report lists
    for graphs in (*connected_by_n.values(), connected_7, _random_graphs(200, 9, 30)):
        for g in graphs:
            rep = sl.bound_report(g)
            every = max([max(map(len, g.adj), default=0), rep.sum_degree_bound] + [
                _odd_cycle_int(k, sl.count_cycles_of_length(g, 2 * k + 1))
                for k in rep.odd_cycle_bounds])
            assert sl.best_sm_lower(g) == rep.best_sm_lower == every


def test_best_sm_lower_stops_at_an_even_walk_trace(monkeypatch):
    # chained_odd_cycles(3, s) has degree 4 where two chords meet, so the
    # non-backtracking envelope never drops below 5 and would let the walks
    # run to length n; once tr(A^(2k)) < 3^(2k), no odd length from 2k on
    # can beat 4, and the walks stop at A^(2k): A^8 at s = 3 (n = 19) and
    # A^24 at s = 20 (n = 121)
    roots = []
    real = bounds._iroot

    def spy(m, e):
        roots.append(e)
        return real(m, e)

    monkeypatch.setattr(bounds, "_iroot", spy)
    for s, last in ((3, 8), (20, 24)):
        roots.clear()
        assert sl.best_sm_lower(sl.chained_odd_cycles(3, s).graph) == 4
        assert (roots[-1], max(roots)) == (last, last + 1)


def _grid(k):
    return sl.Graph(k * k, [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
                    + [(r * k + c, r * k + k + c) for r in range(k - 1) for c in range(k)])


@pytest.mark.parametrize("g", [_grid(5), sl.cycle_graph(10)], ids=["grid5x5", "C10"])
def test_bipartite_graph_counts_no_odd_cycle(g):
    for length in range(3, g.n + 1, 2):
        assert sl.count_cycles_of_length(g, length) == 0
    assert set(sl.bound_report(g).odd_cycle_bounds.values()) == {1.0}


def test_best_sm_lower_skips_hopeless_cycle_lengths(monkeypatch):
    counted = []
    real = bounds.count_cycles_of_length

    def spy(g, length):
        counted.append(length)
        return real(g, length)

    monkeypatch.setattr(bounds, "count_cycles_of_length", spy)
    # s triangles in 2s + 1 vertices: (6s)^(1/3) + 1 rounds up to 7 at
    # s = 21 and to 9 at s = 58, and no longer odd cycle exists, so only the
    # triangles are counted; at s = 58 no length L from 5 on can give more
    # than the non-backtracking envelope floor((117 * 4 * 3^(L-2))^(1/L)) + 2
    # = 8 at L = 5, so the walks stop there
    for s, expect in ((21, 7), (58, 9)):
        counted.clear()
        assert sl.best_sm_lower(sl.chained_odd_cycles(1, s).graph) == expect
        assert counted == [3]
    # K_{1,150} is bipartite, so no walk is built and the bound is its
    # maximum degree; C_151 has at most 151 * 2 * 1^(L-2) / (2L) L-cycles,
    # whose envelope floor(302^(1/L)) + 2 is 3 from L = 9 on, so the walks
    # stop at L = 9, and only the triangles are counted
    counted.clear()
    assert sl.best_sm_lower(sl.Graph(151, [(0, v) for v in range(1, 151)])) == 150
    assert sl.best_sm_lower(sl.cycle_graph(151)) == 3
    assert counted == [3]


def test_bound_report_counts_each_odd_length_once(monkeypatch):
    counted = []
    real = bounds.count_cycles_of_length

    def spy(g, length):
        counted.append(length)
        return real(g, length)

    monkeypatch.setattr(bounds, "count_cycles_of_length", spy)
    # best_sm_lower in the report reuses the listed counts, and by default
    # they reach every length a graph can hold
    for g in (sl.complete_graph(9), sl.prism(3).graph, sl.cycle_graph(9),
              sl.chained_odd_cycles(2, 2).graph, sl.parse_graph6("Fv~~w")):
        counted.clear()
        sl.bound_report(g)
        assert counted == list(range(3, 2 * max(1, (g.n - 1) // 2) + 2, 2))
    # max_k_cycles=1, as `sumlab bounds --max-k 1` passes it: the envelope
    # floor((2001 * 4 * 3^3)^(1/5)) + 2 = 13 stops length 5 below the bound 20
    counted.clear()
    assert sl.bound_report(sl.chained_odd_cycles(1, 1000).graph, 1).best_sm_lower == 20
    assert counted == [3]


def test_best_sm_lower_on_a_thousand_chained_triangles():
    # 1,000 triangles in 2,001 vertices: (6 * 1000)^(1/3) + 1 = 19.2; the
    # triangle cap comes from the edges, so no 2,001 x 2,001 walk matrix is
    # built
    assert sl.best_sm_lower(sl.chained_odd_cycles(1, 1000).graph) == 20


def test_bound_report_beyond_short_graph6():
    # 117 = 64 + 53 vertices: graph_id needs the graph6 long form "~?@t...".
    # 58 triangles give (6 * 58)^(1/3) + 1 = 8.03, so the integer bound is 9
    rep = sl.bound_report(sl.chained_odd_cycles(1, 58).graph, max_k_cycles=1)
    assert rep.graph_id.startswith("~?@t")
    assert rep.best_sm_lower == 9
    # max_k_cycles limits only the listed odd-cycle bounds: 25 five-cycles
    # give (10 * 25)^(1/5) + 1 = 4.02, so best_sm_lower is 5, the value the
    # sum index starts from, although the k = 1 bound alone is vacuous
    g = sl.chained_odd_cycles(2, 25).graph
    rep = sl.bound_report(g, max_k_cycles=1)
    assert rep.odd_cycle_bounds == {1: 1.0}
    assert rep.best_sm_lower == sl.best_sm_lower(g) == 5


def test_bounds_sound_vs_exact(connected_by_n):
    for n in range(2, 6):
        for g in connected_by_n[n]:
            rep = sl.bound_report(g)
            assert rep.best_sm_lower <= sl.sum_index(g).value
            assert rep.best_df_lower <= sl.difference_index(g).value


def test_regular_graphs_meet_2d_minus_1(connected_by_n):
    for graphs in connected_by_n.values():
        for g in graphs:
            degs = set(sl.degree_sequence(g).degrees)
            if len(degs) == 1 and g.m:
                d = degs.pop()
                assert sl.sum_degree_bound(g) >= 2 * d - 1


def test_diff_degree_bound_dominates_min_degree(connected_by_n):
    for graphs in connected_by_n.values():
        for g in graphs:
            if g.m:
                assert sl.diff_degree_bound(g) >= sl.degree_sequence(g).min_degree

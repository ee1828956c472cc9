"""Closed-form lower bounds for the sum and difference indices.

Four bound families are evaluated: an odd-cycle-count bound on the sum
index, two degree-sequence bounds (one per index), and the maximum-degree
bounds (the edges at one vertex carry pairwise distinct sums, and their
differences coincide only in pairs symmetric about it).  ``best_sm_lower``
and ``best_df_lower`` combine them into the best integer lower bounds for a
graph, and ``bound_report`` prints them.  The difference index ascends
from ``best_df_lower`` itself; the sum index and the exclusive sum number
ascend from the range-free floor of ``partition``, whose refutations start
at ``best_sm_lower``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, count_cycles_of_length, degree_sequence, emit_graph6, is_bipartite


def odd_cycle_bound(g: Graph, k: int) -> float:
    """Sum-index lower bound from cycles of length 2k+1.

    If the graph contains s >= 1 cycles of length 2k+1, then the sum index
    is at least ((4k+2)*s)^(1/(2k+1)) + 1.  Returns 1.0 when s = 0 (vacuous).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return _odd_cycle_real(k, count_cycles_of_length(g, 2 * k + 1))


def _odd_cycle_real(k: int, s: int) -> float:
    if s == 0:
        return 1.0
    return ((4 * k + 2) * s) ** (1.0 / (2 * k + 1)) + 1.0


def _odd_cycle_int(k: int, s: int) -> int:
    """The odd-cycle bound for s cycles of length 2k+1, as an integer.

    Uses exact integer root extraction so that an exactly integral bound is
    not bumped up by float noise: with m = (4k+2)s and r = floor(m^(1/(2k+1))),
    the bound is r+1 when r^(2k+1) = m and r+2 otherwise.
    """
    if s == 0:
        return 0
    m = (4 * k + 2) * s
    e = 2 * k + 1
    r = _iroot(m, e)
    return r + 1 if r**e == m else r + 2


def _iroot(m: int, e: int) -> int:
    """floor(m^(1/e)) for integers m >= 0, e >= 1, exactly: Newton's method
    in integers, from 2^ceil(bits/e) > m^(1/e), descends to it (no floats,
    so m may exceed the float range)."""
    if m < 2:
        return m
    r = 1 << -(-m.bit_length() // e)
    while True:
        s = ((e - 1) * r + m // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def diff_degree_bound(g: Graph) -> int:
    """max over k >= 1 of (2k-th smallest degree) - k + 1, floored at 0."""
    ds = degree_sequence(g)
    best = 0
    for k in range(1, g.n // 2 + 1):
        best = max(best, ds.delta(2 * k) - k + 1)
    return best


def sum_degree_bound(g: Graph) -> int:
    """max over k >= 1 of delta_k + delta_{k+1} - k, floored at 0."""
    ds = degree_sequence(g)
    best = 0
    for k in range(1, g.n):
        best = max(best, ds.delta(k) + ds.delta(k + 1) - k)
    return best


def best_sm_lower(g: Graph) -> int:
    """Best sum-index lower bound: maximum degree, sum_degree_bound and
    every odd-cycle bound.  0 on an edgeless graph."""
    return _sm_lower(g, {})


def _sm_lower(g: Graph, counts: dict[int, int]) -> int:
    """``best_sm_lower``, given the cycle counts of lengths 2k+1 for
    k = 1..len(counts); a longer length is counted only if it could raise
    the bound.  With D the maximum degree, at most n * D * (D-1)^(L-2)
    non-backtracking closed walks have length L, so no length L or longer
    gives more than r + 2, r the floor of the L-th root of that cap; r
    never grows with L, as (D-1)^2 < n * D, so the loop stops once r + 2
    cannot beat the bound.  From length 5 on, a length is also skipped when
    its closed-walk cap cannot beat it: a cycle of length 2k+1 is 2(2k+1)
    closed walks (a start and a direction), so there are at most
    tr(A^(2k+1)) / (2(2k+1)) of them.  On its way to A^(2k+1) the loop
    stops once floor(tr(A^(2k))^(1/(2k))) + 2 cannot beat the bound: for
    L >= 2k, 2L * s_L <= tr(A^L) <= tr(A^(2k))^(L/(2k)), as the
    eigenvalues' L-norm is at most their 2k-norm.  A bipartite graph has
    no odd cycle.
    """
    n = g.n
    adj = g.adj
    top = max(map(len, adj), default=0)
    best = max([top, sum_degree_bound(g)] + [_odd_cycle_int(k, s) for k, s in counts.items()])
    if is_bipartite(g):
        return best
    walks, power = None, 0  # A^power
    for k in range(len(counts) + 1, (n - 1) // 2 + 1):
        length = 2 * k + 1
        envelope = _iroot(n * top * (top - 1) ** (length - 2), length)
        if envelope + 2 <= best:
            break
        if k > 1:
            if walks is None:
                walks, power = [[int(v in adj[u]) for v in range(n)] for u in range(n)], 1
            for power in range(power + 1, length + 1):
                walks = [[sum(row[w] for w in adj[v]) for v in range(n)] for row in walks]
                trace = sum(walks[v][v] for v in range(n))
                if power == 2 * k and _iroot(trace, power) + 2 <= best:
                    return best
            if _odd_cycle_int(k, trace // (4 * k + 2)) <= best:
                continue
        best = max(best, _odd_cycle_int(k, count_cycles_of_length(g, length)))
    return best


def best_df_lower(g: Graph) -> int:
    """Best difference-index lower bound: ceil(maximum degree / 2) and
    diff_degree_bound.  0 on an edgeless graph."""
    return max((max(map(len, g.adj), default=0) + 1) // 2, diff_degree_bound(g))


@dataclass(frozen=True)
class BoundReport:
    graph_id: str
    odd_cycle_bounds: dict[int, float]
    diff_degree_bound: int
    sum_degree_bound: int
    min_degree_bound: int
    best_sm_lower: int
    best_df_lower: int

    def to_json_dict(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "odd_cycle_bounds": {str(k): v for k, v in self.odd_cycle_bounds.items()},
            "diff_degree_bound": self.diff_degree_bound,
            "sum_degree_bound": self.sum_degree_bound,
            "min_degree_bound": self.min_degree_bound,
            "best_sm_lower": self.best_sm_lower,
            "best_df_lower": self.best_df_lower,
        }


def bound_report(g: Graph, max_k_cycles: int | None = None) -> BoundReport:
    """Evaluate every bound for one graph.

    Odd-cycle bounds are listed for k = 1..max_k_cycles, by default to
    (n-1)//2 and at least 1.  Each length is counted once, through the
    module global ``count_cycles_of_length`` (a tracer may rebind it), and
    ``best_sm_lower``, over every length, reuses those counts.
    ``min_degree_bound`` is the classical sum-number bound sigma >= min
    degree (Bergstrand et al. 1989), where the sum number's ascent starts;
    the k = 1 term of ``diff_degree_bound`` always dominates it.
    """
    if max_k_cycles is None:
        max_k_cycles = max(1, (g.n - 1) // 2)
    counts = {k: count_cycles_of_length(g, 2 * k + 1) for k in range(1, max_k_cycles + 1)}
    return BoundReport(
        graph_id=emit_graph6(g),
        odd_cycle_bounds={k: _odd_cycle_real(k, s) for k, s in counts.items()},
        diff_degree_bound=diff_degree_bound(g),
        sum_degree_bound=sum_degree_bound(g),
        min_degree_bound=degree_sequence(g).min_degree,
        best_sm_lower=_sm_lower(g, counts),
        best_df_lower=best_df_lower(g),
    )

"""Exact bounded-range solvers for the four labelling invariants.

Sum/difference index: labels range over {0..B}.  Sum number and exclusive
sum number: labels range over {1..B} (the sum-graph definition requires
positive integers).  The latter two are reported as upper bounds that are
exhaustive within the range, since no finite label bound certifying global
optimality is known.

The sum index, difference index and exclusive sum number share one search
kernel.  All three are invariant under translating the labels and under
reflecting them (f -> -f), so a feasibility search pins the first vertex of
its branch order at relative label 0, gives the second vertex a positive
label, and offers each later vertex only the labels in [hi - W, lo + W],
where lo/hi are the least and greatest placed labels and W = B - floor.  The
witness is translated so that its least label is the floor; the minimum
over that quotient equals the minimum over all labellings that fit the range.

Candidate labels are generated as Python-int bitmasks, after the shift-
register bitmaps of optimal Golomb ruler search (Rankin 1993): the labels a
vertex may take to reuse an edge value at a placed neighbour are the value
set shifted by that neighbour's label, counted per candidate in at-least-k
masks, and the exclusive constraint is an AND-NOT of shifted edge-sum and
non-edge-sum masks.  Candidates come with the fewest new edge values first,
then smallest label, and a branch never exceeds the target number of
distinct values.  ``nodes_expanded`` counts the placements that survive
these mask filters.

The search ascends feasibility targets from the best closed-form lower bound.
Witnesses are canonicalised to the lexicographically least optimal labelling
(by vertex order) within a deterministic label cap, found by the same DFS
over the fixed window {floor..cap} in vertex order 0..n-1, so results are
reproducible regardless of scheduling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bounds import best_df_lower, best_sm_lower
from .graphs import Graph, is_connected
from .labelling import LabelKind, VertexLabelling


class SolverError(ValueError):
    """Bad solver input or an exhausted label range."""


class _NodeBudgetExceeded(Exception):
    pass


class _NodeCounter:
    __slots__ = ("nodes", "budget")

    def __init__(self, budget: int | None):
        self.nodes = 0
        self.budget = budget

    def tick(self) -> None:
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise _NodeBudgetExceeded


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the exact searches.

    label_bound: largest label B; defaults to n(n-1)/2 + n for index
    searches and 4n^2 for sum-number searches.  escalate doubles B until the
    value is stable across two consecutive rounds.  node_budget caps the
    total number of search-tree nodes; exceeding it yields a result flagged
    non-exhaustive.  worker_hint is the desired parallel width for corpus
    scans (a single solve is sequential).
    """

    label_bound: int | None = None
    escalate: bool = False
    node_budget: int | None = None
    worker_hint: int = 1


@dataclass(frozen=True)
class ExclusiveWitness:
    """A pair (S, T) realising a graph as: vertices S, edges uv iff u+v in T.

    T is exactly the set of edge sums under the assignment, and no
    non-adjacent pair sums into T.
    """

    S: tuple[int, ...]
    T: tuple[int, ...]
    assignment: tuple[tuple[int, int], ...]

    def validate(self, g: Graph) -> None:
        f = dict(self.assignment)
        if sorted(f.values()) != sorted(self.S):
            raise SolverError("assignment image differs from S")
        tset = set(self.T)
        sums = set()
        for u in range(g.n):
            for v in range(u + 1, g.n):
                s = f[u] + f[v]
                if g.has_edge(u, v):
                    if s not in tset:
                        raise SolverError(f"edge ({u},{v}) sums outside T")
                    sums.add(s)
                elif s in tset:
                    raise SolverError(f"non-edge ({u},{v}) sums into T")
        if sums != tset:
            raise SolverError("T is not exactly the set of edge sums")


@dataclass(frozen=True)
class IndexResult:
    """A computed invariant value with its witness and search provenance."""

    invariant: str
    value: int
    witness: VertexLabelling
    range_used: int
    escalation_trace: tuple[tuple[int, int], ...]
    exhaustive_within_range: bool
    nodes_expanded: int
    wall_ms: float
    isolated_labels: tuple[int, ...] | None = None
    exclusive: ExclusiveWitness | None = None

    def to_json_dict(self) -> dict:
        out = {
            "invariant": self.invariant,
            "value": self.value,
            "witness": {str(v): x for v, x in self.witness.items},
            "range_used": self.range_used,
            "escalation_trace": [list(t) for t in self.escalation_trace],
            "exhaustive": self.exhaustive_within_range,
            "nodes_expanded": self.nodes_expanded,
            "wall_ms": self.wall_ms,
        }
        if self.isolated_labels is not None:
            out["isolated_labels"] = list(self.isolated_labels)
        if self.exclusive is not None:
            out["exclusive"] = {
                "S": list(self.exclusive.S),
                "T": list(self.exclusive.T),
                "assignment": {str(v): x for v, x in self.exclusive.assignment},
            }
        return out


# ---------------------------------------------------------------------------
# Search machinery
# ---------------------------------------------------------------------------

def _branch_order(g: Graph) -> list[int]:
    """Static assignment order: seed at a maximum-degree vertex, then grow by
    (most ordered neighbours, degree, lowest index) so propagation bites early.
    """
    n = g.n
    if n == 0:
        return []
    degs = [len(a) for a in g.adj]
    start = max(range(n), key=lambda v: (degs[v], -v))
    order = [start]
    placed = [False] * n
    placed[start] = True
    cnt = [0] * n
    for w in g.adj[start]:
        cnt[w] += 1
    for _ in range(n - 1):
        nxt = max(
            (v for v in range(n) if not placed[v]),
            key=lambda v: (cnt[v], degs[v], -v),
        )
        order.append(nxt)
        placed[nxt] = True
        for w in g.adj[nxt]:
            if not placed[w]:
                cnt[w] += 1
    return order


def _labelling_value(g: Graph, f: list[int], is_sum: bool) -> int:
    vals = set()
    for u, v in g.edges:
        vals.add(f[u] + f[v] if is_sum else abs(f[u] - f[v]))
    return len(vals)


def _greedy_upper(g: Graph, is_sum: bool) -> tuple[int, list[int]]:
    """Cheap upper bound: best of a few order-based labellings (labels 0..n-1)."""
    n = g.n
    candidates = [list(range(n))]
    order = _branch_order(g)
    by_order = [0] * n
    for i, v in enumerate(order):
        by_order[v] = i
    candidates.append(by_order)
    # BFS order from the branch seed
    seen = {order[0]} if n else set()
    bfs = list(seen)
    qi = 0
    while qi < len(bfs):
        for w in g.adj[bfs[qi]]:
            if w not in seen:
                seen.add(w)
                bfs.append(w)
        qi += 1
    for v in range(n):
        if v not in seen:
            bfs.append(v)
            seen.add(v)
    by_bfs = [0] * n
    for i, v in enumerate(bfs):
        by_bfs[v] = i
    candidates.append(by_bfs)
    best = None
    for f in candidates:
        val = _labelling_value(g, f, is_sum)
        if best is None or val < best[0]:
            best = (val, f)
    return best


class _IndexSearch:
    """Window-and-bitmask DFS over injective labellings that bounds the
    number of distinct edge values.  In exclusive mode, sums of non-adjacent
    pairs must additionally avoid the edge-sum set, and labels are positive.

    Labels are held as bit positions and every set the search consults is a
    Python int: the placed labels, the edge values, and in exclusive mode the
    non-edge sums.  Candidate labels for a vertex come from shifting those
    masks by its placed neighbours' labels, so no label is scanned one by one.
    """

    def __init__(self, g: Graph, kind: LabelKind, counter: _NodeCounter,
                 exclusive: bool = False):
        self.g = g
        self.is_sum = kind is LabelKind.SUM
        self.exclusive = exclusive
        self.floor = 1 if exclusive else 0
        self.counter = counter

    def search(self, budget: int, cap: int, lexicographic: bool) -> list[int] | None:
        """First labelling with at most ``budget`` distinct edge values and
        labels in {floor..cap}, or None when that space is empty.

        Feasibility mode (lexicographic=False) pins the first vertex of a
        propagation-friendly order at relative label 0 and offers each later
        vertex only the labels that keep the span within cap - floor; the
        second vertex takes a positive label (reflection).  Candidates come
        in order of fewest new edge values, then smallest label, and the
        witness is translated so that its least label is the floor.
        Lexicographic mode is the same DFS over the fixed window
        {floor..cap}, in vertex order 0..n-1 with ascending labels, so the
        first solution is the lexicographically least labelling using the
        floor label.
        """
        g = self.g
        n = g.n
        floor = self.floor
        width = cap - floor
        if width + 1 < n:
            return None
        order = list(range(n)) if lexicographic else _branch_order(g)
        step = [0] * n
        for i, v in enumerate(order):
            step[v] = i
        nbr_steps = [
            tuple(step[u] for u in g.adj[v] if step[u] < i) for i, v in enumerate(order)
        ]
        if self.exclusive:
            non_steps = [
                tuple(j for j in range(i) if j not in nbr_steps[i]) for i in range(n)
            ]
        else:
            non_steps = [()] * n
        # Bit positions: labels themselves in lexicographic mode; in
        # feasibility mode relative labels -width..width shifted by width.
        # Edge sums are held as sums of positions, differences as themselves
        # in ``vals`` and mirrored at ``top`` (above every position) in
        # ``rvals``, so that both shifts of a hit mask are nonnegative.
        top = 2 * cap
        is_sum = self.is_sum
        exclusive = self.exclusive
        counter = self.counter
        p = [0] * n  # position of the vertex placed at each step

        def dfs(i: int, vals: int, rvals: int, nes: int, used: int,
                lo: int, hi: int) -> list[int] | None:
            if i == n:
                least = min(p)
                return [p[step[v]] - least + floor for v in range(n)]
            nbl = [p[j] for j in nbr_steps[i]]
            a = len(nbl)
            base = ((1 << (lo + width + 1)) - (1 << (hi - width))) & ~used
            if lexicographic:
                if i == n - 1 and not used >> floor & 1:
                    base &= 1 << floor
            elif i == 0:
                base &= 1 << width
            elif i == 1:
                base &= -(1 << (p[0] + 1))
            non_mask = 0
            if exclusive:
                for q in nbl:
                    base &= ~(nes >> q)
                for j in non_steps[i]:
                    q = p[j]
                    base &= ~(vals >> q)
                    non_mask |= 1 << q
            nbr_mask = 0
            for q in nbl:
                nbr_mask |= 1 << q
            # atleast[k]: candidates whose edges reuse at least k old values
            atleast = [base] + [0] * a
            for k, q in enumerate(nbl, 1):
                hit = vals >> q if is_sum else (vals << q) | (rvals >> (top - q))
                for c in range(k, 0, -1):
                    atleast[c] |= atleast[c - 1] & hit
            atleast.append(0)
            # levels[e]: candidates adding exactly e new edge values
            levels = [atleast[a - e] & ~atleast[a - e + 1] for e in range(a + 1)]
            if not is_sum and a >= 2:
                # two new differences coincide exactly at a midpoint
                mids = 0
                for s in range(a):
                    for r in range(s + 1, a):
                        t = nbl[s] + nbl[r]
                        if not t & 1:
                            mids |= 1 << (t >> 1)
                mids &= base
                if mids:
                    levels = [lev & ~mids for lev in levels]
                    while mids:
                        low = mids & -mids
                        mids ^= low
                        x = low.bit_length() - 1
                        new = {abs(x - q) for q in nbl}
                        levels[sum(1 for d in new if not vals >> d & 1)] |= low
            slack = min(budget - vals.bit_count(), a)
            if lexicographic:
                union = 0
                for e in range(slack + 1):
                    union |= levels[e]
                groups = [union]
            else:
                groups = levels[:slack + 1]
            for cands in groups:
                while cands:
                    low = cands & -cands
                    cands ^= low
                    x = low.bit_length() - 1
                    counter.tick()
                    if is_sum:
                        nvals = vals | (nbr_mask << x)
                        nrvals = rvals
                    else:
                        nvals, nrvals = vals, rvals
                        for q in nbl:
                            d = x - q if x > q else q - x
                            nvals |= 1 << d
                            nrvals |= 1 << (top - d)
                    p[i] = x
                    hit = dfs(i + 1, nvals, nrvals, nes | (non_mask << x), used | low,
                              min(lo, x), max(hi, x))
                    if hit is not None:
                        return hit
            return None

        if lexicographic:
            return dfs(0, 0, 0, 0, 0, floor, cap)
        return dfs(0, 0, 0, 0, 0, width, width)


def _cap_ladder(n: int, floor: int, bound: int) -> list[int]:
    """Increasing label caps ending exactly at the full bound.

    Small caps find structured witnesses quickly; only the final full-range
    pass can conclude infeasibility.
    """
    lo = max(floor + n - 1, min(2 * n, bound))
    caps = []
    c = lo
    while c < bound:
        caps.append(c)
        c *= 2
    caps.append(bound)
    return caps


def _degree_floor(g: Graph, is_sum: bool) -> int:
    """Elementary per-vertex lower bound used to seed the search.

    The edges at one vertex carry pairwise distinct sums (their far
    endpoints are distinct), so the sum count is at least the maximum
    degree; differences can coincide only in symmetric pairs around the
    vertex, giving at least ceil(maxdeg / 2) distinct differences.
    """
    if g.m == 0:
        return 0
    maxdeg = max(len(a) for a in g.adj)
    return maxdeg if is_sum else (maxdeg + 1) // 2


def _default_index_bound(n: int) -> int:
    return n * (n - 1) // 2 + n


def _default_positive_bound(n: int) -> int:
    return 4 * n * n


# ---------------------------------------------------------------------------
# Sum index / difference index
# ---------------------------------------------------------------------------

def _solve_index_round(
    g: Graph, kind: LabelKind, bound: int, counter: _NodeCounter
) -> tuple[int, list[int], bool]:
    n = g.n
    is_sum = kind is LabelKind.SUM
    if g.m == 0:
        return 0, list(range(n)), True
    search = _IndexSearch(g, kind, counter)
    lower = best_sm_lower(g) if is_sum else best_df_lower(g)
    lower = max(lower, _degree_floor(g, is_sum))
    upper, labels = _greedy_upper(g, is_sum)
    value = upper
    exhaustive = True
    try:
        for t in range(lower, upper):
            found = None
            for cap in _cap_ladder(n, 0, bound):
                found = search.search(t, cap, lexicographic=False)
                if found is not None:
                    break
            if found is not None:
                value, labels = t, found
                break
        # canonical witness: lexicographically least optimal labelling within
        # a deterministic cap that certainly admits one
        cap2 = min(bound, max(2 * n, max(labels)))
        canon = search.search(value, cap2, lexicographic=True)
        if canon is not None:
            labels = canon
    except _NodeBudgetExceeded:
        exhaustive = False
    return value, labels, exhaustive


def _solve_index(g: Graph, kind: LabelKind, cfg: SearchConfig | None, name: str) -> IndexResult:
    cfg = cfg or SearchConfig()
    n = g.n
    bound = cfg.label_bound if cfg.label_bound is not None else _default_index_bound(n)
    if bound < n - 1:
        raise SolverError(f"label bound {bound} cannot label {n} vertices injectively")
    t0 = time.perf_counter()
    counter = _NodeCounter(cfg.node_budget)
    trace: list[tuple[int, int]] = []
    while True:
        value, labels, exhaustive = _solve_index_round(g, kind, bound, counter)
        trace.append((bound, value))
        if not cfg.escalate or not exhaustive:
            break
        if len(trace) >= 2 and trace[-1][1] == trace[-2][1]:
            break
        bound *= 2
    witness = VertexLabelling.from_dict({v: labels[v] for v in range(n)})
    return IndexResult(
        invariant=name,
        value=value,
        witness=witness,
        range_used=bound,
        escalation_trace=tuple(trace),
        exhaustive_within_range=exhaustive,
        nodes_expanded=counter.nodes,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )


def sum_index(g: Graph, cfg: SearchConfig | None = None) -> IndexResult:
    """Minimum number of distinct edge sums over injective labellings in {0..B}."""
    return _solve_index(g, LabelKind.SUM, cfg, "sum_index")


def difference_index(g: Graph, cfg: SearchConfig | None = None) -> IndexResult:
    """Minimum number of distinct edge differences over injective labellings in {0..B}."""
    return _solve_index(g, LabelKind.DIFF, cfg, "difference_index")


# ---------------------------------------------------------------------------
# Exclusive sum number
# ---------------------------------------------------------------------------

def _budget_error(what: str, counter: _NodeCounter, bound: int) -> SolverError:
    return SolverError(
        f"node budget of {counter.budget} ran out after {counter.nodes} nodes "
        f"before any {what} labelling within label range 1..{bound} was found; "
        "raise the node budget"
    )


def _require_connected(g: Graph, what: str) -> None:
    if g.n < 2 or not is_connected(g):
        raise SolverError(f"{what} requires a connected graph on at least 2 vertices")


def exclusive_sum_number(g: Graph, cfg: SearchConfig | None = None) -> IndexResult:
    """Least |T| with the graph realised on vertex labels S, edges uv iff
    f(u)+f(v) in T, over injective assignments into {1..B}.

    Since the sum index never exceeds it, the search ascends from the sum
    index's lower bounds.  Reported as an upper bound exhaustive within the
    range; disjointness of S and T is not required.
    """
    _require_connected(g, "exclusive_sum_number")
    cfg = cfg or SearchConfig()
    n = g.n
    bound = cfg.label_bound if cfg.label_bound is not None else _default_positive_bound(n)
    if bound < n:
        raise SolverError(f"label bound {bound} cannot label {n} vertices in 1..{bound}")
    t0 = time.perf_counter()
    counter = _NodeCounter(cfg.node_budget)
    trace: list[tuple[int, int]] = []
    labels: list[int] | None = None
    value: int | None = None
    exhaustive = True
    lower = max(1, best_sm_lower(g), _degree_floor(g, True))
    while True:
        search = _IndexSearch(g, LabelKind.SUM, counter, exclusive=True)
        round_value = None
        round_labels = None
        try:
            # cheap pass first: a small-cap witness caps the ascent and
            # survives as an upper bound if the node budget later runs out
            for t in range(lower, g.m + 1):
                found = search.search(t, min(bound, max(n, 4 * n)), lexicographic=False)
                if found is not None:
                    round_value, round_labels = t, found
                    break
            for t in range(lower, round_value if round_value is not None else g.m + 1):
                found = None
                for cap in _cap_ladder(n, 1, bound):
                    found = search.search(t, cap, lexicographic=False)
                    if found is not None:
                        break
                if found is not None:
                    round_value, round_labels = t, found
                    break
            if round_labels is not None:
                cap2 = min(bound, max(2 * n, max(round_labels)))
                canon = search.search(round_value, cap2, lexicographic=True)
                if canon is not None:
                    round_labels = canon
        except _NodeBudgetExceeded:
            exhaustive = False
        if round_value is not None:
            value, labels = round_value, round_labels
            trace.append((bound, round_value))
        if value is None:
            if not exhaustive:
                raise _budget_error("exclusive sum", counter, bound)
            if cfg.escalate:
                bound *= 2
                continue
            raise SolverError(
                "no exclusive sum labelling within label range "
                f"1..{bound}; increase the range or enable escalation"
            )
        if not cfg.escalate or not exhaustive:
            break
        if len(trace) >= 2 and trace[-1][1] == trace[-2][1]:
            break
        bound *= 2
    assert labels is not None
    witness = VertexLabelling.from_dict({v: labels[v] for v in range(n)})
    sums = sorted({labels[u] + labels[v] for u, v in g.edges})
    excl = ExclusiveWitness(
        S=tuple(sorted(labels)),
        T=tuple(sums),
        assignment=tuple(sorted((v, labels[v]) for v in range(n))),
    )
    return IndexResult(
        invariant="exclusive_sum_number",
        value=value,
        witness=witness,
        range_used=bound,
        escalation_trace=tuple(trace),
        exhaustive_within_range=exhaustive,
        nodes_expanded=counter.nodes,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        exclusive=excl,
    )


# ---------------------------------------------------------------------------
# Sum number
# ---------------------------------------------------------------------------

class _SigmaSearch:
    """DFS for labellings making the graph plus r isolated vertices a sum graph.

    A labelling f of the graph's vertices extends to a sum labelling exactly
    when, with S = f(V) and T the edge-sum set, (i) no non-adjacent pair of
    graph vertices sums into W = S u T, (ii) the isolated labels I = T \\ S
    satisfy w + z not in W for every w in I, z in W, and (iii) |I| <= r.
    Extra isolated labels beyond T \\ S never help, so this is exact.
    """

    def __init__(self, g: Graph, counter: _NodeCounter):
        self.g = g
        self.counter = counter

    def search(self, r: int, cap: int, lexicographic: bool) -> tuple[list[int], list[int]] | None:
        g = self.g
        n = g.n
        if cap < n:
            return None
        order = list(range(n)) if lexicographic else _branch_order(g)
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        adjsets = [frozenset(a) for a in g.adj]
        nbrs_before = [
            tuple(u for u in g.adj[v] if pos[u] < i) for i, v in enumerate(order)
        ]
        nons_before = [
            tuple(order[j] for j in range(i) if order[j] not in adjsets[v])
            for i, v in enumerate(order)
        ]
        f = [-1] * n
        used = [False] * (cap + 1)
        t_count: dict[int, int] = {}
        nes_count: dict[int, int] = {}
        counter = self.counter

        def in_w(x: int) -> bool:
            return (0 <= x <= cap and used[x]) or x in t_count

        def uncovered() -> list[int]:
            return [t for t in t_count if t > cap or not used[t]]

        def dfs(i: int) -> tuple[list[int], list[int]] | None:
            if i == n:
                iso = sorted(uncovered())
                if len(iso) > r:
                    return None
                # every isolated label must not sum with any label into W
                wset = [x for x in range(1, cap + 1) if used[x]] + list(t_count)
                for w in iso:
                    for z in wset:
                        if z != w and in_w(w + z):
                            return None
                return f[:], iso
            v = order[i]
            nbl = [f[u] for u in nbrs_before[i]]
            nol = [f[w] for w in nons_before[i]]
            remaining = n - i - 1
            for x in range(1, cap + 1):
                if used[x]:
                    continue
                counter.tick()
                if x in nes_count:
                    continue  # x would become a vertex label equal to a non-edge sum
                ok = True
                touched: list[int] = []
                nes_touched: list[int] = []
                for lu in nbl:
                    s = x + lu
                    if s in nes_count:
                        ok = False
                        break
                    t_count[s] = t_count.get(s, 0) + 1
                    touched.append(s)
                if ok:
                    for lw in nol:
                        s = x + lw
                        if in_w(s):
                            ok = False
                            break
                        nes_count[s] = nes_count.get(s, 0) + 1
                        nes_touched.append(s)
                if ok:
                    f[v] = x
                    used[x] = True
                    # the isolated labels are the edge sums not used as labels;
                    # only a future vertex label can cover one
                    if len(uncovered()) <= r + remaining:
                        hit = dfs(i + 1)
                        if hit is not None:
                            return hit
                    f[v] = -1
                    used[x] = False
                for s in reversed(nes_touched):
                    c = nes_count[s] - 1
                    if c:
                        nes_count[s] = c
                    else:
                        del nes_count[s]
                for s in reversed(touched):
                    c = t_count[s] - 1
                    if c:
                        t_count[s] = c
                    else:
                        del t_count[s]
            return None

        return dfs(0)


def sum_number(g: Graph, cfg: SearchConfig | None = None) -> IndexResult:
    """Least number of isolated vertices (within label range {1..B}) whose
    addition admits a sum labelling: uv is an edge iff f(u)+f(v) is a label.

    Reported as an upper bound exhaustive within the range.
    """
    _require_connected(g, "sum_number")
    cfg = cfg or SearchConfig()
    n = g.n
    bound = cfg.label_bound if cfg.label_bound is not None else _default_positive_bound(n)
    if bound < n:
        raise SolverError(f"label bound {bound} cannot label {n} vertices in 1..{bound}")
    t0 = time.perf_counter()
    counter = _NodeCounter(cfg.node_budget)
    trace: list[tuple[int, int]] = []
    exhaustive = True
    value: int | None = None
    labels: list[int] | None = None
    iso: list[int] | None = None
    while True:
        search = _SigmaSearch(g, counter)
        round_value = None
        round_labels = None
        round_iso = None
        try:
            # cheap pass first (see exclusive_sum_number)
            for r in range(1, g.m + 1):
                found = search.search(r, min(bound, max(n, 4 * n)), lexicographic=False)
                if found is not None:
                    round_value = r
                    round_labels, round_iso = found
                    break
            for r in range(1, round_value if round_value is not None else g.m + 1):
                found = None
                for cap in _cap_ladder(n, 1, bound):
                    found = search.search(r, cap, lexicographic=False)
                    if found is not None:
                        break
                if found is not None:
                    round_value = r
                    round_labels, round_iso = found
                    break
            if round_value is not None:
                cap2 = min(bound, max(2 * n, max(round_labels)))
                canon = search.search(round_value, cap2, lexicographic=True)
                if canon is not None:
                    round_labels, round_iso = canon
        except _NodeBudgetExceeded:
            exhaustive = False
        if round_value is not None:
            value, labels, iso = round_value, round_labels, round_iso
            trace.append((bound, round_value))
        if value is None:
            if not exhaustive:
                raise _budget_error("sum", counter, bound)
            if cfg.escalate:
                bound *= 2
                continue
            raise SolverError(
                f"no sum labelling within label range 1..{bound}; "
                "increase the range or enable escalation"
            )
        if not cfg.escalate or not exhaustive:
            break
        if len(trace) >= 2 and trace[-1][1] == trace[-2][1]:
            break
        bound *= 2
    assert labels is not None and iso is not None
    witness = VertexLabelling.from_dict({v: labels[v] for v in range(n)})
    return IndexResult(
        invariant="sum_number",
        value=value,
        witness=witness,
        range_used=bound,
        escalation_trace=tuple(trace),
        exhaustive_within_range=exhaustive,
        nodes_expanded=counter.nodes,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        isolated_labels=tuple(iso),
    )


# ---------------------------------------------------------------------------
# G_+(S, T)
# ---------------------------------------------------------------------------

def realize_gplus(S, T) -> Graph:
    """Graph on the sorted elements of S with u ~ v iff u + v is in T."""
    s = sorted(set(S))
    if not s:
        raise SolverError("S must be nonempty")
    tset = set(T)
    edges = [
        (i, j)
        for i in range(len(s))
        for j in range(i + 1, len(s))
        if s[i] + s[j] in tset
    ]
    return Graph(len(s), edges)


def shift_equivalence_check(S, T, r: int) -> bool:
    """Shifting S by r and T by 2r realises the same graph (sorted order)."""
    if r < 0:
        raise SolverError("shift must be nonnegative")
    g1 = realize_gplus(S, T)
    g2 = realize_gplus([a + r for a in S], [t + 2 * r for t in T])
    return g1 == g2

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

The sum number has its own search, which places labels in increasing order
and picks at each step the vertex that takes the next label.  An edge sum
below the newest label that is not itself a label can never be covered, so
isolated labels are counted, and the isolated-label conditions checked, as
soon as they become permanent; the vertex labelled last contributes all its
edge sums, so at least the least degree of the unplaced vertices.  Twins take
labels in vertex order.  The ascent over r starts at the classical bound
sigma(G) >= min degree (Bergstrand et al. 1989).  One cheap pass at cap 4n
secures an upper-bound witness, then each smaller r is proved infeasible
over the full range.  The witness is the first labelling in label-ascending
order, at the reported r, within the cap of the pass that found it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bounds import best_df_lower, best_sm_lower
from .graphs import Graph, degree_sequence, is_connected
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
    non-exhaustive, except that a sum-number or exclusive sum number search
    whose budget runs out before it has found any labelling raises
    SolverError.  worker_hint is the desired parallel width for corpus
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

class _AscendingSumSearch:
    """Label-ascending DFS for labellings that make the graph plus r isolated
    vertices a sum graph.

    A labelling f of the graph's vertices extends to a sum labelling exactly
    when, with S = f(V), T the edge-sum set and W = S u T, (i) no non-adjacent
    pair of graph vertices sums into W, (ii) the isolated labels I = T \\ S
    satisfy w + z not in W for every w in I, z in W \\ {w}, and (iii)
    |I| <= r.  Extra isolated labels beyond T \\ S never help, so this is
    exact.

    Labels are placed in increasing order and each step picks the vertex that
    takes the next label, so an edge sum below the newest label that is not
    a label stays isolated for good.  S, T and the non-edge sums N are
    Python-int bitmasks.  A vertex's candidates are the labels above the
    last one, minus N, minus N shifted by each placed neighbour's label
    (an edge sum on a non-edge sum) and minus W shifted by each placed
    non-neighbour's label (a non-edge sum in W).  The vertex placed last has
    all its edge sums above every label, so at least its degree joins the
    isolated labels.  Two counts bound r, both applied to the candidate
    masks: the free sums (T \\ S) left below the new label plus the last
    vertex's degree, and all free sums after the placement less one per
    vertex still to come, where at-least-k masks count how many of the new
    edge sums land on free sums.  Twins (N(u)\\{v} = N(v)\\{u}) take labels
    in index order.  ``nodes_expanded`` counts the placements that survive
    the candidate masks.
    """

    def __init__(self, g: Graph, counter: _NodeCounter):
        n = g.n
        adj = [sum(1 << u for u in g.adj[v]) for v in range(n)]
        self.n = n
        self.adj = adj
        self.deg = [len(a) for a in g.adj]
        # a twin waits for every lower-index twin, which breaks their symmetry
        self.twins_before = [
            sum(1 << u for u in range(v) if adj[u] & ~(1 << v) == adj[v] & ~(1 << u))
            for v in range(n)
        ]
        self.counter = counter

    def search(self, r: int, cap: int) -> tuple[list[int], list[int]] | None:
        """First labelling in label-ascending order with labels in {1..cap}
        and at most r isolated labels, as (labels, isolated labels), or None
        when there is none."""
        n = self.n
        if cap < n:
            return None
        adj, deg, twins_before = self.adj, self.deg, self.twins_before
        counter = self.counter
        everyone = (1 << n) - 1
        labels_mask = (1 << (cap + 1)) - 2
        seq: list[tuple[int, int]] = []  # (vertex bit, label) in placement order
        layers: dict[int, tuple[int, list[tuple[int, int, int]]]] = {}  # see make_layer

        def make_layer(placed: int):
            """How many vertices stay unplaced after the next placement, and
            the vertices that may take the next label (a twin waits for its
            lower-index twins), each with its adjacency and how many free
            sums may lie below its label: the free sums below the new label
            stay isolated for good, and the vertex labelled last adds its
            degree, at least the least degree among the others unplaced."""
            unplaced = [v for v in range(n) if not placed >> v & 1]
            movers = []
            for v in unplaced:
                if twins_before[v] & ~placed:
                    continue
                last_deg = min((deg[u] for u in unplaced if u != v), default=deg[v])
                if last_deg <= r:
                    movers.append((v, adj[v], r - last_deg))
            return len(unplaced) - 1, movers

        def isolated_ok(iso: int, w_set: int) -> bool:
            # no isolated label w has w + z in W for some z in W other than w
            while iso:
                low = iso & -iso
                iso ^= low
                if (w_set >> (low.bit_length() - 1)) & w_set & ~low:
                    return False
            return True

        def dfs(placed: int, last: int, s_set: int, t_set: int, nes: int):
            if placed == everyone:
                iso = t_set & ~s_set
                if not isolated_ok(iso, s_set | t_set):
                    return None
                labels = [0] * n
                for low, q in seq:
                    labels[low.bit_length() - 1] = q
                return labels, [x for x in range(2 * cap + 1) if iso >> x & 1]
            layer = layers.get(placed)
            if layer is None:
                layer = layers[placed] = make_layer(placed)
            remaining, movers = layer
            free = t_set & ~s_set
            n_free = free.bit_count()
            window = labels_mask & ~((2 << last) - 1) & ~nes
            w_set = s_set | t_set
            # per placed vertex: its bit, its label's bit, and N, W and T
            # shifted down by its label
            blocked = [(low, 1 << q, nes >> q, w_set >> q, t_set >> q) for low, q in seq]
            cands = []
            union = 0
            for v, av, spare in movers:
                bad = nbr = 0
                hits = [free]  # bit x: label x covers a free sum
                for low, q, n_shift, w_shift, t_shift in blocked:
                    if av & low:
                        bad |= n_shift
                        nbr |= q
                        hits.append(t_shift)  # bit x: edge sum x + q is already free
                    else:
                        bad |= w_shift
                c = window & ~bad
                # at most ``spare`` free sums may stay below the label
                if n_free > spare:
                    cut = free
                    for _ in range(spare):
                        cut &= cut - 1
                    c &= (cut & -cut) * 2 - 1
                # Afterwards the n_free + (new edge sums) - (sums covered or
                # reused by label x) uncovered sums, less one per remaining
                # vertex, must fit in r: at least ``need`` of ``hits`` must hit.
                need = n_free + len(hits) - 1 - remaining - r
                if need > 0:
                    atleast = [c] + [0] * need
                    for h in hits:
                        for k in range(need, 0, -1):
                            atleast[k] |= atleast[k - 1] & h
                    c = atleast[need]
                if c:
                    cands.append((v, c, nbr, s_set ^ nbr))
                    union |= c
            while union:
                low = union & -union
                union ^= low
                x = low.bit_length() - 1
                for v, c, nbr, non in cands:
                    if not c & low:
                        continue
                    counter.tick()
                    ns = s_set | low
                    nt = t_set | (nbr << x)
                    perm = nt & ~ns & (low - 1)
                    if perm and not isolated_ok(perm, ns | nt):
                        continue
                    seq.append((1 << v, x))
                    hit = dfs(placed | 1 << v, x, ns, nt, nes | (non << x))
                    if hit is not None:
                        return hit
                    seq.pop()
            return None

        return dfs(0, 0, 0, 0, 0)


def sum_number(g: Graph, cfg: SearchConfig | None = None) -> IndexResult:
    """Least number of isolated vertices (within label range {1..B}) whose
    addition admits a sum labelling: uv is an edge iff f(u)+f(v) is a label.

    The search ascends from the classical lower bound sigma(G) >= min degree.
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
    search = _AscendingSumSearch(g, counter)
    # sigma(G) >= min degree: the vertex labelled last has all its edge sums
    # above every vertex label (Bergstrand et al. 1989)
    lower = max(1, degree_sequence(g).min_degree)
    trace: list[tuple[int, int]] = []
    exhaustive = True
    value: int | None = None
    labels: list[int] | None = None
    iso: list[int] | None = None
    while True:
        round_value = None
        round_labels = None
        round_iso = None
        try:
            # cheap pass at cap 4n first: its witness caps the ascent and
            # survives as an upper bound if the node budget later runs out;
            # only the full-range pass proves a smaller r infeasible
            for cap in sorted({min(bound, 4 * n), bound}):
                for r in range(lower, round_value if round_value is not None else g.m + 1):
                    found = search.search(r, cap)
                    if found is not None:
                        round_value = r
                        round_labels, round_iso = found
                        break
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

"""Exact bounded-range solvers for the four labelling invariants.

Sum/difference index: labels range over {0..B}.  Sum number and exclusive
sum number: labels range over {1..B} (the sum-graph definition requires
positive integers).  The latter two are reported as upper bounds that are
exhaustive within the range, since no finite label bound certifying global
optimality is known.  A value that equals the lower bound its ascent starts
from is exact at any range (``range_free``); the sum index's, the exclusive
sum number's and the sum number's lower bound is the least target that
``partition.refute``, in the invariant's mode, does not rule out.

The sum index, difference index and exclusive sum number share one search
kernel, ``_IndexSearch``: a DFS that pins its first vertex at relative
label 0 and keeps the span of the placed labels within B - floor.  The
feasibility search cuts reflection; the canonical pass keeps the twin
order.  It offers each vertex its candidate labels in increasing order, and
its callers differ only in the data they pass: the vertex order, the
starting window, and which cut applies.  Its feasibility search places the
vertices in ``graphs.branch_order``; the edge-partition refutation fixes
edge values in the same order, which the search hands it, and the greedy
bound numbers the vertices in it.

Candidate labels are generated as Python-int bitmasks, after the shift-
register bitmaps of optimal Golomb ruler search (Rankin 1993): the labels a
vertex may take to reuse an edge value at a placed neighbour are the value
set shifted by that neighbour's label, and the exclusive constraint is an
AND-NOT of shifted edge-sum and non-edge-sum masks.  A branch never exceeds
the target number of distinct values, so a vertex may add at most its slack
s (the target less the values so far) new ones.  Its candidates' misses
(edges onto no old value) are therefore counted in s + 1 masks only, one
per usable level, which with no slack is a chain of ANDs; a vertex with no
candidate ends its branch before any level is built.  Only a
difference-mode midpoint of two placed neighbours' labels is counted
exactly.  ``nodes_expanded`` counts the placements that survive these mask
filters.

Witnesses are canonicalised to the lexicographically least optimal labelling
(by vertex order) within a deterministic label cap, so results are
reproducible regardless of scheduling.  ``_IndexSearch.least`` finds it
with the same DFS: feasibility queries settle the first label, and a walk
in vertex order finds the rest.

The sum number has no label search of its own.  Its labellings with labels
in 1..cap and at most r isolated labels are the integer points of the
positive typed partitions that pass at r (``partition.points``): the first,
in the partition search's order and then lexicographic in the free
vertices' labels, that passes the sum-graph check here, which shares no
code with ``partition``, is its witness.  There is no canonical pass.

All four invariants share one ascent-and-escalation driver.  It ascends
targets from a lower bound: ``best_df_lower`` (which includes half the
maximum degree), as ``bounds`` reports it, for the difference index.  The
other three ascend from their range-free floors (``partition.floor``,
run by the driver on the same node counter): the least target that the
one typed-partition refutation does not rule out, in mode ``"sum"``,
``"exclusive"`` or ``"sum_graph"``, from ``best_sm_lower`` for the sum
index and the exclusive sum number, and from the min degree for the sum
number (sigma(G) >= min degree, Bergstrand et al. 1989).
A cheap pass at a small label cap (2n for the sum index, the difference
index and the exclusive sum number, 4n for the sum number) ascends to a
value quickly.  Only a full-range search proves a target infeasible, so the
full range is then searched descending from just below that value, and only
while each search finds a labelling: a labelling that reaches t also
reaches t + 1, so the first target the full range cannot reach proves every
smaller one infeasible too.  When the cheap value is optimal that is one
search, a subset of those an ascent would run, so the descent never spends
more nodes.  Index and exclusive witnesses are made canonical before the
proofs and after each proof that finds a smaller value, so a node budget
that runs out in the proofs still leaves a canonical witness.  The indices
stop the cheap ascent at a greedy labelling's value, the better of the
identity and the branch-order numbering, which is their result when nothing
smaller is found.  A node budget that runs out, in the floor search too,
leaves the least value found, flagged non-exhaustive, or raises SolverError
if none was found.  With escalation the range doubles, and each doubled
range runs only the descent again, from the value so far, until the value
is range-free or the same in two consecutive rounds; no search runs twice
within one solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .bounds import best_df_lower, best_sm_lower
from .graphs import Graph, branch_order, degree_sequence, is_connected, twins_below
from .labelling import LabelKind, VertexLabelling
from .partition import floor, points, refuter


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

    label_bound: largest label B; defaults to n(n-1)/2 + n for the sum and
    difference indices and 4n^2 for the sum number and the exclusive sum
    number.  escalate doubles B until the value is range-free or the same
    in two consecutive rounds.  node_budget caps the total number of
    search-tree nodes; exceeding it yields the least value found, flagged
    non-exhaustive, or SolverError when none was found (only the sum number
    and exclusive sum number have no greedy labelling).  The refutations
    that find the sm, eps and sigma floors tick the same count, and a
    result's ``nodes_expanded`` includes them; the sum number's walk over
    a partition's integer points ticks once per point.  A single solve is
    sequential; corpus scans take their parallel width from
    ``scan_conjectures(workers=)``.
    """

    label_bound: int | None = None
    escalate: bool = False
    node_budget: int | None = None


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
    """A computed invariant value with its witness and search provenance.

    range_free: the value is exact at any label range, since it equals the
    lower bound the ascent starts from (for all but the difference index,
    the least target an edge-partition refutation does not rule out).  With
    exhaustive_within_range False it is still exact, but the node budget ran
    out before the witness was made canonical.
    """

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
    range_free: bool = False

    def to_json_dict(self) -> dict:
        out = {
            "invariant": self.invariant,
            "value": self.value,
            "witness": {str(v): x for v, x in self.witness.items},
            "range_used": self.range_used,
            "escalation_trace": [list(t) for t in self.escalation_trace],
            "exhaustive": self.exhaustive_within_range,
            "range_free": self.range_free,
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

def _labelling_value(g: Graph, f: list[int], is_sum: bool) -> int:
    vals = set()
    for u, v in g.edges:
        vals.add(f[u] + f[v] if is_sum else abs(f[u] - f[v]))
    return len(vals)


def _greedy_upper(g: Graph, is_sum: bool, branch: list[int]) -> tuple[int, list[int]]:
    """Cheap upper bound: the better of two labellings with labels 0..n-1,
    the identity and the one that numbers the vertices in ``branch``, the
    branch order; the identity on a tie."""
    f = [0] * g.n
    for i, v in enumerate(branch):
        f[v] = i
    return min(((_labelling_value(g, h, is_sum), h) for h in (list(range(g.n)), f)),
               key=lambda c: c[0])


class _IndexSearch:
    """Window-and-bitmask DFS over injective labellings that bounds the
    number of distinct edge values.  In exclusive mode, sums of non-adjacent
    pairs must additionally avoid the edge-sum set, and labels are positive.

    The three invariants it serves are invariant under translating the
    labels, under reflecting them (f -> -f) and under swapping the labels of
    twins u, v (N(u) - {v} = N(v) - {u}), which keeps the edge values and
    the exclusive condition.  So the DFS places the first vertex of its
    order at relative label 0 and offers each later vertex only the labels
    that keep the span within W = cap - floor; the labelling found is
    translated so that its least label is the floor.  The feasibility
    search cuts reflection: the second vertex of the branch order lies
    above the first.  The canonical pass, whose lexicographic order
    reflection does not keep, keeps the twin order: twins u < v get
    f(u) < f(v), read when v is placed, after u in every order it runs.

    Labels are held as bit positions and every set the search consults is a
    Python int: the placed labels, the edge values, and in exclusive mode the
    non-edge sums.  Candidate labels for a vertex come from shifting those
    masks by its placed neighbours' labels, so no label is scanned one by one.
    Per vertex, the candidates that miss the old edge values at most e times
    are kept for e = 0..slack only, where slack is the number of new values
    the target still allows; a vertex with none left ends its branch there,
    before the masks a placement needs are built.  A candidate's number of
    new values is at most its miss count, and below it only in difference
    mode at the midpoint of two placed neighbours' labels, where their two
    differences coincide; so the exact count is taken only for a midpoint
    that misses more than slack times.  With no slack, as in most calls, the
    candidates are the intersection of the placed neighbours' hit masks, and
    the vertex ends its branch at the first empty one: a candidate adds no
    new value exactly when it misses nothing, midpoints included, so no
    recount can re-admit one.  That early exit is sound only there, as with
    slack a midpoint the count rejects may be re-admitted.  The candidates
    are then offered in increasing label order.
    """

    def __init__(self, g: Graph, kind: LabelKind, counter: _NodeCounter,
                 exclusive: bool = False):
        self.g = g
        self.is_sum = kind is LabelKind.SUM
        self.exclusive = exclusive
        self.floor = 1 if exclusive else 0
        self.counter = counter
        self.twins_below = twins_below([sum(1 << u for u in a) for a in g.adj])
        self.order = branch_order(g)

    def search(self, target: int, cap: int) -> list[int] | None:
        """First labelling with at most ``target`` distinct edge values and
        labels in {floor..cap}, or None when that space is empty: the DFS in
        the branch order, with the span its only window, and the reflection
        cut."""
        width = cap - self.floor
        return self._dfs(target, width, self.order, width, width, cut=True)

    def least(self, target: int, cap: int, known: list[int]) -> list[int]:
        """The lexicographically least labelling with at most ``target``
        distinct edge values and labels in {floor..cap}; ``known`` is one
        such labelling.  The answer does not depend on ``known``.

        Its first label is settled before the rest.  Let d be the least
        value of f(0) - min f over the labellings with at most ``target``
        values and span at most cap - floor.  Every labelling in the window
        has f(0) >= min f + d >= floor + d, and translating one that attains
        d so that its least label is the floor gives f(0) = floor + d; so
        the least labelling has f(0) = floor + d.  Feasibility queries for
        d = 0, 1, ... find d.  Each places vertex 0 at relative label 0, in
        a branch order grown from vertex 0 that propagates far better than
        the order 0..n-1, and every other label at most d below it.  Vertex
        0 is the least index of its twin class, so sorting twins never
        raises f(0) - min f and the twin order stays; reflection does not
        keep f(0) - min f, so the queries have no reflection cut.  ``known``
        bounds d without a query: sorting vertex 0's twin class makes
        f(0) - min f the least label of the class less min f, and reflecting
        it makes it max f less the greatest label of the class.  d is at
        most the smaller, c, so only d < c is queried, and d = c when no
        query finds a labelling.

        ``lexicographic`` then walks the window with f(0) = floor + d.  It
        needs no test that the least label is the floor: every labelling in
        the window with f(0) = floor + d has f(0) - min f <= d, so by the
        least choice of d its min is the floor.  The walk keeps twins in
        order too, which loses nothing: the least labelling is twin-sorted,
        since swapping an out-of-order twin pair gives a smaller one.
        """
        twins = [x for v, x in enumerate(known) if v == 0 or self.twins_below[v] & 1]
        c = min(min(twins) - min(known), max(known) - max(twins))
        width = cap - self.floor
        order = branch_order(self.g, 0)
        d = next((d for d in range(c)
                  if self._dfs(target, width, order, width, 2 * width - d,
                               cut=False) is not None), c)
        return self.lexicographic(target, cap, d)

    def lexicographic(self, target: int, cap: int, d: int) -> list[int] | None:
        """The lexicographically least labelling with at most ``target``
        distinct edge values, labels in {floor..cap} and f(0) = floor + d,
        or None: the DFS in vertex order 0..n-1, whose candidates come by
        label, so the first labelling it finds is the least.  Vertex 0 sits
        at position width, so the fixed window of positions width - d..
        2 width - d holds the labels floor..cap."""
        width = cap - self.floor
        return self._dfs(target, width, list(range(self.g.n)), width - d, 2 * width - d,
                         cut=False)

    def _dfs(self, target: int, width: int, order: list[int], lo: int, hi: int,
             cut: bool) -> list[int] | None:
        """First labelling of span at most ``width`` with at most ``target``
        distinct edge values, translated so that its least label is the
        floor, or None.  Vertices are placed in ``order``, the first at
        position ``width``, each later one in [hi - width, lo + width] with
        lo/hi the least/greatest of the placed positions and the given ones
        (lo <= width <= hi).  Candidates come in increasing position;
        ``cut`` takes the reflection cut in place of the twin order.
        """
        g = self.g
        n = g.n
        if width + 1 < n:
            return None
        step = [0] * n
        for i, v in enumerate(order):
            step[v] = i
        nbr_steps = [
            tuple(step[u] for u in g.adj[v] if step[u] < i) for i, v in enumerate(order)
        ]
        # per step, the earlier steps its label must lie above: the first for
        # the second (the reflection cut), or else its lower-index twins
        above = [[0] if i == 1 else [] for i in range(n)] if cut else [
            [step[u] for u in range(v) if self.twins_below[v] >> u & 1] for v in order]
        if self.exclusive:
            non_steps = [
                tuple(j for j in range(i) if j not in nbr_steps[i]) for i in range(n)
            ]
        else:
            non_steps = [()] * n
        # Positions lie in 0..2 width.  Edge sums are held as sums of
        # positions, differences as themselves in ``vals`` and mirrored at
        # ``top`` (above every position) in ``rvals``, so that both shifts
        # of a hit mask are nonnegative.
        top = 2 * width
        floor = self.floor
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
            base = ((1 << (lo + width + 1)) - (1 << (hi - width))) & ~used
            for j in above[i]:
                base &= -(2 << p[j])
            if exclusive:
                for q in nbl:
                    base &= ~(nes >> q)
                for j in non_steps[i]:
                    base &= ~(vals >> p[j])
            slack = target - vals.bit_count()
            if slack > len(nbl):
                slack = len(nbl)
            if not slack:
                cands = base
                for q in nbl:
                    cands &= vals >> q if is_sum else (vals << q) | (rvals >> (top - q))
                    if not cands:
                        return None
            else:
                # within[e]: candidates whose edges miss the old values at
                # most e times; one that misses more than slack times cannot
                # be placed.  within[slack] only shrinks, so the count stops
                # once it is empty.
                within = [base] * (slack + 1)
                for q in nbl:
                    hit = vals >> q if is_sum else (vals << q) | (rvals >> (top - q))
                    for e in range(slack, 0, -1):
                        within[e] = within[e - 1] | (within[e] & hit)
                    within[0] &= hit
                    if not within[slack]:
                        break
                cands = within[slack]
            # At a midpoint two new differences coincide, so the miss count
            # can only overcount it: a midpoint it rejects is counted exactly.
            if not is_sum and slack:
                mids = 0
                for s, q in enumerate(nbl):
                    for r in nbl[s + 1:]:
                        if not (q + r) & 1:
                            mids |= 1 << ((q + r) >> 1)
                mids &= base & ~cands
                while mids:
                    low = mids & -mids
                    mids ^= low
                    x = low.bit_length() - 1
                    if sum(1 for d in {abs(x - q) for q in nbl} if not vals >> d & 1) <= slack:
                        cands |= low
            if not cands:
                return None
            nbr_mask = non_mask = 0
            if is_sum:
                for q in nbl:
                    nbr_mask |= 1 << q
            if exclusive:
                for j in non_steps[i]:
                    non_mask |= 1 << p[j]
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
                          lo if lo < x else x, hi if hi > x else x)
                if hit is not None:
                    return hit
            return None

        counter.tick()
        p[0] = width
        return dfs(1, 0, 0, 0, 1 << width, lo, hi)


# ---------------------------------------------------------------------------
# The ascent-and-escalation driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Ascent:
    """What one invariant supplies to ``_solve``.

    find(t, cap) returns the first labelling with labels up to cap that
    reaches target t (at most t distinct values, or at most t isolated
    labels), or None; it is monotone in t, as a labelling that reaches t
    also reaches t + 1.  lower() returns the lower bound; the driver calls
    it once per solve, under the node budget, as it may search.  The cheap
    pass tries t = lower, lower + 1, ... below limit, and each round's
    descent runs from below the value so far to lower at most; fallback, if
    given, is a labelling known to reach limit.  find must also be monotone
    in the cap, as a labelling within one cap lies within every larger one,
    so that a round's descent never repeats a search of the round before.
    canonical(t, cap, known), if given, returns the lexicographically least
    labelling with labels up to cap that reaches t (for the index searches,
    ``_IndexSearch.least``).  The driver asks for it at the deterministic
    cap min(bound, max(cheap_cap, max(labels))) of the labelling found,
    which fits under that cap, so one always exists, and passes that
    labelling as known.  The answer does not depend on known, which only
    bounds the work.  cheap_cap is the canonical cap's lower limit, so a
    labelling of the cheap pass, whose labels lie within it, is always made
    canonical at min(bound, cheap_cap), whichever labelling find returned.
    No labelling at any cap reaches a target below lower, so a value at
    lower is reported range_free.  extra(labels) gives the invariant's own
    IndexResult fields.  what names the labelling in the SolverError raised
    when no range searched holds one (only the positive-label invariants,
    whose ascent has no fallback, can get there).
    """

    invariant: str
    find: Callable[[int, int], list[int] | None]
    lower: Callable[[], int]
    limit: int
    cheap_cap: int
    fallback: list[int] | None = None
    canonical: Callable[[int, int, list[int]], list[int]] | None = None
    extra: Callable[[list[int]], dict] | None = None
    what: str = ""


def _solve(spec: _Ascent, cfg: SearchConfig, g: Graph, first: int, default: int,
           counter: _NodeCounter) -> IndexResult:
    """Least target reached within label range first..B, escalated on request.

    B is cfg.label_bound or the invariant's default; a range first..B of
    fewer than n labels raises SolverError.  A solve calls spec.lower() once,
    then ascends once at the cheap cap min(B, cheap cap) from the lower bound
    to its least value v there, whose labelling (or the fallback) survives
    as an upper bound if the node budget later runs out.  Each round then
    descends at its bound, which alone can prove a target infeasible, from
    v - 1 while each search finds a labelling.  Since find is monotone in t,
    its first None proves every smaller target infeasible; when v is optimal
    the descent is the single search at v - 1, never more than an ascent
    over the targets below v would run.  A round whose bound is the cheap
    cap has no descent, as the ascent has proved every target below v
    there.  Where the invariant has a canonical form, the ascent's labelling
    and each labelling a descent finds are made canonical before the next
    proof, so a result cut short by the node budget still carries a
    canonical witness.

    With cfg.escalate the bound doubles until the value is range-free, at
    the lower bound, or the same in two consecutive rounds.  find is
    monotone in the cap too, so the value of the round before is still
    reached at the doubled bound: each round's value is the least target
    within its bound, and no search runs twice within one solve.
    """
    bound = cfg.label_bound if cfg.label_bound is not None else default
    if bound - first + 1 < g.n:
        raise SolverError(f"label bound {bound} cannot label {g.n} vertices in {first}..{bound}")
    t0 = time.perf_counter()
    trace: list[tuple[int, int]] = []
    value, labels, lower = spec.limit, spec.fallback, None
    exhaustive = True
    cheap_cap = min(bound, spec.cheap_cap)

    def canonical(t: int, labels: list[int]) -> list[int]:
        if spec.canonical is None:
            return labels
        return spec.canonical(t, min(bound, max(spec.cheap_cap, max(labels))), labels)

    try:
        lower = spec.lower()
        for t in range(lower, value):
            found = spec.find(t, cheap_cap)
            if found is not None:
                value, labels = t, found
                break
        if labels is not None:
            labels = canonical(value, labels)
        while True:
            if bound != cheap_cap:
                for t in range(value - 1, lower - 1, -1):
                    found = spec.find(t, bound)
                    if found is None:
                        break
                    # kept if the budget runs out in the canonical pass
                    value, labels = t, found
                    labels = canonical(t, found)
            if labels is None:
                if not cfg.escalate:
                    raise SolverError(
                        f"no {spec.what} labelling within label range {first}..{bound}; "
                        "increase the range or enable escalation"
                    )
            else:
                trace.append((bound, value))
                if not cfg.escalate or value == lower or (
                        len(trace) >= 2 and trace[-2][1] == value):
                    break
            bound *= 2
    except _NodeBudgetExceeded:
        exhaustive = False
        if labels is None:
            raise SolverError(
                f"node budget of {counter.budget} ran out after {counter.nodes} nodes "
                f"before any {spec.what} labelling within label range {first}..{bound} "
                "was found; raise the node budget"
            ) from None
        trace.append((bound, value))
    return IndexResult(
        invariant=spec.invariant,
        value=value,
        witness=VertexLabelling.from_dict(dict(enumerate(labels))),
        range_used=bound,
        escalation_trace=tuple(trace),
        exhaustive_within_range=exhaustive,
        nodes_expanded=counter.nodes,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        range_free=value == lower,
        **(spec.extra(labels) if spec.extra is not None else {}),
    )


# ---------------------------------------------------------------------------
# Sum index / difference index
# ---------------------------------------------------------------------------

def _solve_index(g: Graph, kind: LabelKind, cfg: SearchConfig | None, name: str) -> IndexResult:
    cfg = cfg or SearchConfig()
    n = g.n
    counter = _NodeCounter(cfg.node_budget)
    search = _IndexSearch(g, kind, counter)
    is_sum = kind is LabelKind.SUM
    upper, labels = _greedy_upper(g, is_sum, search.order)
    spec = _Ascent(
        invariant=name,
        find=search.search,
        lower=(lambda: floor(g, best_sm_lower(g), upper, "sum", counter.tick,
                             refuter(g, "sum", search.order)))
        if is_sum else lambda: best_df_lower(g),
        limit=upper,
        cheap_cap=2 * n,
        fallback=labels,
        # an edgeless graph's value 0 needs no search, not even a canonical one
        canonical=search.least if g.m else None,
    )
    return _solve(spec, cfg, g, 0, n * (n - 1) // 2 + n, counter)


def sum_index(g: Graph, cfg: SearchConfig | None = None) -> IndexResult:
    """Minimum number of distinct edge sums over injective labellings in {0..B}.

    The search ascends from the floor of ``partition``; a node budget that
    runs out before it is found leaves the greedy labelling, flagged."""
    return _solve_index(g, LabelKind.SUM, cfg, "sum_index")


def difference_index(g: Graph, cfg: SearchConfig | None = None) -> IndexResult:
    """Minimum number of distinct edge differences over injective labellings in {0..B}."""
    return _solve_index(g, LabelKind.DIFF, cfg, "difference_index")


# ---------------------------------------------------------------------------
# Exclusive sum number
# ---------------------------------------------------------------------------

def _require_connected(g: Graph, what: str) -> None:
    if g.n < 2 or not is_connected(g):
        raise SolverError(f"{what} requires a connected graph on at least 2 vertices")


def _edge_sums(g: Graph, labels: list[int]) -> set[int]:
    return {labels[u] + labels[v] for u, v in g.edges}


def exclusive_sum_number(g: Graph, cfg: SearchConfig | None = None) -> IndexResult:
    """Least |T| with the graph realised on vertex labels S, edges uv iff
    f(u)+f(v) in T, over injective assignments into {1..B}.

    The search ascends from the least target t at or above ``best_sm_lower``
    that the edge-partition refutation (see ``partition``) does not rule
    out: no labelling at any label range has fewer values, and
    some labelling at some range has t.  A value at that floor is flagged
    ``range_free``; any other is an upper bound exhaustive within the range.
    A node budget that runs out before any labelling is found raises
    SolverError.  Disjointness of S and T is not required.
    """
    _require_connected(g, "exclusive_sum_number")
    cfg = cfg or SearchConfig()
    counter = _NodeCounter(cfg.node_budget)
    search = _IndexSearch(g, LabelKind.SUM, counter, exclusive=True)

    def extra(labels: list[int]) -> dict:
        return {"exclusive": ExclusiveWitness(
            S=tuple(sorted(labels)),
            T=tuple(sorted(_edge_sums(g, labels))),
            assignment=tuple(enumerate(labels)),
        )}

    spec = _Ascent(
        invariant="exclusive_sum_number",
        find=search.search,
        lower=lambda: floor(g, best_sm_lower(g), g.m + 1, "exclusive", counter.tick,
                            refuter(g, "exclusive", search.order)),
        limit=g.m + 1,
        cheap_cap=2 * g.n,
        canonical=search.least,
        extra=extra,
        what="exclusive sum",
    )
    return _solve(spec, cfg, g, 1, 4 * g.n * g.n, counter)


# ---------------------------------------------------------------------------
# Sum number
# ---------------------------------------------------------------------------

def sum_number(g: Graph, cfg: SearchConfig | None = None) -> IndexResult:
    """Least number of isolated vertices (within label range {1..B}) whose
    addition admits a sum labelling: uv is an edge iff f(u)+f(v) is a label.

    The search ascends from the least r at or above the classical bound
    sigma(G) >= min degree that the partition refutation in mode
    ``"sum_graph"`` (see ``partition``) does not rule out: no sum labelling
    at any label range has fewer isolated labels, and a positive one at some
    range has r.  A value at that floor is flagged ``range_free``; any other
    is an upper bound exhaustive within the range.  A target's labellings
    within a cap are the integer points of its passing partitions
    (``partition.points``) that pass the sum-graph check; the search that
    found the floor keeps its passing partition, which is tried first.  The
    node budget counts the partition search's nodes and the points checked;
    when it runs out before any labelling is found, in the floor search too,
    it raises SolverError.
    """
    _require_connected(g, "sum_number")
    cfg = cfg or SearchConfig()
    counter = _NodeCounter(cfg.node_budget)
    search = refuter(g, "sum_graph")
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]

    def isolated(labels: list[int]) -> set[int] | None:
        """The isolated labels I = T - S with which labels make g a sum
        graph, or None when they do not: with S the labels, T the edge sums
        and W = S | T, the labels are distinct, no non-edge sums into W, and
        x + z lies outside W for x in I and z in W, z != x."""
        s_set = set(labels)
        t_set = _edge_sums(g, labels)
        w_set = s_set | t_set
        iso = t_set - s_set
        if len(s_set) < g.n or any(labels[u] + labels[v] in w_set for u, v in non_edges) or any(
                x + z in w_set for x in iso for z in w_set if z != x):
            return None
        return iso

    def find(r: int, cap: int) -> list[int] | None:
        def take(leaf: tuple[list[int], int]) -> list[int] | None:
            for f in points(leaf, g.n, cap):
                counter.tick()
                if (iso := isolated(f)) is not None and len(iso) <= r:
                    return f
            return None

        return search(r, counter.tick, take)

    spec = _Ascent(
        invariant="sum_number",
        find=find,
        # sigma(G) >= min degree: the vertex labelled last has all its edge
        # sums above every vertex label (Bergstrand et al. 1989)
        lower=lambda: floor(g, degree_sequence(g).min_degree, g.m + 1, "sum_graph",
                            counter.tick, search),
        limit=g.m + 1,
        cheap_cap=4 * g.n,
        extra=lambda labels: {"isolated_labels": tuple(sorted(isolated(labels)))},
        what="sum",
    )
    return _solve(spec, cfg, g, 1, 4 * g.n * g.n, counter)


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


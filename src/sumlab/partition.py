"""Range-free refutation of sum and exclusive sum labellings, and of sum
graphs, by edge partitions.

A labelling f with at most t distinct edge sums splits the edges into at
most t classes of equal sum.  In a class with representative edge ab, each
edge cd gives the equation f(c) + f(d) - f(a) - f(b) = 0, and the rational
labellings that satisfy a partition's equations form the null space V of
their row space R.  Such a labelling is injective exactly when it avoids
the hyperplanes with normals e_u - e_v, which is all the sum index needs;
it is also exclusive (no non-adjacent pair sums to an edge sum) when it
avoids e_u + e_v - e_a - e_b for each non-edge uv and class representative
ab.  V is not a finite union of proper subspaces, so it holds a point that
avoids them all exactly when no forbidden normal lies in R.  The all-ones
vector lies in V and is orthogonal to every normal, so that point scales to
integers and translates to positive labels, which adds the same amount to
every sum and so keeps each class.  A partition therefore passes exactly
when a labelling at some label range realises it, and no partition into at
most t classes passing proves the sum index (or exclusive sum number) above
t at every label range.

The search assigns the edges to classes numbered by first use, in the
order in which the label search of ``solvers`` fixes their values: by the
``branch_order`` positions of their later and then their earlier end.  A
class is a matching, since two adjacent edges with equal sums would give
two vertices equal labels, so that is checked before any algebra.  Adding
an edge either adds an equation that V already satisfies, or one that cuts
V down and is checked on the new labels; opening a class checks its
representative's sum against the non-edge sums.  A prefix that fails fails
in every extension, as extensions only add equations and normals.

Each label is kept as an integer linear form in free coordinates x_j that
parametrise V, so that a normal w lies in R exactly when the form
sum_u w_u f_u is zero, packed into one int, its value at x_j = B^j: the
coefficient of x_j is digit j in balanced base B = 2^s.  The forms start
as f_u = B^u.  An edge cd joining the class of ab gives
E = f_c + f_d - f_a - f_b; E = 0 is already implied.  Otherwise the pivot
x_q is E's lowest nonzero digit, found from its lowest set bit, p is that
digit (E is negated if p < 0), and one fraction-free step (Bareiss 1968)
eliminates x_q from every label: f'_u = (p f_u - [f_u]_q E) / prev, with
[f_u]_q digit q of f_u and prev the last pivot (1 at the root).  f' is f
with E = 0 solved for x_q, scaled by p / prev.  The division is exact:
with w_1..w_k the equations taken (+1 at c and d, -1 at a and b, negated
with E) and q_1..q_k their pivots, digit j of f_u is the minor of the rows
w_1..w_k, e_u on the columns q_1..q_k, j; so digit j of the next E, which
is linear in the last row, is the minor of w_1..w_{k+1} there, and the
last pivot is the minor of w_1..w_k on q_1..q_k.  The update is
Sylvester's identity on these integer minors, so each digit divides
exactly, and so does the packed int.

The width is s = n + 2.  As a class is a matching, each w_i has norm at
most 2 on any columns, and e_u at most 1; k <= n - 1, as each w_i is
orthogonal to the all-ones vector.  By Hadamard's bound a digit of a label
or of E is at most 2^(n-1) in magnitude, and one of a difference of two
sums of two labels (a minor whose last row has at most four entries +-1)
at most 2^n: all below B/2 = 2^(n+1).  So digits read back exactly, and
two sums of two labels are equal exactly when their forms are.

The sum number has a third refutation, ``refute_sum_graph``, on typed
partitions: each class either sums to one vertex's label or to an isolated
label, and the checks are the sum-graph conditions.  Its equations are not
translation-invariant, so a passing partition need not give a positive
labelling, and its floor is a lower bound, exact where the label search
reaches it.  Its label-class rows lift the rank bound to n, so it packs at
width n + 3.
"""

from __future__ import annotations

from typing import Callable

from .graphs import Graph, branch_order


def _branch_edges(g: Graph) -> list[tuple[int, int]]:
    """The edges of g by the ``branch_order`` positions of their later and
    then their earlier end: the order in which the label search fixes each
    edge's value, so that edges sharing an end come close together."""
    pos = {v: i for i, v in enumerate(branch_order(g))}
    return sorted(g.edges, key=lambda e: (max(pos[e[0]], pos[e[1]]), min(pos[e[0]], pos[e[1]])))


def _digit(x: int, q: int, s: int) -> int:
    """Digit q / s of x in balanced base 2^s, q being its lowest bit: half
    of 2^q rounds off the digits below, and 2^(s-1) at q lifts it to >= 0."""
    half = 1 << s - 1
    return ((x + (1 << q >> 1) + (half << q)) >> q & 2 * half - 1) - half


def _step(labels: list[int], e: int, prev: int, s: int) -> tuple[list[int], int]:
    """The labels after the Bareiss step that solves e = 0 for e's lowest
    nonzero digit, and that step's pivot, the next step's prev."""
    q = ((e & -e).bit_length() - 1) // s * s
    p = _digit(e, q, s)
    if p < 0:
        e, p = -e, -p
    half = 1 << s - 1
    # _digit of each label, inlined: a call per label costs a fifth of the step
    lift, mask = (1 << q >> 1) + (half << q), 2 * half - 1
    return [(p * x - (((x + lift) >> q & mask) - half) * e) // prev for x in labels], p


def refute(g: Graph, t: int, exclusive: bool,
           tick: Callable[[], None] = lambda: None) -> bool:
    """True when no injective labelling of g, at any label range, has at
    most t distinct edge sums (and, if ``exclusive``, is exclusive); False
    when one exists.

    ``tick`` is called once per search node: each assignment of an edge to a
    class that passes the matching check.
    """
    n = g.n
    s = n + 2
    edges = _branch_edges(g)
    non_edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)
    ] if exclusive else []
    reps: list[tuple[int, int]] = []  # each class's first edge
    masks: list[int] = []  # each class's ends

    # labels: the packed forms; prev: the last pivot; nsums: non-edge sums
    def dfs(i: int, labels: list[int], prev: int, nsums: set[int]) -> bool:
        if i == len(edges):
            return True
        c, d = edges[i]
        ends = 1 << c | 1 << d
        for k in range(len(reps)):
            if masks[k] & ends:
                continue
            tick()
            a, b = reps[k]
            e = labels[c] + labels[d] - labels[a] - labels[b]
            if e:
                nlabels, p = _step(labels, e, prev, s)
                if len(set(nlabels)) < n:
                    continue
                nnsums = {nlabels[u] + nlabels[v] for u, v in non_edges}
                if nnsums and any(nlabels[x] + nlabels[y] in nnsums for x, y in reps):
                    continue
            else:
                nlabels, p, nnsums = labels, prev, nsums
            masks[k] |= ends
            found = dfs(i + 1, nlabels, p, nnsums)
            masks[k] ^= ends
            if found:
                return True
        if len(reps) < t:
            tick()
            if labels[c] + labels[d] not in nsums:
                reps.append((c, d))
                masks.append(ends)
                found = dfs(i + 1, labels, prev, nsums)
                reps.pop()
                masks.pop()
                if found:
                    return True
        return False

    labels = [1 << s * u for u in range(n)]
    return not dfs(0, labels, 1, {labels[u] + labels[v] for u, v in non_edges})


def refute_sum_graph(g: Graph, t: int, tick: Callable[[], None] = lambda: None) -> bool:
    """True when no sum labelling of g with at most t isolated labels exists
    at any label range; False when a typed partition passes.

    In a sum labelling each edge cd sums to a label: that of a vertex w, not
    c or d, or an isolated label, and an isolated label that is no edge sum
    can be dropped.  So the edges fall into label classes, keyed by w, with
    f(c) + f(d) = f(w), and at most t isolated classes of equal sum.  The
    search takes the edges in ``_branch_edges`` order, and each joins a
    class that shares no end with it (w counts as an end of its label
    class), opens the label class of a vertex w off the edge that has none
    yet, or opens an isolated class, numbered by first use, if fewer than t
    are open.  With W the labels and the isolated classes' sums, each node
    checks that the labels are pairwise distinct and nonzero, the isolated
    sums pairwise distinct, nonzero and no label, that no non-edge sums
    into W, and that x + z lies outside W for x isolated, z in W, z != x.
    Each check only tightens as equations and classes are added, so a
    prefix that fails fails in every extension.

    A positive sum labelling's own typed partition passes every check, so a
    t that no partition passes lies below the sum number at every range.  A
    passing partition gives only a real labelling (its null space minus
    finitely many hyperplanes is not empty), which need not be positive, as
    translation does not keep f(c) + f(d) = f(w): the floor is a lower
    bound, exact wherever the label search reaches it.

    The forms are packed and stepped as in ``refute``, at width s = n + 3.
    A label-class row e_c + e_d - e_w is not orthogonal to the all-ones
    vector, so up to n rows, each of norm at most 2, can be taken.  Each
    check compares two forms whose difference has norm at most sqrt 8, the
    worst being x + z - y with x and z isolated sums, whose first edges
    share at most one end.  By Hadamard's bound every digit is below
    2^n sqrt 8 < 2^(n+2) = B/2.  ``tick`` is called once per assignment
    that passes the end check.
    """
    n = g.n
    s = n + 3
    edges = _branch_edges(g)
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    reps: list[tuple[int, ...]] = []  # each class's sum: f(w) as (w,), or its first edge's
    masks: list[int] = []  # each class's ends
    pairs: list[tuple[int, int]] = []  # the isolated classes' first edges

    def fits(labels: list[int], sums: list[int]) -> bool:
        w = set(labels)
        w.update(sums)
        if len(w) < n + len(sums) or 0 in w:
            return False
        if any(labels[u] + labels[v] in w for u, v in non_edges):
            return False
        return not any(x + z in w for x in sums for z in w if z != x)

    def equate(labels: list[int], prev: int, e: int):
        # the labels and pivot with e = 0 added, or None if a check fails
        if not e:
            return labels, prev
        labels, prev = _step(labels, e, prev, s)
        return (labels, prev) if fits(labels, [labels[a] + labels[b] for a, b in pairs]) else None

    def opened(rep: tuple[int, ...], mask: int, i: int, labels: list[int], prev: int,
               keyed: int) -> bool:
        reps.append(rep)
        masks.append(mask)
        found = dfs(i + 1, labels, prev, keyed)
        reps.pop()
        masks.pop()
        return found

    # keyed: the vertices w whose label class is open
    def dfs(i: int, labels: list[int], prev: int, keyed: int) -> bool:
        if i == len(edges):
            return True
        c, d = edges[i]
        ends = 1 << c | 1 << d
        here = labels[c] + labels[d]
        for k in range(len(reps)):
            if masks[k] & ends:
                continue
            tick()
            step = equate(labels, prev, here - sum(labels[x] for x in reps[k]))
            if step is not None:
                masks[k] |= ends
                found = dfs(i + 1, *step, keyed)
                masks[k] ^= ends
                if found:
                    return True
        for w in range(n):
            if (keyed | ends) >> w & 1:
                continue
            tick()
            step = equate(labels, prev, here - labels[w])
            if step is not None and opened((w,), ends | 1 << w, i, *step, keyed | 1 << w):
                return True
        if len(pairs) < t:
            tick()
            if fits(labels, [labels[a] + labels[b] for a, b in pairs] + [here]):
                pairs.append((c, d))
                found = opened((c, d), ends, i, labels, prev, keyed)
                pairs.pop()
                if found:
                    return True
        return False

    return not dfs(0, [1 << s * u for u in range(n)], 1, 0)


def floor(g: Graph, lower: int, limit: int, exclusive: bool = False,
          tick: Callable[[], None] = lambda: None, sum_graph: bool = False) -> int:
    """The least t in lower..limit - 1 that the refutation does not rule
    out, or limit when it rules out all of them (limit is a value some
    labelling is known to reach, so it needs no search): ``refute`` with
    ``exclusive``, or ``refute_sum_graph`` if ``sum_graph``.  No labelling
    at any range reaches a target below the result."""
    while lower < limit and (refute_sum_graph(g, lower, tick) if sum_graph
                             else refute(g, lower, exclusive, tick)):
        lower += 1
    return lower

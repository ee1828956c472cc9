"""Range-free lower bounds on the sum index, the exclusive sum number and
the sum number, by refuting typed edge partitions.

A labelling splits the edges by the value each sums to.  In the modes
``"sum"`` (the sum index) and ``"exclusive"`` (the exclusive sum number)
that value is one of at most t edge sums; in ``"sum_graph"`` (the sum
number) it is the label of a vertex w off the edge, or one of at most t
isolated labels, as an isolated label that is no edge sum can be dropped.
So each class is keyed by the form its edges sum to: f(a) + f(b) for its
first edge ab in a counted class, f(w) in w's label class.  Each edge cd in
a class gives the equation f(c) + f(d) = its key, and the rational
labellings that satisfy a partition's equations form the null space V of
their row space R.  Each of the mode's conditions asks that two forms
differ, which fails on all of V exactly when their difference lies in R;
V is not a finite union of proper subspaces, so some point of V meets them
all exactly when each holds on the forms.  The conditions are:

- every mode: the labels are pairwise distinct;
- ``"exclusive"``: no non-edge uv sums to a class's value;
- ``"sum_graph"``: the labels are nonzero; the isolated sums are pairwise
  distinct, nonzero and no label; with W the labels and isolated sums, no
  non-edge sums into W, and x + z lies outside W for x isolated and z in W,
  z != x.

In the first two modes the all-ones vector lies in V and is orthogonal to
every condition's normal, so a passing point scales to integers and
translates to positive labels, which keeps each class: a partition passes
exactly when a labelling at some range realises it.  In ``"sum_graph"`` a
positive sum labelling's own typed partition passes, but a passing one
gives only a real labelling, which need not be positive, as translation
does not keep f(c) + f(d) = f(w).  So no partition with at most t counted
classes passing proves the invariant above t at every range; the sum
number's floor is a lower bound, exact wherever the label search reaches
it.

The search takes the edges in the order in which the label search of
``solvers`` fixes their values: by the ``branch_order`` positions of their
later and then their earlier end.  In ``"sum_graph"`` the n label classes
exist from the root, as a class with no edges imposes no equation.  Each
edge joins a class that shares no end with it, the counted classes in the
order they opened and then the label classes in vertex order, and then
opens a counted class, if fewer than t are open.  Two adjacent edges with
equal sums would give two vertices equal labels, or one the label 0, so a
class is a matching (w counts as an end of its label class), checked
before any algebra.  Counted classes are numbered by first use and label
classes keyed by w, so each typed partition is searched once.  A search
node, in every mode, is an assignment of an edge to a class, open or new,
that passes that end check, and it checks the conditions unless its
equation is already implied and no form changes.  A prefix that fails
fails in every extension, as extensions only add equations and
conditions.

A graph automorphism maps each partition to one that passes exactly when
it does, as the conditions, the matching rule and the count of counted
classes are invariant under relabelling the vertices.  So the search also
cuts all but the least partition of each orbit of twin swaps (a lex-leader
constraint; Crawford, Ginsberg, Luks and Roy, KR 1996).  Let c be the
class vector in edge order, counted classes by their number, below the
label classes, which are ranked by w.  For each vertex v with a twin below
it (``twins_below``), the swap of v with its nearest twin below maps c to
a vector renumbered by first use, w's label class going to that of w's
image.  A child is cut, after its end check, when the image prefix that
its own prefix determines is less than c over the same edges; each swap
is checked only where that prefix grows, and only while the two are tied.
Sound for any set of automorphisms: the least passing partition is no
greater than any of its images, which pass too, and each of its prefixes
passes the search's own checks, which only drop equations and classes
from the full check, so it is never cut and no answer changes.

Each label is kept as an integer linear form in free coordinates x_j that
parametrise V, so that a normal w lies in R exactly when the form
sum_u w_u f_u is zero, packed into one int, its value at x_j = B^j: the
coefficient of x_j is digit j in balanced base B = 2^s.  The forms start
as f_u = B^u.  In ``"sum_graph"`` one more label, n, is the zero form, and
w's label class is keyed (w, n), so that every key is a pair of labels ab
and an edge cd joining a class gives E = f_c + f_d - f_a - f_b; E = 0 is
already implied.  Otherwise the pivot x_q is E's lowest nonzero digit, found from
its lowest set bit, p is that digit (E is negated if p < 0), and one
fraction-free step (Bareiss 1968) eliminates x_q from every label:
f'_u = (p f_u - [f_u]_q E) / prev, with [f_u]_q digit q of f_u and prev
the last pivot (1 at the root).  f' is f with E = 0 solved for x_q, scaled
by p / prev.  The division is exact: with w_1..w_k the equations taken
(negated with E) and q_1..q_k their pivots, digit j of f_u is the minor of
the rows w_1..w_k, e_u on the columns q_1..q_k, j; so digit j of the next
E, which is linear in the last row, is the minor of w_1..w_{k+1} there,
and the last pivot is the minor of w_1..w_k on q_1..q_k.  The update is
Sylvester's identity on these integer minors, so each digit divides
exactly, and so does the packed int.

The width is s = n + 3.  As a class is a matching, each w_i has norm at
most 2 on any columns, e_u has norm 1, and at most n rows are taken.  Each
condition compares two forms whose difference has norm at most sqrt 8, the
worst being x + z - y for isolated sums x and z whose first edges share an
end.  By Hadamard's bound a digit of a label or of E is at most 2^n in
magnitude, and one of a condition's difference below 2^n sqrt 8 < 2^(n+2)
= B/2.  So digits read back exactly, and two forms are equal exactly when
their packed ints are.
"""

from __future__ import annotations

from typing import Callable

from .graphs import Graph, branch_order, twins_below


def _branch_edges(g: Graph) -> list[tuple[int, int]]:
    """The edges of g by the ``branch_order`` positions of their later and
    then their earlier end: the order in which the label search fixes each
    edge's value, so that edges sharing an end come close together."""
    bit = [0] * g.n  # 1 << position, so that an edge's key orders its later end first
    for i, v in enumerate(branch_order(g)):
        bit[v] = 1 << i
    return sorted(g.edges, key=lambda e: bit[e[0]] | bit[e[1]])


def _step(labels: list[int], e: int, prev: int, s: int) -> tuple[list[int], int]:
    """The labels after the Bareiss step that solves e = 0 for e's lowest
    nonzero digit, and that step's pivot, the next step's prev."""
    q = ((e & -e).bit_length() - 1) // s * s
    # digit q / s of x is ((x + lift) >> q & mask) - half: half of 2^q rounds
    # off the digits below, and half at q lifts the digit to >= 0
    half = 1 << s - 1
    lift, mask = (1 << q >> 1) + (half << q), 2 * half - 1
    p = ((e + lift) >> q & mask) - half
    if p < 0:
        e, p = -e, -p
    return [(p * x - (((x + lift) >> q & mask) - half) * e) // prev for x in labels], p


# Each mode's conditions besides distinct labels, which ``refute`` checks
# itself (in "sum_graph" the zero form among them makes them nonzero too),
# built once per graph from n, the non-edges and the live list of class keys:
# ``fits(labels)``, after an equation, gives the non-edge sums, or None when
# a condition fails; ``opens(labels)``, with a counted class just keyed
# whose sum is no non-edge sum, tells whether the conditions still hold.

def _sum(n: int, non_edges, keys):
    no_sums = frozenset()
    return (lambda labels: no_sums), lambda labels: True


def _exclusive(n: int, non_edges, keys):
    def fits(labels: list[int]):
        nsums = {labels[u] + labels[v] for u, v in non_edges}
        return None if any(labels[a] + labels[b] in nsums for a, b in keys) else nsums

    return fits, lambda labels: True


def _sum_graph(n: int, non_edges, keys):
    def fits(labels: list[int]):
        sums = [labels[a] + labels[b] for a, b in keys if b < n]  # the isolated sums
        w = set(labels)
        w.update(sums)
        if len(w) <= n + len(sums):
            return None
        w.discard(0)
        nsums = {labels[u] + labels[v] for u, v in non_edges}
        if not nsums.isdisjoint(w) or any(x + z in w for x in sums for z in w if z != x):
            return None
        return nsums

    return fits, lambda labels: fits(labels) is not None


# mode: its conditions, and whether it has label classes
_MODES = {"sum": (_sum, False), "exclusive": (_exclusive, False), "sum_graph": (_sum_graph, True)}


def _refuter(g: Graph, mode: str) -> Callable[[int, Callable[[], None]], bool]:
    """``refute`` on g in ``mode`` as a function of t and tick, with the
    edge order, the non-edges and the twin swaps' checks built once."""
    if mode not in _MODES:
        raise ValueError(f"unknown refutation mode {mode!r}")
    conditions, typed = _MODES[mode]
    n = g.n
    s = n + 3
    edges = _branch_edges(g)
    m = len(edges)
    adj = [0] * n
    at = [0] * (n * n)  # at[a * n + b]: the position of edge ab
    for i, (a, b) in enumerate(edges):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        at[a * n + b] = at[b * n + a] = i
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not adj[u] >> v & 1]
    # Each edge's class is kept in cls: its number by first use if counted,
    # m + w for w's label class.  Swap k's image of the class vector holds at
    # position j the class of edge image[j], label classes mapped by smap;
    # its prefix up to j is known once the edges up to the greatest
    # image[0..j] are, so checks[i] holds (1 << k, k, pairs, smap) for each
    # swap whose known prefix grows at edge i, pairs being the new (j, image[j]).
    cls = [0] * m
    checks: list[list[tuple]] = [[] for _ in edges]
    swaps = 0
    for v, below in enumerate(twins_below(adj)):
        if below:
            u = below.bit_length() - 1
            image = list(range(m))
            for x in g.adj[u]:
                if x != v:
                    image[at[u * n + x]], image[at[v * n + x]] = at[v * n + x], at[u * n + x]
            smap = list(range(m + n))
            smap[m + u], smap[m + v] = m + v, m + u
            top, pairs = 0, []
            for j, e in enumerate(image):
                if e > top:
                    if pairs:
                        checks[top].append((1 << swaps, swaps, pairs, smap))
                    top, pairs = e, []
                pairs.append((j, e))
            checks[top].append((1 << swaps, swaps, pairs, smap))
            swaps += 1

    def lex(rows: list, tied: int, rens: list):
        """tied and rens after rows' checks, or None when an image prefix is
        less than the class prefix; rens[k] lists the counted classes in the
        order swap k's image first uses them."""
        new = rens
        for bit, k, pairs, smap in rows:
            if tied & bit:
                ren = rens[k]
                for j, e in pairs:
                    x = cls[e]
                    if x >= m:
                        x = smap[x]
                    elif x in ren:
                        x = ren.index(x)
                    else:
                        ren += (x,)
                        x = len(ren) - 1
                    if x != cls[j]:
                        if x < cls[j]:
                            return None
                        tied ^= bit
                        break
                else:
                    if ren is not rens[k]:
                        if new is rens:
                            new = rens.copy()
                        new[k] = ren
        return tied, new

    # each class's first edge, or (w, n) for w's label class: counted classes
    # in opening order, then the label classes in vertex order; the search
    # restores both lists before it returns, and a refuter whose tick raised
    # is not called again
    keys: list[tuple[int, int]] = [(w, n) for w in range(n)] if typed else []
    masks = [1 << w for w, _ in keys]  # each class's ends
    fits, opens = conditions(n, non_edges, keys)
    tick: Callable[[], None]  # the current call's

    # labels: the packed forms; prev: the last pivot; nsums: non-edge sums;
    # room: counted classes left; tied: the swaps whose known image prefix
    # equals the class prefix so far
    def dfs(i: int, labels: list[int], prev: int, nsums, room: int, tied: int, rens) -> bool:
        if i == m:
            return True
        c, d = edges[i]
        ends = 1 << c | 1 << d
        here = labels[c] + labels[d]
        opened = len(keys) - n * typed
        rows = checks[i] if tied else None
        after = tied, rens
        for k, (a, b) in enumerate(keys):
            if masks[k] & ends:
                continue
            tick()
            cls[i] = k if k < opened else m + a
            if rows and (after := lex(rows, tied, rens)) is None:
                continue
            e = here - labels[a] - labels[b]
            if e:
                nlabels, p = _step(labels, e, prev, s)
                if len(set(nlabels)) < len(nlabels) or (nnsums := fits(nlabels)) is None:
                    continue
            else:
                nlabels, p, nnsums = labels, prev, nsums
            masks[k] |= ends
            found = dfs(i + 1, nlabels, p, nnsums, room, *after)
            masks[k] ^= ends
            if found:
                return True
        if room > 0:
            tick()
            cls[i] = opened
            if rows and (after := lex(rows, tied, rens)) is None:
                return False
            keys.insert(opened, (c, d))
            masks.insert(opened, ends)
            found = here not in nsums and opens(labels) and dfs(
                i + 1, labels, prev, nsums, room - 1, *after)
            del keys[opened], masks[opened]
            if found:
                return True
        return False

    labels = [1 << s * u for u in range(n)] + [0] * typed
    nsums = fits(labels)

    def refute_at(t: int, ticks: Callable[[], None]) -> bool:
        nonlocal tick
        tick = ticks
        return not dfs(0, labels, 1, nsums, t, (1 << swaps) - 1, [()] * swaps)

    return refute_at


def refute(g: Graph, t: int, mode: str, tick: Callable[[], None] = lambda: None) -> bool:
    """True when no labelling of g in ``mode`` at any label range has at
    most t counted values (edge sums; isolated labels in ``"sum_graph"``),
    False when a typed partition passes.  ``tick`` is called once per
    search node."""
    return _refuter(g, mode)(t, tick)


def floor(g: Graph, lower: int, limit: int, mode: str,
          tick: Callable[[], None] = lambda: None) -> int:
    """The least t in lower..limit - 1 that ``refute`` in ``mode`` does not
    rule out, or limit when it rules out all of them (limit is a value some
    labelling is known to reach, so it needs no search).  No labelling at
    any range reaches a target below the result."""
    if lower < limit:
        refute_at = _refuter(g, mode)
        while lower < limit and refute_at(lower, tick):
            lower += 1
    return lower

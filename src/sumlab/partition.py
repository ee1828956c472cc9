"""Range-free lower bounds on the sum index, the exclusive sum number and
the sum number, by refuting typed edge partitions, and the sum number's
labellings, from the partitions that pass.

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
exactly when a labelling at some range realises it.  Translation does not
keep f(c) + f(d) = f(w), so in ``"sum_graph"`` a complete partition, a
leaf, passes only if V also holds a point with every label positive
(``_positive``).  The set of such points is open in V, so, when it is not
empty, the finitely many hyperplanes on which a condition fails do not
cover it, as each condition holds on the forms; a rational point of it off
them, scaled to integers, is a sum labelling with at most t isolated
labels.  A positive sum labelling's own typed partition passes, with its
point positive.  So in every mode a partition passes exactly when a
labelling at some range realises it, and the floor is the invariant at
every range.  Positivity is checked at leaves only: checked at every node,
it cut 1.8% of the sum-number floors' nodes on n <= 6 for 77% more time.

A passing leaf's labellings are its integer points (``points``).  On the
free coordinates, those of the vertices whose column no step pivoted, the
forms' digits are a matrix F with the row prev e_v for each free vertex v,
prev being the last pivot, so a point is f = F y / prev with y the free
vertices' labels; one with labels in 1..cap has y in [1..cap]^k.  The walk
over the passing leaves at t is complete: every sum labelling with labels
in 1..cap and at most t isolated labels is a point of its own typed
partition, which passes.  If the twin cut drops that partition, it keeps
the least of its orbit, the partition of the labelling composed with some
twin swaps, which has the same labels.

The search takes the edges in the order in which the label search of
``solvers`` fixes their values: by the ``branch_order`` positions of their
later and then their earlier end.  In ``"sum_graph"`` the n label classes
exist from the root, as a class with no edges imposes no equation.  Each
edge joins a class that shares no end with it, the counted classes in the
order they opened and then the label classes in vertex order, and then
starts a counted class, if fewer than t are open.  Two adjacent edges with
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

from math import gcd
from typing import Callable, Iterator

from .graphs import Graph, branch_order, twins_below


def _branch_edges(g: Graph) -> list[tuple[int, int]]:
    """The edges of g by the positions in g's ``branch_order`` of their later
    and then their earlier end: the order in which the label search fixes
    each edge's value, so that edges sharing an end come close together."""
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


def _rows(labels: list[int], prev: int, n: int) -> list[list[int]]:
    """The digits of the n label forms on the free coordinates, lowest first:
    those of the vertices whose own form is prev x_v, as a pivot's coordinate
    is zero in every form."""
    s = n + 3
    half = 1 << s - 1
    free = [s * v for v in range(n) if labels[v] == prev << s * v]
    return [[((x + (1 << o >> 1) + (half << o)) >> o & 2 * half - 1) - half for o in free]
            for x in labels[:n]]


def _positive(rows: list[list[int]]) -> bool:
    """Whether some real x has r.x > 0 for every row r: strict homogeneous
    Fourier-Motzkin elimination.  Eliminating x_j keeps the rows zero at j
    and adds -b_j a + a_j b for each a with a_j > 0 and b with b_j < 0, a
    positive combination, which keeps the system feasible or not, as x_j
    then has an open interval to lie in.  Once every coordinate is gone the
    rows left are zero, and 0 > 0 fails, so the system is feasible exactly
    when none are left (by Gordan's theorem, the alternative is a y >= 0,
    y != 0 with y^T F = 0).  Rows are kept primitive and without repeats."""
    def primitive(r):
        d = gcd(*r)
        return tuple(x // d for x in r) if d else tuple(r)

    left = {primitive(r) for r in rows}
    for j in range(len(rows[0]) if rows else 0):
        up = [a for a in left if a[j] > 0]
        down = [b for b in left if b[j] < 0]
        left = {r for r in left if not r[j]}
        left.update(primitive([a_i * -b[j] + b_i * a[j] for a_i, b_i in zip(a, b)])
                    for a in up for b in down)
    return not left


def points(leaf: tuple[list[int], int], n: int, cap: int) -> Iterator[list[int]]:
    """The labellings with labels in 1..cap at the integer points of a
    ``"sum_graph"`` leaf (labels, prev) of a graph on n vertices: f = F y /
    prev, F the forms' digits on the free coordinates (``_rows``) and y in
    [1..cap]^k the free vertices' labels, in lexicographic order of y.  Each
    coordinate of y is bounded by the forms' range given the earlier ones."""
    labels, prev = leaf
    rows = _rows(labels, prev, n)
    k = len(rows[0])
    # low[i][v], high[i][v]: the least and greatest of sum_{j >= i} F_vj y_j
    low, high = [[0] * n], [[0] * n]
    for i in range(k - 1, -1, -1):
        low.insert(0, [x + min(r[i], r[i] * cap) for x, r in zip(low[0], rows)])
        high.insert(0, [x + max(r[i], r[i] * cap) for x, r in zip(high[0], rows)])

    def walk(i: int, num: list[int]):
        if i == k:
            if all(x % prev == 0 for x in num):
                yield [x // prev for x in num]
            return
        first, last = 1, cap
        for r, x, lo, hi in zip(rows, num, low[i + 1], high[i + 1]):
            # prev <= x + a y + (the rest) <= prev cap bounds a y
            a, below, above = r[i], prev - x - hi, prev * cap - x - lo
            if a > 0:
                first, last = max(first, -(-below // a)), min(last, above // a)
            elif a < 0:
                first, last = max(first, -(-above // a)), min(last, below // a)
            elif below > 0 or above < 0:
                return
        for y in range(first, last + 1):
            yield from walk(i + 1, [x + r[i] * y for x, r in zip(num, rows)])

    return walk(0, [0] * n)


# Each mode's conditions besides distinct labels, which the search checks
# itself (in "sum_graph" the zero form among them makes them nonzero too),
# built once per graph from n, the non-edges and the live list of class keys:
# ``fits(labels)`` gives the non-edge sums, or None when a condition fails.
# It is asked after each new equation and, where label classes exist, after
# a new counted class; elsewhere such a class adds only its own sum's check.

def _sum(n: int, non_edges, keys):
    no_sums = frozenset()
    return lambda labels: no_sums


def _exclusive(n: int, non_edges, keys):
    def fits(labels: list[int]):
        nsums = {labels[u] + labels[v] for u, v in non_edges}
        return None if any(labels[a] + labels[b] in nsums for a, b in keys) else nsums

    return fits


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

    return fits


# mode: its conditions, and whether it has label classes
_MODES = {"sum": (_sum, False), "exclusive": (_exclusive, False), "sum_graph": (_sum_graph, True)}


def refuter(g: Graph, mode: str) -> Callable:
    """The typed-partition search on g in ``mode`` as a function of t, tick
    and accept, with the edge order, the non-edges and the twin swaps'
    checks built once.  It calls tick once per search node and returns
    accept(leaf) at the first passing leaf, the packed forms and the last
    pivot, where that is not None, or None when there is none; by default
    the leaf itself.  None means that no labelling of g in ``mode`` at any
    label range has at most t counted values (edge sums; isolated labels in
    ``"sum_graph"``).  Each call searches afresh, so its answer and its
    ticks depend on its arguments alone."""
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
    # An edgeless graph has one partition, the empty one, and no swap to check.
    cls = [0] * m
    checks: list[list[tuple]] = [[] for _ in edges]
    swaps = 0
    for v, below in enumerate(twins_below(adj)):
        if below and m:
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
    fits = conditions(n, non_edges, keys)
    tick: Callable[[], None]  # the current call's, and at_leaf its accept
    at_leaf: Callable

    # a mode with label classes asks for a positive point, as translation
    # does not keep its equations
    def positive(labels: list[int], prev: int) -> bool:
        return not typed or _positive(_rows(labels, prev, n))

    # labels: the packed forms; prev: the last pivot; nsums: non-edge sums;
    # room: counted classes left; tied: the swaps whose known image prefix
    # equals the class prefix so far
    def dfs(i: int, labels: list[int], prev: int, nsums, room: int, tied: int, rens):
        if i == m:
            return at_leaf((labels, prev)) if positive(labels, prev) else None
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
            if found is not None:
                return found
        if room > 0:
            tick()
            cls[i] = opened
            if rows and (after := lex(rows, tied, rens)) is None:
                return None
            keys.insert(opened, (c, d))
            masks.insert(opened, ends)
            found = dfs(i + 1, labels, prev, nsums, room - 1, *after) if (
                here not in nsums and (not typed or fits(labels) is not None)) else None
            del keys[opened], masks[opened]
            return found
        return None

    labels = [1 << s * u for u in range(n)] + [0] * typed
    nsums = fits(labels)

    def search(t: int, ticks: Callable[[], None] = lambda: None,
               accept: Callable = lambda leaf: leaf):
        nonlocal tick, at_leaf
        tick, at_leaf = ticks, accept
        return dfs(0, labels, 1, nsums, t, (1 << swaps) - 1, [()] * swaps)

    return search


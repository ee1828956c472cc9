"""Range-free refutation of exclusive sum labellings by edge partitions.

A labelling f with at most t distinct edge sums splits the edges into at
most t classes of equal sum.  In a class with representative edge ab, each
edge cd gives the equation f(c) + f(d) - f(a) - f(b) = 0, and the rational
labellings that satisfy a partition's equations form the null space V of
their row space R.  Such a labelling is injective and exclusive (no
non-adjacent pair sums to an edge sum) exactly when it avoids the
hyperplanes with normals e_u - e_v, and e_u + e_v - e_a - e_b for each
non-edge uv and each class representative ab.  V is not a finite union of
proper subspaces, so it holds a point that avoids them all exactly when no
forbidden normal lies in R.  The all-ones vector lies in V and is
orthogonal to every normal, so that point scales to integers and translates
to positive labels: a partition passes exactly when a labelling at some
label range realises it, and no partition into at most t classes passing
proves the exclusive sum number above t at every label range.

The search assigns the edges, in breadth-first order, to classes numbered
by first use.  A class is a matching, since two adjacent edges with equal
sums would give two vertices equal labels, so that is checked before any
elimination.  R is kept in reduced echelon form with integer rows; its
free coordinates x_j set to B^j give a point of V whose labels, scaled to
integers, tell the forbidden normals apart: B exceeds four times every
coefficient, so two sums of two labels are equal exactly when their
difference is a normal in R.  Adding an edge either adds no new row, or
adds one and the labels are recomputed and checked; opening a class checks
its representative's sum against the non-edge sums.  A prefix that fails
fails in every extension, as extensions only add rows and normals.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Callable

from .graphs import Graph


def _bfs_edges(g: Graph) -> list[tuple[int, int]]:
    """The edges of connected g by the breadth-first positions of their later
    and then their earlier end, from a vertex of maximum degree, so that
    edges sharing an end come close together."""
    start = max(range(g.n), key=lambda v: (len(g.adj[v]), -v))
    order = [start]
    pos = {start: 0}
    for v in order:
        for w in g.adj[v]:
            if w not in pos:
                pos[w] = len(order)
                order.append(w)
    return sorted(g.edges, key=lambda e: (max(pos[e[0]], pos[e[1]]), min(pos[e[0]], pos[e[1]])))


def _normalised(row: list[int], pivot: int) -> list[int]:
    k = gcd(*row)
    if row[pivot] < 0:
        k = -k
    return [x // k for x in row]


def _with_row(rows: list[tuple[int, list[int]]], w: list[int]) -> list | None:
    """The reduced echelon rows of R + <w>, or None when w already lies in R.

    Each row is (pivot, row) with a positive pivot entry and zeros at every
    other row's pivot; elimination stays in the integers."""
    for p, r in rows:
        c = w[p]
        if c:
            a = r[p]
            w = [a * x - c * y for x, y in zip(w, r)]
    q = next((j for j, x in enumerate(w) if x), None)
    if q is None:
        return None
    w = _normalised(w, q)
    out = []
    for p, r in rows:
        c = r[q]
        if c:
            r = _normalised([w[q] * x - c * y for x, y in zip(r, w)], p)
        out.append((p, r))
    out.append((q, w))
    return out


def _generic_labels(n: int, rows: list[tuple[int, list[int]]]) -> list[int]:
    """Each vertex's label, times the pivots' lcm d, at the point of the
    null space with x_j = B^j on the free coordinates j."""
    d = lcm(*(r[p] for p, r in rows))
    coeffs = [{u: d} for u in range(n)]
    for p, r in rows:
        k = d // r[p]
        coeffs[p] = {j: -k * x for j, x in enumerate(r) if x and j != p}
    shift = max(abs(x) for c in coeffs for x in c.values()).bit_length() + 2
    return [sum(x << (shift * j) for j, x in c.items()) for c in coeffs]


def refute_exclusive(g: Graph, t: int, tick: Callable[[], None] = lambda: None) -> bool:
    """True when no injective labelling of the connected graph g, at any
    label range, is exclusive with at most t distinct edge sums; False when
    one exists.

    ``tick`` is called once per search node: each assignment of an edge to a
    class that passes the matching check.
    """
    n = g.n
    edges = _bfs_edges(g)
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    reps: list[tuple[int, int]] = []  # each class's first edge
    masks: list[int] = []  # each class's ends

    # rows: R in reduced echelon form; labels: the generic point's labels;
    # nsums: its non-edge sums
    def dfs(i: int, rows: list, labels: list[int], nsums: set[int]) -> bool:
        if i == len(edges):
            return True
        c, d = edges[i]
        ends = 1 << c | 1 << d
        for k in range(len(reps)):
            if masks[k] & ends:
                continue
            tick()
            a, b = reps[k]
            w = [0] * n  # the class is a matching, so a, b, c, d differ
            w[c] = w[d] = 1
            w[a] = w[b] = -1
            grown = _with_row(rows, w)
            if grown is None:
                nrows, nlabels, nnsums = rows, labels, nsums
            else:
                nrows, nlabels = grown, _generic_labels(n, grown)
                if len(set(nlabels)) < n:
                    continue
                nnsums = {nlabels[u] + nlabels[v] for u, v in non_edges}
                if any(nlabels[x] + nlabels[y] in nnsums for x, y in reps):
                    continue
            masks[k] |= ends
            found = dfs(i + 1, nrows, nlabels, nnsums)
            masks[k] ^= ends
            if found:
                return True
        if len(reps) < t:
            tick()
            if labels[c] + labels[d] not in nsums:
                reps.append((c, d))
                masks.append(ends)
                found = dfs(i + 1, rows, labels, nsums)
                reps.pop()
                masks.pop()
                if found:
                    return True
        return False

    labels = _generic_labels(n, [])
    return not dfs(0, [], labels, {labels[u] + labels[v] for u, v in non_edges})

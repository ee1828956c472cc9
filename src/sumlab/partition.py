"""Range-free refutation of sum and exclusive sum labellings by edge
partitions.

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
two vertices equal labels, so that is checked before any algebra.  V is
kept as each label's integer linear form in free coordinates x_j, which
parametrise it; a normal w lies in R exactly when the form sum_u w_u f_u
is zero.  Setting x_j = B^j, with B above four times every coefficient,
gives labels that tell the forbidden normals apart: two sums of two labels
are equal exactly when their difference is a normal in R.  Adding an edge
either adds an equation the forms already satisfy, or one that is solved
for a coordinate, substituted into every form, and checked on the new
labels; opening a class checks its representative's sum against the
non-edge sums.  A prefix that fails fails in every extension, as
extensions only add equations and normals.
"""

from __future__ import annotations

from math import gcd
from typing import Callable

from .graphs import Graph, branch_order


def _branch_edges(g: Graph) -> list[tuple[int, int]]:
    """The edges of g by the ``branch_order`` positions of their later and
    then their earlier end: the order in which the label search fixes each
    edge's value, so that edges sharing an end come close together."""
    pos = {v: i for i, v in enumerate(branch_order(g))}
    return sorted(g.edges, key=lambda e: (max(pos[e[0]], pos[e[1]]), min(pos[e[0]], pos[e[1]])))


def _substituted(forms: list[list[int]], eq: list[int]) -> list[list[int]]:
    """The forms with eq = 0 solved for one coordinate and substituted.

    The pivot is a coordinate with coefficient +-1 where there is one, so
    that the forms without that coordinate stay as they are; otherwise every
    form is scaled by the pivot and all are divided by their gcd."""
    q = next((j for j, x in enumerate(eq) if x == 1 or x == -1), None)
    if q is None:
        q = next(j for j, x in enumerate(eq) if x)
    if eq[q] < 0:
        eq = [-x for x in eq]
    p = eq[q]
    if p == 1:
        return [[x - f[q] * y for x, y in zip(f, eq)] if f[q] else f for f in forms]
    forms = [[p * x - f[q] * y for x, y in zip(f, eq)] for f in forms]
    k = gcd(*(x for f in forms for x in f))
    return [[x // k for x in f] for f in forms]


def _packed(forms: list[list[int]]) -> list[int]:
    """Each label at x_j = B^j, with B a power of two above four times every
    coefficient, packed by Horner's rule from the last coordinate."""
    top = 0
    for f in forms:
        for x in f:
            if x > top:
                top = x
            elif -x > top:
                top = -x
    shift = top.bit_length() + 2
    packed = []
    for f in forms:
        label = 0
        for x in reversed(f):
            label = (label << shift) + x
        packed.append(label)
    return packed


def refute(g: Graph, t: int, exclusive: bool,
           tick: Callable[[], None] = lambda: None) -> bool:
    """True when no injective labelling of g, at any label range, has at
    most t distinct edge sums (and, if ``exclusive``, is exclusive); False
    when one exists.

    ``tick`` is called once per search node: each assignment of an edge to a
    class that passes the matching check.
    """
    n = g.n
    edges = _branch_edges(g)
    non_edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)
    ] if exclusive else []
    reps: list[tuple[int, int]] = []  # each class's first edge
    masks: list[int] = []  # each class's ends

    # forms: each label's linear form; labels: their packed values;
    # nsums: the labels' non-edge sums
    def dfs(i: int, forms: list, labels: list[int], nsums: set[int]) -> bool:
        if i == len(edges):
            return True
        c, d = edges[i]
        ends = 1 << c | 1 << d
        for k in range(len(reps)):
            if masks[k] & ends:
                continue
            tick()
            a, b = reps[k]
            eq = [w + x - y - z for w, x, y, z in zip(forms[c], forms[d], forms[a], forms[b])]
            if any(eq):
                nforms = _substituted(forms, eq)
                nlabels = _packed(nforms)
                if len(set(nlabels)) < n:
                    continue
                nnsums = {nlabels[u] + nlabels[v] for u, v in non_edges}
                if nnsums and any(nlabels[x] + nlabels[y] in nnsums for x, y in reps):
                    continue
            else:
                nforms, nlabels, nnsums = forms, labels, nsums
            masks[k] |= ends
            found = dfs(i + 1, nforms, nlabels, nnsums)
            masks[k] ^= ends
            if found:
                return True
        if len(reps) < t:
            tick()
            if labels[c] + labels[d] not in nsums:
                reps.append((c, d))
                masks.append(ends)
                found = dfs(i + 1, forms, labels, nsums)
                reps.pop()
                masks.pop()
                if found:
                    return True
        return False

    forms = [[int(u == j) for j in range(n)] for u in range(n)]
    labels = _packed(forms)
    return not dfs(0, forms, labels, {labels[u] + labels[v] for u, v in non_edges})


def floor(g: Graph, lower: int, limit: int, exclusive: bool,
          tick: Callable[[], None] = lambda: None) -> int:
    """The least t in lower..limit - 1 that ``refute`` does not rule out,
    or limit when it rules out all of them (limit is a value some labelling
    is known to reach, so it needs no search).  No labelling at any range
    reaches a target below the result."""
    while lower < limit and refute(g, lower, exclusive, tick):
        lower += 1
    return lower

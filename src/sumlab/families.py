"""Parametrised graph families, each bundled with the labelling certificates
that witness its known index values.

Vertex numbering conventions are fixed per family (path order for chained
cycles; branch vertices first, then subdivision vertices, for the subdivided
complete families; U, then W, then the three extra vertices for gnk) because
certificates are order-sensitive.  Every bundled certificate is verified at
generation time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Graph, GraphError
from .labelling import Certificate, LabelKind, VertexLabelling, verify_certificate


class FamilyError(GraphError):
    """Family parameters outside their valid range."""


@dataclass(frozen=True)
class FamilyInstance:
    graph: Graph
    certificates: tuple[Certificate, ...]
    name: str
    params: dict

    def certificate(self, kind: LabelKind) -> Certificate:
        for c in self.certificates:
            if c.claim_kind is kind:
                return c
        raise FamilyError(f"{self.name} instance bundles no {kind.value} certificate")


def _checked(instance: FamilyInstance) -> FamilyInstance:
    for c in instance.certificates:
        verdict = verify_certificate(c)
        if not verdict.passed:
            raise FamilyError(
                f"generated {instance.name} certificate failed verification: "
                f"claimed {verdict.claimed}, observed {verdict.observed}"
            )
    return instance


def chained_odd_cycles(k: int, s: int) -> FamilyInstance:
    """A path v_1..v_{2sk+1} plus a chord over every 2k consecutive path
    edges, forming a chain of s cycles of length 2k+1.

    Bundles the difference certificate f(v_i) = i, whose edge differences
    are 1 on path edges and 2k on chords (two distinct values).
    """
    if k < 1 or s < 1:
        raise FamilyError("chained_odd_cycles requires k >= 1 and s >= 1")
    n = 2 * s * k + 1
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(2 * (a - 1) * k, 2 * a * k) for a in range(1, s + 1)]
    g = Graph(n, edges)
    f = VertexLabelling.from_dict({i: i + 1 for i in range(n)})
    cert = Certificate(g, f, LabelKind.DIFF, 2)
    return _checked(
        FamilyInstance(g, (cert,), "chained-cycles", {"k": k, "s": s, "girth": 2 * k + 1})
    )


def prism(n: int) -> FamilyInstance:
    """The prism C_n x K_2: outer cycle 0..n-1, inner cycle n..2n-1, spokes
    i -- n+i.  3-regular on 2n vertices; no certificate is bundled (the
    exact solver supplies sum-index witnesses).
    """
    if n < 3:
        raise FamilyError("prism requires n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return FamilyInstance(Graph(2 * n, edges), (), "prism", {"n": n})


def subdivided_complete(n: int) -> FamilyInstance:
    """The complete graph on vertices 0..n-1 with the edge (0, 1) subdivided
    through a new vertex n.

    Bundles a difference certificate with n-1 distinct values (endpoints of
    the subdivided edge pinned to 0 and n) and a sum certificate with 2n-4
    distinct values (sums cover 3..2n-2); remaining labels are filled in
    lexicographically least order.
    """
    if n < 4:
        raise FamilyError("subdivided_complete requires n >= 4")
    edges = [e for e in itertools.combinations(range(n), 2) if e != (0, 1)]
    edges += [(0, n), (1, n)]
    g = Graph(n + 1, edges)
    f1 = {0: 0, 1: n}
    rest = [v for v in range(n + 1) if v not in f1]
    for v, x in zip(rest, (x for x in range(n + 1) if x not in (0, n))):
        f1[v] = x
    diff_cert = Certificate(g, VertexLabelling.from_dict(f1), LabelKind.DIFF, n - 1)
    f2 = {0: n - 1, 1: n, n: 0}
    rest = [v for v in range(n + 1) if v not in f2]
    for v, x in zip(rest, (x for x in range(n + 1) if x not in (n - 1, n, 0))):
        f2[v] = x
    sum_cert = Certificate(g, VertexLabelling.from_dict(f2), LabelKind.SUM, 2 * n - 4)
    return _checked(
        FamilyInstance(g, (diff_cert, sum_cert), "subdivided-complete", {"n": n})
    )


def subdivided_complete_kk(n: int, k: int) -> FamilyInstance:
    """The complete graph on branch vertices 1..n (stored as 0..n-1) with the
    edges of two disjoint k-cliques subdivided: every edge among the k lowest
    and every edge among the k highest branch vertices.

    Subdivision vertices follow the branch vertices, low-clique pairs in
    lexicographic order and then high-clique pairs.  Bundles a sum
    certificate with 2n-2k-1 distinct values: branch vertex i gets label i+1,
    low subdivision vertices get n+1, n+2, ... in order and high subdivision
    vertices get 1-C(k,2), ..., 0 in order, which places every edge sum in
    {k+2, ..., 2n-k}.
    """
    if k < 2:
        raise FamilyError("subdivided_complete_kk requires k >= 2")
    need = k * (k - 1) // 2 + 2 * k
    if n < need:
        raise FamilyError(f"subdivided_complete_kk requires n >= C(k,2) + 2k = {need}")
    low_pairs = list(itertools.combinations(range(k), 2))
    high_pairs = list(itertools.combinations(range(n - k, n), 2))
    subdivided = set(low_pairs) | set(high_pairs)
    edges = [e for e in itertools.combinations(range(n), 2) if e not in subdivided]
    sub_vertex = n
    for u, v in low_pairs + high_pairs:
        edges += [(u, sub_vertex), (v, sub_vertex)]
        sub_vertex += 1
    g = Graph(sub_vertex, edges)
    # every edge sum lies in {k+2, ..., 2n-k}, and the branch edges at
    # vertices 0 and n-1 alone cover that interval, so the count does not
    # depend on the order of the subdivision labels within their windows
    half = len(low_pairs)
    f = {i: i + 1 for i in range(n)}
    f.update({n + i: n + 1 + i for i in range(half)})
    f.update({n + half + i: 1 - half + i for i in range(half)})
    cert = Certificate(g, VertexLabelling.from_dict(f), LabelKind.SUM, 2 * n - 2 * k - 1)
    return _checked(
        FamilyInstance(g, (cert,), "subdivided-complete-kk", {"n": n, "k": k})
    )


def gnk(n: int, k: int) -> FamilyInstance:
    """Complete bipartite K_{n,k} on classes U (vertices 0..n-1) and W
    (vertices n..n+k-1) plus three vertices v1, v2, v3 (n+k, n+k+1, n+k+2),
    each adjacent to exactly n-k+2 vertices of U; the non-neighbour sets are
    the first, second, and third blocks of k-2 consecutive U vertices.

    Bundles a sum certificate with exactly n+k distinct values: U carries
    1..n with label 1 on a non-neighbour of v1 and label n on a non-neighbour
    of v3, W carries n+2..n+k+1, and (v1, v2, v3) carry
    (n+1, n+k+2, n+k+3).
    """
    if k < 3:
        raise FamilyError("gnk requires k >= 3")
    if n < 3 * k - 6:
        raise FamilyError(f"gnk requires n >= 3k - 6 = {3 * k - 6}")
    total = n + k + 3
    u_verts = range(n)
    w_verts = range(n, n + k)
    v1, v2, v3 = n + k, n + k + 1, n + k + 2
    blocks = [
        set(range(0, k - 2)),
        set(range(k - 2, 2 * (k - 2))),
        set(range(2 * (k - 2), 3 * (k - 2))),
    ]
    edges = [(u, w) for u in u_verts for w in w_verts]
    for vi, block in zip((v1, v2, v3), blocks):
        edges += [(u, vi) for u in u_verts if u not in block]
    g = Graph(total, edges)
    # lexicographically least U labelling subject to: labels are 1..n, and
    # label n falls on a non-neighbour of v3: 1..n-1 in vertex order, with n
    # inserted at the last vertex of the third block
    u_labels = list(range(1, n))
    u_labels.insert(3 * (k - 2) - 1, n)
    f = dict(enumerate(u_labels))
    for idx, w in enumerate(w_verts):
        f[w] = n + 2 + idx
    f[v1], f[v2], f[v3] = n + 1, n + k + 2, n + k + 3
    cert = Certificate(g, VertexLabelling.from_dict(f), LabelKind.SUM, n + k)
    return _checked(FamilyInstance(g, (cert,), "gnk", {"n": n, "k": k}))

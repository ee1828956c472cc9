"""Immutable simple graphs with graph6 I/O and small-graph structure queries.

Vertices are always the dense integers 0..n-1 so that solvers can use
array-indexed adjacency.  All query functions here are pure and the Graph
object is safe to share across worker processes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator


class GraphError(ValueError):
    """Invalid graph construction or malformed graph input."""


class Graph6Error(GraphError):
    """Malformed graph6 text; ``offset`` is the 0-based byte position."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class EdgeListError(GraphError):
    """Malformed edge-list text; ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class UnsupportedSizeError(GraphError):
    """Input graph is outside the size range an operation supports."""


class Graph:
    """Simple undirected graph on vertices 0..n-1 with a frozen edge set.

    Loops are rejected, duplicate edges collapse, and each edge is stored
    once as an ordered pair (u < v).  Instances are immutable and hashable.
    """

    __slots__ = ("_n", "_edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        dedup: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            dedup.add((u, v) if u < v else (v, u))
        self._n = n
        self._edges: tuple[tuple[int, int], ...] = tuple(sorted(dedup))
        self._adj: tuple[tuple[int, ...], ...] | None = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        if self._adj is None:
            nbrs: list[list[int]] = [[] for _ in range(self._n)]
            for u, v in self._edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
            self._adj = tuple(tuple(sorted(b)) for b in nbrs)
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u] if 0 <= u < self._n and 0 <= v < self._n else False

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self._n == other._n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.m})"


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def branch_order(g: Graph, start: int | None = None) -> list[int]:
    """Static assignment order of the index search, which the partition
    refutation's edge order follows: seed at ``start``, by default the
    least-index vertex of maximum degree, then grow by (most ordered
    neighbours, degree, lowest index) so propagation bites early.  Twins tie
    on both of the first keys while unplaced, so they come in index order,
    provided the seed is the least index of its twin class, as both the
    default and vertex 0 are; the index search's canonical queries, grown
    from vertex 0, keep twins in index order and rely on it.
    """
    n = g.n
    if n == 0:
        return []
    # (ordered neighbours, degree, -index) as the digits of one int in base n
    key = [len(a) * n + n - 1 - v for v, a in enumerate(g.adj)]
    if start is None:
        start = max(range(n), key=key.__getitem__)
    order = [start]
    rest = [v for v in range(n) if v != start]
    while rest:
        for w in g.adj[order[-1]]:
            key[w] += n * n
        nxt = max(rest, key=key.__getitem__)
        order.append(nxt)
        rest.remove(nxt)
    return order


# ---------------------------------------------------------------------------
# graph6: one printable line per graph.  The line opens with the vertex count
# N(n): the byte n+63 for n <= 62, else "~" and n in three 6-bit groups (the
# long form, n <= 258047); the 8-byte "~~" form for larger n is refused.  The
# upper triangle of the adjacency matrix follows as one bit per pair in
# ``_pairs`` order (x01, x02, x12, x03, ...), zero-padded to a multiple of 6
# and written big-endian 6 bits per byte, each byte offset by 63.  An optional
# ">>graph6<<" prefix is tolerated.  ``emit_graph6``, ``parse_graph6`` and
# ``canonical_form`` hold that bit string as a str of "0"/"1" characters;
# ``_graph6`` writes every line, and both directions are linear in the body.
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
_G6_MAX_N = (1 << 18) - 1
# each printable graph6 byte to the six bits it carries, and back
_G6_BITS = {c + 63: format(c, "06b") for c in range(64)}
_G6_BYTES = {bits: chr(c) for c, bits in _G6_BITS.items()}


def _pairs(n: int) -> Iterator[tuple[int, int]]:
    """The vertex pairs i < j in graph6 column-major order."""
    return ((i, j) for j in range(1, n) for i in range(j))


def _graph6(n: int, bits: str) -> str:
    """The graph6 line: N(n), then ``bits`` (one "0"/"1" per pair of
    ``_pairs(n)``) zero-padded, all written 6 bits per byte."""
    # N(n) is one group, or "~" (six ones) and three groups
    bits = (format(n, "06b") if n <= 62 else format(63 << 18 | n, "024b")) + bits
    bits += "0" * (-len(bits) % 6)
    return "".join([_G6_BYTES[bits[k:k + 6]] for k in range(0, len(bits), 6)])


def emit_graph6(g: Graph) -> str:
    if g.n > _G6_MAX_N:
        raise UnsupportedSizeError(f"graph6 output supports at most {_G6_MAX_N} vertices")
    edge_set = frozenset(g.edges)
    return _graph6(g.n, "".join("1" if p in edge_set else "0" for p in _pairs(g.n)))


def parse_graph6(line: str) -> Graph:
    text = line.strip()
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):]
    if not text:
        raise Graph6Error("empty graph6 line")
    for pos, ch in enumerate(text):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"byte {ord(ch)} outside printable graph6 range", pos)
    if text[0] != "~":
        n, start = ord(text[0]) - 63, 1
    else:
        # long form: "~" and n in three 6-bit groups
        if text[1:2] == "~":
            raise Graph6Error("8-byte vertex counts (n > 258047) are not supported", 1)
        digits = text[1:4]
        if len(digits) < 3:
            raise Graph6Error("truncated vertex count", len(text))
        n, start = int(digits.translate(_G6_BITS), 2), 4
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = text[start:]
    if len(body) < nbytes:
        raise Graph6Error(
            f"truncated bit body: need {nbytes} bytes, got {len(body)}", len(text)
        )
    if len(body) > nbytes:
        raise Graph6Error("trailing bytes after bit body", start + nbytes)
    bits = body.translate(_G6_BITS)
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits", len(text) - 1)
    return Graph(n, [p for p, bit in zip(_pairs(n), bits) if bit == "1"])


def parse_edge_list(text: str) -> Graph:
    """Parse the line-oriented edge-list format: ``n <count>`` then ``u v`` pairs."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise EdgeListError("expected header 'n <count>'", lineno)
            try:
                n = int(tokens[1])
            except ValueError:
                raise EdgeListError(f"bad vertex count {tokens[1]!r}", lineno) from None
            if n < 0:
                raise EdgeListError("vertex count must be nonnegative", lineno)
            continue
        if len(tokens) != 2:
            raise EdgeListError("expected edge line 'u v'", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"bad vertex token in {raw!r}", lineno) from None
        if u == v:
            raise EdgeListError(f"loop at vertex {u}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"vertex id outside 0..{n - 1}", lineno)
        edges.append((u, v))
    if n is None:
        raise EdgeListError("missing 'n <count>' header", 1)
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeSequence:
    """Nondecreasing vertex degrees; ``delta(k)`` is the k-th smallest (1-based)."""

    degrees: tuple[int, ...]

    def delta(self, k: int) -> int:
        if not 1 <= k <= len(self.degrees):
            raise GraphError(f"delta index {k} outside 1..{len(self.degrees)}")
        return self.degrees[k - 1]

    @property
    def min_degree(self) -> int:
        return self.degrees[0] if self.degrees else 0


def degree_sequence(g: Graph) -> DegreeSequence:
    return DegreeSequence(tuple(sorted(len(g.adj[v]) for v in range(g.n))))


# ---------------------------------------------------------------------------
# Bipartiteness
# ---------------------------------------------------------------------------

def is_bipartite(g: Graph) -> bool:
    """True when g has no odd cycle: breadth-first search 2-colours each
    component and finds no edge with both ends of one colour."""
    colour = [-1] * g.n
    for start in range(g.n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        queue = [start]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for w in g.adj[v]:
                if colour[w] == -1:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for forests.

    For each edge (u, v), a shortest u-v path avoiding that edge plus the
    edge itself is a shortest cycle through it; the minimum over edges is
    exact because every shortest cycle contains each of its edges.
    """
    best: int | None = None
    for u, v in g.edges:
        dist = [-1] * g.n
        dist[u] = 0
        queue = [u]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            if best is not None and dist[x] + 1 >= best:
                break
            for y in g.adj[x]:
                if (x == u and y == v) or (x == v and y == u):
                    continue
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if dist[v] != -1 and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def count_cycles_of_length(g: Graph, length: int) -> int:
    """Count simple cycles of exactly the given length, each counted once.

    A length above n, and an odd length on a bipartite graph, count 0
    without a search.  Triangles are the sum over edges uv of
    |N(u) & N(v)|, over 3.  Longer cycles are found on adjacency bitmasks
    from each cycle's least vertex, the root: a path grows over larger
    unused vertices, and once it holds length - 1 vertices one popcount
    counts the closing vertices adjacent to both its end and the root.
    Each cycle is so found once per direction, and the total is halved.
    """
    if length < 3:
        raise GraphError("cycle length must be at least 3")
    if length > g.n:
        return 0
    nbrs = [sum(1 << u for u in a) for a in g.adj]
    if length == 3:
        return sum((nbrs[u] & nbrs[v]).bit_count() for u, v in g.edges) // 3
    if length % 2 and is_bipartite(g):
        return 0

    def extend(last: int, free: int, left: int) -> int:
        # left: vertices still to place before the closing one
        step = nbrs[last] & free
        if not left:
            return (step & close).bit_count()
        found = 0
        while step:
            bit = step & -step
            step ^= bit
            found += extend(bit.bit_length() - 1, free ^ bit, left - 1)
        return found

    count = 0
    everyone = (1 << g.n) - 1
    # the root is the least of length vertices, so at most n - length
    for root in range(g.n - length + 1):
        close = nbrs[root]
        count += extend(root, everyone >> (root + 1) << (root + 1), length - 2)
    return count // 2


# ---------------------------------------------------------------------------
# Canonical forms and enumeration (exact search, desk scale)
# ---------------------------------------------------------------------------

def twins_below(adj: list[int]) -> list[int]:
    """Per vertex v, the bitmask of its twins u < v, given adjacency bitmasks.

    Twins are vertices u, v with N(u) - {v} = N(v) - {u}.  Swapping two twins
    is an automorphism, so a search over vertex orders or labellings may fix
    the order within each twin class.  Twinship is an equivalence relation
    whose classes are cliques or independent sets: two non-adjacent twins
    share their open neighbourhood N(v), two adjacent twins their closed
    neighbourhood N(v) + {v}, so one pass groups the vertices by each.
    """
    below = []
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v, nbrs in enumerate(adj):
        bit = 1 << v
        same_open = by_open.get(nbrs, 0)
        same_closed = by_closed.get(nbrs | bit, 0)
        below.append(same_open | same_closed)
        by_open[nbrs] = same_open | bit
        by_closed[nbrs | bit] = same_closed | bit
    return below


_CANONICAL_MAX_N = 8


def _canonical_core(
    adj: list[int], known: AbstractSet[int] = frozenset(), degree_cells: bool = False
) -> tuple[int | None, list[tuple[int, ...]]]:
    """The least adjacency bit-string over the vertex orders searched, in
    graph6 column-major order, and generators of the automorphism group, for
    the graph whose vertex v has neighbours ``adj[v]`` (a bitmask).

    Exact search over vertex orders, meant for n <= 8, which its callers
    ``canonical_form`` and ``enumerate_connected`` check.  The unplaced
    vertices are kept as an ordered partition, as in nauty (McKay & Piperno
    2014): cells as (bitmask, column), where a vertex's column is its
    adjacency to the positions placed so far.  The search starts from one
    cell holding every vertex, and so searches every vertex order, or with
    ``degree_cells`` from one cell per degree, in increasing degree and each
    with column 0, and so searches only the degree-sorted orders, whose
    degrees never decrease (the census's start, which searches fewer
    nodes).  Placing a vertex at position j appends its column (its
    adjacency to positions 0..j-1) to the string, and every completion has
    the same length, so only the first cell, whose column is least among
    the vertices that may come next, may be placed next: any other choice
    gives a larger string or an order not searched.  Candidates are tried
    in index order; the order changes which leaf is found first, never
    which string is least.  Placing v splits each cell into its
    non-neighbours of v, then its neighbours, which keeps the order; the
    partition is never refined further, since an equitable refinement
    would reorder cells and change which string is least.  A child's prefix
    ends in the column of the first nonempty part, so a child whose prefix
    exceeds the best string so far is cut before the rest of the split is
    built, and the last vertex is placed in its parent.  Of a twin class
    (``twins_below``) only the least-index unplaced vertex may be placed
    next, since swapping two twins is an automorphism that fixes the placed
    prefix.  Columns and the string are Python ints.

    Complete invariant: degree is isomorphism-invariant, so an isomorphism
    maps the orders searched from either start onto those searched in the
    other graph, and two graphs have the same least string exactly when
    they are isomorphic.  Strings from different starts are not comparable.

    Whole group: two orders that give the same string differ by an
    automorphism, so each leaf that ties the best string yields one, mapping
    the order that first reached it onto the leaf's.  An automorphism maps
    an order searched onto an order searched, since it keeps degrees, so
    every twin-sorted order of the least string is a leaf, and these maps
    and the swap of each vertex with its nearest twin below generate the
    whole automorphism group.  The argument holds whichever least leaf comes
    first, so it does not depend on the order in which candidates are tried.
    The swaps are built after the search, so a search stopped by ``known``
    never builds them.  A permutation p maps vertex v to p[v].

    Known-key stop: ``known`` is a set of keys already accepted from the
    same start, such as the census's seen keys (``_connected_classes``).
    The search returns ``(None, [])`` as soon as a leaf that is not cut
    (its string is at most the best so far) has a string in ``known``.
    That is sound: every leaf string is the graph's adjacency string under
    some vertex order, so a hit means the graph is isomorphic to a known
    one, which a full search would also have found in ``known``.  A graph
    whose class is not known never hits, runs the whole search, and returns
    the same string and a generating set as without ``known``.  The least
    leaf is never cut, so a graph whose class is known stops at that leaf
    at the latest.
    """
    n = len(adj)
    if n <= 1:
        return 0, []
    everyone = (1 << n) - 1
    non = [everyone & ~adj[v] & ~(1 << v) for v in range(n)]
    below = twins_below(adj)
    if degree_cells:
        cell_of: dict[int, int] = {}
        for v, nbrs in enumerate(adj):
            d = nbrs.bit_count()
            cell_of[d] = cell_of.get(d, 0) | 1 << v
        start = [(cell_of[d], 0) for d in sorted(cell_of)]
    else:
        start = [(everyone, 0)]
    ties = []  # the automorphisms read off tied leaves
    total = n * (n - 1) // 2
    # the bits of the string after the columns of positions 0..d
    shifts = [total - d * (d + 1) // 2 for d in range(n)]
    # above every string of total bits, so nothing is cut before the first leaf
    best = 1 << total
    first: list[int] = []
    order: list[int] = []  # the vertices placed so far

    def place(depth: int, prefix: int, cells: list[tuple[int, int]], unplaced: int) -> bool:
        # cells: the unplaced vertices by column, in increasing column order
        # (within each degree, the degrees increasing, from degree cells);
        # prefix: the columns of positions 0..depth, the last one cells[0]'s;
        # True when a leaf's string is in known, to unwind the search
        nonlocal best, first
        shift = shifts[depth + 1]
        cands = cells[0][0]
        while cands:
            bit = cands & -cands
            cands ^= bit
            v = bit.bit_length() - 1
            if below[v] & unplaced:
                continue
            if depth + 2 == n:
                # w, the last vertex, lies in the last cell
                rest = unplaced ^ bit
                child = prefix << (depth + 1) | cells[-1][1] << 1 | (adj[v] & rest > 0)
                if child > best:
                    continue
                if child in known:
                    return True
                leaf = order + [v, rest.bit_length() - 1]
                if child < best:
                    best, first = child, leaf
                else:
                    perm = [0] * n
                    for u, w in zip(first, leaf):
                        perm[u] = w
                    ties.append(tuple(perm))
                continue
            inside, outside = adj[v], non[v]
            # the child's prefix ends in the column of the split's first part,
            # from the first cell, or from the next when v is alone in it
            cell, col = cells[0]
            if cell == bit:
                cell, col = cells[1]
            child = prefix << (depth + 1) | col << 1 | (cell & outside == 0)
            if child > best >> shift:
                continue
            split = []
            for cell, col in cells:
                col <<= 1
                part = cell & outside
                if part:
                    split.append((part, col))
                part = cell & inside
                if part:
                    split.append((part, col | 1))
            order.append(v)
            if place(depth + 1, child, split, unplaced ^ bit):
                return True
            order.pop()
        return False

    if place(0, 0, start, everyone):
        return None, []
    swaps = []
    for v, twins in enumerate(below):
        if twins:
            swap = list(range(n))
            u = twins.bit_length() - 1
            swap[u], swap[v] = v, u
            swaps.append(tuple(swap))
    return best, swaps + ties


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant key: the lexicographically least adjacency
    bit-string over all vertex permutations, in graph6 column-major order,
    returned as the graph6 encoding of the canonical relabelling.

    Supports n <= 8.  The string comes from ``_canonical_core`` on the
    adjacency bitmasks, from its one-cell start, which searches every vertex
    order; ``enumerate_connected`` runs the same search from degree cells.
    The string is already in graph6 order, so it goes to the writer
    ``emit_graph6`` uses.
    """
    n = g.n
    if n > _CANONICAL_MAX_N:
        raise UnsupportedSizeError(f"canonical_form supports n <= {_CANONICAL_MAX_N}")
    best, _ = _canonical_core([sum(1 << u for u in a) for a in g.adj])
    # the bit above the string keeps its leading zeros; "" when n <= 1
    return _graph6(n, bin(best | 1 << n * (n - 1) // 2)[3:]).encode()


def _orbit_least_masks(k: int, gens: list[tuple[int, ...]]) -> list[int]:
    """The nonempty subsets of 0..k-1, as bitmasks in increasing order, that
    are least in their orbit under the group generated by ``gens``."""
    reached = bytearray(1 << k)
    least = []
    for mask in range(1, 1 << k):
        if reached[mask]:
            continue
        least.append(mask)
        reached[mask] = 1
        stack = [mask]
        while stack:
            x = stack.pop()
            for p in gens:
                y = 0
                for i in range(k):
                    if x >> i & 1:
                        y |= 1 << p[i]
                if not reached[y]:
                    reached[y] = 1
                    stack.append(y)
    return least


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Stream one representative per isomorphism class of connected graphs.

    Builds n-vertex graphs by attaching a new vertex to nonempty subsets of
    each connected (n-1)-vertex graph; every connected graph arises this way
    because it has a non-cut vertex.  Supports 1 <= n <= 8.  The subsets are
    taken in increasing bitmask order, and only those least in their orbit
    under the parent's automorphisms (McKay 1998): a skipped subset has an
    earlier one in its orbit whose graph is isomorphic and already seen, so
    it would not have been yielded anyway.  The output is the same for any
    subgroup; it is the one of trying every subset.  The levels run on
    adjacency bitmasks (``_connected_classes``); a ``Graph`` is built only
    for the classes yielded, in its candidate's vertex order.  The dedup key
    is the least adjacency string over the degree-sorted vertex orders
    (``_canonical_core`` from degree cells), a complete invariant that
    searches fewer orders than ``canonical_form``'s key.  A candidate
    isomorphic to a class already yielded stops its search at the first
    leaf whose string is a seen key, so only new classes run the whole
    search.
    """
    if not 1 <= n <= _CANONICAL_MAX_N:
        raise UnsupportedSizeError(
            f"enumerate_connected supports 1 <= n <= {_CANONICAL_MAX_N}")
    for adj, _ in _connected_classes(n):
        yield Graph(n, [(u, v) for v in range(n) for u in range(v) if adj[v] >> u & 1])


def _connected_classes(n: int) -> Iterator[tuple[list[int], list[tuple[int, ...]]]]:
    """``enumerate_connected(n)``'s classes in its order, each as adjacency
    bitmasks and generators of its automorphism group.

    A candidate is its parent's adjacency with bit n-1 set on each member of
    ``mask``, plus ``mask`` as the new vertex's; ``_canonical_core`` from
    degree cells gives its dedup key, the least string over degree-sorted
    orders, and the generators that the next level reads when the candidate
    is accepted, so each graph is searched once.  The core gets the keys
    seen so far and returns None for a candidate whose class is among them,
    once one of its leaves hits a seen key; the others run the whole search,
    so the keys and generators are those of a search without ``known``.
    """
    if n == 1:
        yield [0], []
        return
    seen: set[int] = set()
    new = 1 << (n - 1)
    for parent, parent_gens in _connected_classes(n - 1):
        for mask in _orbit_least_masks(n - 1, parent_gens):
            adj = [nbrs | new if mask >> i & 1 else nbrs for i, nbrs in enumerate(parent)]
            adj.append(mask)
            key, gens = _canonical_core(adj, seen, degree_cells=True)
            if key is not None:
                seen.add(key)
                yield adj, gens

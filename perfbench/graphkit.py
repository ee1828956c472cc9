"""Graph helpers that share no code with sumlab.

The benchmark builds its inputs and checks the program's answers with these,
so a change to sumlab's graph6 codec or canonical form cannot make a wrong
answer look right.  Graphs are plain ``(n, edges)`` pairs with ``u < v``.
"""

from __future__ import annotations

import itertools
import random


def to_graph6(n: int, edges) -> str:
    """graph6 short form (n <= 62): column-major upper triangle, 6-bit groups."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(i, j) in edge_set for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k:k + 6]:
            group = (group << 1) | b
        out.append(chr(group + 63))
    return "".join(out)


def from_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        group = ord(ch) - 63
        bits.extend((group >> s) & 1 for s in range(5, -1, -1))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, sorted(p for p, b in zip(pairs, bits) if b)


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def _refined_cells(n: int, adj: list[set[int]]) -> list[list[int]]:
    """Vertex classes under colour refinement, in an isomorphism-invariant order."""
    colour = [len(adj[v]) for v in range(n)]
    while True:
        sig = [(colour[v], tuple(sorted(colour[w] for w in adj[v]))) for v in range(n)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if len(palette) == len(set(colour)):
            break
        colour = new
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colour[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def canonical_key(n: int, edges) -> str:
    """Complete isomorphism invariant: the graph6 text of the relabelling with
    the largest adjacency bit-string among orders that respect the refined
    vertex classes.  It tries every order within each class, so it is meant
    for the small graphs here (at worst 7! orders, for a regular 7-vertex graph).
    """
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    best_code, best_order = -1, list(range(n))
    cells = _refined_cells(n, adj)
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        order = [v for part in parts for v in part]
        code = 0
        for i, j in pairs:
            code = (code << 1) | (order[j] in adj[order[i]])
        if code > best_code:
            best_code, best_order = code, order
    pos = {v: k for k, v in enumerate(best_order)}
    return to_graph6(n, [(pos[u], pos[v]) for u, v in edges])


def is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def closed_form(invariant: str, n: int, edges) -> int | None:
    """Known exact values from the literature, or None.

    sm(K_n) = 2n - 3 and df(K_n) = n - 1 (arithmetic progressions attain the
    restricted sumset and difference-set minima).  sigma(T) = 1 for trees
    (Ellingham 1993), sigma(C_4) = 3 and sigma(C_n) = 2 otherwise, and
    sigma(K_n) = 2n - 3 for n >= 4 (Bergstrand et al. 1989).
    """
    m = len(edges)
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    complete = m == n * (n - 1) // 2
    if invariant == "sum_index" and complete and n >= 2:
        return 2 * n - 3
    if invariant == "difference_index" and complete and n >= 2:
        return n - 1
    if invariant == "sum_number" and n >= 2:
        if m == n - 1:
            return 1
        if m == n and all(d == 2 for d in degrees):
            return 3 if n == 4 else 2
        if complete and n >= 4:
            return 2 * n - 3
    return None

"""The two backtracking colorers that tscodes merged into one, kept as the
oracle of a differential test.

``_three_color`` 3-colors a face-adjacency graph with node 0 fixed to color
0; ``three_edge_color`` 3-edge-colors a hypergraph with every rank-3 edge
"b".  Both search smallest-domain-first with forward checking, each with its
own copy of the search.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from tscodes.hypergraph import Hypergraph


def _three_color(adj: List[set]) -> Optional[List[int]]:
    """Exact 3-coloring by backtracking, smallest-domain-first."""
    n = len(adj)
    color = [-1] * n
    domains = [set(range(3)) for _ in range(n)]

    def pick() -> int:
        best, best_size = -1, 4
        for v in range(n):
            if color[v] == -1 and len(domains[v]) < best_size:
                best, best_size = v, len(domains[v])
        return best

    def run() -> bool:
        v = pick()
        if v == -1:
            return True
        for c in sorted(domains[v]):
            color[v] = c
            removed = []
            ok = True
            for w in adj[v]:
                if color[w] == -1 and c in domains[w]:
                    domains[w].discard(c)
                    removed.append(w)
                    if not domains[w]:
                        ok = False
            if ok and run():
                return True
            color[v] = -1
            for w in removed:
                domains[w].add(c)
        return False

    if n:
        color[0] = 0
        for w in adj[0]:
            domains[w].discard(0)
    return color if run() else None


def three_edge_color(h: Hypergraph) -> Optional[Tuple[str, ...]]:
    """Proper 3-edge-coloring with all rank-3 edges colored "b", by exact
    backtracking with smallest-domain-first ordering; None if impossible."""
    ne = h.num_edges
    inc = [h.incident_edges(v) for v in range(h.num_vertices)]
    neighbors: List[set] = [set() for _ in range(ne)]
    for lst in inc:
        for a in lst:
            for b in lst:
                if a != b:
                    neighbors[a].add(b)
    domains: List[set] = []
    for i, e in enumerate(h.edges):
        domains.append({"b"} if e.rank == 3 else {"r", "g", "b"})
    color: List[Optional[str]] = [None] * ne

    def propagate(i: int, c: str, removed: List[Tuple[int, str]]) -> bool:
        for j in neighbors[i]:
            if color[j] is None and c in domains[j]:
                domains[j].discard(c)
                removed.append((j, c))
                if not domains[j]:
                    return False
        return True

    def pick() -> int:
        best, size = -1, 4
        for i in range(ne):
            if color[i] is None and len(domains[i]) < size:
                best, size = i, len(domains[i])
        return best

    def run() -> bool:
        i = pick()
        if i == -1:
            return True
        for c in sorted(domains[i]):
            color[i] = c
            removed: List[Tuple[int, str]] = []
            if propagate(i, c, removed) and run():
                return True
            color[i] = None
            for j, c2 in removed:
                domains[j].add(c2)
        return False

    return tuple(color) if run() else None  # type: ignore[arg-type]

"""Deterministic fixture graphs: torus grids, theta, Petersen, honeycombs.

All generators fix vertex and edge ids so downstream constructions are
reproducible byte-for-byte.  The three torus lattices share one periodic layout.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from . import embed_graph
from .embed_graph import Dart, EmbeddedGraph
from .errors import BadParams


def _periodic(
    m: int, n: int, cell: int,
    families: Dict[str, Tuple[int, int, int, int]],
    rotations: Sequence[Sequence[Tuple[str, int, int, int]]],
) -> EmbeddedGraph:
    """The m x n torus tiled by a cell of ``cell`` vertex types.

    Vertex t of cell (i, j) is cell*(i*n + j) + t.  Each edge family (tail
    type, head type, di, dj) adds, for every cell (i, j), one edge from its
    tail vertex to the head vertex of cell (i + di, j + dj); families are
    numbered in order, cells row by row within a family.  ``rotations[t]``
    lists vertex type t's darts as (family, side, di, dj): that side of the
    family's edge in cell (i + di, j + dj)."""
    cells = m * n
    first = {name: f * cells for f, name in enumerate(families)}

    def at(i: int, j: int) -> int:
        return (i % m) * n + (j % n)

    edges = [
        (cell * at(i, j) + tail, cell * at(i + di, j + dj) + head)
        for tail, head, di, dj in families.values()
        for i in range(m) for j in range(n)
    ]
    rotation: List[List[Dart]] = [
        [(first[f] + at(i + di, j + dj), side) for f, side, di, dj in darts]
        for i in range(m) for j in range(n)
        for darts in rotations
    ]
    return embed_graph.build(cell * cells, edges, rotation)


def theta_graph() -> EmbeddedGraph:
    """Two vertices joined by three parallel edges, embedded in the sphere."""
    edges = [(0, 1), (0, 1), (0, 1)]
    rotation = [
        [(0, 0), (1, 0), (2, 0)],
        [(2, 1), (1, 1), (0, 1)],
    ]
    return embed_graph.build(2, edges, rotation)


def torus_grid(m: int, n: int) -> EmbeddedGraph:
    """m x n square grid on the torus; every vertex has degree 4."""
    if m < 2 or n < 2:
        raise BadParams("torus grid needs m, n >= 2")
    return _periodic(
        m, n, 1,
        {"east": (0, 0, 0, 1), "south": (0, 0, 1, 0)},
        [[("east", 0, 0, 0), ("south", 0, 0, 0),
          ("east", 1, 0, -1), ("south", 1, -1, 0)]],
    )


def triangular_torus(m: int, n: int) -> EmbeddedGraph:
    """Torus grid plus one diagonal per cell; every vertex has degree 6."""
    if m < 2 or n < 2:
        raise BadParams("triangular torus needs m, n >= 2")
    return _periodic(
        m, n, 1,
        {"east": (0, 0, 0, 1), "south": (0, 0, 1, 0), "diagonal": (0, 0, 1, 1)},
        [[("east", 0, 0, 0), ("diagonal", 0, 0, 0), ("south", 0, 0, 0),
          ("east", 1, 0, -1), ("diagonal", 1, -1, -1), ("south", 1, -1, 0)]],
    )


def petersen_graph() -> EmbeddedGraph:
    """The Petersen graph with a fixed (genus-irrelevant) rotation system."""
    edges: List[Tuple[int, int]] = []
    outer = {}
    spoke = {}
    inner = {}
    for i in range(5):
        outer[i] = len(edges)
        edges.append((i, (i + 1) % 5))
    for i in range(5):
        spoke[i] = len(edges)
        edges.append((i, 5 + i))
    for i in range(5):
        inner[i] = len(edges)
        edges.append((5 + i, 5 + (i + 2) % 5))
    rotation: List[List[Dart]] = []
    for i in range(5):
        rotation.append([(outer[i], 0), (spoke[i], 0), (outer[(i - 1) % 5], 1)])
    for i in range(5):
        rotation.append([(spoke[i], 1), (inner[i], 0), (inner[(i - 2) % 5], 1)])
    return embed_graph.build(10, edges, rotation)


def honeycomb_torus(m: int, n: int) -> EmbeddedGraph:
    """Hexagonal lattice on the torus: 2mn vertices, 3mn edges, mn faces.

    Vertices come in two sublattices a(i,j) and b(i,j); b(i,j) joins a(i,j),
    a(i,j+1) and a(i+1,j).  The graph is always bipartite; its faces are
    3-colorable only for suitable (m, n).
    """
    if m < 2 or n < 2:
        raise BadParams("honeycomb torus needs m, n >= 2")
    return _periodic(
        m, n, 2,
        {"a-b": (0, 1, 0, 0), "b-a east": (1, 0, 0, 1), "b-a south": (1, 0, 1, 0)},
        [[("a-b", 0, 0, 0), ("b-a south", 1, -1, 0), ("b-a east", 1, 0, -1)],
         [("a-b", 1, 0, 0), ("b-a south", 0, 0, 0), ("b-a east", 0, 0, 0)]],
    )

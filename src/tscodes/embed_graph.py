"""Connected multigraphs with 2-cell embeddings on orientable surfaces.

An embedding is a rotation system: at every vertex, a cyclic order of the
incident edge-ends.  An edge-end ("dart") is a pair ``(edge_id, side)`` with
``edges[edge_id][side]`` the vertex it sits at; dart (e, s) has index
2 e + s.  Faces are the orbits of ``dart -> rotation-successor of the
reversed dart``.  The rotation successor and predecessor maps, the faces and
the dart -> face map are derived once per (frozen, so never stale) graph.

Loops are forbidden; parallel edges are allowed (duals and medials need them).
No general contraction lives here: the one the package needs, of a matching
of colex edges, splices its rotations in ``analyzer.simplified_contraction``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    DisconnectedGraph,
    LoopEdge,
    MalformedRotation,
    OddChi,
    UnknownFormat,
)

Dart = Tuple[int, int]  # (edge id, side in {0, 1})


def dart_index(d: Dart) -> int:
    """The dense id 2 e + s of dart (e, s)."""
    return 2 * d[0] + d[1]


@dataclass(frozen=True)
class EmbeddedGraph:
    num_vertices: int
    edges: Tuple[Tuple[int, int], ...]
    rotation: Tuple[Tuple[Dart, ...], ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def chi(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def dart_vertex(self, d: Dart) -> int:
        return self.edges[d[0]][d[1]]

    def other_end(self, d: Dart) -> int:
        return self.edges[d[0]][1 - d[1]]

    def face_of_dart(self) -> Mapping[Dart, int]:
        """Read-only map from each dart to the face whose walk uses it."""
        return self._face_of_dart

    def neighbors(self, v: int) -> List[int]:
        return [self.other_end(d) for d in self.rotation[v]]

    @cached_property
    def succ(self) -> Mapping[Dart, Dart]:
        """Read-only map from each dart to the next dart around its vertex."""
        out: Dict[Dart, Dart] = {}
        for circ in self.rotation:
            k = len(circ)
            for i, d in enumerate(circ):
                out[d] = circ[(i + 1) % k]
        return MappingProxyType(out)

    @cached_property
    def pred(self) -> Mapping[Dart, Dart]:
        """Read-only inverse of ``succ``."""
        return MappingProxyType({b: a for a, b in self.succ.items()})

    @cached_property
    def faces(self) -> Tuple[Tuple[Dart, ...], ...]:
        """Face walks, each starting at its first dart in rotation order."""
        succ = self.succ
        faces: List[Tuple[Dart, ...]] = []
        seen: set[Dart] = set()
        for circ in self.rotation:
            for d0 in circ:
                if d0 in seen:
                    continue
                walk: List[Dart] = []
                d = d0
                while True:
                    walk.append(d)
                    seen.add(d)
                    d = succ[(d[0], 1 - d[1])]
                    if d == d0:
                        break
                faces.append(tuple(walk))
        return tuple(faces)

    @cached_property
    def _face_of_dart(self) -> Mapping[Dart, int]:
        return MappingProxyType(
            {d: fid for fid, walk in enumerate(self.faces) for d in walk}
        )


def _as_list(value, what: str) -> list:
    try:
        return list(value)
    except TypeError:
        raise MalformedRotation(f"{what} is not a list: {value!r}") from None


def build(
    num_vertices: int,
    edges: Sequence[Tuple[int, int]],
    rotation: Sequence[Sequence[Dart]],
) -> EmbeddedGraph:
    """Validate the combinatorial map and trace its faces.

    Raises LoopEdge, MalformedRotation or DisconnectedGraph on bad input.
    """
    if type(num_vertices) is not int:
        raise MalformedRotation(f"vertex count {num_vertices!r} is not an int")
    if num_vertices < 1:
        raise MalformedRotation("a graph needs at least one vertex")
    edges = _as_list(edges, "edges")
    if not edges:  # no dart, so no face: chi = 1 would be odd
        raise MalformedRotation("a graph needs at least one edge")
    rotation = [
        _as_list(circ, f"rotation of vertex {v}")
        for v, circ in enumerate(_as_list(rotation, "rotation"))
    ]
    for eid, edge in enumerate(edges):
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise MalformedRotation(f"edge {eid} is not a pair: {edge!r}") from None
        if type(u) is not int or type(v) is not int:
            raise MalformedRotation(f"edge {eid} is not a pair of ints: {edge!r}")
        if u == v:
            raise LoopEdge(f"edge {eid} is a loop at vertex {u}")
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise MalformedRotation(f"edge {eid} references unknown vertex")
        edges[eid] = (u, v)
    if len(rotation) != num_vertices:
        raise MalformedRotation("rotation must list every vertex")
    seen: set[Dart] = set()
    for v, circ in enumerate(rotation):
        for d in circ:
            try:
                e, s = d
                if not (0 <= e < len(edges)) or s not in (0, 1):
                    raise MalformedRotation(f"bad edge-end {d!r} at vertex {v}")
                if edges[e][s] != v:
                    raise MalformedRotation(f"edge-end {d!r} is not at vertex {v}")
                if d in seen:
                    raise MalformedRotation(f"edge-end {d!r} appears twice")
                seen.add(d)
            except (TypeError, ValueError):
                raise MalformedRotation(
                    f"edge-end {d!r} at vertex {v} is not an (edge, side) "
                    "tuple of ints"
                ) from None
    if len(seen) != 2 * len(edges):
        missing = 2 * len(edges) - len(seen)
        raise MalformedRotation(f"{missing} edge-end(s) missing from rotation")
    # Connectivity.
    stack = [0]
    reach = {0}
    adj: List[List[int]] = [[] for _ in range(num_vertices)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in reach:
                reach.add(w)
                stack.append(w)
    if len(reach) != num_vertices:
        raise DisconnectedGraph(
            f"only {len(reach)} of {num_vertices} vertices reachable"
        )
    return EmbeddedGraph(
        num_vertices=num_vertices,
        edges=tuple(edges),
        rotation=tuple(tuple(c) for c in rotation),
    )


def genus(g: EmbeddedGraph) -> int:
    """Genus of the embedding surface, (2 - chi) / 2."""
    if g.chi % 2 != 0:
        raise OddChi(f"chi = {g.chi} is odd")
    return (2 - g.chi) // 2


def dual(g: EmbeddedGraph) -> EmbeddedGraph:
    """Swap faces and vertices; edge ids are preserved.

    The dual vertex of a face inherits the face walk as its rotation, so
    dual(dual(g)) is isomorphic to g.
    """
    fod = g.face_of_dart()
    edges = []
    for e in range(g.num_edges):
        f0, f1 = fod[(e, 0)], fod[(e, 1)]
        if f0 == f1:
            raise LoopEdge(f"edge {e} borders face {f0} on both sides")
        edges.append((f0, f1))
    rotation: List[List[Dart]] = []
    for walk in g.faces:
        rotation.append([(e, s) for (e, s) in walk])
    return build(g.num_faces, edges, rotation)


def medial(g: EmbeddedGraph) -> EmbeddedGraph:
    return medial_with_origin(g)[0]


def medial_with_origin(
    g: EmbeddedGraph,
) -> Tuple[EmbeddedGraph, List[Tuple[str, int]]]:
    """4-valent medial graph plus a tag per medial face.

    Medial vertices are the edges of g; one medial edge per corner (a dart d
    together with its rotation successor).  Each medial face comes from either
    a vertex of g or a face of g; tags are ("vertex", v) / ("face", f).
    """
    succ, pred = g.succ, g.pred
    darts = [(e, s) for e in range(g.num_edges) for s in (0, 1)]
    m_edges = [(d[0], succ[d][0]) for d in darts]
    # Rotation at medial vertex m(e): corners at the two ends of e, ordered so
    # that the faces of the medial alternate vertex-type and face-type.  The
    # corner (d, succ d) is medial edge dart_index(d).
    m_rot: List[List[Dart]] = []
    for e in range(g.num_edges):
        circ: List[Dart] = []
        for s in (0, 1):
            # Corner (d, succ d) on side 0, corner (pred d, d) on side 1.
            circ.append((2 * e + s, 0))
            circ.append((dart_index(pred[(e, s)]), 1))
        m_rot.append(circ)
    m = build(g.num_edges, m_edges, m_rot)
    # Tag medial faces.  A corner (d, succ d) lies at vertex dart_vertex(d);
    # within the seed it belongs to the face containing dart succ(d).
    fod = g.face_of_dart()
    origins: List[Tuple[str, int]] = []
    for walk in m.faces:
        vertices_hit = {g.dart_vertex(darts[c]) for (c, _) in walk}
        faces_hit = {fod[succ[darts[c]]] for (c, _) in walk}
        if len(vertices_hit) == 1:
            origins.append(("vertex", vertices_hit.pop()))
        elif len(faces_hit) == 1:
            origins.append(("face", faces_hit.pop()))
        else:
            raise MalformedRotation("medial face mixes vertex and face corners")
    return m, origins


def is_bipartite(g: EmbeddedGraph) -> Optional[Tuple[List[int], List[int]]]:
    """Two vertex classes, or None when an odd cycle exists."""
    color = [-1] * g.num_vertices
    color[0] = 0
    queue = [0]
    while queue:
        u = queue.pop()
        for w in g.neighbors(u):
            if color[w] == -1:
                color[w] = 1 - color[u]
                queue.append(w)
            elif color[w] == color[u]:
                return None
    return (
        [v for v in range(g.num_vertices) if color[v] == 0],
        [v for v in range(g.num_vertices) if color[v] == 1],
    )


def canonical_form(g: EmbeddedGraph) -> Tuple:
    """Canonical encoding of the embedded graph up to map isomorphism.

    BFS over darts from every dart of every minimum-degree vertex, in both
    orientations, taking the lexicographically smallest traversal code.
    Adequate at fixture scale.
    """
    if g.num_edges == 0:
        return (g.num_vertices,)
    min_deg = min(len(c) for c in g.rotation)
    starts = [
        d
        for v in range(g.num_vertices)
        if len(g.rotation[v]) == min_deg
        for d in g.rotation[v]
    ]
    best: Optional[Tuple] = None
    for mirror in (False, True):
        rot = [list(reversed(c)) if mirror else list(c) for c in g.rotation]
        for start in starts:
            code = _traverse_code(g, rot, start)
            if best is None or code < best:
                best = code
    return best  # type: ignore[return-value]


def _traverse_code(
    g: EmbeddedGraph, rot: List[List[Dart]], start: Dart
) -> Tuple:
    vnum: Dict[int, int] = {}
    enum: Dict[int, int] = {}
    code: List[int] = []
    v0 = g.dart_vertex(start)
    vnum[v0] = 0
    queue: List[Tuple[int, Dart]] = [(v0, start)]
    qi = 0
    while qi < len(queue):
        v, entry = queue[qi]
        qi += 1
        circ = rot[v]
        i0 = circ.index(entry)
        for k in range(len(circ)):
            e, s = circ[(i0 + k) % len(circ)]
            if e not in enum:
                enum[e] = len(enum)
            w = g.edges[e][1 - s]
            if w not in vnum:
                vnum[w] = len(vnum)
                queue.append((w, (e, 1 - s)))
            code.append(enum[e])
            code.append(vnum[w])
    return tuple(code)


def is_isomorphic(a: EmbeddedGraph, b: EmbeddedGraph) -> bool:
    if (a.num_vertices, a.num_edges, a.num_faces) != (
        b.num_vertices,
        b.num_edges,
        b.num_faces,
    ):
        return False
    return canonical_form(a) == canonical_form(b)


def to_json_dict(g: EmbeddedGraph) -> dict:
    return {
        "vertices": list(range(g.num_vertices)),
        "edges": [list(e) for e in g.edges],
        "rotation": {
            str(v): [list(d) for d in circ] for v, circ in enumerate(g.rotation)
        },
    }


def _json_list(data: dict, key: str) -> list:
    """``data[key]``, which must be a JSON list."""
    value = data.get(key)
    if not isinstance(value, list):
        raise UnknownFormat(f"input JSON has no {key!r} list")
    return value


def _json_ints(x: object, size: int, what: str) -> Tuple[int, ...]:
    """``x``, which must be a JSON list of ``size`` integers, as a tuple."""
    if not (
        isinstance(x, list)
        and len(x) == size
        and all(type(i) is int for i in x)
    ):
        raise MalformedRotation(f"{what} {x!r} is not a list of {size} integers")
    return tuple(x)


def from_json_dict(data: dict) -> EmbeddedGraph:
    """Rebuild a graph from its JSON form.

    Raises UnknownFormat or MalformedRotation, naming the bad entry, on
    malformed input, besides what ``build`` raises.
    """
    n = len(_json_list(data, "vertices"))
    edges = [_json_ints(e, 2, "edge") for e in _json_list(data, "edges")]
    table = data.get("rotation")
    if not isinstance(table, dict):
        raise UnknownFormat("input JSON has no 'rotation' map")
    rotation = []
    for v in range(n):
        circ = table.get(str(v))
        if not isinstance(circ, list):
            raise MalformedRotation(f"rotation of vertex {v} is not a list")
        rotation.append(
            [_json_ints(d, 2, f"vertex {v}'s edge-end") for d in circ]
        )
    return build(n, edges, rotation)


def to_json(g: EmbeddedGraph) -> str:
    return json.dumps(to_json_dict(g), indent=2, sort_keys=True)


def to_dot(g: EmbeddedGraph) -> str:
    lines = ["graph g {"]
    for v in range(g.num_vertices):
        lines.append(f"  {v};")
    for e, (u, v) in enumerate(g.edges):
        lines.append(f'  {u} -- {v} [label="e{e}"];')
    for fid, walk in enumerate(g.faces):
        cyc = " ".join(f"({e},{s})" for (e, s) in walk)
        lines.append(f"  // face {fid}: {cyc}")
    lines.append("}")
    return "\n".join(lines)

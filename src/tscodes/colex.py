"""2-colexes: trivalent, 3-face-colorable embedded graphs.

Two ways in: construct_A blows up an arbitrary embedded graph (each vertex,
edge and face of the seed becomes a face of the colex), construct_1 expands
the dual of a bipartite graph.  validate_colex 3-colors the faces of any
trivalent embedding with ``_backtrack_color``, the package's one exact
colorer (hypergraph.three_edge_color runs it on hyperedges).  The
constructions read the seed's cached rotation successor/predecessor maps and
number its darts with ``embed_graph.dart_index``.  recover_bipartite reads
the bipartite graph along one color off the faces, contracting nothing.

Color conventions are fixed: construct_A assigns f-faces "r", e-faces "g",
v-faces "b"; an edge always carries the color missing from its two faces.
"""

from __future__ import annotations

import heapq
import json
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import embed_graph
from .embed_graph import Dart, EmbeddedGraph, dart_index
from .errors import (
    MalformedRotation,
    MissingParentage,
    NotBipartite,
    UnknownFormat,
)

COLORS = ("r", "g", "b")


class TwoColex(NamedTuple):
    graph: EmbeddedGraph
    face_color: Tuple[str, ...]
    edge_color: Tuple[str, ...]
    parentage: Optional[Tuple[Tuple[str, int], ...]] = None

    def face_vertex_cycle(self, fid: int) -> List[int]:
        return [self.graph.dart_vertex(d) for d in self.graph.faces[fid]]


def _edge_colors_from_faces(
    g: EmbeddedGraph, face_color: Sequence[str]
) -> Tuple[str, ...]:
    fod = g.face_of_dart()
    out: List[str] = []
    for e in range(g.num_edges):
        f0, f1 = fod[(e, 0)], fod[(e, 1)]
        c0, c1 = face_color[f0], face_color[f1]
        if c0 == c1:
            raise MalformedRotation(
                f"faces {f0} and {f1} across edge {e} are both {c0!r}"
            )
        out.append(next(c for c in COLORS if c not in (c0, c1)))
    return tuple(out)


def validate_colex(g: EmbeddedGraph) -> Optional[TwoColex]:
    """3-face-color the embedding if it is a 2-colex; None otherwise."""
    if any(g.degree(v) != 3 for v in range(g.num_vertices)):
        return None
    fod = g.face_of_dart()
    adj: List[set] = [set() for _ in range(g.num_faces)]
    for e in range(g.num_edges):
        f0, f1 = fod[(e, 0)], fod[(e, 1)]
        if f0 == f1:
            return None
        adj[f0].add(f1)
        adj[f1].add(f0)
    coloring = _backtrack_color(
        adj, [{0} if f == 0 else {0, 1, 2} for f in range(g.num_faces)]
    )
    if coloring is None:
        return None
    face_color = tuple(COLORS[c] for c in coloring)
    return TwoColex(g, face_color, _edge_colors_from_faces(g, face_color))


def _backtrack_color(
    adj: Sequence[Set[int]], domains: List[Set[int]]
) -> Optional[List[int]]:
    """Color node v from domains[v] so that neighbors differ; None if
    impossible.

    Exact backtracking: color the uncolored node with the smallest domain
    (lowest id on ties), try its colors in ascending order, and drop the
    color from the neighbors' domains, backing out when one empties.  The
    search keeps its own stack, so its depth is not bounded by Python's
    recursion limit, and it narrows ``domains`` in place.  Uncolored nodes
    wait in one min-heap per domain size; a node is pushed again whenever
    its domain size changes or it loses its color, and entries that no
    longer match are dropped when they reach the top.
    """
    n = len(adj)
    color = [-1] * n
    buckets: List[List[int]] = [
        [] for _ in range(1 + max((len(d) for d in domains), default=0))
    ]
    for v in range(n):  # ascending ids: each bucket starts as a valid heap
        buckets[len(domains[v])].append(v)

    def push(v: int) -> None:
        heapq.heappush(buckets[len(domains[v])], v)

    def pick() -> int:
        for size, heap in enumerate(buckets):
            while heap and (color[heap[0]] != -1 or len(domains[heap[0]]) != size):
                heapq.heappop(heap)
            if heap:
                return heap[0]
        return -1

    def frame(v: int) -> Tuple[int, List[int], List[int]]:
        # (node, colors left to try, descending; nodes the trial pruned)
        return v, sorted(domains[v], reverse=True), []

    v = pick()
    if v == -1:
        return color
    stack = [frame(v)]
    while stack:
        v, todo, removed = stack[-1]
        if color[v] != -1:  # back out of the previous trial
            for w in removed:
                domains[w].add(color[v])
                push(w)
            removed.clear()
            color[v] = -1
            push(v)
        if not todo:
            stack.pop()
            continue
        c = color[v] = todo.pop()
        ok = True
        for w in adj[v]:
            if color[w] == -1 and c in domains[w]:
                domains[w].discard(c)
                removed.append(w)
                push(w)
                if not domains[w]:
                    ok = False
                    break
        if ok:
            nxt = pick()
            if nxt == -1:
                return color
            stack.append(frame(nxt))
    return None


def construct_A(seed: EmbeddedGraph) -> TwoColex:
    """Blow up a graph into a 2-colex: 4e vertices, 6e edges, v+f+e faces.

    Every seed vertex u becomes a 2 deg(u)-gon v-face, every seed edge a
    4-gon e-face, every seed face f a 2|f|-gon f-face.
    """
    succ, pred = seed.succ, seed.pred
    darts = [(e, s) for e in range(seed.num_edges) for s in (0, 1)]
    nd = len(darts)

    # Colex vertices: for each seed dart d, R(d) = 2 i and L(d) = 2 i + 1 with
    # i = dart_index(d).
    def R(d: Dart) -> int:
        return 2 * dart_index(d)

    def L(d: Dart) -> int:
        return R(d) + 1

    # Colex edges of dart index i: i joins R-L ("ve"), nd + i is the corner
    # from L(d) to R(succ d) ("vf"), 2 nd + i crosses to the reversed dart
    # ("ef").
    edges: List[Tuple[int, int]] = [(R(d), L(d)) for d in darts]
    edges += [(L(d), R(succ[d])) for d in darts]
    edges += [(L(d), R((d[0], 1 - d[1]))) for d in darts]
    rotation: List[List[Dart]] = [[] for _ in range(4 * seed.num_edges)]
    for i, d in enumerate(darts):
        rotation[L(d)] = [(i, 1), (2 * nd + i, 0), (nd + i, 0)]
        rev = 2 * nd + (i ^ 1)  # "ef" edge of the reversed dart
        rotation[R(d)] = [(i, 0), (nd + dart_index(pred[d]), 1), (rev, 1)]
    g = embed_graph.build(4 * seed.num_edges, edges, rotation)

    # Classify the traced faces by the edge families they use.
    seed_fod = seed.face_of_dart()
    parentage: List[Tuple[str, int]] = []
    face_color: List[str] = []
    for walk in g.faces:
        by_kind: Dict[str, Dart] = {}
        for (e, _) in walk:
            by_kind.setdefault(("ve", "vf", "ef")[e // nd], darts[e % nd])
        kinds = set(by_kind)
        if kinds == {"ve", "vf"}:
            parentage.append(("v", seed.dart_vertex(by_kind["ve"])))
            face_color.append("b")
        elif kinds == {"ve", "ef"}:
            parentage.append(("e", by_kind["ve"][0]))
            face_color.append("g")
        elif kinds == {"vf", "ef"}:
            d0 = by_kind["vf"]
            parentage.append(("f", seed_fod[succ[d0]]))
            face_color.append("r")
        else:
            raise MalformedRotation(f"unexpected face kinds {kinds}")
    expect = seed.num_vertices + seed.num_faces + seed.num_edges
    if g.num_faces != expect or g.chi != seed.chi:
        raise MalformedRotation("construct_A face structure is inconsistent")
    return TwoColex(
        g,
        tuple(face_color),
        _edge_colors_from_faces(g, face_color),
        tuple(parentage),
    )


def construct_1(seed: EmbeddedGraph) -> TwoColex:
    """2-colex from a bipartite graph: expand every dual vertex into a face.

    New faces (one per dual vertex, i.e. per seed face) are colored "b";
    the surviving dual faces are colored "r"/"g" by the seed bipartition
    class of the seed vertex they surround.
    """
    bip = embed_graph.is_bipartite(seed)
    if bip is None:
        raise NotBipartite("construct_1 needs a bipartite seed")
    klass = {}
    for v in bip[0]:
        klass[v] = 0
    for v in bip[1]:
        klass[v] = 1
    dstar = embed_graph.dual(seed)

    # Colex vertex i is the dual dart with dart_index i; colex edge e < ne is
    # dual edge e, and edge ne + i is the expansion-cycle edge from dart i to
    # its rotation successor.
    ne = dstar.num_edges
    darts = [(e, s) for e in range(ne) for s in (0, 1)]
    succ, pred = dstar.succ, dstar.pred
    edges: List[Tuple[int, int]] = [(2 * e, 2 * e + 1) for e in range(ne)]
    edges += [(i, dart_index(succ[d])) for i, d in enumerate(darts)]
    rotation = [
        [d, (ne + i, 0), (ne + dart_index(pred[d]), 1)]
        for i, d in enumerate(darts)
    ]
    g = embed_graph.build(len(darts), edges, rotation)

    # Faces: the expansion cycles (parent: a dual vertex, i.e. a seed face)
    # and the surviving dual faces (parent: a seed vertex).
    parentage: List[Tuple[str, int]] = []
    face_color: List[str] = []
    for walk in g.faces:
        eids = {e for (e, _) in walk}
        if all(e >= ne for e in eids):  # cycle edges only
            d0 = darts[min(eids) - ne]
            parentage.append(("dualvertex", dstar.dart_vertex(d0)))
            face_color.append("b")
        else:
            # Colex dart (e0, s0) is dual dart (e0, s0), and the dual keeps
            # seed edge ids and sides: its dual face surrounds edges[e0][s0].
            e0, s0 = next((e, s) for (e, s) in walk if e < ne)
            v_seed = seed.edges[e0][s0]
            parentage.append((f"class{klass[v_seed]}", v_seed))
            face_color.append("r" if klass[v_seed] == 0 else "g")
    if g.chi != seed.chi:
        raise MalformedRotation("construct_1 did not preserve chi")
    return TwoColex(
        g,
        tuple(face_color),
        _edge_colors_from_faces(g, face_color),
        tuple(parentage),
    )


class RecoveredBipartite(NamedTuple):
    graph: EmbeddedGraph
    classes: Tuple[Tuple[int, ...], Tuple[int, ...]]
    class_colors: Tuple[str, str]


def recover_bipartite(colex: TwoColex, color: str) -> RecoveredBipartite:
    """The bipartite graph whose dual expansion is the colex, along the
    chosen color, read off the faces.

    One vertex per face of the two other colors, in ascending face id, and
    one edge per edge of the chosen color, joining the two faces beside it;
    each vertex orders its edges by its face's walk.  An edge's two faces
    carry the two other colors, so the faces of each color form a class and
    no edge is a loop.  This is the dual of the colex with every other edge
    contracted, built without either step.
    """
    g = colex.graph
    fod = g.face_of_dart()
    others = tuple(c for c in COLORS if c != color)
    kept = [f for f in range(g.num_faces) if colex.face_color[f] != color]
    vertex = {f: i for i, f in enumerate(kept)}
    chosen = [e for e in range(g.num_edges) if colex.edge_color[e] == color]
    eid = {e: i for i, e in enumerate(chosen)}
    edges = [(vertex[fod[(e, 0)]], vertex[fod[(e, 1)]]) for e in chosen]
    rotation = [[(eid[e], s) for (e, s) in g.faces[f] if e in eid] for f in kept]
    classes = tuple(
        tuple(vertex[f] for f in kept if colex.face_color[f] == c) for c in others
    )
    return RecoveredBipartite(
        embed_graph.build(len(kept), edges, rotation), classes, others
    )


def corollary2_check(colex: TwoColex) -> bool:
    """Whether the colex recovers from a bipartite graph with a degree-2 class.

    Recovery runs along the designated color: the f-face color for blown-up
    (construct_A style) colexes, the expanded-vertex-face color otherwise.
    """
    if colex.parentage is None:
        raise MissingParentage("corollary2_check needs face parentage")
    kinds = {k for (k, _) in colex.parentage}
    if kinds == {"v", "f", "e"}:
        designated = "r"  # f-face color: keeps v- and e-faces as classes
    else:
        designated = "b"  # expanded-vertex-face color
    rec = recover_bipartite(colex, designated)
    degs = [rec.graph.degree(v) for v in range(rec.graph.num_vertices)]
    return any(
        cls and all(degs[v] == 2 for v in cls) for cls in rec.classes
    )


def to_json_dict(colex: TwoColex) -> dict:
    data = embed_graph.to_json_dict(colex.graph)
    data["face_color"] = {str(f): c for f, c in enumerate(colex.face_color)}
    data["edge_color"] = {str(e): c for e, c in enumerate(colex.edge_color)}
    if colex.parentage is not None:
        data["parentage"] = {
            str(f): [k, p] for f, (k, p) in enumerate(colex.parentage)
        }
    return data


def _json_entries(data: dict, key: str, count: int) -> list:
    """Entries "0" .. count - 1 of the JSON map ``data[key]``, in order."""
    table = data.get(key)
    if not isinstance(table, dict):
        raise UnknownFormat(f"colex JSON has no {key!r} map")
    missing = [i for i in range(count) if str(i) not in table]
    if missing:
        raise MalformedRotation(f"{key} has no entry for {missing[0]}")
    return [table[str(i)] for i in range(count)]


def from_json_dict(data: dict) -> TwoColex:
    """Rebuild a colex from its JSON form, checking its colors.

    Every face color must be one of COLORS, faces across an edge must
    differ, and every edge color must be the one its two faces leave;
    otherwise MalformedRotation names the face or edge.
    """
    g = embed_graph.from_json_dict(data)
    face_color = tuple(_json_entries(data, "face_color", g.num_faces))
    for f, c in enumerate(face_color):
        if c not in COLORS:
            raise MalformedRotation(f"face {f} has color {c!r}, not r, g or b")
    edge_color = _edge_colors_from_faces(g, face_color)
    for e, c in enumerate(_json_entries(data, "edge_color", g.num_edges)):
        if c != edge_color[e]:
            raise MalformedRotation(
                f"edge {e} has color {c!r}, but its faces give {edge_color[e]!r}"
            )
    parentage = None
    if "parentage" in data:
        entries = _json_entries(data, "parentage", g.num_faces)
        for f, p in enumerate(entries):
            if not (
                isinstance(p, list)
                and len(p) == 2
                and isinstance(p[0], str)
                and type(p[1]) is int
            ):
                raise MalformedRotation(f"parentage of face {f} is {p!r}")
        parentage = tuple((k, i) for k, i in entries)
    return TwoColex(g, face_color, edge_color, parentage)


def to_json(colex: TwoColex) -> str:
    return json.dumps(to_json_dict(colex), indent=2, sort_keys=True)


DOT_COLOR = {"r": "red", "g": "green", "b": "blue"}


def to_dot(colex: TwoColex) -> str:
    g = colex.graph
    lines = ["graph colex {"]
    for v in range(g.num_vertices):
        lines.append(f"  {v};")
    for e, (u, v) in enumerate(g.edges):
        c = DOT_COLOR[colex.edge_color[e]]
        lines.append(f'  {u} -- {v} [color={c} label="e{e}"];')
    for f in range(g.num_faces):
        cyc = " ".join(str(x) for x in colex.face_vertex_cycle(f))
        lines.append(f"  // face {f} [{colex.face_color[f]}]: {cyc}")
    lines.append("}")
    return "\n".join(lines)

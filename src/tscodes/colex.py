"""2-colexes: trivalent, 3-face-colorable embedded graphs.

Two ways in: construct_A blows up an arbitrary embedded graph (each vertex,
edge and face of the seed becomes a face of the colex), construct_1 expands
the dual of a bipartite graph.  validate_colex 3-colors the faces of any
trivalent embedding by exact backtracking.

Color conventions are fixed: construct_A assigns f-faces "r", e-faces "g",
v-faces "b"; an edge always carries the color missing from its two faces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import embed_graph
from .embed_graph import Dart, EmbeddedGraph
from .errors import MalformedRotation, MissingParentage, NotBipartite

COLORS = ("r", "g", "b")


@dataclass(frozen=True)
class TwoColex:
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
        c0 = face_color[fod[(e, 0)]]
        c1 = face_color[fod[(e, 1)]]
        if c0 == c1:
            raise MalformedRotation(f"edge {e} has equal-colored faces")
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
    coloring = _three_color(adj)
    if coloring is None:
        return None
    face_color = tuple(COLORS[c] for c in coloring)
    return TwoColex(g, face_color, _edge_colors_from_faces(g, face_color))


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


def construct_A(seed: EmbeddedGraph) -> TwoColex:
    """Blow up a graph into a 2-colex: 4e vertices, 6e edges, v+f+e faces.

    Every seed vertex u becomes a 2 deg(u)-gon v-face, every seed edge a
    4-gon e-face, every seed face f a 2|f|-gon f-face.
    """
    darts = [(e, s) for e in range(seed.num_edges) for s in (0, 1)]
    did = {d: i for i, d in enumerate(darts)}
    succ: Dict[Dart, Dart] = {}
    for circ in seed.rotation:
        k = len(circ)
        for i, d in enumerate(circ):
            succ[d] = circ[(i + 1) % k]
    pred = {succ[d]: d for d in succ}

    # Colex vertices: for each seed dart d, R(d) = 2*did, L(d) = 2*did + 1.
    def R(d: Dart) -> int:
        return 2 * did[d]

    def L(d: Dart) -> int:
        return 2 * did[d] + 1

    edges: List[Tuple[int, int]] = []
    ve = {}
    for d in darts:
        ve[d] = len(edges)
        edges.append((R(d), L(d)))
    corner = {}
    for d in darts:
        corner[d] = len(edges)
        edges.append((L(d), R(succ[d])))
    ef = {}
    for d in darts:
        ef[d] = len(edges)
        edges.append((L(d), R((d[0], 1 - d[1]))))

    rotation: List[List[Dart]] = [[] for _ in range(4 * seed.num_edges)]
    for d in darts:
        rotation[L(d)] = [(ve[d], 1), (ef[d], 0), (corner[d], 0)]
        rev = (d[0], 1 - d[1])
        rotation[R(d)] = [(ve[d], 0), (corner[pred[d]], 1), (ef[rev], 1)]
    g = embed_graph.build(4 * seed.num_edges, edges, rotation)

    # Classify the traced faces by the edge families they use.
    kind_of_edge: Dict[int, Tuple[str, Dart]] = {}
    for d in darts:
        kind_of_edge[ve[d]] = ("ve", d)
        kind_of_edge[corner[d]] = ("vf", d)
        kind_of_edge[ef[d]] = ("ef", d)
    seed_fod = seed.face_of_dart()
    parentage: List[Tuple[str, int]] = []
    face_color: List[str] = []
    for walk in g.faces:
        by_kind: Dict[str, Dart] = {}
        for (e, _) in walk:
            k, d = kind_of_edge[e]
            by_kind.setdefault(k, d)
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


def _dual_face_to_seed_vertex(seed: EmbeddedGraph, dstar: EmbeddedGraph) -> List[int]:
    """Each face of the dual surrounds exactly one seed vertex.

    Dual edges keep seed edge ids and sides, and the dual face through dual
    dart (e, s) is exactly the rotation orbit at the seed vertex edges[e][s].
    """
    out: List[int] = []
    for walk in dstar.faces:
        hits = {seed.edges[e][s] for (e, s) in walk}
        if len(hits) != 1:
            raise MalformedRotation("dual face does not surround one vertex")
        out.append(hits.pop())
    return out


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
    face_to_vertex = _dual_face_to_seed_vertex(seed, dstar)

    darts = [(e, s) for e in range(dstar.num_edges) for s in (0, 1)]
    did = {d: i for i, d in enumerate(darts)}
    succ: Dict[Dart, Dart] = {}
    for circ in dstar.rotation:
        k = len(circ)
        for i, d in enumerate(circ):
            succ[d] = circ[(i + 1) % k]
    pred = {succ[d]: d for d in succ}
    edges: List[Tuple[int, int]] = []
    orig = {}
    for e in range(dstar.num_edges):
        orig[e] = len(edges)
        edges.append((did[(e, 0)], did[(e, 1)]))
    cyc = {}
    for d in darts:
        cyc[d] = len(edges)
        edges.append((did[d], did[succ[d]]))
    rotation: List[List[Dart]] = [[] for _ in range(len(darts))]
    for d in darts:
        rotation[did[d]] = [
            (orig[d[0]], d[1]),
            (cyc[d], 0),
            (cyc[pred[d]], 1),
        ]
    g = embed_graph.build(len(darts), edges, rotation)

    # Faces: the expansion cycles (parent: a dual vertex, i.e. a seed face)
    # and the surviving dual faces (parent: a seed vertex).
    parentage: List[Tuple[str, int]] = []
    face_color: List[str] = []
    for walk in g.faces:
        eids = {e for (e, _) in walk}
        if all(e >= dstar.num_edges for e in eids):  # cycle edges only
            d0 = next(d for d in darts if cyc[d] in eids)
            parentage.append(("dualvertex", dstar.dart_vertex(d0)))
            face_color.append("b")
        else:
            e0 = next(e for e in eids if e < dstar.num_edges)
            # Which dual face did this come from?  Use the dual dart.
            s0 = next(s for (e, s) in walk if e == orig[e0])
            dual_face = dstar.face_of_dart()[(e0, s0)]
            v_seed = face_to_vertex[dual_face]
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


@dataclass(frozen=True)
class RecoveredBipartite:
    graph: EmbeddedGraph
    classes: Tuple[Tuple[int, ...], Tuple[int, ...]]
    class_colors: Tuple[str, str]


def recover_bipartite(colex: TwoColex, color: str) -> RecoveredBipartite:
    """Shrink the faces of the chosen color and return the dual.

    Contracts every edge not carrying the chosen color (each chosen-color
    face boundary collapses to a point), leaving a 2-face-colorable graph
    whose dual is bipartite; the two vertex classes of the dual are the faces
    of the two remaining colors.
    """
    g = colex.graph
    to_contract = [
        e for e in range(g.num_edges) if colex.edge_color[e] != color
    ]
    contracted, _, emap = embed_graph.contract_and_drop_loops(g, to_contract)
    # Each surviving face descends from a colex face of one remaining color.
    inv_emap = {new: old for old, new in emap.items()}
    colex_fod = g.face_of_dart()
    others = [c for c in COLORS if c != color]
    face_class: List[int] = []
    for walk in contracted.faces:
        cs = {
            colex.face_color[colex_fod[(inv_emap[e], s)]] for (e, s) in walk
        }
        if len(cs) != 1 or cs.issubset({color}):
            raise MalformedRotation("contracted face has mixed parent colors")
        face_class.append(others.index(cs.pop()))
    result = embed_graph.dual(contracted)
    class0 = tuple(f for f in range(len(face_class)) if face_class[f] == 0)
    class1 = tuple(f for f in range(len(face_class)) if face_class[f] == 1)
    if embed_graph.is_bipartite(result) is None:
        raise MalformedRotation("recovered graph is not bipartite")
    return RecoveredBipartite(result, (class0, class1), (others[0], others[1]))


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


def from_json_dict(data: dict) -> TwoColex:
    g = embed_graph.from_json_dict(data)
    face_color = tuple(data["face_color"][str(f)] for f in range(g.num_faces))
    edge_color = tuple(data["edge_color"][str(e)] for e in range(g.num_edges))
    parentage = None
    if "parentage" in data:
        parentage = tuple(
            (data["parentage"][str(f)][0], data["parentage"][str(f)][1])
            for f in range(g.num_faces)
        )
    return TwoColex(g, face_color, edge_color, parentage)


def to_json(colex: TwoColex) -> str:
    return json.dumps(to_json_dict(colex), indent=2, sort_keys=True)


DOT_COLOR = {"r": "red", "g": "green", "b": "blue"}


def to_dot(colex: TwoColex, name: str = "colex") -> str:
    g = colex.graph
    lines = [f"graph {name} {{"]
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

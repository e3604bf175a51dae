"""The contraction routes that ``analyzer.distinctness_check`` and
``colex.recover_bipartite`` replaced, kept as the oracles of differential
tests.

The triangle contraction re-embeds the whole derived graph (each triangle
drawn inside its promoted face, rotations spliced at every endpoint),
contracts the three sides of every triangle, then simplifies parallel
edges.  It is independent of the new path, which contracts the promoted
edges of the source colex and counts degrees by union-find.
``derived_embedding`` and the colex-backed branch of ``contract_rank3`` are
the replaced code's, verbatim.

The bipartite recovery contracts every colex edge not of the chosen color
(dropping the loops that closing a face leaves), classes the surviving
faces by their parent colors and dualizes; ``recover_bipartite`` reads the
same graph off the colex faces.  ``recover_bipartite`` is the replaced
code's, verbatim.  ``contract_and_drop_loops`` (moved from ``embed_graph``;
``contract_rank3`` calls it too) is too, except that it builds its vertex
and edge maps itself, the way ``_MutableMap.freeze`` relabels, since
``freeze`` returns the graph alone.  A seed face that
meets a vertex twice (the Petersen blow-up) makes a kept edge a loop, which
``embed_graph.build`` rejects, so this route raises ``LoopEdge`` there.

The general contraction both routes run, the loop-tolerant ``_MutableMap``
with ``contract_edges`` and ``simplify_parallel``, moved here from
``embed_graph`` verbatim, with the two errors only it raises
(``LoopCreated``, ``ContractionDisconnects``).
``analyzer.simplified_contraction`` splices the rotations of the promoted
colex edges, a matching, itself; contracting those edges and simplifying
here gives the same graph exactly, the oracle of a differential test.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from tscodes import colex as colex_mod
from tscodes import embed_graph
from tscodes.colex import COLORS, RecoveredBipartite, TwoColex
from tscodes.embed_graph import Dart, EmbeddedGraph, build
from tscodes.errors import MalformedRotation, TscodesError, UnclassifiedFace
from tscodes.hypergraph import Hypergraph


class LoopCreated(TscodesError):
    """An edge contraction would have produced a loop."""


class ContractionDisconnects(TscodesError):
    pass


class _MutableMap:
    """Loop-tolerant working form for contractions and deletions."""

    def __init__(self, g: EmbeddedGraph) -> None:
        self.edges: Dict[int, Tuple[int, int]] = dict(enumerate(g.edges))
        self.rot: Dict[int, List[Dart]] = {
            v: list(circ) for v, circ in enumerate(g.rotation)
        }

    def dart_vertex(self, d: Dart) -> int:
        return self.edges[d[0]][d[1]]

    def contract(self, e: int) -> int:
        """Merge the endpoints of e (which must not be a loop); returns the
        surviving vertex id."""
        u, v = self.edges[e]
        if u == v:
            raise LoopCreated(f"edge {e} is a loop")
        ru, rv = self.rot[u], self.rot[v]
        iu = next(i for i, d in enumerate(ru) if d[0] == e)
        iv = next(i for i, d in enumerate(rv) if d[0] == e)
        spliced = (
            ru[:iu]
            + rv[iv + 1 :]
            + rv[:iv]
            + ru[iu + 1 :]
        )
        self.rot[u] = spliced
        del self.rot[v]
        del self.edges[e]
        # The darts at v are exactly rv; move each one's side to u.
        for eid, side in rv:
            if eid != e:
                a, b = self.edges[eid]
                self.edges[eid] = (u, b) if side == 0 else (a, u)
        return u

    def delete_edge(self, e: int) -> None:
        u, v = self.edges[e]
        for w in {u, v}:
            self.rot[w] = [d for d in self.rot[w] if d[0] != e]
        del self.edges[e]

    def freeze(self) -> EmbeddedGraph:
        """Relabel densely (surviving ids in ascending order) and build."""
        vmap = {v: i for i, v in enumerate(sorted(self.rot))}
        emap = {e: i for i, e in enumerate(sorted(self.edges))}
        edges = [
            (vmap[self.edges[e][0]], vmap[self.edges[e][1]])
            for e in sorted(self.edges)
        ]
        rotation = [
            [(emap[e], s) for (e, s) in self.rot[v]] for v in sorted(self.rot)
        ]
        return build(len(vmap), edges, rotation)


def contract_edges(g: EmbeddedGraph, edge_set: Sequence[int]) -> EmbeddedGraph:
    """Contract the given edges, splicing rotations at each merge.

    Raises LoopCreated if some requested edge has become a loop (the edge set
    contained a cycle).
    """
    targets = sorted(set(edge_set))
    if any(not (0 <= e < g.num_edges) for e in targets):
        raise MalformedRotation("edge set references unknown edges")
    work = _MutableMap(g)
    for e in targets:
        u, v = work.edges[e]
        if u == v:
            raise LoopCreated(f"contracting edge set turns edge {e} into a loop")
        work.contract(e)
    if not work.rot:
        raise ContractionDisconnects("contracted away the whole graph")
    return work.freeze()


def simplify_parallel(g: EmbeddedGraph) -> EmbeddedGraph:
    """Drop all but the lowest-id edge of every parallel class."""
    work = _MutableMap(g)
    seen: Dict[Tuple[int, int], int] = {}
    for e in sorted(work.edges):
        key = tuple(sorted(work.edges[e]))
        if key in seen:
            work.delete_edge(e)
        else:
            seen[key] = e
    return work.freeze()


def derived_embedding(h: Hypergraph) -> EmbeddedGraph:
    """The derived graph as an embedded multigraph (triangles drawn inside
    their promoted faces).  Requires a colex-backed hypergraph."""
    if h.source is None or h.faces is None:
        raise UnclassifiedFace("derived embedding needs a colex source")
    g = h.source.graph
    edges: List[Tuple[int, int]] = []
    rot: Dict[int, List[Tuple[int, int]]] = {
        v: [] for v in range(h.num_vertices)
    }
    # Start from the colex rotations; promoted edges are replaced in place by
    # [outer side, inner side] at each original endpoint.
    eid_of: Dict[Tuple[int, Optional[int]], int] = {}
    for i, e in enumerate(h.edges):
        if e.rank == 2:
            eid_of[(i, None)] = len(edges)
            edges.append((e.vertices[0], e.vertices[1]))
    tri_sides: Dict[int, Dict[str, int]] = {}
    for rec in h.faces or ():
        for t in rec.triangles:
            outer = len(edges)
            edges.append((t.u_first, t.u_second))
            in_first = len(edges)
            edges.append((t.u_first, t.w))
            in_second = len(edges)
            edges.append((t.u_second, t.w))
            tri_sides[t.edge_id] = {
                "outer": outer,
                "in_first": in_first,
                "in_second": in_second,
            }

    def dart_at(eid: int, v: int) -> Tuple[int, int]:
        return (eid, 0 if edges[eid][0] == v else 1)

    tov = h.triangle_of_vertex
    for v in range(g.num_vertices):
        circ: List[Tuple[int, int]] = []
        for (ce, s) in g.rotation[v]:
            if ce in tri_sides:
                # Rank-3 edges are disjoint (H4): v lies on one triangle only.
                t = tov[v]
                sides = tri_sides[ce]
                # The promoted face's walk leaves u_first along this edge, so
                # the triangle sits in the corner before it there and in the
                # corner after it at u_second.
                if v == t.u_first:
                    circ.append(dart_at(sides["in_first"], v))
                    circ.append(dart_at(sides["outer"], v))
                else:
                    circ.append(dart_at(sides["outer"], v))
                    circ.append(dart_at(sides["in_second"], v))
            else:
                circ.append(dart_at(eid_of[(ce, None)], v))
        rot[v] = circ
    for rec in h.faces or ():
        if rec.kind != "promoted":
            continue
        m = len(rec.triangles)
        for i, t in enumerate(rec.triangles):
            sides = tri_sides[t.edge_id]
            fp_next = eid_of[(rec.fprime[i], None)]
            fp_prev = eid_of[(rec.fprime[(i - 1) % m], None)]
            rot[t.w] = [
                dart_at(sides["in_second"], t.w),
                dart_at(sides["in_first"], t.w),
                dart_at(fp_prev, t.w),
                dart_at(fp_next, t.w),
            ]
    return embed_graph.build(h.num_vertices, edges, [rot[v] for v in range(h.num_vertices)])


def contract_rank3(h: Hypergraph) -> EmbeddedGraph:
    """Collapse every rank-3 edge of a colex-backed hypergraph to a single
    vertex of the contracted derived embedding."""
    if not h.rank3_ids():
        return h.source.graph
    demb = derived_embedding(h)
    # Triangle side edges were appended after rank-2 edges in order;
    # recompute their positions to contract two sides per triangle.
    n_rank2 = len(h.rank2_ids())
    to_contract = []
    for k in range(len(h.rank3_ids())):
        base = n_rank2 + 3 * k
        to_contract.extend([base, base + 1, base + 2])
    contracted, _, _ = contract_and_drop_loops(
        demb, to_contract
    )
    return contracted


def distinctness(h: Hypergraph) -> Tuple[bool, Optional[bool], Tuple[int, ...], Optional[EmbeddedGraph]]:
    """(six_valent, simplified_is_colex, sorted degrees, simplified graph or
    None) of the contracted derived embedding."""
    contracted = contract_rank3(h)
    degrees = tuple(sorted(contracted.degree(v) for v in range(contracted.num_vertices)))
    if any(d != 6 for d in degrees):
        return False, None, degrees, None
    simplified = simplify_parallel(contracted)
    is_colex = colex_mod.validate_colex(simplified) is not None
    return True, is_colex, degrees, simplified


def contract_and_drop_loops(
    g: EmbeddedGraph, edge_set: Sequence[int]
) -> Tuple[EmbeddedGraph, Dict[int, int], Dict[int, int]]:
    """Contract edges, deleting any that become loops along the way.

    Collapsing a cycle necessarily makes its last edge a loop; dropping the
    loop keeps chi unchanged.  Returns (graph, vertex map, edge map) where the
    maps send surviving old ids to new dense ids.
    """
    work = _MutableMap(g)
    pending = sorted(edge_set)
    for e in pending:
        u, v = work.edges[e]
        if u == v:
            work.delete_edge(e)
        else:
            work.contract(e)
    # The maps of ``freeze``'s relabelling: surviving ids, densely, in order.
    vmap = {v: i for i, v in enumerate(sorted(work.rot))}
    emap = {e: i for i, e in enumerate(sorted(work.edges))}
    return work.freeze(), vmap, emap


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
    contracted, _, emap = contract_and_drop_loops(g, to_contract)
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

"""3-valent hypergraphs with rank-2/rank-3 edges built from 2-colexes.

``promote`` implements the face-promotion construction: inside each chosen
face f (|f| = 0 mod 4, |f| > 4) an inner face f' with |f|/2 new vertices is
added and one alternating class of boundary edges becomes disjoint rank-3
edges (triangles).  The result satisfies H1-H4 and is properly 3-edge-colored
with every rank-3 edge colored "b" (so the fixed color -> Pauli table keeps
the commutation law exact: a rank-3 ZZZ operator must never meet a rank-2 ZZ
on a single shared qubit).

``promote`` is the one face-promotion routine: both pipeline theorems call
it, with a seed-face class map that colors each inner edge by the class of
the face beyond the kept edge it lies across, and ``from_colex`` is the
promotion of no faces.  Hyperedge ids 0..E-1 coincide with the parent
colex edge ids (promoted edges keep their id and gain a vertex); inner-face
edges are appended after.

The link table is numbered once per hypergraph: ``Hypergraph.links`` holds
one ``Link`` per rank-2 edge and per triangle side, in edge order, each with
its time step in the exclusive schedule, and ``link_ops`` their (x, z)
operators.  Decompositions index it, ``build_code`` spans the gauge group
from it and the scheduler groups it by step, so the triangle-side
convention (sides 0 and 1 are measured, side 2 is their product) lives only
here.

Face structure is read only here.  ``canonical_face_cycles`` walks a face
once and returns each canonical hypercycle together with the ordered links
that measure its cycle operator (its link decomposition); ``build_code``
stores both on the stabilizer generator, and the scheduler only checks them.

``contracted_degrees`` shrinks every rank-3 edge to a point and counts the
rank-2 edge ends per class; it needs no embedding.  The embedded contraction
the distinctness check reads is the source colex with its promoted edges
contracted (``analyzer.simplified_contraction``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import embed_graph, gf2, pauli
from .colex import COLORS, TwoColex, _backtrack_color
from .embed_graph import EmbeddedGraph
from .errors import (
    BadFaceSize,
    MalformedRotation,
    MixedColorF,
    UnclassifiedFace,
    UnknownFormat,
)


class HEdge(NamedTuple):
    vertices: Tuple[int, ...]  # sorted; length 2 or 3
    color: Optional[str]
    provenance: Tuple

    @property
    def rank(self) -> int:
        return len(self.vertices)


class Triangle(NamedTuple):
    """A promoted edge: original endpoints in boundary-walk order plus the
    new inner vertex."""

    edge_id: int
    u_first: int
    u_second: int
    w: int

    def far(self, u: int) -> int:
        """The original endpoint other than u."""
        return self.u_second if u == self.u_first else self.u_first


class FaceRec(NamedTuple):
    """Structure of one parent-colex face inside the hypergraph."""

    kind: str  # "promoted" | "plain" | "broken"
    boundary: Tuple[int, ...]  # hyperedge ids, cyclic walk order
    boundary_vertices: Tuple[int, ...]  # cyclic, vertex j starts edge j
    triangles: Tuple[Triangle, ...] = ()
    kept: Tuple[int, ...] = ()  # unpromoted boundary edges (promoted faces)
    fprime: Tuple[int, ...] = ()  # inner-face edge ids, cyclic
    new_vertices: Tuple[int, ...] = ()


class Link(NamedTuple):
    """A two-body gauge generator: a rank-2 edge (side None) or a side of a
    triangle, 0 (v0, v1), 1 (v1, v2) or 2 (v0, v2).

    ``step`` is its time step in the exclusive schedule: 0, 1, 2 for r, g,
    b, and 3 for triangle side 1, which shares v1 with side 0.  Side 2 is
    measured as the product of the other two and an uncolored link not at
    all: their step is None.  The relaxed schedule measures step 3 with
    step 2."""

    edge: int
    side: Optional[int]
    vertices: Tuple[int, int]
    color: Optional[str]
    step: Optional[int]


@dataclass(frozen=True)
class Hypergraph:
    num_vertices: int
    edges: Tuple[HEdge, ...]
    source: Optional[TwoColex] = field(default=None, compare=False)
    faces: Optional[Tuple[FaceRec, ...]] = field(default=None, compare=False)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def rank3_ids(self) -> Tuple[int, ...]:
        return self._rank3[0]

    def rank2_ids(self) -> List[int]:
        return [i for i, e in enumerate(self.edges) if e.rank == 2]

    def rank3_mask(self) -> int:
        return self._rank3[1]

    def incident_edges(self, v: int) -> Tuple[int, ...]:
        """Ids of the edges at vertex v, ascending."""
        return self._incident[v]

    def incidence_rows(self) -> Tuple[int, ...]:
        """Vertex-edge incidence matrix rows as edge bitmasks."""
        return self._incidence_rows

    # Indices derived once per (frozen, so never stale) hypergraph.
    @cached_property
    def _incidence_rows(self) -> Tuple[int, ...]:
        rows = [0] * self.num_vertices
        for i, e in enumerate(self.edges):
            for v in e.vertices:
                rows[v] |= 1 << i
        return tuple(rows)

    @cached_property
    def _rank3(self) -> Tuple[Tuple[int, ...], int]:
        ids = tuple(i for i, e in enumerate(self.edges) if e.rank == 3)
        return ids, sum(1 << i for i in ids)

    @cached_property
    def _incident(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(tuple(gf2.bits(row)) for row in self._incidence_rows)

    @cached_property
    def edge_masks(self) -> Tuple[Tuple[int, Optional[Tuple[int, int]]], ...]:
        """Per edge, its vertex bitmask and the (x, z) masks of its link
        operator, None for a rank-2 edge without a color."""
        return tuple(
            (
                sum(1 << v for v in set(e.vertices)),
                pauli.link_operator(e.vertices, e.color)
                if e.rank == 3 or e.color in pauli.LINK_PAULI
                else None,
            )
            for e in self.edges
        )

    @cached_property
    def faces_of_edge(self) -> Tuple[Tuple[int, ...], ...]:
        """Per edge, the faces whose boundary walk uses it, ascending and
        with repeats; empty without face structure."""
        out: List[List[int]] = [[] for _ in self.edges]
        for fid, rec in enumerate(self.faces or ()):
            for e in rec.boundary:
                out[e].append(fid)
        return tuple(tuple(fs) for fs in out)

    @cached_property
    def triangle_of_vertex(self) -> Mapping[int, Triangle]:
        """Read-only map from each triangle vertex to its triangle."""
        out: Dict[int, Triangle] = {}
        for rec in self.faces or ():
            for t in rec.triangles:
                out[t.u_first] = t
                out[t.u_second] = t
                out[t.w] = t
        return MappingProxyType(out)

    @cached_property
    def fprime_by_wpair(self) -> Mapping[frozenset, int]:
        """Read-only map from an inner-face edge's vertex pair to its id."""
        out: Dict[frozenset, int] = {}
        for i, e in enumerate(self.edges):
            if e.provenance and e.provenance[0] == "fprime":
                out[frozenset(e.vertices)] = i
        return MappingProxyType(out)

    @cached_property
    def links(self) -> Tuple[Link, ...]:
        """The link table, in edge order: a rank-2 edge is one link, a rank-3
        edge its sides 0, 1, 2 with consecutive ids."""
        out: List[Link] = []
        for i, e in enumerate(self.edges):
            step = COLORS.index(e.color) if e.color in COLORS else None
            if e.rank == 2:
                out.append(Link(i, None, e.vertices, e.color, step))
                continue
            v0, v1, v2 = e.vertices
            steps = (step, None if step is None else 3, None)
            for side, pair in enumerate(((v0, v1), (v1, v2), (v0, v2))):
                out.append(Link(i, side, pair, e.color, steps[side]))
        return tuple(out)

    @cached_property
    def first_link(self) -> Tuple[int, ...]:
        """Per edge, the id of its first link in ``links``."""
        first: Dict[int, int] = {}
        for i, lk in enumerate(self.links):
            first.setdefault(lk.edge, i)
        return tuple(first.values())

    @cached_property
    def _relaxed_rounds(self) -> Tuple[Optional[int], ...]:
        """Per link, its relaxed round min(step, 2); None without a step."""
        return tuple(None if lk.step is None else min(lk.step, 2) for lk in self.links)

    @cached_property
    def link_ops(self) -> Tuple[Tuple[int, int], ...]:
        """The (x, z) operator of every link; a rank-2 edge's is its
        ``edge_masks`` entry (an uncolored one raises in ``link_operator``)."""
        masks = self.edge_masks
        return tuple(
            (masks[lk.edge][1] if lk.side is None else None)
            or pauli.link_operator(lk.vertices, lk.color)
            for lk in self.links
        )

    @cached_property
    def validation(self) -> "HReport":
        """``validate_H(self)``, run once (``recolored`` makes a new one)."""
        return validate_H(self)

    def recolored(self, colors: Sequence[Optional[str]]) -> "Hypergraph":
        new_edges = tuple(
            HEdge(e.vertices, colors[i], e.provenance)
            for i, e in enumerate(self.edges)
        )
        return Hypergraph(self.num_vertices, new_edges, self.source, self.faces)


def from_colex(colex: TwoColex) -> Hypergraph:
    """View a colex as a rank-2 hypergraph, keeping its edge colors: the
    promotion of no faces."""
    return promote(colex, (), "b")


def from_graph(g: EmbeddedGraph) -> Hypergraph:
    """An uncolored rank-2 hypergraph (e.g. the Petersen negative fixture)."""
    edges = tuple(
        HEdge(tuple(sorted(g.edges[e])), None, ("graph", e))
        for e in range(g.num_edges)
    )
    return Hypergraph(g.num_vertices, edges)


def promote(
    colex: TwoColex,
    faces: Sequence[int],
    promote_color: str,
    face_class: Optional[Mapping[int, int]] = None,
) -> Hypergraph:
    """Insert inner faces and promote one alternating boundary class.

    ``promote_color`` is the colex edge color to turn into rank-3 edges; the
    triangles then border the faces of the remaining color.  ``face_class``
    maps colex faces to a seed-face class 0 or 1: the inner edge across a
    kept boundary edge is "g" when the face beyond that edge has class 0 and
    "r" otherwise (aligning the coloring with a seed-face bipartition).
    Without it, inner edges alternate starting with "g" at the lowest-id new
    vertex.

    Colors are normalized so rank-3 edges are "b", the chosen faces' color
    maps to "r" and the kept boundary class to "g".  With no faces this is
    the colex itself, colors unchanged.
    """
    g = colex.graph
    faces = sorted(set(faces))
    fcolors = {colex.face_color[f] for f in faces}
    if len(fcolors) > 1:
        raise MixedColorF(f"faces span colors {sorted(fcolors)}")
    face_color = fcolors.pop() if fcolors else None
    if face_color is not None and promote_color == face_color:
        raise MixedColorF("promoted edge class must differ from the face color")
    keep_color = None
    if face_color is not None:
        keep_color = next(c for c in COLORS if c not in (face_color, promote_color))
    # Normalized color map; identity when nothing is promoted.
    if faces:
        cmap = {promote_color: "b", face_color: "r", keep_color: "g"}
    else:
        cmap = {c: c for c in COLORS}

    def face_rec(walk: Sequence[Tuple[int, int]], kind: str, **parts) -> FaceRec:
        return FaceRec(
            kind,
            tuple(e for (e, _) in walk),
            tuple(g.dart_vertex(d) for d in walk),
            **parts,
        )

    edges = [
        HEdge(tuple(sorted(g.edges[e])), cmap[colex.edge_color[e]], ("colex", e))
        for e in range(g.num_edges)
    ]
    recs: List[Optional[FaceRec]] = [None] * g.num_faces
    next_vertex = g.num_vertices
    for f in faces:
        walk = list(g.faces[f])
        size = len(walk)
        if size % 4 != 0 or size <= 4:
            raise BadFaceSize(f"face {f} has {size} sides")
        colors = [colex.edge_color[e] for (e, _) in walk]
        if sorted(set(colors)) != sorted({promote_color, keep_color}):
            raise MixedColorF(f"face {f} boundary lacks the promoted class")
        # Rotate so a promoted edge comes first; classes must alternate.
        start = colors.index(promote_color)
        walk = walk[start:] + walk[:start]
        colors = colors[start:] + colors[:start]
        if any(c != (promote_color, keep_color)[j % 2] for j, c in enumerate(colors)):
            raise MixedColorF(f"face {f} boundary classes do not alternate")
        m = size // 2
        ws = tuple(range(next_vertex, next_vertex + m))
        next_vertex += m
        tris = []
        for i, w in enumerate(ws):
            e = walk[2 * i][0]
            uf, us = g.dart_vertex(walk[2 * i]), g.dart_vertex(walk[2 * i + 1])
            edges[e] = HEdge(tuple(sorted((uf, us, w))), "b", ("rank3", e))
            tris.append(Triangle(e, uf, us, w))
        kept = walk[1::2]
        if face_class is None:
            cols = ["g" if i % 2 == 0 else "r" for i in range(m)]
        else:
            fod = g.face_of_dart()
            beyond = [(e, fod[(e, 1 - side)]) for (e, side) in kept]
            for e, fb in beyond:
                if fb not in face_class:
                    raise UnclassifiedFace(
                        f"face {fb} beyond kept edge {e} of face {f} has no class"
                    )
            cols = ["g" if face_class[fb] == 0 else "r" for _, fb in beyond]
        if any(cols[i] == cols[(i + 1) % m] for i in range(m)):
            raise MixedColorF(f"inner edge colors of face {f} do not alternate")
        recs[f] = face_rec(
            walk,
            "promoted",
            triangles=tuple(tris),
            kept=tuple(e for (e, _) in kept),
            fprime=tuple(range(len(edges), len(edges) + m)),
            new_vertices=ws,
        )
        edges += [
            HEdge(tuple(sorted((w, ws[(i + 1) % m]))), cols[i], ("fprime", f, i))
            for i, w in enumerate(ws)
        ]
    face_recs = tuple(
        rec
        or face_rec(
            walk, "broken" if any(edges[e].rank == 3 for (e, _) in walk) else "plain"
        )
        for rec, walk in zip(recs, g.faces)
    )
    return Hypergraph(next_vertex, tuple(edges), colex, face_recs)


class ConditionReport(NamedTuple):
    ok: bool
    witness: Optional[Tuple] = None


class HReport(NamedTuple):
    h1: ConditionReport
    h2: ConditionReport
    h3: ConditionReport
    h4: ConditionReport
    coloring_proper: ConditionReport
    rank3_monochrome: ConditionReport

    @property
    def all_ok(self) -> bool:
        return self.first_failure() is None

    def first_failure(self) -> Optional[str]:
        """The first failed condition of H1-H4 with its witness, or None."""
        if not self.h1.ok:
            return f"H1 fails at edge {self.h1.witness[0]}"
        if not self.h2.ok:
            return "H2 fails at vertex {} of degree {}".format(*self.h2.witness)
        for name, cond in (("H3", self.h3), ("H4", self.h4)):
            if not cond.ok:
                return f"{name} fails at edges {cond.witness}"
        return None


def validate_H(h: Hypergraph) -> HReport:
    """Check H1-H4 with witnesses, plus the edge-coloring invariants."""
    h1 = ConditionReport(True)
    for i, e in enumerate(h.edges):
        if e.rank not in (2, 3):
            h1 = ConditionReport(False, (i,))
            break
    inc = [h.incident_edges(v) for v in range(h.num_vertices)]
    h2 = ConditionReport(True)
    for v, lst in enumerate(inc):
        if len(lst) != 3:
            h2 = ConditionReport(False, (v, len(lst)))
            break
    # Edges a < b meeting at a vertex, with the number of vertices they
    # share; each witness is the least failing pair.
    shared: Dict[Tuple[int, int], int] = {}
    for lst in inc:
        for pair in combinations(lst, 2):
            shared[pair] = shared.get(pair, 0) + 1
    w3 = min((p for p, c in shared.items() if c > 1), default=None)
    w4 = min(
        (p for p in shared if h.edges[p[0]].rank == h.edges[p[1]].rank == 3),
        default=None,
    )
    h3, h4 = ConditionReport(w3 is None, w3), ConditionReport(w4 is None, w4)
    proper = ConditionReport(True)
    for v, lst in enumerate(inc):
        cols = [h.edges[i].color for i in lst]
        if None in cols:
            proper = ConditionReport(False, (v,))
            break
        if len(set(cols)) != len(cols):
            proper = ConditionReport(False, (v,))
            break
    # Rank-3 edges must all be "b": their triangle sides are ZZ links and
    # their cycle operators ZZZ, whatever the color.  The witness is the set
    # of colors when they differ, else the first edge that is not "b".
    mono = ConditionReport(True)
    r3 = h.rank3_ids()
    r3cols = {h.edges[i].color for i in r3}
    if len(r3cols) > 1:
        mono = ConditionReport(False, tuple(sorted(r3cols, key=str)))
    elif r3cols and r3cols != {"b"}:
        mono = ConditionReport(False, (r3[0], h.edges[r3[0]].color))
    return HReport(h1, h2, h3, h4, proper, mono)


def three_edge_color(h: Hypergraph) -> Optional[Tuple[str, ...]]:
    """Proper 3-edge-coloring with all rank-3 edges colored "b"; None if
    impossible.

    Runs colex's exact backtracking colorer on the edge-adjacency sets, with
    rank-3 domains pinned to "b" and colors tried in the order "b", "g", "r".
    """
    neighbors: List[set] = [set() for _ in range(h.num_edges)]
    for v in range(h.num_vertices):
        lst = h.incident_edges(v)
        for a in lst:
            neighbors[a].update(lst)
            neighbors[a].discard(a)
    coloring = _backtrack_color(
        neighbors, [{0} if e.rank == 3 else {0, 1, 2} for e in h.edges]
    )
    if coloring is None:
        return None
    return tuple(("b", "g", "r")[c] for c in coloring)


class HypercycleSpace(NamedTuple):
    basis: Tuple[int, ...]  # edge bitmasks with even incidence everywhere
    dim: int
    incidence_rank: int


def cycle_space(h: Hypergraph) -> HypercycleSpace:
    """Nullspace of the incidence map: edge sets with even incidence at
    every vertex, from one ``gf2.relations`` sweep over its columns (the
    edges' vertex masks), so the incidence rank is read as |E| - dim."""
    basis = gf2.relations([m for m, _ in h.edge_masks])
    return HypercycleSpace(tuple(basis), len(basis), h.num_edges - len(basis))


class FaceCycle(NamedTuple):
    """A canonical hypercycle and the link decomposition of its cycle
    operator: ids into ``h.links``, grouped r, g, b (triangle sides with
    their triangle) and ascending within a group."""

    kind: str  # sigma1_fprime | sigma1_boundary | sigma2_promoted |
    #            sigma2_necklace | sigma2_bridged | loop2
    cycle: int
    links: Tuple[int, ...]


def _ordered(
    h: Hypergraph, edges: Sequence[int], sides: Sequence[Tuple[int, int]] = ()
) -> Tuple[int, ...]:
    """Link ids of the rank-2 ``edges`` and the triangle ``sides`` (rank-3
    edge, side) of one decomposition: each once, grouped r, g, b by relaxed
    round (min(step, 2)), ascending within a group.  A link without a step
    is left out, so the scheduler's product check rejects the
    decomposition."""
    first, rounds = h.first_link, h._relaxed_rounds
    ids = {first[e] for e in edges} | {first[e] + k for e, k in sides}
    keyed = sorted((rounds[i], i) for i in ids if rounds[i] is not None)
    return tuple(i for _, i in keyed)


def _side(h: Hypergraph, t: Triangle, a: int, b: int) -> List[Tuple[int, int]]:
    """The ZZ pair (a, b) of triangle t as triangle sides.  Sides 0 (v0, v1)
    and 1 (v1, v2) are links; (v0, v2) is measured as their product."""
    v0, _, v2 = h.edges[t.edge_id].vertices
    return [(t.edge_id, k) for k, v in ((0, v0), (1, v2)) if v in (a, b)]


def _mask(edges: Sequence[int]) -> int:
    sigma = 0
    for e in edges:
        sigma ^= 1 << e
    return sigma


def rank2_cycle(h: Hypergraph, kind: str, edges: Sequence[int]) -> FaceCycle:
    """The cycle of distinct rank-2 ``edges``, measured by its own links."""
    return FaceCycle(kind, _mask(edges), _ordered(h, edges))


def _other_face(h: Hypergraph, edge_id: int, fid: int) -> Optional[int]:
    faces = h.faces_of_edge[edge_id]
    for f2 in faces:
        if f2 != fid:
            return f2
    # A face may be adjacent to itself through an edge appearing twice.
    return fid if faces.count(fid) > 1 else None


def canonical_face_cycles(h: Hypergraph, fid: int) -> Tuple[FaceCycle, ...]:
    """The canonical hypercycles attached to a parent-colex face, each with
    its link decomposition; one walk of the face finds both.

    Promoted faces get the inner-face boundary and the triangle-bearing cycle
    whose pairing edges share the kept color.  A face with no rank-3 edge in
    its boundary always yields its boundary cycle; it gets a second cycle
    when either every boundary vertex carries a triangle (a necklace: the
    triangles of the surrounding promoted faces chain through it) or when it
    is joined through intact 4-gon faces to promoted faces on all sides
    (bridged).  Broken faces yield nothing.
    """
    if h.faces is None:
        raise UnclassifiedFace("hypergraph carries no face structure")
    rec = h.faces[fid]
    if rec.kind == "broken":
        return ()
    if rec.kind == "promoted":
        return _promoted_cycles(h, rec)
    # Faces across a colex edge differ in color, so no boundary repeats an
    # edge.
    first = rank2_cycle(h, "sigma1_boundary", rec.boundary)
    verts = rec.boundary_vertices
    second = None
    if len(set(verts)) == len(verts):  # self-touching faces are out of scope
        on_triangle = [v in h.triangle_of_vertex for v in verts]
        if all(on_triangle):
            second = _necklace(h, fid)
        elif not any(on_triangle):
            second = bridged_structure(h, fid)
    return (first,) if second is None else (first, second)


def _promoted_cycles(h: Hypergraph, rec: FaceRec) -> Tuple[FaceCycle, ...]:
    """The inner-face boundary, and the cycle through every triangle, the
    kept edges and the "g" inner edges.  The latter is measured by the outer
    triangle sides, the kept edges and the inner edges of the other class."""
    sides: List[Tuple[int, int]] = []
    sigma = 0
    for t in rec.triangles:
        sigma ^= 1 << t.edge_id
        sides += _side(h, t, t.u_first, t.u_second)
    links = list(rec.kept)
    sigma ^= _mask(rec.kept)
    for e in rec.fprime:
        if h.edges[e].color == "g":
            sigma ^= 1 << e
        else:
            links.append(e)
    return (
        rank2_cycle(h, "sigma1_fprime", rec.fprime),
        FaceCycle("sigma2_promoted", sigma, _ordered(h, links, sides)),
    )


def _necklace(h: Hypergraph, fid: int) -> Optional[FaceCycle]:
    """Every boundary vertex carries a triangle: chain them with the paired
    surviving edges of the broken 4-gons and one inner edge per promoted
    neighbor.  Measured by one inner side per triangle, the opposite
    survivors of the broken 4-gons, the boundary edges toward the promoted
    neighbors and the inner connectors."""
    rec = h.faces[fid]
    tov, wpair = h.triangle_of_vertex, h.fprime_by_wpair
    verts = rec.boundary_vertices
    links: List[int] = []
    sides: List[Tuple[int, int]] = []
    sigma = inner = 0
    for v in verts:
        t = tov[v]
        sigma ^= 1 << t.edge_id
        sides += _side(h, t, t.w, t.far(v))
    n = len(rec.boundary)
    for j, e in enumerate(rec.boundary):
        partner = _other_face(h, e, fid)
        if partner is None:
            return None
        prec = h.faces[partner]
        if prec.kind == "broken":
            survivors = [be for be in prec.boundary if h.edges[be].rank == 2]
            if len(survivors) != 2 or e not in survivors:
                return None
            opposite = survivors[0] if survivors[1] == e else survivors[1]
            sigma ^= (1 << e) ^ (1 << opposite)
            links.append(opposite)
        elif prec.kind == "promoted":
            key = frozenset((tov[verts[j]].w, tov[verts[(j + 1) % n]].w))
            if key not in wpair:
                return None
            inner ^= 1 << wpair[key]
            links.append(e)
        else:
            return None
    links += gf2.bits(inner)
    return FaceCycle("sigma2_necklace", sigma ^ inner, _ordered(h, links, sides))


def bridged_structure(h: Hypergraph, fid: int) -> Optional[FaceCycle]:
    """Second cycle of an unpromoted face all of whose 4-gon neighbors lead
    across to promoted faces, or None.

    Per corner: the far kept edge of the 4-gon neighbor, the two triangles
    flanking it, and the inner-face edge joining their new vertices.  Corners
    are chained by 3-edge paths (r, b, r) through the neighboring faces.
    Measured by the inner edges, one side per corner triangle (from its new
    vertex toward its chain), the chain edges, and every edge at this face's
    vertices.
    """
    rec = h.faces[fid]
    tov, wpair = h.triangle_of_vertex, h.fprime_by_wpair
    links: List[int] = []
    sides: List[Tuple[int, int]] = []
    sigma = corners = 0
    outward: set = set()
    for e in rec.boundary:
        partner = _other_face(h, e, fid)
        if partner is None:
            return None
        prec = h.faces[partner]
        if prec.kind == "promoted":
            return None
        if prec.kind == "broken":
            continue
        far = [
            be
            for be in prec.boundary
            if be != e
            and (pf := _other_face(h, be, partner)) is not None
            and h.faces[pf].kind == "promoted"
        ]
        if len(far) != 1:
            return None
        # A kept edge joins two colex vertices, each an outer corner of its
        # own triangle.
        p, q = h.edges[far[0]].vertices
        if p not in tov or q not in tov or tov[p].edge_id == tov[q].edge_id:
            return None
        ta, tb = tov[p], tov[q]
        key = frozenset((ta.w, tb.w))
        if key not in wpair:
            return None
        sigma ^= (1 << far[0]) ^ (1 << ta.edge_id) ^ (1 << tb.edge_id)
        sigma ^= 1 << wpair[key]
        links.append(wpair[key])
        for t, u in ((ta, p), (tb, q)):
            outward.add(t.far(u))
            sides += _side(h, t, t.w, t.far(u))
        corners += 1
    if not corners or len(outward) != 2 * corners:
        return None

    def unique_colored(v: int, color: str, avoid: int = -1) -> Optional[int]:
        cand = [
            i
            for i in h.incident_edges(v)
            if i != avoid and h.edges[i].rank == 2 and h.edges[i].color == color
        ]
        return cand[0] if len(cand) == 1 else None

    paths = 0
    seen: set = set()
    for o in sorted(outward):
        if o in seen:
            continue
        e, end = -1, o
        for color in "rbr":
            e = unique_colored(end, color, avoid=e)
            if e is None:
                return None
            end = next(v for v in h.edges[e].vertices if v != end)
            sigma ^= 1 << e
            links.append(e)
        if end not in outward or end in seen:
            return None
        seen.add(o)
        seen.add(end)
        paths += 1
    if paths != corners:
        return None
    # The face's boundary and the third edge at each of its vertices.
    for v in rec.boundary_vertices:
        links += h.incident_edges(v)
    return FaceCycle("sigma2_bridged", sigma, _ordered(h, links, sides))


def contracted_degrees(h: Hypergraph) -> Tuple[int, ...]:
    """Vertex degrees of the graph left when every rank-3 edge shrinks to a
    point: one union-find over the rank-3 edges, then the rank-2 edge ends
    in each class.  Classes are listed by their lowest vertex."""
    parent = list(range(h.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in h.rank3_ids():
        vs = h.edges[i].vertices
        for v in vs[1:]:
            parent[find(v)] = find(vs[0])
    degree = {find(v): 0 for v in range(h.num_vertices)}
    for e in h.edges:
        if e.rank == 2:
            for v in e.vertices:
                degree[find(v)] += 1
    return tuple(degree.values())


def bombin_hypergraph(colex: TwoColex) -> Hypergraph:
    """The subsystem-code hypergraph of the dual-expansion construction.

    One qubit per (vertex, face) incidence of the colex, one rank-3 edge per
    colex vertex, and one rank-2 edge per (edge, flanking face) pair whose
    color follows the cyclic orientation of the dual's vertex 3-coloring.
    """
    g = colex.graph
    fod = g.face_of_dart()
    faces_at = [sorted({fod[d] for d in g.rotation[v]}) for v in range(g.num_vertices)]
    corners: Dict[Tuple[int, int], int] = {}
    for v, fs in enumerate(faces_at):
        if len(fs) != 3:
            raise UnclassifiedFace(f"vertex {v} does not meet three faces")
        for f in fs:
            corners[(v, f)] = len(corners)
    edges: List[HEdge] = []
    nxt = {"r": "b", "b": "g", "g": "r"}
    for e in range(g.num_edges):
        u, v = g.edges[e]
        f0, f1 = fod[(e, 0)], fod[(e, 1)]
        for f in (f0, f1):
            c0, c1 = colex.face_color[f0], colex.face_color[f1]
            this, other = (
                (c0, c1) if f == f0 else (c1, c0)
            )
            color = "r" if nxt[this] == other else "g"
            edges.append(
                HEdge(
                    tuple(sorted((corners[(u, f)], corners[(v, f)]))),
                    color,
                    ("bombin_rank2", e, f),
                )
            )
    for v, fs in enumerate(faces_at):
        edges.append(
            HEdge(
                tuple(sorted(corners[(v, f)] for f in fs)),
                "b",
                ("bombin_rank3", v),
            )
        )
    return Hypergraph(len(corners), tuple(edges))


def to_json_dict(h: Hypergraph) -> dict:
    """JSON form; ``colors`` and ``provenance`` are keyed by position in the
    ``rank2`` list followed by the ``rank3`` list, the ids
    ``from_json_dict`` gives the edges."""
    order = [h.edges[i] for i in (*h.rank2_ids(), *h.rank3_ids())]
    return {
        "vertices": list(range(h.num_vertices)),
        "rank2": [list(e.vertices) for e in order if e.rank == 2],
        "rank3": [list(e.vertices) for e in order if e.rank == 3],
        "colors": {
            str(k): e.color for k, e in enumerate(order) if e.color is not None
        },
        "provenance": {str(k): list(e.provenance) for k, e in enumerate(order)},
    }


def from_json_dict(data: dict) -> Hypergraph:
    """Rebuild a bare hypergraph (no colex backing) from its JSON form.

    Raises UnknownFormat or MalformedRotation, naming the bad entry, unless
    every hyperedge joins distinct known vertices and every color is one of
    COLORS.
    """
    nv = len(embed_graph._json_list(data, "vertices"))
    if nv == 0:
        raise MalformedRotation("a hypergraph needs at least one vertex")
    colors = data.get("colors", {})
    if not isinstance(colors, dict):
        raise UnknownFormat("hypergraph 'colors' is not a map")
    edges: List[HEdge] = []
    for rank in (2, 3):
        for e in embed_graph._json_list(data, f"rank{rank}"):
            vs = embed_graph._json_ints(e, rank, f"rank-{rank} edge")
            if len(set(vs)) != rank or not all(0 <= v < nv for v in vs):
                raise MalformedRotation(
                    f"hyperedge {e} needs {rank} distinct vertices below {nv}"
                )
            idx = len(edges)
            color = colors.get(str(idx))
            if color is not None and color not in COLORS:
                raise MalformedRotation(f"hyperedge {idx} has color {color!r}")
            edges.append(HEdge(tuple(sorted(vs)), color, ("json", idx)))
    return Hypergraph(nv, tuple(edges))


def to_json(h: Hypergraph) -> str:
    return json.dumps(to_json_dict(h), indent=2, sort_keys=True)


DOT_COLOR = {"r": "red", "g": "green", "b": "blue", None: "black"}


def to_dot(h: Hypergraph) -> str:
    lines = ["graph hypergraph {"]
    for v in range(h.num_vertices):
        lines.append(f"  {v};")
    for i in h.rank2_ids():
        e = h.edges[i]
        u, v = e.vertices
        lines.append(
            f'  {u} -- {v} [color={DOT_COLOR[e.color]} label="e{i}"];'
        )
    for k, i in enumerate(h.rank3_ids()):
        e = h.edges[i]
        a, b, c = e.vertices
        lines.append(f"  subgraph cluster_t{k} {{")
        lines.append(f'    label="rank3 e{i}";')
        for (x, y) in ((a, b), (b, c), (a, c)):
            lines.append(f"    {x} -- {y} [color=blue style=dashed];")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)

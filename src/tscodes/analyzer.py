"""Assemble subsystem codes from hypergraphs and verify the parameter theory.

Operators are raw (x, z) int pairs; the spans G (gauge) and S (stabilizer)
are ``gf2.Basis`` objects over x | z << n, the only place that layout
appears, and L is spanned by the basis cycles' operators.  ``Pauli`` is not
used here.  G comes from the link table's operators
(``Hypergraph.link_ops``).  One walk per cycle-basis vector gives its
operator and marks the basis cycles through each edge, so G is checked to
commute with L by bilinearity over qubits, from the basis cycles whose W
anticommutes with each single-qubit Pauli on each qubit.  Once G is checked
to be C(L), the operators commuting with L, S (the center of G, whose test
oracle is ``pauli.center``) is L intersected with C(L), the radical of L:
the kernel of the Gram matrix of L's basis, which only rank-3 edges fill,
picks it out of L, and C(S) = G + L.  A colex's loop generators come from
one pruned cycle walk.  Each generator carries its cycle operator
(``Generator.op``), derived once, and the code keeps the operator of each
quotient cycle (``quotient_ops``) from the cycle-basis walk; the
stabilizer, dependency, lemma and schedule checks, the exact distance and
the simulator read them and walk no cycle again.  The pipelines run the
closed-form families and attach each closed form as ``predicted``; they do
not compare it.  Theorems 2 and 3 are one promotion routine: each builds
its colex (the blown-up seed, or the blown-up dual of the seed's medial)
and lists the faces to promote, the plain faces and the seed face each
colex face stands for; the routine classes the faces by the seed-face
2-coloring (delta = 1), promotes and builds the code.  The third family is
the dual expansion of a 2-colex.  The checks return what they find (flags
plus the first failing identity or cycle as a witness) and raise only on a
usage error, so the caller turns their verdicts into a verified flag and an
exit code.  The distinctness check reads the contracted degrees and, for a
6-valent code, the source colex with its promoted edges contracted.  The
exact distance is ell's coset search, ``gf2.min_coset_weight``, run on
doubled qubit weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import xor
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import colex as colex_mod
from . import embed_graph, gf2, hypergraph, pauli
from .colex import TwoColex
from .embed_graph import EmbeddedGraph
from .errors import (
    Degree2Seed,
    DependencyViolation,
    GaugeMismatch,
    NotThreeEdgeColorable,
    OddDegreeSeed,
    QuotientTooLarge,
    UnclassifiedFace,
)
from .hypergraph import Hypergraph, HypercycleSpace


class Generator(NamedTuple):
    gid: int
    face: Optional[int]
    kind: str  # sigma1_fprime | sigma1_boundary | sigma2_promoted |
    #            sigma2_necklace | sigma2_bridged | loop2
    cycle: int
    links: Tuple[int, ...]  # its link decomposition, see hypergraph.FaceCycle
    op: Tuple[int, int]  # its cycle operator W(cycle) as (x, z), derived once


@dataclass
class PipelineData:
    kind: str  # "theorem2" | "theorem3"
    delta: int
    promoted_faces: Tuple[int, ...]
    vface_plain: Tuple[int, ...]  # faces with one or two generators, unpromoted
    # colex face -> class of the seed face it stands for; empty when delta = 0
    class_of_face: Dict[int, int] = field(default_factory=dict)


@dataclass
class SubsystemCode:
    n: int
    k: int
    r: int
    s: int
    hypergraph: Hypergraph
    gauge: gf2.Basis  # x | z << n vectors, as are the stabilizer's
    stabilizer: gf2.Basis
    cycles: HypercycleSpace
    generators: Tuple[Generator, ...]
    trivial: gf2.Basis  # span of the generator cycles; read only
    quotient: Tuple[int, ...]  # cycle-basis vectors extending it to the cycle space
    quotient_ops: Tuple[int, ...]  # W of each quotient cycle, x | z << n
    predicted: Optional[dict] = None
    pipeline: Optional[PipelineData] = None

    @property
    def generators_complete(self) -> bool:
        """True when the generator cycles span the stabilizer."""
        return self.hypergraph.faces is not None and self.trivial.dim == self.s

    def params(self) -> Tuple[int, int, int, int]:
        return (self.n, self.k, self.r, self.s)

    @property
    def faceless(self) -> bool:
        """True when the hypergraph has no face records, so no face
        generators come with it: a bombin dual-expansion code builds none,
        and a bare hypergraph, as hypergraph JSON loads, carries none."""
        return self.hypergraph.faces is None

    @cached_property
    def _coset_listing(self) -> Tuple[int, ...]:
        """The nonzero vectors of span(quotient), listed on first use."""
        return tuple(gf2.span_vectors(self.quotient)[1:])


def _lightest_loop(
    nbrs: Sequence[Sequence[Tuple[int, int, str]]],
    starts: Sequence[Tuple[int, int, int, Dict[int, int]]],
    rows: Sequence[int],
    triv: gf2.Basis,
    rep: int,
) -> Optional[int]:
    """The lightest simple cycle in rep + span(triv) whose r -> g -> b
    grouped links pass the prefix rule, lowest edge mask first; or None.

    On XX/YY/ZZ links the rule is local: an XX link commutes with every
    earlier link, a ZZ link meets an odd X part at both qubits, and a YY
    link anticommutes with the links before it iff just one of its qubits
    carries an r cycle edge.  So a cycle passes iff the two cycle edges
    beside each g edge (its flanks) share a color.  A cycle with no g edge
    circles a face, so each cycle is walked from its lowest g edge e0 =
    (u, v), in rounds of growing length: a path is cut once its length plus
    its BFS distance to u exceeds the round; the least such sum is next.
    ``nbrs``, ``starts`` and the incidence ``rows`` do not depend on the
    coset: see ``_completion_loops``."""
    size, found = 2, []
    while size and not found:
        cut = set()
        for e0, u, v, dist in starts:
            # (vertex, color in, next edge's color, e0's flank at u, length, edges)
            stack = [(v, "g", c, c, 1, 1 << e0) for c in "rb"]
            while stack:
                x, came, need, close, steps, mask = stack.pop()
                if steps + dist[x] > size:
                    cut.add(steps + dist[x])
                    continue
                for e, y, c in nbrs[x]:
                    if need and c != need or c == "g" and e < e0:
                        continue
                    if y == u and c == close and steps + 1 == size:
                        if triv.contains(mask ^ 1 << e ^ rep):
                            found.append(mask | 1 << e)
                    elif not mask & rows[y]:
                        nxt = came if c == "g" else None
                        stack.append((y, c, nxt, close, steps + 1, mask | 1 << e))
        size = min(cut, default=0)
    return min(found, default=None)


def _completion_loops(
    h: Hypergraph, triv: gf2.Basis, cycles: Sequence[int]
) -> Iterator[hypergraph.FaceCycle]:
    """Rank-2 loops closing the face-cycle span ``triv`` of a colex with no
    rank-3 edges to the stabilizer: each missing coset's ``_lightest_loop``,
    added to ``triv`` as it is found.  A loop is a product of links: gauge.
    The walk's neighbour table and the BFS distances from each g edge's
    first vertex are built once, for every coset."""
    edges = h.edges
    nbrs = [
        [(e, sum(edges[e].vertices) - v, edges[e].color) for e in h.incident_edges(v)]
        for v in range(h.num_vertices)
    ]
    starts = []
    for e0 in (e for e, edge in enumerate(edges) if edge.color == "g"):
        u, v = edges[e0].vertices
        dist, queue = {u: 0}, [u]
        for x in queue:  # breadth first: the queue grows as it is read
            for _, y, _ in nbrs[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        starts.append((e0, u, v, dist))
    for rep in cycles:
        if not triv.contains(rep):
            cand = _lightest_loop(nbrs, starts, h.incidence_rows(), triv, rep)
            if cand is None:
                raise GaugeMismatch("no schedulable loop closes the stabilizer span")
            triv.add(cand)
            yield hypergraph.rank2_cycle(h, "loop2", gf2.bits(cand))


_ANTI = ((), (2, 3), (1, 3), (1, 2))  # per Pauli x | z << 1, those anticommuting


def _anticommuting_cycles(
    h: Hypergraph, edge_ops: Sequence[Tuple[int, int]], uses: Sequence[int]
) -> Tuple[List[int], Dict[int, int]]:
    """Per link, and per rank-3 edge for its ZZZ, the mask of basis cycles
    whose W it anticommutes with, by bilinearity over qubits: ``at[v][p]``
    XORs ``uses[e]`` (the basis cycles through edge e) over the edges e whose
    Pauli at qubit v, each qubit of e once, anticommutes with the
    single-qubit Pauli p = x | z << 1, and a link with Paulis P_a, P_b on its
    qubits a, b (its ``link_ops`` bits) reads at[a][P_a] ^ at[b][P_b]."""
    at = [[0] * 4 for _ in range(h.num_vertices)]
    for e, (ex, ez), use in zip(h.edges, edge_ops, uses):
        for v in set(e.vertices):
            for p in _ANTI[(ex >> v & 1) | (ez >> v & 1) << 1]:
                at[v][p] ^= use
    links = []
    for lk, (lx, lz) in zip(h.links, h.link_ops):
        a, b = lk.vertices
        pa, pb = lx >> a & 1 | (lz >> a & 1) << 1, lx >> b & 1 | (lz >> b & 1) << 1
        links.append(at[a][pa] ^ at[b][pb])
    zzz = {}
    for e in h.rank3_ids():
        a, b, c = h.edges[e].vertices
        zzz[e] = at[a][2] ^ at[b][2] ^ at[c][2]
    return links, zzz


def build_code(h: Hypergraph) -> SubsystemCode:
    """Gauge, stabilizer and (n, k, r, s) for a colored H1-H4 hypergraph.

    Checks that the cycle operators are independent and that the gauge span
    equals their span's centralizer (the commutation half by bilinearity,
    ``_anticommuting_cycles``), takes the stabilizer as the radical of the
    cycle-operator span and checks the over-determined parameter identities.
    Each generator gets its cycle operator ``op`` here, checked to lie in
    the stabilizer, and the cycle basis walk keeps the operator of each
    quotient cycle (``quotient_ops``).
    """
    rep = h.validation
    if not rep.all_ok:
        raise GaugeMismatch(f"hypergraph violates H1-H4: {rep.first_failure()}")
    if not rep.coloring_proper.ok or not rep.rank3_monochrome.ok:
        raise NotThreeEdgeColorable(
            "hypergraph is not properly colored; run three_edge_color first"
        )
    n = h.num_vertices
    gauge = gf2.Basis(x | z << n for x, z in h.link_ops)
    cycles = hypergraph.cycle_space(h)
    # One walk per basis cycle sigma_j: W(sigma_j), and bit j of uses[e] for
    # its edges e (basis vectors are cycles and link_ops saw every color).
    edge_ops = [op for _, op in h.edge_masks]
    uses = [0] * h.num_edges
    ops: List[int] = []
    for j, sigma in enumerate(cycles.basis):
        bit, x, z = 1 << j, 0, 0
        for e in gf2.bits(sigma):
            ex, ez = edge_ops[e]
            x ^= ex
            z ^= ez
            uses[e] |= bit
        ops.append(x | z << n)
    links, zzz = _anticommuting_cycles(h, edge_ops, uses)
    # Gram row j: the W anticommuting with W(sigma_j).  Only sigma_j's rank-3
    # edges count: the links, rank-2 edges among them, commute with every W
    # (checked below).  A relation among the W (product I) is a Gram relation.
    gram = [0] * len(ops)
    for e, anti in zzz.items():
        for j in gf2.bits(uses[e]):
            gram[j] ^= anti
    null = gf2.relations(gram)
    stab = gf2.Basis(reduce(xor, (ops[j] for j in gf2.bits(c))) for c in null)
    if stab.dim != len(null):
        raise GaugeMismatch("cycle operators are not independent")
    # Gauge group = centralizer of the cycle-operator span.
    for lk, anti in zip(h.links, links):
        if anti:
            raise GaugeMismatch(
                f"link {(lk.edge, lk.side)} anticommutes with a cycle operator"
            )
    if gauge.dim != 2 * n - len(ops):
        raise GaugeMismatch(
            f"dim gauge = {gauge.dim} != 2n - dim L = {2 * n - len(ops)}"
        )
    s = stab.dim  # G = C(L) makes the radical of L the center of G
    if (gauge.dim - s) % 2 or (len(ops) - s) % 2:
        raise GaugeMismatch("parameter identities have no integer solution")
    r = (gauge.dim - s) // 2
    k = (len(ops) - s) // 2  # dim C(gauge) = dim L here
    if n != k + r + s:
        raise GaugeMismatch(f"n = {n} != k+r+s = {k + r + s}")

    # Each generator comes with its link decomposition, from the same walk.
    found: List[Tuple[Optional[int], hypergraph.FaceCycle]] = []
    triv = gf2.Basis()
    if h.faces is not None:
        for fid in range(len(h.faces)):
            for fc in hypergraph.canonical_face_cycles(h, fid):
                found.append((fid, fc))
                triv.add(fc.cycle)
        if triv.dim < s and not h.rank3_ids():
            # Cycles of nontrivial homology are stabilizers too.
            found += [(None, fc) for fc in _completion_loops(h, triv, cycles.basis)]
    generators = [
        Generator(
            gid, fid, fc.kind, fc.cycle, fc.links, pauli.cycle_operator(h, fc.cycle)
        )
        for gid, (fid, fc) in enumerate(found)
    ]
    for g in generators:
        if not stab.contains(g.op[0] | g.op[1] << n):
            raise GaugeMismatch(f"generator {g.gid} is not a stabilizer")
    work = triv.copy()
    ext = [j for j, b in enumerate(cycles.basis) if work.add(b)]
    return SubsystemCode(
        n=n,
        k=k,
        r=r,
        s=s,
        hypergraph=h,
        gauge=gauge,
        stabilizer=stab,
        cycles=cycles,
        generators=tuple(generators),
        trivial=triv,
        quotient=tuple(cycles.basis[j] for j in ext),
        quotient_ops=tuple(ops[j] for j in ext),
    )


def _check_seed_degrees(seed: EmbeddedGraph) -> None:
    for v in range(seed.num_vertices):
        d = seed.degree(v)
        if d % 2:
            raise OddDegreeSeed(f"vertex {v} has odd degree {d}")
        if d <= 2:
            raise Degree2Seed(f"vertex {v} has degree {d} <= 2")


def _seed_face_classes(seed: EmbeddedGraph) -> Optional[Dict[int, int]]:
    """2-coloring of the seed's faces (bipartition of the dual), or None."""
    bip = embed_graph.is_bipartite(embed_graph.dual(seed))
    if bip is None:
        return None
    out = {f: 0 for f in bip[0]}
    out.update({f: 1 for f in bip[1]})
    return out


def _promotion_pipeline(
    kind: str,
    seed: EmbeddedGraph,
    cx: TwoColex,
    promoted: Sequence[int],
    plain: Sequence[int],
    promote_color: str,
    seed_face: Dict[int, int],
) -> SubsystemCode:
    """Promote the ``promoted`` faces of the colex ``cx`` built from
    ``seed`` and build the code.  ``seed_face`` maps each colex face that
    stands for a seed face to it; when the seed's dual is bipartite (delta =
    1) the faces take their seed face's class, which colors the inner edges
    and enters the dependency identities."""
    classes = _seed_face_classes(seed)
    face_class = None
    if classes is not None:
        face_class = {f: classes[sf] for f, sf in seed_face.items()}
    code = build_code(hypergraph.promote(cx, promoted, promote_color, face_class))
    code.pipeline = PipelineData(
        kind=kind,
        delta=0 if classes is None else 1,
        promoted_faces=tuple(promoted),
        vface_plain=tuple(plain),
        class_of_face=face_class or {},
    )
    return code


def theorem2_pipeline(seed: EmbeddedGraph) -> SubsystemCode:
    """Blow up the seed, promote every vertex-face with the triangles set
    into the 4-gon faces; parameters [[6e, 1+delta-chi, 4e-chi]]."""
    _check_seed_degrees(seed)
    cx = colex_mod.construct_A(seed)
    vfaces = [f for f, (kind, _) in enumerate(cx.parentage) if kind == "v"]
    seed_face = {f: sf for f, (kind, sf) in enumerate(cx.parentage) if kind == "f"}
    code = _promotion_pipeline(
        "theorem2", seed, cx, vfaces, list(seed_face), "r", seed_face
    )
    delta = code.pipeline.delta
    v, e, f, chi = seed.num_vertices, seed.num_edges, seed.num_faces, seed.chi
    code.predicted = {
        "n": 6 * e,
        "k": 1 + delta - chi,
        "r": 4 * e - chi,
        "s": 2 * v + 2 * f - 1 - delta,
        "dim_cycle_space": 2 * e + 1 + delta,
        "incidence_rank": 6 * e - 1 - delta,
    }
    return code


def theorem3_pipeline(seed: EmbeddedGraph) -> SubsystemCode:
    """Medial, dual, blow up, promote the seed-vertex side of the v-face
    bipartition with triangles away from the 4-gons; [[10e, 1-chi+delta,
    6e-chi]]."""
    _check_seed_degrees(seed)
    med, origins = embed_graph.medial_with_origin(seed)
    dstar = embed_graph.dual(med)
    if embed_graph.is_bipartite(dstar) is None:
        raise GaugeMismatch("medial dual is unexpectedly non-bipartite")
    cx = colex_mod.construct_A(dstar)
    # A v-face's parent is a medial face, a seed vertex or a seed face; a
    # 4-gon's parent is a dual edge, whose ends are two medial faces,
    # exactly one of them a seed face.
    F_v: List[int] = []
    F_f: List[int] = []
    seed_face: Dict[int, int] = {}
    for fid, (kind, parent) in enumerate(cx.parentage):
        if kind == "v":
            tag, ident = origins[parent]
            if tag == "vertex":
                F_v.append(fid)
            elif tag == "face":
                F_f.append(fid)
                seed_face[fid] = ident
        elif kind == "e":
            ends = [origins[end] for end in dstar.edges[parent]]
            sides = [ident for tag, ident in ends if tag == "face"]
            if not sides:
                raise GaugeMismatch("4-gon face with no seed-face side")
            seed_face[fid] = sides[0]
    code = _promotion_pipeline("theorem3", seed, cx, F_v, F_f, "g", seed_face)
    delta = code.pipeline.delta
    v, e, f, chi = seed.num_vertices, seed.num_edges, seed.num_faces, seed.chi
    code.predicted = {
        "n": 10 * e,
        "k": 1 - chi + delta,
        "r": 6 * e - chi,
        "s": 2 * (v + f + e) - 1 - delta,
        "dim_cycle_space": 4 * e + 1 + delta,
        "incidence_rank": 10 * e - 1 - delta,
    }
    return code


def bombin_check(cx: TwoColex) -> Tuple[int, int, int, int]:
    """Predicted parameters of the dual-expansion code of a 2-colex:
    [[3V, 2g, 2V + 2g - 2]] with s filling in n = k + r + s."""
    V = cx.graph.num_vertices
    g = embed_graph.genus(cx.graph)
    n = 3 * V
    k = 2 * g
    r = 2 * V + 2 * g - 2
    return (n, k, r, n - k - r)


def bombin_pipeline(cx: TwoColex) -> SubsystemCode:
    h = hypergraph.bombin_hypergraph(cx)
    code = build_code(h)
    n, k, r, s = bombin_check(cx)
    code.predicted = {"n": n, "k": k, "r": r, "s": s}
    return code


def colex_code(cx: TwoColex) -> SubsystemCode:
    """The rank-2 hypergraph code of a colex (no triangles)."""
    return build_code(hypergraph.from_colex(cx))


def _coset_reps(code: SubsystemCode, cap: int) -> Tuple[int, ...]:
    """The 2^{2k} - 1 nonzero quotient combinations, the one with bit i of
    its index taking quotient cycle i (the order of ``gf2.span_vectors``).
    Checked against ``cap`` on every call, listed once per code."""
    if not code.generators_complete:
        raise GaugeMismatch(
            "canonical generators do not span the stabilizer; coset "
            "enumeration needs a pipeline-built code"
        )
    q = len(code.quotient)
    if q != 2 * code.k:
        raise GaugeMismatch(f"quotient dim {q} != 2k = {2 * code.k}")
    if q > cap:
        raise QuotientTooLarge(f"quotient dimension {q} exceeds cap {cap}")
    return code._coset_listing


def distance_bound(code: SubsystemCode, coset_cap: int = 20) -> Optional[int]:
    """ell: the minimum rank-3 count over nontrivial hypercycles, None when
    there are no rank-3 edges (the bound is degenerate).  It does not bound
    the dressed distance from below: th2 and th3 on the 2x2 torus grid have
    ell = 4 and 32 weight-2 dressed logicals each.

    Each nontrivial coset representative, restricted to the rank-3 edges,
    is searched against the trivial cycle span projected the same way, by
    the exact Brouwer-Zimmermann search of ``gf2.min_coset_weight``: it
    weighs row subsets of growing size r over t disjoint information sets
    and stops once the best weight is at most t*r, the least weight a
    vector not yet seen can have.  ``coset_cap`` bounds both the quotient
    dimension and the projected span's dimension, as it did when that span
    was enumerated vector by vector."""
    h = code.hypergraph
    r3 = h.rank3_mask()
    if r3 == 0:
        return None
    reps = _coset_reps(code, coset_cap)
    proj = gf2.Basis(v & r3 for v in code.trivial.rows)
    if proj.dim > coset_cap:
        raise QuotientTooLarge(
            f"projected trivial span has dim {proj.dim} > cap {coset_cap}"
        )
    return gf2.min_coset_weight(proj, (rep & r3 for rep in reps))


class NontrivialReport(NamedTuple):
    cosets: int
    all_have_rank3: bool
    none_in_gauge: bool
    trivials_in_stabilizer: bool
    witness: Optional[str] = None  # the first failing cycle, if any flag is False


def nontrivial_cycle_checks(
    code: SubsystemCode, coset_cap: int = 20
) -> NontrivialReport:
    """Whether every nontrivial coset representative has a rank-3 edge and
    its cycle operator lies outside the gauge span, and whether trivial
    cycles land in the stabilizer (the Suchara-Bravyi-Terhal lemma).

    W is linear, so a representative's operator is the XOR of the
    ``quotient_ops`` its index picks, in ``_coset_reps``' order, and the
    trivial half reads each ``Generator.op``: the generator cycles span the
    trivial ones.  No cycle is walked."""
    r3 = code.hypergraph.rank3_mask()
    reps = _coset_reps(code, coset_cap)
    ops = gf2.span_vectors(code.quotient_ops)[1:]
    witness = None
    all_r3 = none_in_gauge = trivs_ok = True
    for rep, w in zip(reps, ops):
        if rep & r3 == 0:
            all_r3 = False
            witness = witness or f"nontrivial cycle {rep:#x} has no rank-3 edge"
        if code.gauge.contains(w):
            none_in_gauge = False
            witness = witness or f"nontrivial cycle {rep:#x} lies in the gauge"
    for g in code.generators:
        w = g.op[0] | g.op[1] << code.n
        if not (code.gauge.contains(w) and code.stabilizer.contains(w)):
            trivs_ok = False
            witness = witness or f"trivial cycle {g.cycle:#x} escapes the stabilizer"
    return NontrivialReport(len(reps), all_r3, none_in_gauge, trivs_ok, witness)


class DependencyReport(NamedTuple):
    identities: Tuple[Tuple[str, bool], ...]
    rank: int
    expected_rank: int
    witness: Optional[str] = None  # the first failing identity or count, if any

    @property
    def all_ok(self) -> bool:
        return self.witness is None


def dependency_check(code: SubsystemCode) -> DependencyReport:
    """Check the product relations among the canonical stabilizer
    generators, both as GF(2) edge-set identities and as products of their
    operators (``Generator.op``), and the count of independent generators against s and its closed form.
    An identity with a term whose face lacks that generator fails, and its
    witness names the face and the term.

    Raises DependencyViolation only on a code that is not pipeline-built or
    an unknown pipeline kind."""
    if code.pipeline is None:
        raise DependencyViolation("dependency data needs a pipeline-built code")
    pd = code.pipeline
    h = code.hypergraph
    sig = {  # (face, 1 or 2) -> its sigma1 or sigma2 generator
        (g.face, 1 if g.kind.startswith("sigma1") else 2): g
        for g in code.generators
        if g.face is not None
    }
    two_gen = {f for (f, w) in sig if (f, 2) in sig}
    one_gen = {f for (f, w) in sig if (f, 1) in sig and (f, 2) not in sig}
    idents: List[Tuple[str, bool]] = []
    failed: List[str] = []

    def verify(name: str, *groups: Tuple[Sequence[int], int]) -> None:
        """The identity that the product of sigma_which over the faces of
        every (faces, which) group is trivial; a term with no generator
        fails it."""
        terms = [(f, which) for faces, which in groups for f in faces]
        missing = [t for t in terms if t not in sig]
        if missing:
            idents.append((name, False))
            f, which = missing[0]
            failed.append(f"{name} fails: face {f} has no sigma{which} generator")
            return
        mask = x = z = 0
        for t in terms:
            mask ^= sig[t].cycle
            x ^= sig[t].op[0]
            z ^= sig[t].op[1]
        ok = mask == 0 and x == z == 0
        idents.append((name, ok))
        if not ok:
            failed.append(f"{name} fails: residue {mask:#x}")

    promoted, plain = pd.promoted_faces, pd.vface_plain
    class0 = [f for f in plain if pd.class_of_face.get(f) == 0]
    class1 = [f for f in plain if pd.class_of_face.get(f) == 1]
    if pd.kind == "theorem2":
        verify("vfaces_sigma1 == ffaces_sigma2", (promoted, 1), (plain, 2))
        if pd.delta == 1:
            verify(
                "ffaces_sigma1 * class1_sigma2 == vfaces_sigma2",
                (plain, 1), (class0, 2), (promoted, 2),
            )
            verify(
                "ffaces_sigma1 * class2_sigma2 == vfaces_sigma1_sigma2",
                (plain, 1), (class1, 2), (promoted, 1), (promoted, 2),
            )
    elif pd.kind == "theorem3":
        efaces = [f for f, (kind, _) in enumerate(h.source.parentage) if kind == "e"]
        verify(
            "Fv_sigma1 == efaces_sigma1 * Ff_sigma1_sigma2",
            (promoted, 1), (efaces, 1), (plain, 1), (plain, 2),
        )
        if pd.delta == 1:
            # The 4-gon faces pair with the opposite class of their
            # unpromoted v-face neighbor.
            e1 = [f for f in efaces if pd.class_of_face[f] == 1]
            verify(
                "Fv_sigma2 == E1_sigma1 * F1_sigma2 * F2_sigma1",
                (promoted, 2), (e1, 1), (class0, 2), (class1, 1),
            )
    else:
        raise DependencyViolation(f"unknown pipeline kind {pd.kind!r}")

    rank = code.trivial.dim
    expected = 2 * len(two_gen) + len(one_gen) - 1 - pd.delta
    if rank != code.s or code.s != expected:
        failed.append(f"independent-generator count {rank} (s={code.s}) != {expected}")
    witness = failed[0] if failed else None
    return DependencyReport(tuple(idents), rank, expected, witness)


class DistinctnessVerdict(NamedTuple):
    six_valent: bool
    witness_vertex: Optional[int]
    simplified_is_colex: Optional[bool]

    @property
    def distinct(self) -> bool:
        return not self.six_valent or not self.simplified_is_colex


def simplified_contraction(h: Hypergraph) -> EmbeddedGraph:
    """The triangles shrunk to points and parallel edges simplified, read off
    the source colex.

    The rank-3 ids are the promoted colex edges (Triangle.edge_id), a color
    class, so a matching (H4): each (u, v) splices v's rotation into u's
    where the edge sat, and v becomes u.  Every other edge keeps its ends
    through that map unless it runs parallel to a lower-id kept edge; ids
    keep their order, renumbered densely, and a loop makes ``build`` raise
    LoopEdge.  Shrinking the hypergraph's triangles would also keep each
    inner-face edge (w_i, w_{i+1}), parallel to the kept edge between
    triangles i and i+1 and above every colex id, so both routes give the
    same graph up to isomorphism.  Raises UnclassifiedFace without a source
    colex."""
    if h.source is None:
        raise UnclassifiedFace("the contraction needs the source colex's embedding")
    g = h.source.graph
    rot = [list(circ) for circ in g.rotation]
    to = list(range(g.num_vertices))
    promoted = set(h.rank3_ids())
    for e in promoted:
        u, v = g.edges[e]
        ru, rv = rot[u], rot[v]
        iu, iv = ru.index((e, 0)), rv.index((e, 1))
        rot[u] = ru[:iu] + rv[iv + 1 :] + rv[:iv] + ru[iu + 1 :]
        to[v] = u
    alive = [v for v in range(g.num_vertices) if to[v] == v]
    dense = {v: i for i, v in enumerate(alive)}
    to = [dense[w] for w in to]
    kept: Dict[Tuple[int, int], int] = {}  # sorted new ends -> lowest edge id
    for e, ends in enumerate(g.edges):
        if e not in promoted:
            kept.setdefault(tuple(sorted(to[w] for w in ends)), e)
    emap = {e: i for i, e in enumerate(kept.values())}
    edges = [(to[g.edges[e][0]], to[g.edges[e][1]]) for e in emap]
    rotation = [[(emap[e], s) for e, s in rot[v] if e in emap] for v in alive]
    return embed_graph.build(len(alive), edges, rotation)


def distinctness_check(code: SubsystemCode) -> DistinctnessVerdict:
    """Shrink the triangles; the code coincides with a dual-expansion code
    only if the result is 6-valent and simplifies to a valid 2-colex.

    The degrees come from ``hypergraph.contracted_degrees``, the simplified
    graph from ``simplified_contraction``; a 6-valent code without a source
    colex (a bombin code, or hypergraph JSON) raises UnclassifiedFace."""
    degrees = hypergraph.contracted_degrees(code.hypergraph)
    bad = [c for c, d in enumerate(degrees) if d != 6]
    if bad:
        return DistinctnessVerdict(False, bad[0], None)
    simplified = simplified_contraction(code.hypergraph)
    is_colex = colex_mod.validate_colex(simplified) is not None
    return DistinctnessVerdict(True, None, is_colex)


# The gate of exact_distance: at most this many qubits and this dimension of
# C(S).
EXACT_MAX_N = 16
EXACT_MAX_DIM = 24


def exact_distance(code: SubsystemCode) -> Optional[int]:
    """The min weight over C(S) minus the gauge span; None when the instance
    exceeds the gate, or when k = 0: then dim C(S) - dim G = 2k = 0, so
    C(S) = G and no vector lies outside the gauge.

    C(S) = G + span(``quotient_ops``), as W(trivial cycles) lies in S, so
    the quotient operators independent of G pick one vector of each
    nontrivial coset of G in C(S).  The qubit weight of x | z << n is half
    the bit count of the linear image (x, z, x ^ z), so the distance is
    half the least doubled weight over those cosets."""
    n, k = code.n, code.k
    if k == 0 or n > EXACT_MAX_N or code.gauge.dim + 2 * k > EXACT_MAX_DIM:
        return None
    low = (1 << n) - 1

    def doubled(v: int) -> int:
        return v | ((v ^ v >> n) & low) << 2 * n

    work = code.gauge.copy()
    reps = gf2.span_vectors([op for op in code.quotient_ops if work.add(op)])[1:]
    best = gf2.min_coset_weight(
        gf2.Basis(map(doubled, code.gauge.rows)), map(doubled, reps)
    )
    return None if best is None else best // 2


def code_report(
    code: SubsystemCode,
    ell: Optional[int] = None,
    checks: Optional[dict] = None,
) -> dict:
    report = {
        "n": code.n,
        "k": code.k,
        "r": code.r,
        "s": code.s,
        "dim_gauge": code.gauge.dim,
        "dim_cycle_space": code.cycles.dim,
        "incidence_rank": code.cycles.incidence_rank,
        "ell": ell,
        "predicted": code.predicted,
        "checks": checks or {},
    }
    if code.pipeline is not None:
        report["pipeline"] = code.pipeline.kind
        report["delta_dual_bipartite"] = code.pipeline.delta
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)

"""Assemble subsystem codes from hypergraphs and verify the parameter theory.

Operators are raw (x, z) int pairs; the spans G (gauge), L (cycle
operators) and the stabilizer are ``gf2.Basis`` objects over x | z << n,
the only place that layout appears.  ``Pauli`` is not used here.  G comes
from the link table's operators (``Hypergraph.link_ops``).  Once G is checked
to be the centralizer of L, the stabilizer (the center of G, whose test
oracle is ``pauli.center``) is G intersected with L, by one GF(2)
elimination.  The pipelines run the closed-form families and attach each
closed form as ``predicted``; they do not compare it.  Theorems 2 and 3 are
one promotion routine: each builds its colex (the blown-up seed, or the
blown-up dual of the seed's medial) and lists the faces to promote, the
plain faces and the seed face each colex face stands for; the routine
classes the faces by the seed-face 2-coloring (delta = 1), promotes and
builds the code.  The third family is the dual expansion of a 2-colex.
The checks return what they find (flags plus the first failing identity or
cycle as a witness) and raise only on a usage error, so the caller turns
their verdicts into a verified flag and an exit code.  The distinctness
check reads the contracted degrees and, for a 6-valent code, the source
colex with its promoted edges contracted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class Generator:
    gid: int
    face: Optional[int]
    kind: str  # sigma1_fprime | sigma1_boundary | sigma2_promoted |
    #            sigma2_necklace | sigma2_bridged | loop2
    cycle: int
    links: Tuple[int, ...]  # its link decomposition, see hypergraph.FaceCycle


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


def _cycle_vec(h: Hypergraph, sigma: int) -> int:
    """W(sigma) in the x | z << n layout of the gauge and stabilizer spans."""
    x, z = pauli.cycle_operator(h, sigma)
    return x | z << h.num_vertices


def _completion_loops(
    h: Hypergraph,
    triv: gf2.Basis,
    cycles: Sequence[int],
    gauge: gf2.Basis,
    span_cap: int = 18,
) -> List[hypergraph.FaceCycle]:
    """Rank-2 loop generators completing the face-cycle span.

    Searches each missing coset for a minimum-weight representative whose
    r -> g -> b grouped links satisfy the prefix rule, so the loop can join
    the measurement schedule.  Used for colexes whose stabilizer includes
    cycles of nontrivial homology (no promoted faces)."""
    out: List[hypergraph.FaceCycle] = []
    work = triv.copy()
    missing = [b for b in cycles if work.add(b)]
    if not missing:
        return out
    r3 = h.rank3_mask()
    for rep in missing:
        if triv.contains(rep):
            continue
        if triv.dim > span_cap:
            raise QuotientTooLarge("face-cycle span too large for loop search")
        span = gf2.span_vectors(triv.rows)
        cands = sorted(
            (rep ^ x for x in span), key=lambda m: (m.bit_count(), m)
        )
        chosen = None
        for cand in cands:
            if cand == 0 or cand & r3:
                continue
            if not gauge.contains(_cycle_vec(h, cand)):
                continue
            loop = hypergraph.rank2_cycle(h, "loop2", gf2.bits(cand))
            if pauli.first_bad_prefix([h.link_ops[i] for i in loop.links]) is None:
                chosen = loop
                break
        if chosen is None:
            raise GaugeMismatch("no schedulable loop closes the stabilizer span")
        out.append(chosen)
        triv.add(chosen.cycle)
    return out


def build_code(h: Hypergraph) -> SubsystemCode:
    """Gauge, stabilizer and (n, k, r, s) for a colored H1-H4 hypergraph.

    Checks that the gauge span equals the centralizer of the cycle-operator
    span, takes the stabilizer as their intersection and checks the
    over-determined parameter identities.
    """
    rep = hypergraph.validate_H(h)
    if not rep.all_ok:
        raise GaugeMismatch(f"hypergraph violates H1-H4: {rep.first_failure()}")
    if not rep.coloring_proper.ok or not rep.rank3_monochrome.ok:
        raise NotThreeEdgeColorable(
            "hypergraph is not properly colored; run three_edge_color first"
        )
    n = h.num_vertices
    gauge = gf2.Basis(x | z << n for x, z in h.link_ops)
    cycles = hypergraph.cycle_space(h)
    ws = [pauli.cycle_operator(h, sigma) for sigma in cycles.basis]
    lspan = gf2.Basis(x | z << n for x, z in ws)
    if lspan.dim != cycles.dim:
        raise GaugeMismatch("cycle operators are not independent")
    # Gauge group = centralizer of the cycle-operator span.
    for lk, mask in zip(h.links, pauli.anticommuting_masks(h.link_ops, ws)):
        if mask:
            raise GaugeMismatch(
                f"link {(lk.edge, lk.side)} anticommutes with a cycle operator"
            )
    if gauge.dim != 2 * n - lspan.dim:
        raise GaugeMismatch(
            f"dim gauge = {gauge.dim} != 2n - dim L = {2 * n - lspan.dim}"
        )
    # G = C(L) makes C(G) = L, so the center of G is G intersected with L.
    stab = gf2.Basis(gf2.intersection(gauge, lspan.rows))
    s = stab.dim
    if (gauge.dim - s) % 2 or (lspan.dim - s) % 2:
        raise GaugeMismatch("parameter identities have no integer solution")
    r = (gauge.dim - s) // 2
    k = (lspan.dim - s) // 2  # dim C(gauge) = dim L here
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
            # Cycles of nontrivial homology are stabilizers too; look for
            # schedulable loop representatives.
            for fc in _completion_loops(h, triv, cycles.basis, gauge):
                found.append((None, fc))
    generators = [
        Generator(gid, fid, fc.kind, fc.cycle, fc.links)
        for gid, (fid, fc) in enumerate(found)
    ]
    for g in generators:
        if not stab.contains(_cycle_vec(h, g.cycle)):
            raise GaugeMismatch(f"generator {g.gid} is not a stabilizer")
    work = triv.copy()
    quotient = tuple(b for b in cycles.basis if work.add(b))
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
        quotient=quotient,
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


@dataclass(frozen=True)
class DistanceBound:
    ell: Optional[int]  # None when no rank-3 edges exist (bound degenerate)
    applicable: bool

    def to_json(self) -> Optional[int]:
        return self.ell if self.applicable else None


def _coset_reps(code: SubsystemCode, cap: int) -> List[int]:
    if not code.generators_complete:
        raise GaugeMismatch(
            "canonical generators do not span the stabilizer; coset "
            "enumeration needs a pipeline-built code"
        )
    ext = code.quotient
    q = len(ext)
    if q != 2 * code.k:
        raise GaugeMismatch(f"quotient dim {q} != 2k = {2 * code.k}")
    if q > cap:
        raise QuotientTooLarge(f"quotient dimension {q} exceeds cap {cap}")
    reps = []
    for combo in range(1, 1 << q):
        v = 0
        for i in range(q):
            if (combo >> i) & 1:
                v ^= ext[i]
        reps.append(v)
    return reps


def distance_bound(code: SubsystemCode, coset_cap: int = 20) -> DistanceBound:
    """ell: the minimum rank-3 count over nontrivial hypercycles.

    Each nontrivial coset representative, restricted to the rank-3 edges,
    is searched against the trivial cycle span projected the same way, by
    the exact information-set search of ``gf2.min_coset_weight``.
    ``coset_cap`` bounds both the quotient dimension and the projected
    span's dimension, as it did when that span was enumerated vector by
    vector."""
    h = code.hypergraph
    r3 = h.rank3_mask()
    if r3 == 0:
        return DistanceBound(None, False)
    reps = _coset_reps(code, coset_cap)
    proj = gf2.Basis(v & r3 for v in code.trivial.rows)
    if proj.dim > coset_cap:
        raise QuotientTooLarge(
            f"projected trivial span has dim {proj.dim} > cap {coset_cap}"
        )
    return DistanceBound(gf2.min_coset_weight(proj, (rep & r3 for rep in reps)), True)


@dataclass(frozen=True)
class NontrivialReport:
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
    cycles land in the stabilizer (the Suchara-Bravyi-Terhal lemma)."""
    h = code.hypergraph
    r3 = h.rank3_mask()
    reps = _coset_reps(code, coset_cap)
    witness = None
    all_r3 = none_in_gauge = trivs_ok = True
    for rep in reps:
        if rep & r3 == 0:
            all_r3 = False
            witness = witness or f"nontrivial cycle {rep:#x} has no rank-3 edge"
        if code.gauge.contains(_cycle_vec(h, rep)):
            none_in_gauge = False
            witness = witness or f"nontrivial cycle {rep:#x} lies in the gauge"
    for sigma in code.trivial.rows:
        w = _cycle_vec(h, sigma)
        if not (code.gauge.contains(w) and code.stabilizer.contains(w)):
            trivs_ok = False
            witness = witness or f"trivial cycle {sigma:#x} escapes the stabilizer"
    return NontrivialReport(len(reps), all_r3, none_in_gauge, trivs_ok, witness)


def _face_sigmas(code: SubsystemCode) -> Dict[Tuple[int, int], int]:
    out: Dict[Tuple[int, int], int] = {}
    for g in code.generators:
        if g.face is None:
            continue
        which = 1 if g.kind.startswith("sigma1") else 2
        out[(g.face, which)] = g.cycle
    return out


@dataclass(frozen=True)
class DependencyReport:
    identities: Tuple[Tuple[str, bool], ...]
    rank: int
    expected_rank: int
    witness: Optional[str] = None  # the first failing identity or count, if any

    @property
    def all_ok(self) -> bool:
        return self.witness is None


def dependency_check(code: SubsystemCode) -> DependencyReport:
    """Check the product relations among the canonical stabilizer
    generators, both as GF(2) edge-set identities and as Pauli products,
    and the count of independent generators against s and its closed form.
    An identity with a term whose face lacks that generator fails, and its
    witness names the face and the term.

    Raises DependencyViolation only on a code that is not pipeline-built or
    an unknown pipeline kind."""
    if code.pipeline is None:
        raise DependencyViolation("dependency data needs a pipeline-built code")
    pd = code.pipeline
    h = code.hypergraph
    sig = _face_sigmas(code)
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
            mask ^= sig[t]
            wx, wz = pauli.cycle_operator(h, sig[t])
            x ^= wx
            z ^= wz
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


@dataclass(frozen=True)
class DistinctnessVerdict:
    six_valent: bool
    witness_vertex: Optional[int]
    simplified_is_colex: Optional[bool]

    @property
    def distinct(self) -> bool:
        return not self.six_valent or not self.simplified_is_colex


def simplified_contraction(h: Hypergraph) -> EmbeddedGraph:
    """The triangles shrunk to points and parallel edges simplified, read off
    the source colex: its promoted edges contracted, then simplified.

    Shrinking the hypergraph's triangles would also keep the inner-face
    edges.  Each (w_i, w_{i+1}) runs parallel to the kept edge between
    contracted triangles i and i+1, and its id is above every colex id, so
    simplify_parallel drops exactly those edges and each promoted face
    closes to the same m-gon: both routes give the same graph up to
    isomorphism.  Raises UnclassifiedFace without a source colex."""
    if h.source is None:
        raise UnclassifiedFace("the contraction needs the source colex's embedding")
    # Rank-3 ids are the promoted colex edges (Triangle.edge_id), a matching
    # by H4, so contracting them makes no loop.
    contracted = embed_graph.contract_edges(h.source.graph, h.rank3_ids())
    return embed_graph.simplify_parallel(contracted)


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


def exact_distance(code: SubsystemCode, max_n: int = 16, max_dim: int = 24) -> Optional[int]:
    """Brute-force min weight over C(S) minus the gauge span; None when the
    instance exceeds the enumeration gate, or when k = 0: then dim C(S) -
    dim G = 2k = 0, so C(S) = G and no vector lies outside the gauge."""
    if code.k == 0 or code.n > max_n:
        return None
    n = code.n
    cs = pauli.centralizer(code.stabilizer, n)
    if cs.dim > max_dim:
        return None
    best = None
    low = (1 << n) - 1
    for v in gf2.span_vectors(cs.rows):
        if v == 0 or code.gauge.contains(v):
            continue
        w = ((v | v >> n) & low).bit_count()
        best = w if best is None else min(best, w)
    return best


def code_report(
    code: SubsystemCode,
    ell: Optional[DistanceBound] = None,
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
        "ell": ell.to_json() if ell is not None else None,
        "predicted": code.predicted,
        "checks": checks or {},
    }
    if code.pipeline is not None:
        report["pipeline"] = code.pipeline.kind
        report["delta_dual_bipartite"] = code.pipeline.delta
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)

import dataclasses
import time

import pytest
from hypothesis import given, settings, strategies as st

import reference_contraction
import reference_distance
import reference_gf2
import reference_loops
import reference_pauli
from tscodes import analyzer, colex, embed_graph as eg, gf2, hypergraph as hg, lattices, pauli
from tscodes.errors import (
    Degree2Seed,
    GaugeMismatch,
    OddDegreeSeed,
    QuotientTooLarge,
    UnclassifiedFace,
)


def test_theorem2_parameters(th2_22, th2_33):
    assert th2_22.params() == (48, 2, 32, 14)
    assert th2_33.params() == (108, 1, 72, 35)


def test_theorem3_parameters(th3_22, th3_33):
    assert th3_22.params() == (80, 2, 48, 30)
    assert th3_33.params() == (180, 1, 108, 71)
    assert th3_22.cycles.dim == 34
    assert th3_22.cycles.incidence_rank == 78


def test_parameter_identities(pipeline_codes, honeycomb_code):
    codes = dict(pipeline_codes)
    codes["honeycomb"] = honeycomb_code
    for code in codes.values():
        assert code.n == code.k + code.r + code.s
        assert code.gauge.dim == 2 * code.r + code.s
        # C(gauge) is the cycle-operator span for these codes.
        assert code.cycles.dim == 2 * code.k + code.s
        assert code.stabilizer.dim == code.s


def _faceless_code(num_vertices, pairs):
    """build_code on a bare rank-2 hypergraph, 3-edge-colored first, as the
    ``custom`` pipeline colors an uncolored input."""
    h = hg.Hypergraph(
        num_vertices, tuple(hg.HEdge(p, None, ("test", i)) for i, p in enumerate(pairs))
    )
    return analyzer.build_code(h.recolored(hg.three_edge_color(h)))


K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
PRISM = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]


def test_stabilizer_equals_center_oracle(pipeline_codes, honeycomb_code, honeycomb33_colex):
    # build_code reads the stabilizer off the Gram kernel of the cycle
    # operators; the gauge span's Gram radical (pauli.center) and the
    # Zassenhaus intersection of the gauge and cycle-operator spans
    # (reference_gf2.intersection) must give the same reduced basis.
    codes = dict(pipeline_codes)
    tri, grid44 = lattices.triangular_torus(2, 2), lattices.torus_grid(4, 4)
    codes["th2_tri22"] = analyzer.theorem2_pipeline(tri)
    codes["th3_tri22"] = analyzer.theorem3_pipeline(tri)
    codes["th2_44"] = analyzer.theorem2_pipeline(grid44)
    codes["th3_44"] = analyzer.theorem3_pipeline(grid44)
    codes["bombin_hc33"] = analyzer.bombin_pipeline(honeycomb33_colex)
    codes["bombin_hc66"] = analyzer.bombin_pipeline(
        colex.validate_colex(lattices.honeycomb_torus(6, 6))
    )
    codes["colex_hc33"] = honeycomb_code
    codes["custom_k4"] = _faceless_code(4, K4)
    codes["custom_prism"] = _faceless_code(6, PRISM)
    for name, code in codes.items():
        h, want = code.hypergraph, sorted(code.stabilizer.rows)
        assert sorted(pauli.center(code.gauge, code.n).rows) == want, name
        ops = [pauli.cycle_operator(h, sigma) for sigma in code.cycles.basis]
        lspan = [x | z << code.n for x, z in ops]
        common = reference_gf2.intersection(reference_gf2.Basis(code.gauge.rows), lspan)
        assert sorted(common) == want, name
        if name.startswith("custom"):
            # No rank-3 edge: the Gram matrix is zero and S is all of L.
            assert not h.rank3_ids() and code.k == 0, name
            assert code.s == code.cycles.dim == len(want), name


def test_gauge_is_centralizer_of_cycles(th2_22):
    n = th2_22.n
    cent = reference_pauli.centralizer(th2_22.gauge, n)
    # dim C(G) = 2k + s, and every cycle operator lands inside it.
    assert cent.dim == 2 * th2_22.k + th2_22.s
    for sigma in th2_22.cycles.basis:
        w = pauli.Pauli(n, *pauli.cycle_operator(th2_22.hypergraph, sigma))
        assert cent.contains(w.vec())


def test_generators_carry_their_cycle_operator(
    pipeline_codes, tri22_codes, honeycomb_code
):
    codes = {**pipeline_codes, **tri22_codes, "colex_hc33": honeycomb_code}
    for name, code in codes.items():
        assert code.generators, name
        for g in code.generators:
            assert g.op == pauli.cycle_operator(code.hypergraph, g.cycle), (name, g.gid)


WITNESS_CODES = ["th2_22", "th3_33", "th2_tri22"]


def _positions(h):
    """Link ids spread over the table, the first rank-2 link and all three
    sides of the first triangle."""
    last = len(h.links) - 1
    tri, rank2 = h.first_link[h.rank3_ids()[0]], h.first_link[h.rank2_ids()[0]]
    spread = {0, last // 3, last // 2, 2 * last // 3, last}
    return sorted(spread | {rank2, tri, tri + 1, tri + 2})


def _replacements(h, i):
    """Operators on link i's two qubits other than its own: the identity,
    X, Y and Z on either qubit, and XX, YY and ZZ."""
    a, b = (1 << v for v in h.links[i].vertices)
    ops = [(0, 0)]
    for q in (a, b, a | b):
        ops += [(q, 0), (q, q), (0, q)]
    return [op for op in ops if op != h.link_ops[i]]


def _with_link_ops(h, changes):
    """A fresh copy of h (no cached index) whose link table operators are
    h's with the entries in ``changes`` (link id -> (x, z)) replaced."""
    ops = list(h.link_ops)
    for i, op in changes.items():
        ops[i] = op
    fresh = dataclasses.replace(h)
    fresh.__dict__["link_ops"] = tuple(ops)
    return fresh, ops


@pytest.mark.parametrize("name", WITNESS_CODES)
def test_commutation_check_names_the_first_flagged_link(
    name, pipeline_codes, tri22_codes
):
    """One or two link operators replaced: build_code names the first link
    that anticommutes with the cycle operator of some basis cycle, by the
    pairwise oracle.  When the oracle flags none, the gauge lies in C(L), so
    it is C(L) iff its dimension is 2n - dim L: then the code builds with
    the unchanged parameters and stabilizer, which is read off L, and
    otherwise the dimension check names the shortfall."""
    code = {**pipeline_codes, **tri22_codes}[name]
    h, n = code.hypergraph, code.n
    ws = [pauli.cycle_operator(h, sigma) for sigma in code.cycles.basis]
    stab = sorted(code.stabilizer.rows)
    positions = _positions(h)
    cases = [{i: op} for i in positions for op in _replacements(h, i)]
    for i, j in zip(positions, positions[1:]):
        ri, rj = _replacements(h, i), _replacements(h, j)
        cases += [{i: ri[0], j: rj[1]}, {i: ri[2], j: rj[3]}]
    flagged = unflagged = 0
    for changes in cases:
        fresh, ops = _with_link_ops(h, changes)
        masks = reference_pauli.anticommuting_masks(ops, ws)
        first = next((k for k, mask in enumerate(masks) if mask), None)
        if first is None:
            gauge_dim = gf2.Basis(x | z << n for x, z in ops).dim
            unflagged += 1
            if gauge_dim == code.gauge.dim:
                built = analyzer.build_code(fresh)
                assert built.params() == code.params(), changes
                assert sorted(built.stabilizer.rows) == stab, changes
                continue
            with pytest.raises(GaugeMismatch) as exc:
                analyzer.build_code(fresh)
            want = f"dim gauge = {gauge_dim} != 2n - dim L = {2 * n - len(ws)}"
            assert str(exc.value) == want, changes
            continue
        flagged += 1
        lk = h.links[first]
        with pytest.raises(GaugeMismatch) as exc:
            analyzer.build_code(fresh)
        want = f"link {(lk.edge, lk.side)} anticommutes with a cycle operator"
        assert str(exc.value) == want, changes
    assert flagged and unflagged


@pytest.mark.parametrize("name", WITNESS_CODES)
def test_anticommuting_cycles_match_the_pairwise_oracle(
    name, pipeline_codes, tri22_codes
):
    """The masks read by bilinearity equal the pairwise oracle's over the
    dense cycle operators: per link, with one link operator replaced at a
    time, and per rank-3 edge for its ZZZ, which no replacement touches."""
    code = {**pipeline_codes, **tri22_codes}[name]
    h, basis = code.hypergraph, code.cycles.basis
    ws = [pauli.cycle_operator(h, sigma) for sigma in basis]
    uses = [
        sum(1 << j for j, sigma in enumerate(basis) if sigma >> e & 1)
        for e in range(h.num_edges)
    ]
    edge_ops = [op for _, op in h.edge_masks]
    rank3 = h.rank3_ids()
    zzz_ops = [(0, sum(1 << v for v in h.edges[e].vertices)) for e in rank3]
    want_zzz = dict(zip(rank3, reference_pauli.anticommuting_masks(zzz_ops, ws)))
    assert rank3 and any(want_zzz.values())
    for i in _positions(h):
        for op in _replacements(h, i):
            fresh, ops = _with_link_ops(h, {i: op})
            links, zzz = analyzer._anticommuting_cycles(fresh, edge_ops, uses)
            assert links == reference_pauli.anticommuting_masks(ops, ws), (i, op)
            assert zzz == want_zzz, (i, op)


def test_ell_does_not_bound_the_dressed_distance(th2_22):
    """ell counts rank-3 edges of nontrivial hypercycles and is no lower
    bound on the dressed distance: on th2 2x2, X0 X9 (x | z << n with no z
    part) commutes with S and lies outside G at weight 2, while ell = 4."""
    code, x0x9 = th2_22, 1 << 0 | 1 << 9
    for row in code.stabilizer.rows:
        assert (x0x9 & row >> code.n).bit_count() % 2 == 0
    assert not code.gauge.contains(x0x9)
    assert analyzer.distance_bound(code, 20) == 4


def test_odd_degree_seed_rejected():
    with pytest.raises(OddDegreeSeed):
        analyzer.theorem2_pipeline(lattices.theta_graph())
    with pytest.raises(OddDegreeSeed):
        analyzer.theorem3_pipeline(lattices.honeycomb_torus(3, 3))


def test_degree2_seed_rejected():
    # A 4-cycle on the sphere: connected, all degrees exactly two.
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    rot = [
        [(0, 0), (3, 1)],
        [(0, 1), (1, 0)],
        [(1, 1), (2, 0)],
        [(2, 1), (3, 0)],
    ]
    ring = eg.build(4, edges, rot)
    with pytest.raises(Degree2Seed):
        analyzer.theorem2_pipeline(ring)


def test_degree6_seed_pipelines(predicted):
    tri = lattices.triangular_torus(2, 2)
    v, e, f = tri.num_vertices, tri.num_edges, tri.num_faces
    code2 = predicted(analyzer.theorem2_pipeline(tri))
    assert code2.params() == (6 * e, 2, 4 * e, 2 * v + 2 * f - 2)
    code3 = predicted(analyzer.theorem3_pipeline(tri))
    assert code3.params() == (10 * e, 2, 6 * e, 2 * (v + f + e) - 2)
    for code in (code2, code3):
        dep = analyzer.dependency_check(code)
        assert dep.all_ok


def test_bombin_check_formulas(honeycomb33_colex):
    assert analyzer.bombin_check(honeycomb33_colex) == (54, 2, 36, 16)
    sphere = colex.construct_A(lattices.theta_graph())
    n, k, r, s = analyzer.bombin_check(sphere)
    assert k == 0  # genus 0
    torus = colex.construct_A(lattices.torus_grid(2, 2))
    assert analyzer.bombin_check(torus)[1] == 2  # genus 1


def test_bombin_pipeline_matches_formula(honeycomb33_colex):
    code = analyzer.bombin_pipeline(honeycomb33_colex)
    assert code.params() == (54, 2, 36, 16)


def test_honeycomb_colex_code(honeycomb_code):
    # All cycles are stabilizers: nothing is protected, everything is gauge
    # or syndrome.
    assert honeycomb_code.k == 0
    assert honeycomb_code.s == honeycomb_code.cycles.dim
    kinds = {g.kind for g in honeycomb_code.generators}
    assert kinds == {"sigma1_boundary", "loop2"}


def test_dependencies_theorem2(th2_22, th2_33):
    dep = analyzer.dependency_check(th2_22)
    names = [name for name, ok in dep.identities]
    assert all(ok for _, ok in dep.identities)
    assert len(names) == 3  # bipartite dual: both extra relations hold
    dep33 = analyzer.dependency_check(th2_33)
    assert len(dep33.identities) == 1  # non-bipartite dual: only the first
    assert dep33.all_ok


def test_dependencies_theorem3(th3_22, th3_33):
    dep = analyzer.dependency_check(th3_22)
    assert all(ok for _, ok in dep.identities)
    assert len(dep.identities) == 2
    dep33 = analyzer.dependency_check(th3_33)
    assert len(dep33.identities) == 1
    assert dep33.all_ok


def test_dependency_missing_term_fails_its_identity(grid22, monkeypatch):
    """A face generator lost from the walk fails the identities that need it,
    with a witness naming the term, while the rest still span the
    stabilizer."""
    real = hg.canonical_face_cycles
    monkeypatch.setattr(
        hg, "canonical_face_cycles",
        lambda h, fid: real(h, fid)[:1] if fid == 4 else real(h, fid),
    )
    code = analyzer.theorem2_pipeline(grid22)
    assert code.generators_complete and len(code.generators) == 15
    dep = analyzer.dependency_check(code)
    assert [ok for _, ok in dep.identities] == [True, False, False]
    assert dep.witness == (
        "ffaces_sigma1 * class1_sigma2 == vfaces_sigma2 fails: "
        "face 4 has no sigma2 generator"
    )


def test_dependency_count_matches_s(pipeline_codes):
    for code in pipeline_codes.values():
        dep = analyzer.dependency_check(code)
        assert dep.rank == dep.expected_rank == code.s


def brute_force_ell(code):
    """Independent oracle: enumerate the whole cycle space."""
    h = code.hypergraph
    triv = code.trivial
    r3 = h.rank3_mask()
    best = None
    basis = code.cycles.basis
    for combo in range(1, 1 << len(basis)):
        v = 0
        c, i = combo, 0
        while c:
            if c & 1:
                v ^= basis[i]
            c >>= 1
            i += 1
        if not triv.contains(v):
            w = (v & r3).bit_count()
            best = w if best is None else min(best, w)
    return best


def test_distance_bound_matches_brute_force(th2_22):
    ell = analyzer.distance_bound(th2_22)
    assert ell is not None
    assert 1 <= ell <= 16
    assert ell == brute_force_ell(th2_22) == 4


def test_distance_bound_values(pipeline_codes):
    assert analyzer.distance_bound(pipeline_codes["th2_22"]) == 4
    assert analyzer.distance_bound(pipeline_codes["th3_22"]) == 4
    assert analyzer.distance_bound(pipeline_codes["th2_33"]) == 6
    assert analyzer.distance_bound(pipeline_codes["th3_33"]) == 6


def test_distance_bound_not_applicable_without_rank3(honeycomb_code):
    assert analyzer.distance_bound(honeycomb_code) is None


def test_distance_bound_coset_invariance(th2_22):
    # ell does not change when a trivial cycle is XORed onto a
    # representative: recompute with shuffled representatives.
    h = th2_22.hypergraph
    r3 = h.rank3_mask()
    triv = th2_22.trivial
    reps = analyzer._coset_reps(th2_22, 20)
    span = gf2.span_vectors(gf2.Basis(v & r3 for v in triv.rows).rows)
    tweak = triv.rows[0]
    for rep in reps[:5]:
        m1 = min(((rep & r3) ^ x).bit_count() for x in span)
        m2 = min((((rep ^ tweak) & r3) ^ x).bit_count() for x in span)
        assert m1 == m2


@pytest.mark.parametrize(
    "name", ["th2_22", "th2_33", "th3_22", "th3_33", "th2_tri22", "th3_tri22"]
)
def test_distance_bound_matches_enumeration_oracle(
    pipeline_codes, tri22_codes, name
):
    code = {**pipeline_codes, **tri22_codes}[name]
    assert analyzer.distance_bound(code) == reference_distance.distance_bound(code)


def test_quotient_cap(th2_22):
    with pytest.raises(QuotientTooLarge):
        analyzer.distance_bound(th2_22, coset_cap=1)


def test_nontrivial_cycle_checks(pipeline_codes):
    for code in pipeline_codes.values():
        rep = analyzer.nontrivial_cycle_checks(code)
        assert rep.cosets == (1 << 2 * code.k) - 1
        assert rep.all_have_rank3
        assert rep.none_in_gauge
        assert rep.trivials_in_stabilizer


@pytest.fixture(scope="module")
def quotient_codes(pipeline_codes, tri22_codes, honeycomb_code, honeycomb33_colex):
    return {
        **pipeline_codes,
        "th3_tri22": tri22_codes["th3_tri22"],
        "colex_hc33": honeycomb_code,
        "bombin_hc33": analyzer.bombin_pipeline(honeycomb33_colex),
    }


def _walked(code, sigma):
    x, z = pauli.cycle_operator(code.hypergraph, sigma)
    return x | z << code.n


def test_quotient_ops_are_the_walked_operators(quotient_codes):
    """build_code keeps W of each quotient cycle from its cycle-basis walk,
    and the lemma's coset operators, XORs of them, are the walked W of each
    coset representative, in the same order."""
    for name, code in quotient_codes.items():
        want = [_walked(code, q) for q in code.quotient]
        assert list(code.quotient_ops) == want, name
        if code.generators_complete:
            reps = analyzer._coset_reps(code, 20)
            ops = gf2.span_vectors(code.quotient_ops)[1:]
            assert ops == [_walked(code, rep) for rep in reps], name


def test_gauge_and_quotient_ops_span_the_centralizer_of_s(quotient_codes):
    """C(S) = G + L, read off the gauge rows and the quotient operators,
    is the symplectic kernel of the stabilizer."""
    for name, code in quotient_codes.items():
        got = gf2.Basis([*code.gauge.rows, *code.quotient_ops])
        want = reference_pauli.centralizer(code.stabilizer, code.n)
        assert sorted(got.rows) == sorted(want.rows), name


def test_post_build_checks_walk_no_cycle(quotient_codes, monkeypatch):
    """Once built, the lemma and the exact distance read the code's spans
    and operators: no cycle operator is walked and no kernel or column
    sweep is taken."""
    small = _repetition_code()

    def refuse(*args):
        raise AssertionError("a post-build check walked a cycle or took a kernel")

    monkeypatch.setattr(pauli, "cycle_operator", refuse)
    monkeypatch.setattr(gf2, "relations", refuse)
    for name, code in quotient_codes.items():
        if code.k and code.generators_complete:
            rep = analyzer.nontrivial_cycle_checks(code)
            assert rep.witness is None and rep.cosets == (1 << 2 * code.k) - 1, name
        assert analyzer.exact_distance(code) is None, name
    assert analyzer.exact_distance(small) == 1


def test_lemma_witness_names_the_escaping_generator(th2_22):
    code = dataclasses.replace(th2_22, stabilizer=gf2.Basis())
    rep = analyzer.nontrivial_cycle_checks(code)
    assert not rep.trivials_in_stabilizer
    first = code.generators[0].cycle
    assert rep.witness == f"trivial cycle {first:#x} escapes the stabilizer"


def test_distinctness_matrix(pipeline_codes):
    v = analyzer.distinctness_check(pipeline_codes["th2_22"])
    assert v.six_valent and v.simplified_is_colex and not v.distinct
    v = analyzer.distinctness_check(pipeline_codes["th2_33"])
    assert v.six_valent and not v.simplified_is_colex and v.distinct
    for key in ("th3_22", "th3_33"):
        v = analyzer.distinctness_check(pipeline_codes[key])
        assert not v.six_valent
        assert v.witness_vertex is not None
        assert v.distinct


@pytest.mark.parametrize("pipeline", ["theorem2", "theorem3"])
@pytest.mark.parametrize(
    "lattice, m, n",
    [
        ("torus_grid", 2, 2),
        ("torus_grid", 3, 3),
        ("torus_grid", 4, 4),
        ("torus_grid", 2, 3),
        ("triangular_torus", 2, 2),
        ("triangular_torus", 3, 3),
    ],
)
def test_distinctness_matches_reference_contraction(pipeline, lattice, m, n):
    # The old route re-embeds the derived graph and contracts whole
    # triangles; the new one counts degrees by union-find and contracts the
    # promoted edges of the source colex.
    code = getattr(analyzer, f"{pipeline}_pipeline")(getattr(lattices, lattice)(m, n))
    six, is_colex, degrees, simplified = reference_contraction.distinctness(code.hypergraph)
    v = analyzer.distinctness_check(code)
    assert (v.six_valent, v.simplified_is_colex) == (six, is_colex)
    assert v.distinct == (not six or not is_colex)
    assert tuple(sorted(hg.contracted_degrees(code.hypergraph))) == degrees
    if six:
        assert eg.is_isomorphic(analyzer.simplified_contraction(code.hypergraph), simplified)


_SPLICE_CASES = [
    (pipeline, lattice, m, n)
    for pipeline in ("theorem2", "theorem3")
    for lattice, m, n in [
        ("torus_grid", 2, 2),
        ("torus_grid", 3, 3),
        ("torus_grid", 4, 4),
        ("torus_grid", 6, 6),
        ("torus_grid", 2, 3),
        ("triangular_torus", 2, 2),
        ("triangular_torus", 3, 3),
    ]
] + [("from_colex", "honeycomb_torus", 3, 3)]


@pytest.mark.parametrize("pipeline, lattice, m, n", _SPLICE_CASES)
def test_simplified_contraction_matches_general_contraction(pipeline, lattice, m, n):
    # The splice of the promoted matching against the general loop-tolerant
    # contraction and parallel-edge simplification: the same graph, ids and
    # rotations included.  The honeycomb colex has no rank-3 edges.
    if pipeline == "from_colex":
        h = hg.from_colex(colex.validate_colex(lattices.honeycomb_torus(m, n)))
    else:
        seed = getattr(lattices, lattice)(m, n)
        h = getattr(analyzer, f"{pipeline}_pipeline")(seed).hypergraph
    want = reference_contraction.simplify_parallel(
        reference_contraction.contract_edges(h.source.graph, h.rank3_ids())
    )
    assert analyzer.simplified_contraction(h) == want


def test_distinctness_needs_source_colex(honeycomb33_colex):
    # A bombin code contracts to a 6-valent graph but carries no colex
    # embedding to simplify; no verdict is read off an arbitrary rotation.
    code = analyzer.bombin_pipeline(honeycomb33_colex)
    assert set(hg.contracted_degrees(code.hypergraph)) == {6}
    with pytest.raises(UnclassifiedFace):
        analyzer.distinctness_check(code)


def test_exact_distance_k0_enumerates_nothing(monkeypatch):
    # k = 0 makes C(S) = G, so no vector lies outside the gauge: the answer
    # is None without listing the 2^dim C(S) vectors.
    h = hg.from_graph(lattices.honeycomb_torus(2, 4))
    code = analyzer.build_code(h.recolored(hg.three_edge_color(h)))
    assert (code.n, code.k) == (16, 0)

    def refuse(rows):
        raise AssertionError("span_vectors called")

    monkeypatch.setattr(gf2, "span_vectors", refuse)
    assert analyzer.exact_distance(code) is None


def test_exact_distance_gate(th2_22):
    # Too large for the brute-force gate.
    assert analyzer.exact_distance(th2_22) is None


def _repetition_code():
    """The two-qubit repetition stabilizer <XX> as its own gauge: C(S)
    contains weight-1 operators (X on either qubit) outside the gauge span."""
    span = gf2.Basis([pauli.Pauli.from_string("XX").vec()])
    stab = pauli.center(span, 2)
    return analyzer.SubsystemCode(
        n=2,
        k=1,
        r=0,
        s=1,
        hypergraph=None,
        gauge=span,
        stabilizer=stab,
        cycles=None,
        generators=(),
        trivial=gf2.Basis(),
        quotient=(),
        # C(S) = G + L: the operators XI and ZZ complete <XX> to C(S).
        quotient_ops=(
            pauli.Pauli.from_string("XI").vec(),
            pauli.Pauli.from_string("ZZ").vec(),
        ),
    )


def test_exact_distance_small_code():
    assert analyzer.exact_distance(_repetition_code()) == 1
    assert reference_distance.exact_distance(_repetition_code()) == 1


def _code_of(n, gauge, quotient_ops):
    """A code with only the spans exact_distance reads: the gauge, its
    center and the quotient operators, with (k, r, s) from the dimensions."""
    stab = pauli.center(gauge, n)
    work = gauge.copy()
    two_k = sum(work.add(op) for op in quotient_ops)
    return analyzer.SubsystemCode(
        n=n,
        k=two_k // 2,
        r=(gauge.dim - stab.dim) // 2,
        s=stab.dim,
        hypergraph=None,
        gauge=gauge,
        stabilizer=stab,
        cycles=None,
        generators=(),
        trivial=gf2.Basis(),
        quotient=(),
        quotient_ops=tuple(quotient_ops),
    )


@st.composite
def gauge_group_codes(draw):
    """A random gauge group G on at most 8 qubits, with S its center and
    quotient operators that extend G to C(S), the oracle centralizer of S.
    G is a random commuting set of up to n independent rows (so S can be
    large and the distance exceed 1) plus up to two arbitrary rows.  A few
    combinations of gauge rows and quotient operators go first, so some
    operators repeat a coset or lie in G, as the quotient operators of a
    code whose generators miss part of the stabilizer do."""
    n = draw(st.integers(1, 8))
    rng = draw(st.randoms(use_true_random=True))
    low = (1 << n) - 1
    commuting = gf2.Basis()
    size = n - 1 - draw(st.integers(0, n - 1))
    while commuting.dim < size:
        v = rng.getrandbits(2 * n)
        if all(gf2.dot(v, u >> n | (u & low) << n) == 0 for u in commuting.rows):
            commuting.add(v)
    wild = [rng.getrandbits(2 * n) for _ in range(draw(st.integers(0, 2)))]
    gauge = gf2.Basis(commuting.rows + wild)
    work = gauge.copy()
    cs = reference_pauli.centralizer(pauli.center(gauge, n), n)
    ops = [v for v in cs.rows if work.add(v)]
    rows = [*gauge.rows, *ops]
    picks = draw(st.lists(st.integers(0, (1 << len(rows)) - 1), max_size=3))
    extra = [0] * len(picks)
    for j, p in enumerate(picks):
        for i in gf2.bits(p):
            extra[j] ^= rows[i]
    return _code_of(n, gauge, [*extra, *ops])


@settings(max_examples=250, deadline=None)
@given(gauge_group_codes())
def test_exact_distance_matches_brute_force(code):
    assert code.n == code.k + code.r + code.s
    assert analyzer.exact_distance(code) == reference_distance.exact_distance(code)


def test_exact_distance_at_the_gate():
    """16 qubits and dim C(S) = 24, the largest instance the gate admits:
    S = Z_0 .. Z_7, gauge qubits 8-13, logical qubits 14 and 15.  Listing
    C(S) visits 2^24 vectors; the coset search answers at once."""
    n = 16
    gauge = gf2.Basis(
        [1 << n + q for q in range(8)]
        + [1 << q for q in range(8, 14)]
        + [1 << n + q for q in range(8, 14)]
    )
    code = _code_of(n, gauge, [1 << 14, 1 << n + 14, 1 << 15, 1 << n + 15])
    assert (code.n, code.k, code.r, code.s) == (16, 2, 6, 8)
    assert code.gauge.dim + 2 * code.k == analyzer.EXACT_MAX_DIM
    start = time.perf_counter()
    assert analyzer.exact_distance(code) == 1
    assert time.perf_counter() - start < 1.0


def test_report_json_deterministic(th2_22):
    ell = analyzer.distance_bound(th2_22)
    a = analyzer.report_json(analyzer.code_report(th2_22, ell))
    b = analyzer.report_json(analyzer.code_report(th2_22, ell))
    assert a == b
    assert '"n": 48' in a


def test_honeycomb_all_rank2_cycles_are_stabilizers(honeycomb_code):
    h = honeycomb_code.hypergraph
    for sigma in honeycomb_code.cycles.basis:
        w = pauli.Pauli(h.num_vertices, *pauli.cycle_operator(h, sigma))
        assert honeycomb_code.stabilizer.contains(w.vec())


def test_theorem2_on_theta_blowup_rejected():
    # theta has odd degrees; the closed-form family needs even degree > 2.
    with pytest.raises(OddDegreeSeed):
        analyzer.theorem2_pipeline(lattices.theta_graph())


def test_custom_partial_promotion_builds(grid33):
    # Promoting only some faces of one color is legal for the general
    # construction; closed forms and canonical generator sets need not
    # apply, but the parameter identities still must.
    c = colex.construct_A(grid33)
    vfaces = [f for f, (k, _) in enumerate(c.parentage) if k == "v"]
    h = hg.promote(c, vfaces[:4], "r")
    assert hg.validate_H(h).all_ok
    code = analyzer.build_code(h)
    assert code.n == h.num_vertices == code.k + code.r + code.s
    assert code.gauge.dim == 2 * code.r + code.s
    assert code.cycles.dim == 2 * code.k + code.s


def test_colex_code_of_square_octagon():
    c = colex.construct_A(lattices.torus_grid(2, 2))
    code = analyzer.colex_code(c)
    assert code.k == 0
    assert code.generators_complete
    assert code.s == code.cycles.dim


# Colexes whose face-cycle span the listing oracle can still enumerate.
LOOP_ORACLE_COLEXES = {
    "honeycomb-3x3": lambda: colex.validate_colex(lattices.honeycomb_torus(3, 3)),
    "honeycomb-3x6": lambda: colex.validate_colex(lattices.honeycomb_torus(3, 6)),
    "honeycomb-6x3": lambda: colex.validate_colex(lattices.honeycomb_torus(6, 3)),
    "lattice-4-8-2x2": lambda: colex.construct_A(lattices.torus_grid(2, 2)),
}


@pytest.mark.parametrize("name", sorted(LOOP_ORACLE_COLEXES))
def test_loops_match_the_span_listing_oracle(name):
    """The cycle walk picks the loop the 2^dim listing picks in every coset:
    the lightest passing vector, lowest edge mask first."""
    code = analyzer.colex_code(LOOP_ORACLE_COLEXES[name]())
    faces = gf2.Basis(g.cycle for g in code.generators if g.kind != "loop2")
    want = reference_loops._completion_loops(
        code.hypergraph, faces, code.cycles.basis
    )
    got = [(g.cycle, g.links) for g in code.generators if g.kind == "loop2"]
    assert got == [(fc.cycle, fc.links) for fc in want]
    assert len(got) == 2 and code.generators_complete


def test_flank_rule_is_the_prefix_rule(honeycomb_code):
    """A cycle-space vector's r -> g -> b grouped links pass the prefix rule
    iff the two cycle edges beside each of its g edges share a color.  On a
    bipartite colex the g edges whose flanks differ come in even numbers, so
    the walk's flank check at its start edge only prunes."""
    h = honeycomb_code.hypergraph
    vectors = gf2.span_vectors(honeycomb_code.cycles.basis)
    assert len(vectors) == 1024
    passing = 0
    for sigma in vectors:
        edges = gf2.bits(sigma)

        def flank(v, g):
            (e,) = [e for e in h.incident_edges(v) if e != g and sigma >> e & 1]
            return h.edges[e].color

        bad = sum(
            flank(a, g) != flank(b, g)
            for g in edges
            if h.edges[g].color == "g"
            for a, b in [h.edges[g].vertices]
        )
        links = hg.rank2_cycle(h, "loop2", edges).links
        prefix_ok = pauli.first_bad_prefix([h.link_ops[i] for i in links]) is None
        assert (bad == 0) == prefix_ok, f"{sigma:#x}"
        assert bad % 2 == 0, f"{sigma:#x}"
        passing += prefix_ok
    assert 1 < passing < 1024


def test_pipelines_on_parallel_edge_sphere_seed(predicted):
    # Six parallel edges between two vertices: every seed face is a bigon
    # and chi = 2, so no logical qubits survive; the machinery must still
    # go through end to end.
    edges = [(0, 1)] * 6
    rot0 = [(e, 0) for e in range(6)]
    rot1 = [(e, 1) for e in reversed(range(6))]
    sphere = eg.build(2, edges, [rot0, rot1])
    code2 = predicted(analyzer.theorem2_pipeline(sphere))
    assert code2.params() == (36, 0, 22, 14)
    assert analyzer.dependency_check(code2).all_ok
    code3 = predicted(analyzer.theorem3_pipeline(sphere))
    assert code3.params() == (60, 0, 34, 26)
    assert analyzer.dependency_check(code3).all_ok

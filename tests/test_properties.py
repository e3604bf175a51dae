"""Property tests over randomized fixture families."""

import itertools

from hypothesis import given, settings, strategies as st

from tscodes import analyzer, colex, embed_graph as eg, gf2, hypergraph as hg, lattices, pauli

dims = st.tuples(st.integers(2, 4), st.integers(2, 4))


@st.composite
def seed_graphs(draw):
    kind = draw(st.sampled_from(["grid", "triangular", "honeycomb"]))
    m, n = draw(dims)
    if kind == "grid":
        return lattices.torus_grid(m, n)
    if kind == "triangular":
        return lattices.triangular_torus(m, n)
    return lattices.honeycomb_torus(m, n)


@given(seed_graphs())
@settings(max_examples=25, deadline=None)
def test_chi_even_and_face_partition(g):
    assert g.chi % 2 == 0
    darts = [d for walk in g.faces for d in walk]
    assert len(darts) == 2 * g.num_edges
    assert len(set(darts)) == len(darts)


@given(seed_graphs())
@settings(max_examples=15, deadline=None)
def test_dual_involution_and_invariants(g):
    d = eg.dual(g)
    assert d.num_edges == g.num_edges
    assert d.chi == g.chi
    assert eg.is_isomorphic(eg.dual(d), g)


@given(seed_graphs())
@settings(max_examples=15, deadline=None)
def test_medial_counts(g):
    m = eg.medial(g)
    assert m.num_vertices == g.num_edges
    assert m.num_edges == 2 * g.num_edges
    assert m.num_faces == g.num_vertices + g.num_faces
    assert all(m.degree(v) == 4 for v in range(m.num_vertices))


@given(st.tuples(st.integers(2, 3), st.integers(2, 3)), st.booleans())
@settings(max_examples=10, deadline=None)
def test_promoted_hypergraphs_satisfy_H(mn, triangular):
    m, n = mn
    seed = (
        lattices.triangular_torus(m, n)
        if triangular
        else lattices.torus_grid(m, n)
    )
    c = colex.construct_A(seed)
    vfaces = [f for f, (k, _) in enumerate(c.parentage) if k == "v"]
    h = hg.promote(c, vfaces, "r")
    rep = hg.validate_H(h)
    assert rep.all_ok and rep.coloring_proper.ok and rep.rank3_monochrome.ok
    # The rank read off the kernel agrees with a separate elimination.
    cs = hg.cycle_space(h)
    assert cs.incidence_rank == gf2.rank(h.incidence_rows())
    assert cs.dim == h.num_edges - cs.incidence_rank


@given(st.tuples(st.integers(2, 3), st.integers(2, 3)), st.booleans())
@settings(max_examples=8, deadline=None)
def test_commutation_matches_overlap(mn, triangular):
    m, n = mn
    seed = (
        lattices.triangular_torus(m, n)
        if triangular
        else lattices.torus_grid(m, n)
    )
    c = colex.construct_A(seed)
    vfaces = [f for f, (k, _) in enumerate(c.parentage) if k == "v"]
    h = hg.promote(c, vfaces, "r")
    ops = [
        pauli.Pauli(h.num_vertices, *pauli.link_operator(e.vertices, e.color))
        for e in h.edges
    ]
    for i, j in itertools.combinations(range(h.num_edges), 2):
        shared = len(set(h.edges[i].vertices) & set(h.edges[j].vertices))
        assert pauli.commutes(ops[i], ops[j]) == (shared % 2 == 0)


@given(st.integers(1, 6), st.data())
@settings(max_examples=30, deadline=None)
def test_span_rank_nullity(n, data):
    span = gf2.Basis()
    count = data.draw(st.integers(0, 2 * n))
    for _ in range(count):
        span.add(
            pauli.Pauli(
                n,
                data.draw(st.integers(0, (1 << n) - 1)),
                data.draw(st.integers(0, (1 << n) - 1)),
            ).vec()
        )
    assert pauli.centralizer(span, n).dim == 2 * n - span.dim
    c = pauli.center(span, n)
    for p in (pauli.Pauli.from_vec(n, v) for v in c.rows):
        assert span.contains(p.vec())
        assert all(
            pauli.commutes(p, pauli.Pauli.from_vec(n, q)) for q in span.rows
        )


@given(st.data())
@settings(max_examples=10, deadline=None)
def test_cycle_operator_linearity(data):
    seed = lattices.torus_grid(2, 2)
    c = colex.construct_A(seed)
    vfaces = [f for f, (k, _) in enumerate(c.parentage) if k == "v"]
    h = hg.promote(c, vfaces, "r")
    basis = hg.cycle_space(h).basis
    pick = lambda: data.draw(st.integers(0, (1 << len(basis)) - 1))
    def vec(mask):
        v = 0
        for i in range(len(basis)):
            if (mask >> i) & 1:
                v ^= basis[i]
        return v
    a, b = vec(pick()), vec(pick())
    n = h.num_vertices
    wa = pauli.Pauli(n, *pauli.cycle_operator(h, a))
    wb = pauli.Pauli(n, *pauli.cycle_operator(h, b))
    assert pauli.Pauli(n, *pauli.cycle_operator(h, a ^ b)) == wa.mul(wb)


@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]))
@settings(max_examples=5, deadline=None)
def test_theorem2_closed_form_on_random_grids(predicted, mn):
    m, n = mn
    seed = lattices.torus_grid(m, n)
    code = predicted(analyzer.theorem2_pipeline(seed))
    e = seed.num_edges
    delta = 1 if eg.is_bipartite(eg.dual(seed)) is not None else 0
    assert code.params() == (
        6 * e,
        1 + delta,
        4 * e,
        2 * seed.num_vertices + 2 * seed.num_faces - 1 - delta,
    )



@st.composite
def pauli_list_pairs(draw):
    n = draw(st.integers(1, 8))
    op = st.builds(
        pauli.Pauli, st.just(n), st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)
    )
    return draw(st.lists(op, max_size=12)), draw(st.lists(op, max_size=12))


@given(pauli_list_pairs())
@settings(max_examples=100, deadline=None)
def test_anticommuting_masks_match_pairwise_commutes(pair):
    ops, against = pair
    masks = pauli.anticommuting_masks(
        [(p.x, p.z) for p in ops], [(q.x, q.z) for q in against]
    )
    assert len(masks) == len(ops)
    for p, mask in zip(ops, masks):
        want = sum(1 << j for j, q in enumerate(against) if not pauli.commutes(p, q))
        assert mask == want


vectors = st.lists(st.integers(0, 2**7 - 1), max_size=6)


@given(vectors, vectors)
@settings(max_examples=100, deadline=None)
def test_intersection_is_the_common_subspace(a, b):
    common = gf2.intersection(gf2.Basis(a), b)
    ua, ub = gf2.span_vectors(gf2.Basis(a).rows), gf2.span_vectors(gf2.Basis(b).rows)
    assert gf2.rank(common) == len(common)
    assert set(gf2.span_vectors(common)) == set(ua) & set(ub)

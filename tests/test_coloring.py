"""The merged backtracking colorer against the two colorers it replaced."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_coloring
from tscodes import analyzer, colex, hypergraph, lattices
from tscodes.hypergraph import HEdge, Hypergraph


@st.composite
def adjacency(draw):
    """Neighbor sets of a random graph on up to 30 nodes with mean degree
    3.5 to 5, around the 3-colorability threshold, so that about half are
    colorable and many need the search to back out of a trial."""
    n = draw(st.integers(0, 30))
    degree = draw(st.sampled_from([3.5, 4.0, 4.5, 5.0]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    adj = [set() for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rnd.random() * (n - 1) < degree:
                adj[a].add(b)
                adj[b].add(a)
    return adj


@st.composite
def hypergraphs(draw):
    """Uncolored, mostly 3-valent hypergraphs on up to 24 vertices: three
    stubs per vertex, grouped at random into rank-2 and rank-3 edges (a
    group that repeats a vertex is dropped)."""
    nv = draw(st.integers(3, 24))
    share3 = draw(st.sampled_from([0.0, 0.2, 0.4]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    stubs = [v for v in range(nv) for _ in range(3)]
    rnd.shuffle(stubs)
    groups = []
    while len(stubs) >= 2:
        rank = 3 if len(stubs) >= 3 and rnd.random() < share3 else 2
        group, stubs = stubs[:rank], stubs[rank:]
        if len(set(group)) == rank:
            groups.append(tuple(sorted(group)))
    edges = tuple(HEdge(g, None, ("test", i)) for i, g in enumerate(groups))
    return Hypergraph(nv, edges)


@given(adjacency())
@settings(max_examples=300, deadline=None)
def test_face_coloring_matches_reference(adj):
    # validate_colex's call: face 0 pinned to color 0, the others free.
    domains = [{0} if v == 0 else {0, 1, 2} for v in range(len(adj))]
    got = colex._backtrack_color(adj, domains)
    assert got == reference_coloring._three_color(adj)


@given(hypergraphs())
@settings(max_examples=300, deadline=None)
def test_edge_coloring_matches_reference(h):
    assert hypergraph.three_edge_color(h) == reference_coloring.three_edge_color(h)


@pytest.mark.parametrize("m", range(3, 10))
def test_colorers_match_reference_on_honeycombs(m):
    g = lattices.honeycomb_torus(m, m)
    h = hypergraph.from_graph(g)
    assert hypergraph.three_edge_color(h) == reference_coloring.three_edge_color(h)
    fod = g.face_of_dart()
    adj = [set() for _ in range(g.num_faces)]
    for e in range(g.num_edges):
        adj[fod[(e, 0)]].add(fod[(e, 1)])
        adj[fod[(e, 1)]].add(fod[(e, 0)])
    expected = reference_coloring._three_color(adj)
    cx = colex.validate_colex(g)
    if expected is None:
        assert cx is None
    else:
        assert cx.face_color == tuple(colex.COLORS[c] for c in expected)


def test_edge_colorer_matches_reference_on_petersen_and_promoted_grid():
    promoted = analyzer.theorem2_pipeline(lattices.torus_grid(2, 2)).hypergraph
    for h in (hypergraph.from_graph(lattices.petersen_graph()), promoted):
        assert hypergraph.three_edge_color(h) == reference_coloring.three_edge_color(h)


def test_colorers_search_beyond_the_recursion_limit():
    # 1296 faces and 1323 edges: more search levels than Python's default
    # recursion limit of 1000.
    cx = colex.validate_colex(lattices.honeycomb_torus(36, 36))
    assert cx is not None and cx.graph.num_faces > 1000
    h = hypergraph.from_graph(lattices.honeycomb_torus(21, 21))
    coloring = hypergraph.three_edge_color(h)
    assert h.num_edges > 1000 and coloring is not None
    assert hypergraph.validate_H(h.recolored(coloring)).coloring_proper.ok

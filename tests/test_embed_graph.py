import re

import pytest

import reference_contraction
from tscodes import embed_graph as eg
from tscodes import lattices
from tscodes.errors import (
    DisconnectedGraph,
    LoopEdge,
    MalformedRotation,
)


def test_theta_counts():
    g = lattices.theta_graph()
    assert (g.num_vertices, g.num_edges, g.num_faces) == (2, 3, 3)
    assert g.chi == 2
    assert eg.genus(g) == 0


def test_torus_grid_counts():
    g = lattices.torus_grid(2, 2)
    assert (g.num_vertices, g.num_edges, g.num_faces) == (4, 8, 4)
    assert g.chi == 0
    assert eg.genus(g) == 1
    assert all(len(f) == 4 for f in g.faces)


def test_loop_rejected():
    with pytest.raises(LoopEdge):
        eg.build(1, [(0, 0)], [[(0, 0), (0, 1)]])


def test_missing_edge_end_rejected():
    # One dart of edge 1 is left out of the rotation.
    with pytest.raises(MalformedRotation):
        eg.build(2, [(0, 1), (0, 1)], [[(0, 0), (1, 0)], [(0, 1)]])


def test_duplicate_edge_end_rejected():
    with pytest.raises(MalformedRotation):
        eg.build(
            2,
            [(0, 1), (0, 1)],
            [[(0, 0), (1, 0), (0, 0)], [(0, 1), (1, 1)]],
        )


@pytest.mark.parametrize(
    "edges, rotation, entry",
    [
        ([(0, 1)], [[(0, 0, 0)], [(0, 1)]], "(0, 0, 0)"),  # three-int dart
        ([(0, 1)], [[0], [(0, 1)]], "0"),  # dart that is not a pair
        ([(0, 1)], [[("0", 0)], [(0, 1)]], "('0', 0)"),  # non-int edge id
        ([(0, 1)], [[(0, 0.0)], [(0, 1)]], "(0, 0.0)"),  # non-int side
        ([(0, 1)], [[[0, 0]], [(0, 1)]], "[0, 0]"),  # unhashable dart
        ([(0.0, 1)], [[(0, 0)], [(0, 1)]], "(0.0, 1)"),  # non-int vertex
        ([(0, 1, 2)], [[(0, 0)], [(0, 1)]], "(0, 1, 2)"),  # three-vertex edge
        ([5], [[(0, 0)], [(0, 1)]], "5"),  # edge that is not a pair
    ],
)
def test_malformed_entry_rejected_and_named(edges, rotation, entry):
    with pytest.raises(MalformedRotation, match=re.escape(entry)):
        eg.build(2, edges, rotation)


@pytest.mark.parametrize(
    "num_vertices, edges, rotation, named",
    [
        (2, [(0, 1)], [5, [(0, 1)]], "rotation of vertex 0 is not a list: 5"),
        (2, [(0, 1)], 7, "rotation is not a list: 7"),
        (2, 7, [[(0, 0)], [(0, 1)]], "edges is not a list: 7"),
        ("2", [(0, 1)], [[(0, 0)], [(0, 1)]], "vertex count '2' is not an int"),
        (0, [], [], "a graph needs at least one vertex"),
        # No darts, so no face: chi = 1 would be odd.
        (1, [], [[]], "a graph needs at least one edge"),
    ],
)
def test_malformed_argument_rejected_and_named(num_vertices, edges, rotation, named):
    with pytest.raises(MalformedRotation, match=re.escape(named)):
        eg.build(num_vertices, edges, rotation)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraph):
        eg.build(
            4,
            [(0, 1), (2, 3)],
            [[(0, 0)], [(0, 1)], [(1, 0)], [(1, 1)]],
        )


def test_face_tracing_is_bijection_on_darts():
    for g in (lattices.theta_graph(), lattices.torus_grid(3, 3)):
        darts = [d for walk in g.faces for d in walk]
        assert len(darts) == 2 * g.num_edges
        assert len(set(darts)) == len(darts)


def test_genus_arithmetic():
    g = lattices.honeycomb_torus(3, 4)  # chi computed from the embedding
    assert eg.genus(g) == (2 - g.chi) // 2


def test_dual_theta():
    d = eg.dual(lattices.theta_graph())
    assert (d.num_vertices, d.num_edges, d.num_faces) == (3, 3, 2)


def test_dual_preserves_chi_and_edges():
    for g in (lattices.torus_grid(2, 3), lattices.triangular_torus(2, 2)):
        d = eg.dual(g)
        assert d.num_edges == g.num_edges
        assert d.chi == g.chi


def test_dual_involution():
    for g in (
        lattices.theta_graph(),
        lattices.torus_grid(2, 2),
        lattices.torus_grid(3, 3),
        lattices.triangular_torus(2, 2),
    ):
        assert eg.is_isomorphic(eg.dual(eg.dual(g)), g)


def test_torus_grid_self_dual():
    g = lattices.torus_grid(2, 2)
    assert eg.is_isomorphic(eg.dual(g), g)


def test_medial_counts():
    g = lattices.torus_grid(2, 2)
    m = eg.medial(g)
    assert (m.num_vertices, m.num_edges, m.num_faces) == (8, 16, 8)
    assert all(m.degree(v) == 4 for v in range(m.num_vertices))

    t = lattices.theta_graph()
    mt = eg.medial(t)
    assert (mt.num_vertices, mt.num_edges, mt.num_faces) == (3, 6, 5)


def test_medial_origin_tags():
    g = lattices.torus_grid(3, 3)
    m, origins = eg.medial_with_origin(g)
    vs = sorted(i for kind, i in origins if kind == "vertex")
    fs = sorted(i for kind, i in origins if kind == "face")
    assert vs == list(range(g.num_vertices))
    assert fs == list(range(g.num_faces))


def test_medial_dual_is_bipartite():
    for g in (lattices.torus_grid(2, 2), lattices.triangular_torus(2, 2)):
        assert eg.is_bipartite(eg.dual(eg.medial(g))) is not None


def test_is_bipartite():
    assert eg.is_bipartite(lattices.torus_grid(2, 2)) is not None
    assert eg.is_bipartite(lattices.petersen_graph()) is None
    tri = eg.build(
        3,
        [(0, 1), (1, 2), (2, 0)],
        [[(0, 0), (2, 1)], [(0, 1), (1, 0)], [(1, 1), (2, 0)]],
    )
    assert eg.is_bipartite(tri) is None


def test_contract_empty_is_identity():
    g = lattices.torus_grid(3, 3)
    assert eg.is_isomorphic(reference_contraction.contract_edges(g, []), g)


def test_contract_preserves_chi():
    g = lattices.torus_grid(3, 3)
    c = reference_contraction.contract_edges(g, [0, 12])
    assert c.chi == g.chi
    assert c.num_vertices == g.num_vertices - 2


def test_contract_cycle_raises_loop_created():
    with pytest.raises(reference_contraction.LoopCreated):
        reference_contraction.contract_edges(lattices.theta_graph(), [0, 1])


def test_contract_and_drop_loops_collapses_cycle():
    g = lattices.torus_grid(3, 3)
    # Contract a single face boundary: 4 edges, one becomes a loop.
    face_edges = [e for (e, _) in g.faces[0]]
    out, _, _ = reference_contraction.contract_and_drop_loops(g, face_edges)
    assert out.chi == g.chi
    assert out.num_vertices == g.num_vertices - 3


def test_simplify_parallel():
    g = lattices.theta_graph()
    s = reference_contraction.simplify_parallel(g)
    assert s.num_edges == 1
    assert s.chi == 2


def test_isomorphism_positive_and_negative():
    assert eg.is_isomorphic(
        lattices.torus_grid(2, 4), lattices.torus_grid(4, 2)
    )
    assert not eg.is_isomorphic(
        lattices.theta_graph(), lattices.torus_grid(2, 2)
    )


def test_genus_two_embedding():
    assert lattices.petersen_graph().chi == -2
    assert eg.genus(lattices.petersen_graph()) == 2


def test_json_round_trip():
    g = lattices.triangular_torus(2, 2)
    back = eg.from_json_dict(eg.to_json_dict(g))
    assert back == g


def test_dot_export_mentions_faces():
    g = lattices.theta_graph()
    dot = eg.to_dot(g)
    assert dot.startswith("graph")
    assert dot.count("// face") == g.num_faces

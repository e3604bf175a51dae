import json

import pytest

import reference_contraction
from tscodes import colex, embed_graph as eg, lattices
from tscodes.errors import LoopEdge, MissingParentage, NotBipartite

SEEDS = {
    "theta": lattices.theta_graph(),
    "grid22": lattices.torus_grid(2, 2),
    "grid33": lattices.torus_grid(3, 3),
    "tri22": lattices.triangular_torus(2, 2),
    "petersen": lattices.petersen_graph(),  # genus 2
}

COLEXES = {
    "honeycomb33": colex.validate_colex(lattices.honeycomb_torus(3, 3)),
    "honeycomb36": colex.validate_colex(lattices.honeycomb_torus(3, 6)),
    "A_grid22": colex.construct_A(SEEDS["grid22"]),
    "A_grid33": colex.construct_A(SEEDS["grid33"]),
    "A_tri22": colex.construct_A(SEEDS["tri22"]),
    "A_theta": colex.construct_A(SEEDS["theta"]),
    "A_petersen": colex.construct_A(SEEDS["petersen"]),
    "c1_grid22": colex.construct_1(lattices.torus_grid(2, 2)),
    "c1_grid44": colex.construct_1(lattices.torus_grid(4, 4)),
}


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_construct_A_counts(name):
    seed = SEEDS[name]
    c = colex.construct_A(seed)
    g = c.graph
    e = seed.num_edges
    assert g.num_vertices == 4 * e
    assert g.num_edges == 6 * e
    assert g.num_faces == seed.num_vertices + seed.num_faces + seed.num_edges
    assert g.chi == seed.chi
    assert all(g.degree(v) == 3 for v in range(g.num_vertices))


def test_construct_A_2x2_paper_counts(grid22):
    c = colex.construct_A(grid22)
    assert (c.graph.num_vertices, c.graph.num_faces, c.graph.num_edges) == (
        32,
        16,
        48,
    )


def test_construct_A_theta_counts():
    c = colex.construct_A(lattices.theta_graph())
    assert (c.graph.num_vertices, c.graph.num_edges, c.graph.num_faces) == (
        12,
        18,
        8,
    )


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_e_faces_are_4_sided(name):
    c = colex.construct_A(SEEDS[name])
    for f, (kind, _) in enumerate(c.parentage):
        if kind == "e":
            assert len(c.graph.faces[f]) == 4


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_edge_color_differs_from_adjacent_faces(name):
    c = colex.construct_A(SEEDS[name])
    fod = c.graph.face_of_dart()
    for e in range(c.graph.num_edges):
        f0, f1 = fod[(e, 0)], fod[(e, 1)]
        assert c.edge_color[e] not in (c.face_color[f0], c.face_color[f1])


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_color_classes_are_perfect_matchings(name):
    c = colex.construct_A(SEEDS[name])
    for color in colex.COLORS:
        hits = [0] * c.graph.num_vertices
        for e, (u, v) in enumerate(c.graph.edges):
            if c.edge_color[e] == color:
                hits[u] += 1
                hits[v] += 1
        assert all(h == 1 for h in hits)


def test_construct_A_output_validates(grid22):
    c = colex.construct_A(grid22)
    assert colex.validate_colex(c.graph) is not None


def test_validate_colex_rejects_4_valent(grid22):
    assert colex.validate_colex(grid22) is None


def test_validate_colex_rejects_k4():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    rot = [
        [(0, 0), (1, 0), (2, 0)],
        [(0, 1), (4, 0), (3, 0)],
        [(1, 1), (3, 1), (5, 0)],
        [(2, 1), (5, 1), (4, 1)],
    ]
    k4 = eg.build(4, edges, rot)
    assert k4.chi == 2  # four mutually adjacent triangle faces
    assert colex.validate_colex(k4) is None


def test_validate_colex_rejects_uncolorable_honeycomb():
    assert colex.validate_colex(lattices.honeycomb_torus(3, 4)) is None


def test_honeycomb_3x3_is_a_colex(honeycomb33_colex):
    assert all(
        len(honeycomb33_colex.graph.faces[f]) == 6
        for f in range(honeycomb33_colex.graph.num_faces)
    )


@pytest.mark.parametrize(
    "seed",
    [
        lattices.torus_grid(2, 2),
        lattices.torus_grid(2, 4),
        lattices.theta_graph(),
        lattices.honeycomb_torus(3, 3),
    ],
    ids=["grid22", "grid24", "theta", "honeycomb33"],
)
def test_construct_1_round_trip(seed):
    c = colex.construct_1(seed)
    assert colex.validate_colex(c.graph) is not None
    assert c.graph.chi == seed.chi
    rec = colex.recover_bipartite(c, "b")
    assert eg.is_isomorphic(rec.graph, seed)


def _dipole():
    """Two vertices joined by three parallel edges on the sphere."""
    return eg.build(2, [(0, 1)] * 3, [[(0, 0), (1, 0), (2, 0)], [(2, 1), (1, 1), (0, 1)]])


@pytest.mark.parametrize(
    "seed",
    [
        lattices.torus_grid(2, 2),
        lattices.torus_grid(4, 4),
        lattices.torus_grid(2, 6),
        lattices.honeycomb_torus(3, 3),
        lattices.honeycomb_torus(2, 5),
        lattices.honeycomb_torus(4, 6),
        _dipole(),
    ],
    ids=["grid22", "grid44", "grid26", "honeycomb33", "honeycomb25", "honeycomb46",
         "dipole"],
)
def test_dual_faces_surround_one_seed_vertex(seed):
    """The dual keeps edge ids and sides, so every dart (e, s) of a dual face
    sits at that face's one seed vertex edges[e][s]; construct_1 reads a
    surviving face's parent vertex off any one of its dual darts."""
    dstar = eg.dual(seed)
    assert dstar.num_faces == seed.num_vertices
    for walk in dstar.faces:
        assert len({seed.edges[e][s] for e, s in walk}) == 1
    c = colex.construct_1(seed)
    for walk, (kind, parent) in zip(c.graph.faces, c.parentage):
        if kind != "dualvertex":
            darts = [(e, s) for e, s in walk if e < dstar.num_edges]
            assert darts and {seed.edges[e][s] for e, s in darts} == {parent}


def test_construct_1_rejects_non_bipartite():
    with pytest.raises(NotBipartite):
        colex.construct_1(lattices.torus_grid(3, 3))


def test_recover_all_colors_bipartite(grid22):
    c = colex.construct_1(grid22)
    for color in colex.COLORS:
        rec = colex.recover_bipartite(c, color)
        assert eg.is_bipartite(rec.graph) is not None


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_recover_blowup_all_colors_bipartite(name):
    c = colex.construct_A(SEEDS[name])
    for color in colex.COLORS:
        rec = colex.recover_bipartite(c, color)
        assert rec.graph.chi == c.graph.chi
        # The classes cover the vertices and every edge joins the two.
        side = {v: i for i, cls in enumerate(rec.classes) for v in cls}
        assert len(side) == rec.graph.num_vertices
        assert all(side[u] != side[v] for u, v in rec.graph.edges)


def _class_degrees(rec):
    return [sorted(rec.graph.degree(v) for v in cls) for cls in rec.classes]


@pytest.mark.parametrize(
    "name, color",
    [
        (name, color)
        for name in COLEXES
        for color in colex.COLORS
        if (name, color) != ("A_petersen", "r")
    ],
)
def test_recover_matches_reference_contraction(name, color):
    # The old route contracts every edge not of the color, reclassifies the
    # surviving faces and dualizes; the new one reads the colex faces.
    c = COLEXES[name]
    old = reference_contraction.recover_bipartite(c, color)
    new = colex.recover_bipartite(c, color)
    assert eg.is_isomorphic(new.graph, old.graph)
    assert new.class_colors == old.class_colors
    assert _class_degrees(new) == _class_degrees(old)


def test_petersen_blowup_recovers_the_subdivision():
    # A Petersen face meets a vertex twice, so contracting the other colors
    # turns a kept edge into a loop; read off the faces, the r-recovery is
    # the Petersen graph with every edge subdivided (the e-faces, degree 2).
    c = COLEXES["A_petersen"]
    with pytest.raises(LoopEdge):
        reference_contraction.recover_bipartite(c, "r")
    rec = colex.recover_bipartite(c, "r")
    g = rec.graph
    assert (g.num_vertices, g.num_edges, g.chi) == (25, 30, -2)
    assert rec.class_colors == ("g", "b")
    assert _class_degrees(rec) == [[2] * 15, [3] * 10]


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_corollary2_true_for_blowups(name):
    c = colex.construct_A(SEEDS[name])
    assert colex.corollary2_check(c) is True


def test_corollary2_false_without_degree2_class(grid22):
    c = colex.construct_1(grid22)
    assert colex.corollary2_check(c) is False


def test_corollary2_requires_parentage(grid22):
    c = colex.construct_A(grid22)
    stripped = colex.TwoColex(c.graph, c.face_color, c.edge_color, None)
    with pytest.raises(MissingParentage):
        colex.corollary2_check(stripped)


def test_json_round_trip(grid22):
    c = colex.construct_A(grid22)
    back = colex.from_json_dict(json.loads(colex.to_json(c)))
    assert back == c


def test_dot_has_three_edge_colors(grid22):
    c = colex.construct_A(grid22)
    dot = colex.to_dot(c)
    for name in ("red", "green", "blue"):
        assert f"color={name}" in dot

import json
import re

import pytest

from tscodes import analyzer, colex, embed_graph as eg, gf2, hypergraph as hg, lattices
from tscodes.errors import (
    BadFaceSize,
    MixedColorF,
    NotThreeEdgeColorable,
    UnclassifiedFace,
)
from tscodes.hypergraph import HEdge, Hypergraph


def th2_hypergraph(seed):
    c = colex.construct_A(seed)
    vfaces = [f for f, (k, _) in enumerate(c.parentage) if k == "v"]
    return hg.promote(c, vfaces, "r"), c


def test_promote_counts_2x2(grid22):
    h, _ = th2_hypergraph(grid22)
    assert h.num_vertices == 48
    assert len(h.rank3_ids()) == 16
    assert len(h.rank2_ids()) == 48


def test_promote_empty_is_identity(grid22):
    c = colex.construct_A(grid22)
    h = hg.promote(c, [], "r")
    assert h.num_vertices == c.graph.num_vertices
    assert not h.rank3_ids()
    assert [h.edges[i].vertices for i in h.rank2_ids()] == [
        tuple(sorted(e)) for e in c.graph.edges
    ]


def test_promote_rejects_4_sided_face(grid22):
    c = colex.construct_A(grid22)
    efaces = [f for f, (k, _) in enumerate(c.parentage) if k == "e"]
    with pytest.raises(BadFaceSize):
        hg.promote(c, efaces[:1], "r")


def test_promote_rejects_mixed_colors(grid22):
    c = colex.construct_A(grid22)
    vface = next(f for f, (k, _) in enumerate(c.parentage) if k == "v")
    fface = next(f for f, (k, _) in enumerate(c.parentage) if k == "f")
    with pytest.raises(MixedColorF):
        hg.promote(c, [vface, fface], "r")


def test_promote_rejects_inner_colors_that_do_not_alternate(grid22):
    """Seed-face classes that give two neighboring kept edges' far faces the
    same class would give two adjacent inner edges the same color."""
    c = colex.construct_A(grid22)
    vfaces = [f for f, (k, _) in enumerate(c.parentage) if k == "v"]
    same = {f: 0 for f in range(c.graph.num_faces)}
    with pytest.raises(MixedColorF, match="inner edge colors .* do not alternate"):
        hg.promote(c, vfaces, "r", same)


def test_promote_names_the_face_missing_from_the_class_map(grid22):
    """A class map without the face beyond a kept edge is bad input that
    names the face and the edge, not a raw KeyError."""
    c = colex.construct_A(grid22)
    vfaces = [f for f, (k, _) in enumerate(c.parentage) if k == "v"]
    with pytest.raises(UnclassifiedFace) as info:
        hg.promote(c, vfaces, "r", {})
    assert re.fullmatch(
        r"face 6 beyond kept edge \d+ of face \d+ has no class", str(info.value)
    )


def test_promote_output_satisfies_H(grid22):
    h, _ = th2_hypergraph(grid22)
    rep = hg.validate_H(h)
    assert rep.all_ok
    assert rep.coloring_proper.ok
    assert rep.rank3_monochrome.ok
    assert {h.edges[i].color for i in h.rank3_ids()} == {"b"}


def test_validate_H_flags_overlapping_rank3():
    edges = (
        HEdge((0, 1, 2), "b", ("x", 0)),
        HEdge((0, 1, 3), "b", ("x", 1)),
    )
    h = Hypergraph(4, edges)
    rep = hg.validate_H(h)
    assert not rep.h4.ok
    assert rep.h4.witness == (0, 1)
    assert not rep.h3.ok


def test_honeycomb_colex_passes_H(honeycomb33_colex):
    rep = hg.validate_H(hg.from_colex(honeycomb33_colex))
    assert rep.all_ok and rep.coloring_proper.ok


def test_three_edge_color_petersen_absent():
    h = hg.from_graph(lattices.petersen_graph())
    assert hg.three_edge_color(h) is None


def test_three_edge_color_honeycomb(honeycomb33_colex):
    h = hg.from_colex(honeycomb33_colex)
    stripped = h.recolored([None] * h.num_edges)
    coloring = hg.three_edge_color(stripped)
    assert coloring is not None
    rep = hg.validate_H(stripped.recolored(coloring))
    assert rep.coloring_proper.ok


def test_three_edge_color_recolors_promoted(grid22):
    h, _ = th2_hypergraph(grid22)
    stripped = h.recolored([None] * h.num_edges)
    coloring = hg.three_edge_color(stripped)
    assert coloring is not None
    recol = stripped.recolored(coloring)
    rep = hg.validate_H(recol)
    assert rep.coloring_proper.ok and rep.rank3_monochrome.ok
    assert {recol.edges[i].color for i in recol.rank3_ids()} == {"b"}


def test_cycle_space_dims(grid22, grid33):
    for seed, delta in ((grid22, 1), (grid33, 0)):
        h, _ = th2_hypergraph(seed)
        cs = hg.cycle_space(h)
        e = seed.num_edges
        assert cs.dim == 2 * e + 1 + delta
        assert cs.incidence_rank == 6 * e - 1 - delta
        assert cs.dim == h.num_edges - cs.incidence_rank


def test_cycle_space_single_square():
    edges = tuple(
        HEdge(tuple(sorted(e)), None, ("x", i))
        for i, e in enumerate([(0, 1), (1, 2), (2, 3), (3, 0)])
    )
    h = Hypergraph(4, edges)
    assert hg.cycle_space(h).dim == 1


def test_cycle_vectors_have_even_incidence(grid22):
    h, _ = th2_hypergraph(grid22)
    cs = hg.cycle_space(h)
    rows = h.incidence_rows()
    for vec in cs.basis:
        assert all(gf2.dot(row, vec) == 0 for row in rows)


def test_incident_edges_match_incidence_rows(grid22):
    h, _ = th2_hypergraph(grid22)
    for v, row in enumerate(h.incidence_rows()):
        inc = h.incident_edges(v)
        assert inc == tuple(gf2.bits(row))
        assert inc == tuple(e for e in range(h.num_edges) if v in h.edges[e].vertices)
        assert h.incident_edges(v) is inc  # built once per hypergraph


def test_incidence_rank_of_plain_connected_graph(honeycomb33_colex):
    h = hg.from_colex(honeycomb33_colex)
    assert hg.cycle_space(h).incidence_rank == h.num_vertices - 1


def test_canonical_cycles_are_cycles(grid22):
    h, c = th2_hypergraph(grid22)
    two = one = 0
    for f in range(len(h.faces)):
        sigmas = [fc.cycle for fc in hg.canonical_face_cycles(h, f)]
        for sigma in sigmas:
            assert hg.is_cycle(h, sigma)
        if len(sigmas) == 2:
            two += 1
        elif len(sigmas) == 1:
            one += 1
    # Every promoted face and every face free of triangles: two generators.
    assert two == grid22.num_vertices + grid22.num_faces
    assert one == 0


def test_promoted_sigma2_contains_all_face_triangles(grid22):
    h, c = th2_hypergraph(grid22)
    for f, rec in enumerate(h.faces):
        if rec.kind != "promoted":
            continue
        _, fc2 = hg.canonical_face_cycles(h, f)
        assert fc2.kind == "sigma2_promoted"
        for t in rec.triangles:
            assert (fc2.cycle >> t.edge_id) & 1


def _is_zz(op):
    x, z = op
    return x == 0 and z != 0


def test_link_table_counts(grid22):
    h, _ = th2_hypergraph(grid22)
    assert len(h.links) == 48 + 3 * 16
    assert all(
        _is_zz(op) for lk, op in zip(h.links, h.link_ops) if lk.side is not None
    )


def test_link_table_single_triangle():
    h = Hypergraph(3, (HEdge((0, 1, 2), "b", ("x", 0)),))
    assert [lk.vertices for lk in h.links] == [(0, 1), (1, 2), (0, 2)]
    assert all(_is_zz(op) for op in h.link_ops)
    # Sides 0 and 1 share vertex 1: b round, then the exclusive extra step;
    # side 2 is their product and is not measured.
    assert [lk.step for lk in h.links] == [2, 3, None]


def test_link_table_identity_without_rank3(honeycomb33_colex):
    h = hg.from_colex(honeycomb33_colex)
    assert len(h.links) == h.num_edges


def test_contracted_degrees_no_triangles_all_3(honeycomb33_colex):
    h = hg.from_colex(honeycomb33_colex)
    degrees = hg.contracted_degrees(h)
    assert degrees == (3,) * honeycomb33_colex.graph.num_vertices


def test_contracted_degrees_bombin_is_6_valent(honeycomb33_colex):
    h = hg.bombin_hypergraph(honeycomb33_colex)
    degrees = hg.contracted_degrees(h)
    assert set(degrees) == {6}
    assert len(degrees) == honeycomb33_colex.graph.num_vertices


def test_bombin_hypergraph_structure(honeycomb33_colex):
    h = hg.bombin_hypergraph(honeycomb33_colex)
    V = honeycomb33_colex.graph.num_vertices
    assert h.num_vertices == 3 * V
    assert len(h.rank3_ids()) == V
    assert len(h.rank2_ids()) == 3 * V
    rep = hg.validate_H(h)
    assert rep.all_ok and rep.coloring_proper.ok and rep.rank3_monochrome.ok


def test_json_round_trip(th2_22):
    h = th2_22.hypergraph
    data = json.loads(hg.to_json(h))
    back = hg.from_json_dict(data)
    assert back.num_vertices == h.num_vertices
    assert len(back.rank3_ids()) == len(h.rank3_ids())
    # Every edge keeps its color (rank-3 edges have low ids, so a mismatch
    # between id and list position would scramble them).
    assert sorted((e.vertices, e.color) for e in back.edges) == sorted(
        (e.vertices, e.color) for e in h.edges
    )
    rep = hg.validate_H(back)
    checks = (rep.h1, rep.h2, rep.h3, rep.h4, rep.coloring_proper,
              rep.rank3_monochrome)
    assert all(c.ok for c in checks)


def test_rank3_edges_must_be_b(th2_22):
    h = th2_22.hypergraph
    swap = {"r": "b", "b": "r"}
    swapped = h.recolored([swap.get(e.color, e.color) for e in h.edges])
    rep = hg.validate_H(swapped)
    assert rep.all_ok and rep.coloring_proper.ok
    first = h.rank3_ids()[0]
    assert rep.rank3_monochrome == hg.ConditionReport(False, (first, "r"))
    with pytest.raises(NotThreeEdgeColorable):
        analyzer.build_code(swapped)


def test_first_link_indexes_link_table(th2_22):
    h = th2_22.hypergraph
    links = h.links
    for i, e in enumerate(h.edges):
        sides = (None,) if e.rank == 2 else (0, 1, 2)
        first = h.first_link[i]
        got = [links[first + k] for k in range(len(sides))]
        assert [(lk.edge, lk.side) for lk in got] == [(i, side) for side in sides]
        assert all(lk.color == e.color for lk in got)
        assert got[0].step == "rgb".index(e.color)


def test_dot_renders_triangle_clusters(grid22):
    h, _ = th2_hypergraph(grid22)
    dot = hg.to_dot(h)
    assert dot.count("subgraph cluster_t") == 16


def th3_hypergraph(seed):
    c_all = []
    med, origins = eg.medial_with_origin(seed)
    dstar = eg.dual(med)
    c = colex.construct_A(dstar)
    vfaces = [f for f, (k, _) in enumerate(c.parentage) if k == "v"]
    F_v = [f for f in vfaces if origins[c.parentage[f][1]][0] == "vertex"]
    return hg.promote(c, F_v, "g"), c, F_v


def test_medial_route_face_cycle_classification(grid22):
    h, c, F_v = th3_hypergraph(grid22)
    for f, (kind, _) in enumerate(c.parentage):
        kinds = [fc.kind for fc in hg.canonical_face_cycles(h, f)]
        if f in F_v:
            assert kinds == ["sigma1_fprime", "sigma2_promoted"]
        elif kind == "v":  # unpromoted half of the bipartition
            assert kinds == ["sigma1_boundary", "sigma2_bridged"]
        elif kind == "e":  # intact 4-gons: boundary cycle only
            assert kinds == ["sigma1_boundary"]
        else:  # faces with triangles in their boundary yield nothing
            assert kinds == []


def test_medial_route_counts(grid22):
    h, _, _ = th3_hypergraph(grid22)
    assert h.num_vertices == 80
    assert len(h.rank3_ids()) == 16
    assert len(h.rank2_ids()) == 96
    cs = hg.cycle_space(h)
    assert cs.dim == 34
    assert cs.incidence_rank == 78


def test_contracted_degrees_medial_route_not_6_valent(grid22):
    h, _, _ = th3_hypergraph(grid22)
    assert set(hg.contracted_degrees(h)) != {6}


def test_canonical_cycles_need_face_structure(grid22):
    from tscodes.errors import UnclassifiedFace

    h, _ = th2_hypergraph(grid22)
    bare = hg.from_json_dict(json.loads(hg.to_json(h)))
    with pytest.raises(UnclassifiedFace):
        hg.canonical_face_cycles(bare, 0)


def test_incidence_rank_against_numpy_oracle(grid22):
    import numpy as np

    h, _ = th2_hypergraph(grid22)

    def numpy_gf2_rank(mat):
        m = np.array(mat, dtype=np.uint8) % 2
        rank = 0
        rows, cols = m.shape
        r = 0
        for c in range(cols):
            pivot = None
            for i in range(r, rows):
                if m[i, c]:
                    pivot = i
                    break
            if pivot is None:
                continue
            m[[r, pivot]] = m[[pivot, r]]
            for i in range(rows):
                if i != r and m[i, c]:
                    m[i] ^= m[r]
            rank += 1
            r += 1
        return rank

    dense = [
        [1 if v in h.edges[e].vertices else 0 for e in range(h.num_edges)]
        for v in range(h.num_vertices)
    ]
    assert hg.cycle_space(h).incidence_rank == numpy_gf2_rank(dense) == 46
    assert hg.cycle_space(h).dim == h.num_edges - 46


def test_other_face_uses_edge_face_index():
    # Edge 0 appears twice on face 0 (self-adjacency), edge 1 borders faces
    # 0 and 1, edge 2 borders face 0 only.
    edges = tuple(HEdge((0, 1), "r", ("x", i)) for i in range(3))
    faces = (
        hg.FaceRec("plain", (0, 1, 0, 2), (0, 1, 0, 1)),
        hg.FaceRec("plain", (1,), (0,)),
    )
    h = Hypergraph(2, edges, None, faces)
    assert h.faces_of_edge == ((0, 0), (0, 1), (0,))
    assert hg._other_face(h, 0, 0) == 0
    assert hg._other_face(h, 1, 0) == 1
    assert hg._other_face(h, 1, 1) == 0
    assert hg._other_face(h, 2, 0) is None


def test_validate_H_with_one_uncolored_rank3_edge(grid22):
    h, _ = th2_hypergraph(grid22)
    colors = [e.color for e in h.edges]
    colors[h.rank3_ids()[0]] = None
    rep = hg.validate_H(h.recolored(colors))
    assert rep.all_ok and not rep.coloring_proper.ok
    assert rep.rank3_monochrome == hg.ConditionReport(False, (None, "b"))

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from tscodes import cli


def run(argv):
    return cli.main(argv)


def test_gen_torus_grid(tmp_path):
    out = tmp_path / "g.json"
    assert run(["gen", "torus-grid", "2", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 4
    assert len(data["edges"]) == 8


def test_gen_petersen(tmp_path):
    out = tmp_path / "p.json"
    assert run(["gen", "petersen", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 10
    assert len(data["edges"]) == 15


def test_gen_lattices_are_colexes(tmp_path):
    from tscodes import colex

    for fam, params in (
        ("lattice-4-8", ["2", "2"]),
        ("lattice-4-6-12", ["2", "2"]),
        ("honeycomb-torus", ["3", "3"]),
    ):
        out = tmp_path / f"{fam}.json"
        assert run(["gen", fam] + params + ["--out", str(out)]) == 0
        cx = colex.from_json_dict(json.loads(out.read_text()))
        assert colex.validate_colex(cx.graph) is not None


def test_gen_bad_params():
    assert run(["gen", "torus-grid", "1", "5"]) == 2
    assert run(["gen", "honeycomb-torus", "3", "4"]) == 2


@pytest.mark.parametrize(
    "argv", [["theta", "5"], ["petersen", "1", "2", "3"], ["torus-grid", "2", "2", "9"]]
)
def test_gen_extra_params_rejected(tmp_path, capsys, argv):
    out = tmp_path / "g.json"
    assert run(["gen", *argv, "--out", str(out)]) == 2
    assert "BadParams" in capsys.readouterr().err
    assert not out.exists()


def test_build_theorem2_report(tmp_path):
    g = tmp_path / "g.json"
    rep = tmp_path / "r.json"
    run(["gen", "torus-grid", "2", "2", "--out", str(g)])
    assert run(["build", str(g), "--pipeline", "theorem2", "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert (data["n"], data["k"], data["r"], data["s"]) == (48, 2, 32, 14)
    assert data["ell"] == 4
    assert data["predicted"]["n"] == 48
    assert data["checks"]["distinct_from_dual_expansion"] is False
    assert all(data["checks"]["dependencies"].values())


def test_build_reports_are_byte_identical(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "torus-grid", "2", "2", "--out", str(g)])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["build", str(g), "--pipeline", "theorem3", "--out", str(a)])
    run(["build", str(g), "--pipeline", "theorem3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_build_odd_degree_exits_nonzero(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "theta", "--out", str(g)])
    assert run(["build", str(g), "--pipeline", "theorem2"]) == 2


def test_build_petersen_aborts(tmp_path, capsys):
    g = tmp_path / "p.json"
    run(["gen", "petersen", "--out", str(g)])
    assert run(["build", str(g), "--pipeline", "custom"]) == 2
    assert "NotThreeEdgeColorable" in capsys.readouterr().err


def test_build_bombin(tmp_path):
    hc = tmp_path / "hc.json"
    rep = tmp_path / "r.json"
    run(["gen", "honeycomb-torus", "3", "3", "--out", str(hc)])
    assert run(["build", str(hc), "--pipeline", "bombin", "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert (data["n"], data["k"], data["r"], data["s"]) == (54, 2, 36, 16)


def test_schedule_command(tmp_path):
    g = tmp_path / "g.json"
    out = tmp_path / "s.json"
    run(["gen", "torus-grid", "2", "2", "--out", str(g)])
    code = run(
        [
            "schedule",
            str(g),
            "--pipeline",
            "theorem2",
            "--model",
            "exclusive",
            "--trials",
            "10",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["time_steps"] == 4
    assert data["simulation"]["agreement"] == 1.0


def test_schedule_trials_zero_rejected(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "torus-grid", "2", "2", "--out", str(g)])
    assert run(["schedule", str(g), "--pipeline", "theorem2", "--trials", "0"]) == 2


def test_schedule_negative_trials_rejected_without_output(tmp_path, capsys):
    g, out = tmp_path / "g.json", tmp_path / "s.json"
    run(["gen", "torus-grid", "2", "2", "--out", str(g)])
    argv = ["schedule", str(g), "--pipeline", "theorem2", "--trials", "-1"]
    assert run(argv + ["--out", str(out)]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_schedule_honeycomb_relaxed(tmp_path):
    hc = tmp_path / "hc.json"
    out = tmp_path / "s.json"
    run(["gen", "honeycomb-torus", "3", "3", "--out", str(hc)])
    assert (
        run(
            [
                "schedule",
                str(hc),
                "--pipeline",
                "custom",
                "--trials",
                "5",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert json.loads(out.read_text())["time_steps"] == 3


def test_export_colex_colors(tmp_path):
    hc = tmp_path / "hc.json"
    out = tmp_path / "hc.dot"
    run(["gen", "honeycomb-torus", "3", "3", "--out", str(hc)])
    assert run(["export", str(hc), "--out", str(out)]) == 0
    dot = out.read_text()
    assert dot.count("{") == dot.count("}")
    for color in ("red", "green", "blue"):
        assert f"color={color}" in dot


def test_export_missing_file_exits_nonzero(tmp_path):
    assert run(["export", str(tmp_path / "nope.json")]) == 2


def test_export_hypergraph_triangles(tmp_path):
    from tscodes import analyzer, hypergraph, lattices

    code = analyzer.theorem2_pipeline(lattices.torus_grid(2, 2))
    hjson = tmp_path / "h.json"
    hjson.write_text(hypergraph.to_json(code.hypergraph))
    out = tmp_path / "h.dot"
    assert run(["export", str(hjson), "--out", str(out)]) == 0
    assert out.read_text().count("subgraph cluster_t") == 16


def test_verify_pipeline(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "torus-grid", "3", "3", "--out", str(g)])
    assert run(["verify", str(g), "--pipeline", "theorem2"]) == 0


def test_build_custom_from_hypergraph_json(tmp_path):
    from tscodes import analyzer, hypergraph, lattices

    code = analyzer.theorem2_pipeline(lattices.torus_grid(2, 2))
    hjson = tmp_path / "h.json"
    hjson.write_text(hypergraph.to_json(code.hypergraph))
    rep = tmp_path / "r.json"
    assert run(["build", str(hjson), "--pipeline", "custom", "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    # Same code, rebuilt from the bare hypergraph: parameters agree.
    assert (data["n"], data["k"], data["r"], data["s"]) == (48, 2, 32, 14)


def test_schedule_hypergraph_json_names_missing_faces(tmp_path, capsys):
    from tscodes import analyzer, hypergraph, lattices

    code = analyzer.theorem2_pipeline(lattices.torus_grid(2, 2))
    hjson = tmp_path / "h.json"
    hjson.write_text(hypergraph.to_json(code.hypergraph))
    assert run(["schedule", str(hjson), "--pipeline", "custom"]) == 2
    err = capsys.readouterr().err
    assert "error: NoValidDecomposition:" in err
    assert "hypergraph JSON carries none" in err
    assert "graph or colex input" in err


def test_build_custom_recolors_non_b_triangles(tmp_path):
    """Rank-3 edges colored "r" are rejected by validate_H, so `custom`
    recolors with three_edge_color instead of building a wrong gauge."""
    from tscodes import analyzer, hypergraph, lattices

    h = analyzer.theorem2_pipeline(lattices.torus_grid(2, 2)).hypergraph
    swap = {"r": "b", "b": "r"}
    hjson = tmp_path / "h.json"
    hjson.write_text(
        hypergraph.to_json(h.recolored([swap.get(e.color, e.color) for e in h.edges]))
    )
    loaded = hypergraph.from_json_dict(json.loads(hjson.read_text()))
    assert {e.color for e in loaded.edges if e.rank == 3} == {"r"}
    rep = tmp_path / "r.json"
    assert run(["build", str(hjson), "--pipeline", "custom", "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert (data["n"], data["k"], data["r"], data["s"]) == (48, 2, 32, 14)


def _grid_json():
    from tscodes import embed_graph, lattices

    return embed_graph.to_json_dict(lattices.torus_grid(2, 2))


def _without_rotation_of_vertex_0():
    data = _grid_json()
    del data["rotation"]["0"]
    return data


def _with_three_int_dart():
    data = _grid_json()
    data["rotation"]["0"][0] = data["rotation"]["0"][0] + [0]
    return data


@pytest.mark.parametrize(
    "pipeline, make, error",
    [
        ("custom", lambda: {"vertices": [0, 1, 2], "rank2": [[0, 1]]}, "UnknownFormat"),
        ("custom", lambda: {"vertices": [0, 1], "rank2": [[0, 5]], "rank3": []},
         "MalformedRotation"),
        ("theorem2", _without_rotation_of_vertex_0, "MalformedRotation"),
        ("theorem2", _with_three_int_dart, "MalformedRotation"),
        ("theorem2", lambda: {"vertices": [], "edges": [], "rotation": {}},
         "MalformedRotation"),
    ],
    ids=["no-rank3", "vertex-out-of-range", "rotation-missing-vertex",
         "three-int-dart", "empty-graph"],
)
def test_build_malformed_input_exits_2(tmp_path, capsys, pipeline, make, error):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(make()))
    assert run(["build", str(path), "--pipeline", pipeline]) == 2
    assert f"error: {error}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, witness",
    [
        (lambda d: d["face_color"].update({"0": "q"}), "face 0 has color 'q'"),
        (lambda d: d["face_color"].update({"0": d["face_color"]["1"]}),
         "across edge"),
        (lambda d: d["edge_color"].update(
            {"0": {"r": "g", "g": "b", "b": "r"}[d["edge_color"]["0"]]}),
         "edge 0 has color"),
    ],
    ids=["unknown-face-color", "equal-adjacent-faces", "wrong-edge-color"],
)
def test_bombin_rejects_inconsistent_colex_colors(tmp_path, capsys, mutate, witness):
    path = tmp_path / "hc.json"
    assert run(["gen", "honeycomb-torus", "3", "3", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    assert run(["build", str(path), "--pipeline", "bombin"]) == 2
    err = capsys.readouterr().err
    assert "error: MalformedRotation:" in err and witness in err


def test_build_unreadable_input_exits_2(tmp_path, capsys):
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path, binary):
        assert run(["build", str(path)]) == 2
        assert "error: UnknownFormat: cannot read" in capsys.readouterr().err


@lru_cache(maxsize=None)
def _fixture_json():
    """(pipeline, JSON text) of a graph, a colex and a hypergraph input."""
    from tscodes import analyzer, colex, embed_graph, hypergraph, lattices

    grid = embed_graph.to_json(lattices.torus_grid(2, 2))
    hc = colex.to_json(colex.validate_colex(lattices.honeycomb_torus(3, 3)))
    code = analyzer.theorem2_pipeline(lattices.torus_grid(2, 2))
    return (
        ("theorem2", grid),
        ("custom", grid),
        ("bombin", hc),
        ("custom", hc),
        ("custom", hypergraph.to_json(code.hypergraph)),
    )


def _paths(x, prefix=()):
    if prefix:
        yield prefix
    if isinstance(x, (dict, list)):
        for k, v in x.items() if isinstance(x, dict) else enumerate(x):
            yield from _paths(v, prefix + (k,))


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 50),
    st.floats(0, 2),
    st.sampled_from("rgbq"),
    st.lists(st.integers(-1, 9), max_size=4),
    st.sampled_from([{}, {"0": 1}]),
)


@st.composite
def mutated_inputs(draw):
    """A fixture input with one entry deleted or replaced by junk."""
    pipeline, text = draw(st.sampled_from(_fixture_json()))
    data = json.loads(text)
    path = draw(st.sampled_from(list(_paths(data))))
    parent = data
    for k in path[:-1]:
        parent = parent[k]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JUNK)
    return pipeline, data


@given(mutated_inputs())
@settings(max_examples=60, deadline=None)
def test_build_mutated_input_never_escapes(tmp_path_factory, case):
    # Every mutation either leaves a valid input or is bad input (exit 2);
    # none may escape as a traceback or read as a failed check (exit 1).
    pipeline, data = case
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_text(json.dumps(data))
    assert run(["build", str(path), "--pipeline", pipeline, "--out", str(path)]) in (0, 2)

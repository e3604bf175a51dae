import dataclasses
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tscodes
from tscodes import analyzer, cli, gf2, hypergraph, lattices, pauli, scheduler
from tscodes.errors import GaugeMismatch


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


def test_gen_bad_params(tmp_path, capsys):
    assert run(["gen", "torus-grid", "1", "5"]) == 2
    assert run(["gen", "honeycomb-torus", "3", "4"]) == 2
    # An --out that cannot be written is bad input as well, never exit 1.
    for out in (tmp_path, tmp_path / "missing" / "g.json"):
        capsys.readouterr()
        assert run(["gen", "torus-grid", "2", "2", "--out", str(out)]) == 2
        assert f"error: BadParams: cannot write {out}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["theta", "5"], ["petersen", "1", "2", "3"], ["torus-grid", "2", "2", "9"]]
)
def test_gen_extra_params_rejected(tmp_path, capsys, argv):
    out = tmp_path / "g.json"
    assert run(["gen", *argv, "--out", str(out)]) == 2
    assert "BadParams" in capsys.readouterr().err
    assert not out.exists()


def test_bad_input_is_one_stderr_line():
    """A bad-input error is written once, as the "error:" line."""
    env = dict(os.environ)
    src = str(Path(tscodes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tscodes.cli", "gen", "theta", "5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: BadParams: theta takes no parameters\n"


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


def test_schedule_bombin_names_the_bombin_code(tmp_path, capsys):
    # A colex input, but the bombin dual expansion builds no face records.
    hc = tmp_path / "hc.json"
    run(["gen", "honeycomb-torus", "3", "3", "--out", str(hc)])
    assert run(["schedule", str(hc), "--pipeline", "bombin"]) == 2
    err = capsys.readouterr().err
    assert "error: NoValidDecomposition:" in err
    assert "a bombin dual-expansion code builds none" in err
    assert "hypergraph JSON carries none" in err


def test_schedule_takes_no_coset_cap(tmp_path, capsys):
    """schedule never reads --coset-cap, so the option is rejected there as
    a usage error; build and verify keep it."""
    g = tmp_path / "g.json"
    run(["gen", "torus-grid", "2", "2", "--out", str(g)])
    with pytest.raises(SystemExit) as info:
        run(["schedule", str(g), "--pipeline", "theorem2", "--coset-cap", "5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --coset-cap 5" in capsys.readouterr().err
    rep = tmp_path / "r.json"
    argv = [str(g), "--pipeline", "theorem2", "--coset-cap", "5", "--out", str(rep)]
    assert run(["verify", *argv]) == 0
    assert run(["build", *argv]) == 0


def test_parser_is_built_once():
    assert cli.make_parser() is cli.make_parser()


def test_usage_error_leaves_next_call_unchanged(tmp_path, capsys):
    """The parser is shared by every `main` call of a process; a usage
    error (`--coset-cap 0`, exit 2) does not change what the next call
    prints."""
    g = tmp_path / "g.json"
    run(["gen", "torus-grid", "2", "2", "--out", str(g)])
    argv = ["verify", str(g), "--pipeline", "theorem2"]
    capsys.readouterr()
    assert run(argv) == 0
    before = capsys.readouterr()
    assert before.out and not before.err
    with pytest.raises(SystemExit) as info:
        run([*argv, "--coset-cap", "0"])
    assert info.value.code == 2
    assert "--coset-cap must be >= 1" in capsys.readouterr().err
    assert run(argv) == 0
    assert capsys.readouterr() == before


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
        ("custom", lambda: {"vertices": [], "rank2": [], "rank3": []},
         "MalformedRotation"),
    ],
    ids=["no-rank3", "vertex-out-of-range", "rotation-missing-vertex",
         "three-int-dart", "empty-graph", "empty-hypergraph"],
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


def test_h_violation_names_the_first_failed_condition(tmp_path, capsys):
    # Three parallel edges: both vertices have degree 3 (H2 holds), but
    # edges 0 and 1 share two vertices.
    data = {"vertices": [0, 1], "rank2": [[0, 1]] * 3, "rank3": []}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(data))
    assert run(["build", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.endswith("error: BadParams: input violates H1-H4: H3 fails at edges (0, 1)\n")
    with pytest.raises(GaugeMismatch) as info:
        analyzer.build_code(hypergraph.from_json_dict(data))
    assert str(info.value) == "hypergraph violates H1-H4: H3 fails at edges (0, 1)"


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


real_build_schedule = scheduler.build_schedule


def _rotate_first_promoted_sequence(code, model):
    """The real schedule with the link order of the first sigma2_promoted
    generator rotated by one, which breaks its syndrome."""
    sched = real_build_schedule(code, model)
    gid = next(g.gid for g in code.generators if g.kind == "sigma2_promoted")
    seqs = list(sched.per_stabilizer)
    seqs[gid] = seqs[gid][-1:] + seqs[gid][:-1]
    return dataclasses.replace(sched, per_stabilizer=tuple(seqs))


def test_schedule_names_the_first_inconsistent_generator(tmp_path, capsys, monkeypatch):
    g, out = tmp_path / "g.json", tmp_path / "s.json"
    run(["gen", "torus-grid", "2", "2", "--out", str(g)])
    monkeypatch.setattr(scheduler, "build_schedule", _rotate_first_promoted_sequence)
    argv = ["schedule", str(g), "--pipeline", "theorem2", "--trials", "40",
            "--seed", "7", "--out", str(out)]
    assert run(argv) == 1
    data = json.loads(out.read_text())
    assert data["simulation"]["failures"][0] == [1, 0]
    assert data["simulation"]["agreement"] < 1.0
    assert capsys.readouterr().err == (
        "check failed: syndrome_simulation: "
        "generator 1 (sigma2_promoted) is inconsistent in trial 0\n"
    )


def _patch_theorem2(monkeypatch, change):
    """Make the theorem2 pipeline return its code after ``change(code)``."""
    real = analyzer.theorem2_pipeline

    def pipeline(seed):
        code = real(seed)
        change(code)
        return code

    monkeypatch.setattr(analyzer, "theorem2_pipeline", pipeline)


def _wrong_prediction(monkeypatch):
    _patch_theorem2(monkeypatch, lambda code: code.predicted.update(incidence_rank=47))
    return "incidence_rank: computed 46, closed form 47"


def _swapped_cycles(monkeypatch):
    """Generators 0 and 1 (sigma1 and sigma2 of promoted face 1) trade cycles."""
    g0, g1 = analyzer.theorem2_pipeline(lattices.torus_grid(2, 2)).generators[:2]

    def change(code):
        code.generators = (
            dataclasses.replace(g0, cycle=g1.cycle),
            dataclasses.replace(g1, cycle=g0.cycle),
        ) + code.generators[2:]

    _patch_theorem2(monkeypatch, change)
    residue = g0.cycle ^ g1.cycle
    return f"dependencies: vfaces_sigma1 == ffaces_sigma2 fails: residue {residue:#x}"


def _nontrivial_in_gauge(monkeypatch):
    def change(code):
        h, n = code.hypergraph, code.n
        ws = [pauli.cycle_operator(h, sigma) for sigma in code.cycles.basis]
        code.gauge = gf2.Basis(list(code.gauge.rows) + [x | z << n for x, z in ws])

    code = analyzer.theorem2_pipeline(lattices.torus_grid(2, 2))
    first = analyzer._coset_reps(code, 20)[0]
    _patch_theorem2(monkeypatch, change)
    return f"nontrivial_cycles: nontrivial cycle {first:#x} lies in the gauge"


def _generators_short_of_s(monkeypatch):
    """The face walk loses the sigma2 generators of promoted faces 1 and 4."""
    real = hypergraph.canonical_face_cycles
    monkeypatch.setattr(
        hypergraph, "canonical_face_cycles",
        lambda h, fid: real(h, fid)[:1] if fid in (1, 4) else real(h, fid),
    )
    return "generators: span dim 13 < s = 14"


def _one_sigma2_missing(monkeypatch):
    """The face walk loses only the sigma2 generator of promoted face 4; the
    face generators carry 1 + delta dependencies, so the rest still span the
    stabilizer and the identity that needs the lost term fails instead."""
    real = hypergraph.canonical_face_cycles
    monkeypatch.setattr(
        hypergraph, "canonical_face_cycles",
        lambda h, fid: real(h, fid)[:1] if fid == 4 else real(h, fid),
    )
    return (
        "dependencies: ffaces_sigma1 * class1_sigma2 == vfaces_sigma2 fails: "
        "face 4 has no sigma2 generator"
    )


@pytest.mark.parametrize(
    "patch",
    [
        _wrong_prediction, _swapped_cycles, _nontrivial_in_gauge,
        _generators_short_of_s, _one_sigma2_missing,
    ],
    ids=lambda f: f.__name__.strip("_").replace("_", "-"),
)
def test_failed_check_exits_1(tmp_path, capsys, monkeypatch, patch):
    """build and verify write the report, name the failed check with its
    witness on stderr and exit 1; verify's report reads "verified": false."""
    g = tmp_path / "g.json"
    run(["gen", "torus-grid", "2", "2", "--out", str(g)])
    witness = patch(monkeypatch)
    for command, verified in (("build", None), ("verify", False)):
        capsys.readouterr()
        rep = tmp_path / f"{command}.json"
        argv = [command, str(g), "--pipeline", "theorem2", "--out", str(rep)]
        assert run(argv) == 1
        assert json.loads(rep.read_text()).get("verified") is verified
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"check failed: {witness}"

"""Golden sha256 digests of `tscodes build` and `verify` reports.

Identical inputs must give byte-identical reports; a change to any report
below shows up here.  The GOLDEN digests were taken from the CLI before the
pivot-keyed GF(2) core replaced the row-scan elimination, the GEN_GOLDEN
and custom-pipeline digests before the face and edge colorers were merged
and the rotation maps were cached on the graph.  SIM_GOLDEN pins
`simulate_syndrome` runs, down to every measurement outcome.
SCHEDULE_GOLDEN and SIGNS_GOLDEN pin the schedule layer (rounds, the
per-stabilizer link order and the sign of each generator's product); they
were taken before the scheduler moved from `Pauli` objects to (x, z) ints.
STRUCTURE_GOLDEN pins what the pipelines build below the reports: every
hyperedge and face record, each generator's kind, cycle and links, and the
pipeline's dependency data; it was taken before Theorems 2 and 3 were merged
into one promotion routine.
"""

import contextlib
import dataclasses
import hashlib
import io
import json

import pytest

from tscodes import analyzer, cli, colex, embed_graph, lattices
from tscodes import hypergraph as hg
from tscodes import scheduler as sch

# (family, gen params, pipeline, command, exit code, sha256 of the report)
GOLDEN = [
    ("torus-grid", (2, 2), "theorem2", "build", 0,
     "63554a4151642451c465de772c2352bdc4ac844d06172c1545175771f3be478c"),
    ("torus-grid", (2, 2), "theorem2", "verify", 0,
     "a8992481abac35fa30826873d4169d818209a31f783e6e251c297dd59aa4a589"),
    ("torus-grid", (2, 2), "theorem3", "build", 0,
     "997f4a78da18fc4ef1681eba69a3c7559c6876222a470fb8a043e613c466bc37"),
    ("torus-grid", (2, 2), "theorem3", "verify", 0,
     "9cf0b86f74ffec1c7b1152ca90691886993751c693e40b1d00658eda15a5c7a7"),
    ("torus-grid", (3, 3), "theorem2", "build", 0,
     "2396329d920e955291ceee019efd11b17913c11a9dfb6b2b76f25aa85b8be4b7"),
    ("torus-grid", (3, 3), "theorem2", "verify", 0,
     "062a8526079157d7d7054565dfc5576a4b662ecea847a9ee1b958869418a7a47"),
    ("torus-grid", (3, 3), "theorem3", "build", 0,
     "7836c81a1c66d5a757d760316e4b748c642e9fa2046ae78bfa34a45a29431b00"),
    ("torus-grid", (3, 3), "theorem3", "verify", 0,
     "0259d657804058436367023b8d76779e48bb762c816060ab6123d84c9c978430"),
    ("torus-grid", (4, 4), "theorem2", "build", 0,
     "d9946a0406fe4131767d02ebbf40dc606dc49d173e0264ed82f7c69b24a70149"),
    ("torus-grid", (4, 4), "theorem2", "verify", 0,
     "3ea1a36c151b2fe9c2a1a6dbb56c019092adb29528e571a5b3b74943784debf6"),
    ("torus-grid", (4, 4), "theorem3", "build", 0,
     "4d86e365442403d887aeab06de300e29b0bfcf55aded365e2bb58eeead0dbed3"),
    ("torus-grid", (4, 4), "theorem3", "verify", 0,
     "6357ca152933239a9ad62c83891661aa825e9065f0613c351caf422caa1e9d25"),
    ("triangular-torus", (2, 2), "theorem2", "build", 0,
     "8250a1cb06d6678bcc5a435c249dda340308dce09034cb9fea984f81683ea022"),
    ("triangular-torus", (2, 2), "theorem2", "verify", 0,
     "c78500bc4690379b0f70758e283893d77738afe35b07e054a67a3fc74929cd7f"),
    ("triangular-torus", (2, 2), "theorem3", "build", 0,
     "96532192cdfe88e89942400bfb631a2ea312df7b2d321c49785bc02e8da64212"),
    ("triangular-torus", (2, 2), "theorem3", "verify", 0,
     "9641eef684c157b72a4ae14a694734a24a8166d024814322845a147f741e0326"),
    ("honeycomb-torus", (6, 6), "bombin", "build", 0,
     "97d093b1f2151846be90ce02afa4b10a43ef04a138d54e5702d0df674d7ca7d1"),
    ("honeycomb-torus", (6, 6), "bombin", "verify", 0,
     "81f78d57ee6f4317566d0b39f75ffc833f1393e94ffe4db277ee6a151672bc21"),
]


@pytest.mark.parametrize(
    "family, params, pipeline, command, exit_code, digest",
    GOLDEN,
    ids=[f"{g[3]}-{g[2]}-{g[0]}-{g[1][0]}x{g[1][1]}" for g in GOLDEN],
)
def test_report_digest(tmp_path, family, params, pipeline, command, exit_code, digest):
    graph, report = tmp_path / "in.json", tmp_path / "report.json"
    assert cli.main(["gen", family, *map(str, params), "--out", str(graph)]) == 0
    argv = [command, str(graph), "--pipeline", pipeline, "--out", str(report)]
    assert cli.main(argv) == exit_code
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


# (family, gen params, sha256 of the generated JSON).  honeycomb-torus runs
# validate_colex's face coloring, the lattices run construct_A.
# The non-square sizes and the two fixed graphs were taken before the torus
# lattices moved to one periodic layout (`lattices._periodic`); a layout that
# swapped m and n would still pass every square size.
GEN_GOLDEN = [
    ("honeycomb-torus", (3, 3),
     "dd9115b172fa2dadaeabd58350a0c4cd8317b02f7c4254772ff9c206f699ef2d"),
    ("lattice-4-8", (2, 2),
     "f8a47ba613a0c9c40bbc7c79c45a6088bcb2157fa45f8a2142a8eaea75f51cb6"),
    ("lattice-4-6-12", (2, 2),
     "dce929904239ebf3b43d6659d79151838c1647a8ae425d27c4223e08e0b7fed7"),
    ("torus-grid", (2, 3),
     "38a23fd6641f198e60aff4f006b46ffde571b3bc9e6fa65e2d36494cd2e52599"),
    ("triangular-torus", (3, 2),
     "2b167bdb01fef5527dc86a290d970e179d59c65bfb790cbf21144cbc7334ed8a"),
    ("honeycomb-torus", (3, 6),
     "44eaf93861ba42d439d969c8c7fbb60f0ca29bcf47b589b2fbf3b3fef777df1a"),
    ("honeycomb-torus", (6, 3),
     "403f4a5a59d27300fb35d3cf6c8dd84e135bb8b6e04e75daa9239004f1ffe188"),
    ("lattice-4-8", (3, 2),
     "8137464bb21d9e0610188946fe6ed71418a7a96fc9b1c00215e83c56f93fc8bc"),
    ("lattice-4-6-12", (2, 3),
     "e96764710cd4f4f1a95b46419d34090d6a7b1747d004d9f7ed7982d3dc672112"),
    ("theta", (),
     "726aab0888f650fdfde74a1f03b727dde100d48dcdf6fa67f0b055873e7a5f95"),
    ("petersen", (),
     "990a39c86b78ad5f525d801ba225798cec2f675d3a78913525d5256ff2ac0eb6"),
]


@pytest.mark.parametrize(
    "family, params, digest",
    GEN_GOLDEN,
    ids=["-".join(["gen", f, "x".join(map(str, p))] if p else ["gen", f])
         for f, p, _ in GEN_GOLDEN],
)
def test_gen_digest(tmp_path, family, params, digest):
    out = tmp_path / "out.json"
    assert cli.main(["gen", family, *map(str, params), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# (m, n, sha256 of the graph JSON) of honeycomb tori whose faces are not
# 3-colorable, so `gen` rejects them; taken with the non-square GEN_GOLDEN.
HONEYCOMB_GRAPH_GOLDEN = [
    (2, 5, "80721bd0d0e3afc2f6836a7d341fb015d5dcf5c1ae00e2364b1c07b8b6ac17db"),
    (4, 4, "1e657c11ba4d2f9a27a6144514af43b20acdb727b4aa803c35e44e7736933414"),
]


@pytest.mark.parametrize(
    "m, n, digest", HONEYCOMB_GRAPH_GOLDEN,
    ids=[f"{m}x{n}" for m, n, _ in HONEYCOMB_GRAPH_GOLDEN],
)
def test_honeycomb_graph_digest(m, n, digest):
    text = embed_graph.to_json(lattices.honeycomb_torus(m, n))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_custom_uncolored_honeycomb_digest(tmp_path):
    """`verify --pipeline custom` on a plain graph runs three_edge_color."""
    graph, report = tmp_path / "in.json", tmp_path / "report.json"
    graph.write_text(embed_graph.to_json(lattices.honeycomb_torus(6, 6)))
    argv = ["verify", str(graph), "--pipeline", "custom", "--out", str(report)]
    assert cli.main(argv) == 0
    assert (
        hashlib.sha256(report.read_bytes()).hexdigest()
        == "8635245df5c5d98a74f17a1a6b5fedf56331c91173f17b758ceba1183b4faa1b"
    )


# (code, model, seed, sha256 of the SyndromeReport fields as JSON, sha256 of
# the outcome bits of every measurement of the run, in order: the link
# sweeps and the direct generator measurements, all of which pass through
# Tableau.measure_all).  The seven codes of the syndrome benchmark workload,
# four trials each, taken before the destabilizer columns moved to renamed
# slots.
SIM_GOLDEN = [
    ("th2_22", "relaxed", 11,
     "53de15e74d4e07d4a96cfbdb46700a7577853968c338c2fdd182037bdfb53fb8",
     "592713b3a7f5dd36f5f486d200fe9f268d3f171589793c85c66daa94ee3b5633"),
    ("th2_22", "exclusive", 11,
     "53de15e74d4e07d4a96cfbdb46700a7577853968c338c2fdd182037bdfb53fb8",
     "592713b3a7f5dd36f5f486d200fe9f268d3f171589793c85c66daa94ee3b5633"),
    ("th3_22", "relaxed", 12,
     "8cecff6db1abc7ed4c8fc0736f21eced55a98e129ae4ddce5638dfa04b406b5a",
     "43630bae82e78d97d6579271ca3bb590ac1abfbb36cb8b1feebd64a76af15b34"),
    ("th3_22", "exclusive", 12,
     "f2ee2385ae9cf65ac0c24de6afaaa77a6b1d102e8a366405bb470404bb87f7ce",
     "effd0f6c5681951f3f0d599f7df81cbe72f3ad0128eeb3c71f5b1e7efde69a29"),
    ("th2_33", "relaxed", 13,
     "b2155fbe1519a7440f3786e69ccfb6ba38649efab7db96dc6372c12cb9b4bdb3",
     "acfa08952df371cdef49f7e4b49364f12d06fe01a25021b981b623bb17cf837e"),
    ("th2_33", "exclusive", 13,
     "b2155fbe1519a7440f3786e69ccfb6ba38649efab7db96dc6372c12cb9b4bdb3",
     "acfa08952df371cdef49f7e4b49364f12d06fe01a25021b981b623bb17cf837e"),
    ("th3_33", "relaxed", 14,
     "a4a103423c26fb55db72483fc4d07dd00ea8c8030d51559adeffb384115bbd56",
     "b366b5ce8e2f4871dd2faca4ff48b62df315e7417f3011b8b10932ac182246d0"),
    ("th3_33", "exclusive", 14,
     "2216538ad7e9302b4968fa73ee933c9d493d8f30b41fd3fe6a52609e652a1ebb",
     "14a2082dfd508df004fef107029dc675bfc98257d2a5e16a2a3ce0f35f830803"),
    ("th2_tri22", "relaxed", 15,
     "1be9aa74f8724ae5a0c62988364325c8ccc54082160e80a207098c594f4a5fcd",
     "45bc332a83150cc355c24172c8db8117d04d3ee3ddd0b83b1cf6f20fb682faf9"),
    ("th2_tri22", "exclusive", 15,
     "1be9aa74f8724ae5a0c62988364325c8ccc54082160e80a207098c594f4a5fcd",
     "45bc332a83150cc355c24172c8db8117d04d3ee3ddd0b83b1cf6f20fb682faf9"),
    ("th3_tri22", "relaxed", 16,
     "bd15e029a5c5ce54e2193d7f8f6893c58106438052c449b15a82c048eea5fc17",
     "426e62c308ba739c6b8defd83e80cf3010c3bc4509bf599fe7f22d4ea455aa82"),
    ("th3_tri22", "exclusive", 16,
     "bd15e029a5c5ce54e2193d7f8f6893c58106438052c449b15a82c048eea5fc17",
     "e6a54b0563f0b6516e90bef3898a245709441601815d214e6e41344ae26784e8"),
    ("honeycomb_code", "relaxed", 17,
     "930802c8dcec32ef094779e49c5cfb727dbb3514192243d49a5209f66eb1bce7",
     "d5c092abb2db43ab49fc35dd94488d61858d196cbe3cfef22272e346e6b63cdf"),
    ("honeycomb_code", "exclusive", 17,
     "930802c8dcec32ef094779e49c5cfb727dbb3514192243d49a5209f66eb1bce7",
     "d5c092abb2db43ab49fc35dd94488d61858d196cbe3cfef22272e346e6b63cdf"),
]


@pytest.mark.parametrize(
    "name, model, seed, report_digest, outcomes_digest",
    SIM_GOLDEN,
    ids=[f"simulate-{g[0]}-{g[1]}" for g in SIM_GOLDEN],
)
def test_simulation_digest(
    request, monkeypatch, tri22_codes, name, model, seed, report_digest,
    outcomes_digest,
):
    code = tri22_codes.get(name) or request.getfixturevalue(name)
    outcomes = []

    class RecordingTableau(sch.Tableau):
        def measure_all(self, ops, rng):
            got = super().measure_all(ops, rng)
            outcomes.extend(got)
            return got

    monkeypatch.setattr(sch, "Tableau", RecordingTableau)
    sched = sch.build_schedule(code, model)
    rep = sch.simulate_syndrome(code, sched, trials=4, seed=seed, strict=False)
    # Two sweeps over every generator's links and one direct measurement
    # per generator, each trial: a measurement that bypassed the recorder
    # would be missing here.
    links = sum(map(len, sched.per_stabilizer))
    assert len(outcomes) == 4 * (2 * links + len(sched.per_stabilizer))
    text = json.dumps([
        rep.trials, rep.agreement, rep.direct_agreement, rep.idempotent,
        rep.varying_links, [list(f) for f in rep.failures],
    ])
    assert hashlib.sha256(text.encode()).hexdigest() == report_digest
    assert hashlib.sha256(bytes(outcomes)).hexdigest() == outcomes_digest


# (family, gen params, pipeline, model, exit code, sha256 of the stdout of
# `tscodes schedule --seed 3 --trials 20`).
SCHEDULE_GOLDEN = [
    ("torus-grid", (2, 2), "theorem2", "relaxed", 0,
     "5250adab36b764aaf1c4163a7c2857460fc7eb5daa5b82fa63f81122b352de35"),
    ("torus-grid", (2, 2), "theorem2", "exclusive", 0,
     "7d1e8321e097372d5b409272eb6a8f923cd2887adc348d916a41d9182e3ee1a0"),
    ("torus-grid", (2, 2), "theorem3", "relaxed", 0,
     "54db05a244fd567f998084425d014e9d2ce4abedbf92cca13a01dcd7b2b8f418"),
    ("torus-grid", (2, 2), "theorem3", "exclusive", 0,
     "4b0c70a8c9e7b554109b6c486269d1af00568d2216f56bd479c9ef95ec311da3"),
    ("triangular-torus", (2, 2), "theorem3", "relaxed", 0,
     "9e6cc3d5c10f4cdadf88918b9aadbfa9b9ad6b29995102566425daa5d8e9defc"),
    ("triangular-torus", (2, 2), "theorem3", "exclusive", 0,
     "8fbc50d6f372f58766779c9cd4cc74c2b08b2e7b989c6dd484b177c4c6e57d53"),
    ("honeycomb-torus", (3, 3), "custom", "relaxed", 0,
     "ace1522c5801f0eaf75bb861858048e07b2d11c14eb17cefa2cf26c779392491"),
    ("honeycomb-torus", (3, 3), "custom", "exclusive", 0,
     "552734e2cc7f4bad6e7cf46797ec6c8bff067c4d82dce916ae064a6b816c230a"),
]


@pytest.mark.parametrize(
    "family, params, pipeline, model, exit_code, digest",
    SCHEDULE_GOLDEN,
    ids=[f"schedule-{g[2]}-{g[0]}-{g[1][0]}x{g[1][1]}-{g[3]}" for g in SCHEDULE_GOLDEN],
)
def test_schedule_digest(tmp_path, family, params, pipeline, model, exit_code, digest):
    graph = tmp_path / "in.json"
    assert cli.main(["gen", family, *map(str, params), "--out", str(graph)]) == 0
    argv = ["schedule", str(graph), "--pipeline", pipeline, "--model", model,
            "--seed", "3", "--trials", "20"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == exit_code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


_TH3_TRI22_SIGNS = (1, -1, 1, -1, 1, 1, -1, 1, -1, 1, 1, -1, 1, 1, -1, 1, 1, -1,
                    1, -1, 1, 1, -1, 1, -1, 1, 1, -1, 1, 1, -1, 1) + (1,) * 16
# code -> `MeasurementSchedule.signs`, the same under both models.
SIGNS_GOLDEN = {
    "th2_22": (1,) * 16,
    "th3_22": (1,) * 32,
    "th3_tri22": _TH3_TRI22_SIGNS,
    "honeycomb_code": (-1,) * 9 + (1, 1),
}


@pytest.mark.parametrize("model", ["relaxed", "exclusive"])
@pytest.mark.parametrize("name", sorted(SIGNS_GOLDEN))
def test_schedule_signs(request, tri22_codes, name, model):
    code = tri22_codes.get(name) or request.getfixturevalue(name)
    assert sch.build_schedule(code, model).signs == SIGNS_GOLDEN[name]


def _structure_digest(code):
    """sha256 over (num_vertices, edges, faces), each generator's (kind,
    cycle, links) and the pipeline data, its class maps merged into one
    sorted face -> class list."""
    h = code.hypergraph
    classes, rest = {}, []
    if code.pipeline is not None:
        for f in dataclasses.fields(code.pipeline):
            value = getattr(code.pipeline, f.name)
            if isinstance(value, dict):
                classes.update(value)
            else:
                rest.append(value)
    text = repr((
        h.num_vertices, h.edges, h.faces,
        [(g.kind, g.cycle, g.links) for g in code.generators],
        rest, sorted(classes.items()),
    ))
    return hashlib.sha256(text.encode()).hexdigest()


# (seed family, m for the m x m seed, pipeline, structure digest)
STRUCTURE_GOLDEN = [
    ("torus_grid", 2, "theorem2",
     "b8b635ab33e602e8336c76e623c37e9950d97c3d884af8205fac0c44e722da26"),
    ("torus_grid", 2, "theorem3",
     "600e9300d0d2bc54a3985feadf511b24e487e05ea6996278aa525375c7dc6783"),
    ("torus_grid", 3, "theorem2",
     "71b7a810fdcee95aa6ec14fc308f22617cf34c13eb476338a78636e63a9144b3"),
    ("torus_grid", 3, "theorem3",
     "b770083f625c22120132a6d243500e66811a40c515b13a93efe732bfccb25ef5"),
    ("torus_grid", 4, "theorem2",
     "679e2a2a6e69047ea8702accf6e2b73d9886bc869bb004a3dda998a08e732527"),
    ("torus_grid", 4, "theorem3",
     "5bf46c5998ac41bbde2978c9406f460f59736fcc31aab253e42d614f0906d72a"),
    ("torus_grid", 6, "theorem2",
     "91ce39e7a54451061593d7bb2bd42934adce457f3fc93b4a39b72d4ee47f9f19"),
    ("torus_grid", 6, "theorem3",
     "0b3fb6e5a2d1e5fc2c28a46683dd155db803d77453a22e23fabf04364b98b2dd"),
    ("triangular_torus", 2, "theorem2",
     "ffa1dcf48777b911b80edc92e09d1d9312a93d7f2527cdb268ac151218e8ae23"),
    ("triangular_torus", 2, "theorem3",
     "6ef1f717fc561c2845ba553d9d163dc6f31cb8210fa7c32ad7316efdade7d5ce"),
    ("triangular_torus", 3, "theorem2",
     "3a0b575f8b192aecf30474964e6237c3dad4c269187543d1f0cc80bded171f3b"),
    ("triangular_torus", 3, "theorem3",
     "864390ab0944d1724d465c668714b48a3eb63e4d9c76836406134bb8b83b9496"),
]


@pytest.mark.parametrize(
    "family, m, pipeline, digest",
    STRUCTURE_GOLDEN,
    ids=[f"structure-{g[2]}-{g[0]}-{g[1]}x{g[1]}" for g in STRUCTURE_GOLDEN],
)
def test_pipeline_structure_digest(family, m, pipeline, digest):
    seed = getattr(lattices, family)(m, m)
    code = getattr(analyzer, f"{pipeline}_pipeline")(seed)
    assert _structure_digest(code) == digest


# colex -> structure digest of its rank-2 code (``analyzer.colex_code``).
COLEX_STRUCTURE_GOLDEN = {
    "honeycomb-3x3": (
        lambda: colex.validate_colex(lattices.honeycomb_torus(3, 3)),
        "d799f4338502d09554aa3adcb39b0f932b898d5e2bb3146c1a35931780cdb80b",
    ),
    "lattice-4-8-2x2": (
        lambda: colex.construct_A(lattices.torus_grid(2, 2)),
        "a6f8931f02cadd1612ebd651905ec7c599aec45d2e305bfc0f0c717cd7192e64",
    ),
    # Face-cycle spans too large to list (dim 35, 23 and 27); taken from
    # the pruned cycle walk that finds their loops.
    "honeycomb-6x6": (
        lambda: colex.validate_colex(lattices.honeycomb_torus(6, 6)),
        "12f9707900016a90816b981790446e8d666b32182b0453ac92503df0b9f8f3cb",
    ),
    "lattice-4-6-12-2x2": (
        lambda: colex.construct_A(lattices.triangular_torus(2, 2)),
        "8af3bf72abb12ea98c60cb186685685620eab800f890099c409a23c5ad62744a",
    ),
    "petersen-blowup": (
        lambda: colex.construct_A(lattices.petersen_graph()),
        "6d9a441fbd02a71e40d166bf7a873f4324ecd4d67a4a8b0a696d73670be181ce",
    ),
}


@pytest.mark.parametrize("name", sorted(COLEX_STRUCTURE_GOLDEN))
def test_colex_structure_digest(name):
    make, digest = COLEX_STRUCTURE_GOLDEN[name]
    cx = make()
    assert _structure_digest(analyzer.colex_code(cx)) == digest
    # Hypergraph equality skips the faces, so compare them on their own.
    plain = hg.promote(cx, (), "r")
    assert hg.from_colex(cx) == plain
    assert hg.from_colex(cx).faces == plain.faces

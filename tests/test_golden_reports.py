"""Golden sha256 digests of `tscodes build` and `verify` reports.

Identical inputs must give byte-identical reports; a change to any report
below shows up here.  The GOLDEN digests were taken from the CLI before the
pivot-keyed GF(2) core replaced the row-scan elimination, the GEN_GOLDEN
and custom-pipeline digests before the face and edge colorers were merged
and the rotation maps were cached on the graph.
"""

import hashlib

import pytest

from tscodes import cli, embed_graph, lattices

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
GEN_GOLDEN = [
    ("honeycomb-torus", (3, 3),
     "dd9115b172fa2dadaeabd58350a0c4cd8317b02f7c4254772ff9c206f699ef2d"),
    ("lattice-4-8", (2, 2),
     "f8a47ba613a0c9c40bbc7c79c45a6088bcb2157fa45f8a2142a8eaea75f51cb6"),
    ("lattice-4-6-12", (2, 2),
     "dce929904239ebf3b43d6659d79151838c1647a8ae425d27c4223e08e0b7fed7"),
]


@pytest.mark.parametrize(
    "family, params, digest",
    GEN_GOLDEN,
    ids=[f"gen-{g[0]}-{g[1][0]}x{g[1][1]}" for g in GEN_GOLDEN],
)
def test_gen_digest(tmp_path, family, params, digest):
    out = tmp_path / "out.json"
    assert cli.main(["gen", family, *map(str, params), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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

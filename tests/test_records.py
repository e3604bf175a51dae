"""What reports and set/dict orders read of the package's value records.

Each record keeps its field order, its ``Name(field=value, ...)`` repr, the
hash of its field tuple, equality between records with equal fields, and
read-only attributes.  Hashes are compared within one process only: on
CPython 3.11 ``hash(None)`` depends on an address.
"""

import pytest

from tscodes import analyzer, colex, hypergraph, scheduler

FIELDS = {
    "Generator": ("gid", "face", "kind", "cycle", "links", "op"),
    "NontrivialReport": (
        "cosets", "all_have_rank3", "none_in_gauge", "trivials_in_stabilizer",
        "witness",
    ),
    "DependencyReport": ("identities", "rank", "expected_rank", "witness"),
    "DistinctnessVerdict": ("six_valent", "witness_vertex", "simplified_is_colex"),
    "TwoColex": ("graph", "face_color", "edge_color", "parentage"),
    "RecoveredBipartite": ("graph", "classes", "class_colors"),
    "HEdge": ("vertices", "color", "provenance"),
    "Triangle": ("edge_id", "u_first", "u_second", "w"),
    "FaceRec": (
        "kind", "boundary", "boundary_vertices", "triangles", "kept", "fprime",
        "new_vertices",
    ),
    "Link": ("edge", "side", "vertices", "color", "step"),
    "ConditionReport": ("ok", "witness"),
    "HReport": ("h1", "h2", "h3", "h4", "coloring_proper", "rank3_monochrome"),
    "HypercycleSpace": ("basis", "dim", "incidence_rank"),
    "FaceCycle": ("kind", "cycle", "links"),
    "ScheduledLink": ("link", "vertices", "pauli", "stabilizers"),
    "MeasurementSchedule": ("model", "time_steps", "rounds", "per_stabilizer", "signs"),
    "SyndromeReport": (
        "trials", "agreement", "direct_agreement", "idempotent", "varying_links",
        "failures",
    ),
}


@pytest.fixture(scope="module")
def records(th2_22):
    """One instance of each record, taken from the th2 2x2 torus-grid code."""
    h = th2_22.hypergraph
    promoted = next(rec for rec in h.faces if rec.triangles)
    sched = scheduler.build_schedule(th2_22)
    found = [
        th2_22.generators[0],
        analyzer.nontrivial_cycle_checks(th2_22),
        analyzer.dependency_check(th2_22),
        analyzer.distinctness_check(th2_22),
        h.source,
        colex.recover_bipartite(h.source, "r"),
        h.edges[0],
        promoted.triangles[0],
        promoted,
        h.links[0],
        h.validation.h1,
        h.validation,
        th2_22.cycles,
        next(c for f, _ in enumerate(h.faces)
             for c in hypergraph.canonical_face_cycles(h, f)),
        sched.rounds[0][0],
        sched,
        scheduler.simulate_syndrome(th2_22, sched, trials=2, seed=3),
    ]
    return {type(r).__name__: r for r in found}


def test_every_record_is_covered(records):
    assert list(records) == list(FIELDS)


@pytest.mark.parametrize("name", FIELDS)
def test_record_semantics(records, name):
    r = records[name]
    names = FIELDS[name]
    values = tuple(getattr(r, f) for f in names)
    body = ", ".join(f"{f}={v!r}" for f, v in zip(names, values))
    assert repr(r) == f"{name}({body})"
    assert hash(r) == hash(values)
    twin = type(r)(*values)
    assert twin == r and twin is not r
    assert hash(twin) == hash(r)
    with pytest.raises(AttributeError):
        setattr(r, names[0], values[0])
    with pytest.raises(AttributeError):
        r.extra = 1

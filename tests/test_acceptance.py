"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import time

import pytest

from tscodes import (
    analyzer,
    colex,
    embed_graph as eg,
    gf2,
    hypergraph as hg,
    lattices,
    pauli,
    scheduler as sch,
)
from tscodes.errors import NotThreeEdgeColorable


def _report(criterion, text):
    print(f"[PASS] criterion {criterion}: {text}")


def test_criterion_1_parameter_identities(pipeline_codes, honeycomb_code):
    codes = dict(pipeline_codes)
    codes["honeycomb"] = honeycomb_code
    for name, code in codes.items():
        start = time.monotonic()
        n = code.n
        # Independent eliminations, from scratch.
        links = [
            pauli.link_operator(lk.vertices, lk.color) for lk in code.hypergraph.links
        ]
        gauge_dim = gf2.Basis(pauli.Pauli(n, *op).vec() for op in links).dim
        cent_dim = 2 * n - gauge_dim
        s = pauli.center(code.gauge, n).dim
        elapsed = time.monotonic() - start
        assert n == code.k + code.r + code.s
        assert gauge_dim == 2 * code.r + code.s
        assert cent_dim == 2 * code.k + code.s
        assert s == code.s
        assert elapsed < 1.0, f"{name}: {elapsed:.2f}s"
    _report(1, "n=k+r+s, dim G=2r+s, dim C(G)=2k+s exact on all fixtures, <1s each")


def test_criterion_2_theorem2_reproduction(th2_22, th2_33):
    assert th2_22.params() == (48, 2, 32, 14)
    assert th2_22.predicted["n"] == 48 and th2_22.predicted["k"] == 2
    assert th2_22.pipeline.delta == 1
    assert th2_33.params() == (108, 1, 72, 35)
    assert th2_33.pipeline.delta == 0
    _report(2, "2x2 -> (48,2,32,14); 3x3 -> (108,1,72,35); closed form == elimination")


def test_criterion_3_theorem3_reproduction(th3_22, th3_33):
    assert th3_22.params() == (80, 2, 48, 30)
    assert th3_22.cycles.dim == 34
    assert th3_22.cycles.incidence_rank == 78
    assert th3_33.params() == (180, 1, 108, 71)
    _report(3, "2x2 -> (80,2,48,30), dim cycle space 34, incidence rank 78")


def test_criterion_4_dual_expansion_formula():
    for (m, n) in ((3, 3), (3, 6)):
        cx = colex.validate_colex(lattices.honeycomb_torus(m, n))
        assert cx is not None
        V = cx.graph.num_vertices
        g = eg.genus(cx.graph)
        assert g == 1
        predicted = (3 * V, 2 * g, 2 * V + 2 * g - 2, V - 4 * g + 2)
        code = analyzer.bombin_pipeline(cx)
        assert code.params() == predicted
        assert code.k == 2
    _report(4, "honeycomb tori (3,3) and (3,6): [[3V, 2g, 2V+2g-2]] exact, k=2")


def test_criterion_5_commutation_law(pipeline_codes, honeycomb_code):
    total = 0
    codes = dict(pipeline_codes)
    codes["honeycomb"] = honeycomb_code
    for code in codes.values():
        h = code.hypergraph
        ops = [
            pauli.Pauli(h.num_vertices, *pauli.link_operator(e.vertices, e.color))
            for e in h.edges
        ]
        for i, j in itertools.combinations(range(h.num_edges), 2):
            shared = len(set(h.edges[i].vertices) & set(h.edges[j].vertices))
            assert pauli.commutes(ops[i], ops[j]) == (shared % 2 == 0)
            total += 1
    _report(5, f"commutes(Ke,Ke') iff |e^e'| even on {total} edge pairs, 0 violations")


def test_criterion_6_dependencies(pipeline_codes):
    tri22 = analyzer.theorem2_pipeline(lattices.triangular_torus(2, 2))
    checks = {
        "th2_22": (pipeline_codes["th2_22"], 3),
        "th2_33": (pipeline_codes["th2_33"], 1),
        "th2_tri22": (tri22, 3),
        "th3_22": (pipeline_codes["th3_22"], 2),
        "th3_33": (pipeline_codes["th3_33"], 1),
    }
    for name, (code, expected_idents) in checks.items():
        dep = analyzer.dependency_check(code)
        assert all(ok for _, ok in dep.identities), name
        assert len(dep.identities) == expected_idents, name
        gens = len([g for g in code.generators if g.face is not None])
        # Exactly 1 + delta dependencies among the face generators.
        assert gens - dep.rank == 1 + code.pipeline.delta, name
        assert dep.rank == dep.expected_rank == code.s, name
    _report(6, "product relations hold; bipartite duals add exactly one relation")


def test_criterion_7_nontrivial_cycles(pipeline_codes):
    start = time.monotonic()
    for name, code in pipeline_codes.items():
        assert 2 * code.k <= 20
        rep = analyzer.nontrivial_cycle_checks(code, coset_cap=20)
        assert rep.cosets == (1 << (2 * code.k)) - 1
        assert rep.all_have_rank3 and rep.none_in_gauge
        assert rep.trivials_in_stabilizer
    elapsed = time.monotonic() - start
    _report(7, f"all nontrivial cosets carry rank-3 edges, W outside gauge ({elapsed:.1f}s)")


def test_criterion_8_petersen_negative():
    h = hg.from_graph(lattices.petersen_graph())
    rep = hg.validate_H(h)
    assert rep.all_ok  # cubic, rank-2 only: H1-H4 fine
    assert hg.three_edge_color(h) is None
    with pytest.raises(NotThreeEdgeColorable):
        analyzer.build_code(h)
    _report(8, "Petersen graph: 3-edge-coloring absent, pipeline aborts as documented")


def test_criterion_9_schedules(pipeline_codes):
    trials = 100
    for name, code in pipeline_codes.items():
        relaxed = sch.build_schedule(code, "relaxed")
        exclusive = sch.build_schedule(code, "exclusive")
        assert relaxed.time_steps == 3, name
        assert exclusive.time_steps == 4, name
        for sched in (relaxed, exclusive):
            rep = sch.simulate_syndrome(code, sched, trials=trials, seed=42)
            assert rep.agreement == 1.0, name
            assert rep.direct_agreement == 1.0, name
            assert rep.idempotent, name
            if code.r > 0:
                assert rep.varying_links > 0, name
    _report(9, f"3 relaxed rounds, 4 exclusive steps; both models x {trials} "
               "trials at agreement 1.0")


def test_criterion_10_distinctness(pipeline_codes):
    tri22_t3 = analyzer.theorem3_pipeline(lattices.triangular_torus(2, 2))
    expect_distinct = {
        "th3_22": True,
        "th3_33": True,
        "th2_33": True,  # non-bipartite dual
        "th2_22": False,  # bipartite dual: coincides
    }
    for name, want in expect_distinct.items():
        verdict = analyzer.distinctness_check(pipeline_codes[name])
        assert verdict.distinct == want, name
    assert analyzer.distinctness_check(tri22_t3).distinct
    _report(10, "medial-route codes and non-bipartite-dual codes are distinct; "
               "bipartite-dual blowups coincide")

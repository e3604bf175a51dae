"""Hypergraph routines that ``tscodes.hypergraph`` no longer runs, kept as
test oracles.

A set of hyperedges is a hypercycle when it meets every vertex evenly: the
incidence row of each vertex has an even overlap with it (``is_cycle``,
kept for the tests that check canonical face cycles).  The package reads
the cycle space from one sweep over the incidence matrix's columns, the
edges' vertex masks (``gf2.relations``), instead.

``validate_H`` is the H1-H4 check as it was before H3 and H4 were read from
one count of edge pairs per shared vertex: it lists every pair of edges
meeting at a vertex, sorts them and intersects their vertex sets pair by
pair.  The property tests require the same ``HReport``, witnesses included.
"""

from __future__ import annotations

from tscodes import gf2
from tscodes.hypergraph import ConditionReport, HReport, Hypergraph


def is_cycle(h: Hypergraph, sigma: int) -> bool:
    """Whether the edge set ``sigma`` meets every vertex of ``h`` evenly."""
    return all(gf2.dot(row, sigma) == 0 for row in h.incidence_rows())


def validate_H(h: Hypergraph) -> HReport:
    """Check H1-H4 with witnesses, plus the edge-coloring invariants."""
    h1 = ConditionReport(True)
    for i, e in enumerate(h.edges):
        if e.rank not in (2, 3):
            h1 = ConditionReport(False, (i,))
            break
    inc = [h.incident_edges(v) for v in range(h.num_vertices)]
    h2 = ConditionReport(True)
    for v, lst in enumerate(inc):
        if len(lst) != 3:
            h2 = ConditionReport(False, (v, len(lst)))
            break
    h3 = ConditionReport(True)
    h4 = ConditionReport(True)
    pairs = set()
    for v, lst in enumerate(inc):
        for a in lst:
            for b in lst:
                if a < b:
                    pairs.add((a, b))
    for (a, b) in sorted(pairs):
        shared = set(h.edges[a].vertices) & set(h.edges[b].vertices)
        if len(shared) > 1 and h3.ok:
            h3 = ConditionReport(False, (a, b))
        if h.edges[a].rank == 3 and h.edges[b].rank == 3 and h4.ok:
            h4 = ConditionReport(False, (a, b))
    proper = ConditionReport(True)
    for v, lst in enumerate(inc):
        cols = [h.edges[i].color for i in lst]
        if None in cols:
            proper = ConditionReport(False, (v,))
            break
        if len(set(cols)) != len(cols):
            proper = ConditionReport(False, (v,))
            break
    # Rank-3 edges must all be "b": their triangle sides are ZZ links and
    # their cycle operators ZZZ, whatever the color.  The witness is the set
    # of colors when they differ, else the first edge that is not "b".
    mono = ConditionReport(True)
    r3 = h.rank3_ids()
    r3cols = {h.edges[i].color for i in r3}
    if len(r3cols) > 1:
        mono = ConditionReport(False, tuple(sorted(r3cols, key=str)))
    elif r3cols and r3cols != {"b"}:
        mono = ConditionReport(False, (r3[0], h.edges[r3[0]].color))
    return HReport(h1, h2, h3, h4, proper, mono)

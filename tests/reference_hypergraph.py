"""The hypercycle membership test that ``tscodes.hypergraph`` no longer
exports, kept for the tests that check canonical face cycles.

A set of hyperedges is a hypercycle when it meets every vertex evenly: the
incidence row of each vertex has an even overlap with it.  The package
reads the cycle space from one kernel elimination instead.
"""

from __future__ import annotations

from tscodes import gf2
from tscodes.hypergraph import Hypergraph


def is_cycle(h: Hypergraph, sigma: int) -> bool:
    """Whether the edge set ``sigma`` meets every vertex of ``h`` evenly."""
    return all(gf2.dot(row, sigma) == 0 for row in h.incidence_rows())

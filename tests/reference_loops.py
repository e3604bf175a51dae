"""The loop search that ``analyzer._lightest_loop`` replaced, kept as the
oracle of a differential test.

For each coset of the face-cycle span missing from the stabilizer it lists
all 2^dim vectors of the span, sorts the coset by (weight, edge mask) and
runs the prefix rule on each candidate's r -> g -> b grouped links, so it
is exact and independent of the flank-rule cycle walk.  Its body is the
replaced ``_completion_loops``, verbatim, with its cap on the span.
"""

from __future__ import annotations

from typing import List, Sequence

from tscodes import gf2, hypergraph, pauli
from tscodes.errors import GaugeMismatch, QuotientTooLarge
from tscodes.hypergraph import Hypergraph

# The largest face-cycle span whose 2^dim vectors the loop search lists.
LOOP_SPAN_CAP = 18


def _completion_loops(
    h: Hypergraph, triv: gf2.Basis, cycles: Sequence[int]
) -> List[hypergraph.FaceCycle]:
    """Rank-2 loop generators completing the face-cycle span.

    Searches each missing coset for a minimum-weight representative whose
    r -> g -> b grouped links satisfy the prefix rule, so the loop can join
    the measurement schedule.  Used for colexes whose stabilizer includes
    cycles of nontrivial homology (no rank-3 edges), so every candidate is
    a rank-2 cycle, nonzero as its coset is nontrivial, and its operator is
    a product of link operators, so it lies in the gauge."""
    out: List[hypergraph.FaceCycle] = []
    work = triv.copy()
    missing = [b for b in cycles if work.add(b)]
    for rep in missing:
        if triv.contains(rep):
            continue
        if triv.dim > LOOP_SPAN_CAP:
            raise QuotientTooLarge("face-cycle span too large for loop search")
        span = gf2.span_vectors(triv.rows)
        cands = sorted(
            (rep ^ x for x in span), key=lambda m: (m.bit_count(), m)
        )
        for cand in cands:
            loop = hypergraph.rank2_cycle(h, "loop2", gf2.bits(cand))
            if pauli.first_bad_prefix([h.link_ops[i] for i in loop.links]) is None:
                break
        else:
            raise GaugeMismatch("no schedulable loop closes the stabilizer span")
        out.append(loop)
        triv.add(loop.cycle)
    return out

"""The coset enumeration that ``analyzer.distance_bound`` replaced, kept as
the oracle of a differential test.

For each nontrivial coset representative it scans all 2^dim vectors of the
projected trivial span, so it is exact and independent of the
Brouwer-Zimmermann search in ``gf2.min_coset_weight`` (row subsets over
disjoint information sets, stopped at the t*r lower bound); its search body
is the replaced function's, verbatim, and it returns ell as an int or None,
as ``distance_bound`` does.
"""

from __future__ import annotations

from typing import Optional

from tscodes import gf2
from tscodes.analyzer import SubsystemCode, _coset_reps
from tscodes.errors import QuotientTooLarge


def distance_bound(code: SubsystemCode, coset_cap: int = 20) -> Optional[int]:
    """ell: the minimum rank-3 count over nontrivial hypercycles, by coset
    enumeration with exhaustion over the projected trivial span."""
    h = code.hypergraph
    r3 = h.rank3_mask()
    if r3 == 0:
        return None
    reps = _coset_reps(code, coset_cap)
    proj = gf2.Basis(v & r3 for v in code.trivial.rows)
    if proj.dim > coset_cap:
        raise QuotientTooLarge(
            f"projected trivial span has dim {proj.dim} > cap {coset_cap}"
        )
    span = gf2.span_vectors(proj.rows)
    best = None
    for rep in reps:
        base = rep & r3
        m = min((base ^ x).bit_count() for x in span)
        best = m if best is None else min(best, m)
    return best

"""The enumerations that ``analyzer.distance_bound`` and
``analyzer.exact_distance`` replaced, kept as the oracles of differential
tests.

For each nontrivial coset representative ``distance_bound`` scans all
2^dim vectors of the projected trivial span, so it is exact and independent
of the Brouwer-Zimmermann search in ``gf2.min_coset_weight`` (row subsets
over disjoint information sets, stopped at the t*r lower bound); its search
body is the replaced function's, verbatim, and it returns ell as an int or
None, as ``distance_bound`` does.

``exact_distance`` lists all 2^dim vectors of C(S), spanned by the gauge
rows and the quotient operators, and weighs each one outside the gauge span
qubit by qubit; it is the replaced function, verbatim, gate included.
"""

from __future__ import annotations

from typing import Optional

from tscodes import gf2
from tscodes.analyzer import EXACT_MAX_DIM, EXACT_MAX_N, SubsystemCode, _coset_reps
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


def exact_distance(code: SubsystemCode) -> Optional[int]:
    """Brute-force min weight over C(S) minus the gauge span; None when the
    instance exceeds the enumeration gate, or when k = 0: then dim C(S) -
    dim G = 2k = 0, so C(S) = G and no vector lies outside the gauge.

    C(S) = G + L, and L is W(trivial cycles) + span(``quotient_ops``) with
    W(trivial cycles) inside S, so the gauge rows and the quotient operators
    span C(S)."""
    if code.k == 0 or code.n > EXACT_MAX_N:
        return None
    n = code.n
    cs = gf2.Basis([*code.gauge.rows, *code.quotient_ops])
    if cs.dim > EXACT_MAX_DIM:
        return None
    best = None
    low = (1 << n) - 1
    for v in gf2.span_vectors(cs.rows):
        if v == 0 or code.gauge.contains(v):
            continue
        w = ((v | v >> n) & low).bit_count()
        best = w if best is None else min(best, w)
    return best

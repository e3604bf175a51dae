"""GF(2) linear algebra on int bitsets.

Vectors are Python ints read as little-endian bit vectors (bit i = coordinate
i); ``relations`` reads a matrix as its list of column ints.  There is one
elimination routine, the pivot-keyed echelon ``Basis``; ``relations`` and
``min_coset_weight`` run on it.  A reduction costs one XOR per pivot it
hits, on ints as wide as the vectors.  Set bits are walked from the top
(``bit_length``, then clear that bit): ``v & -v`` would cost CPython a
two's-complement pass per bit.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import xor
from typing import Dict, Iterable, List, Optional, Sequence


def dot(a: int, b: int) -> int:
    """Inner product of two bit vectors over GF(2)."""
    return (a & b).bit_count() & 1


def bits(v: int) -> List[int]:
    """Indices of the set bits of v, ascending: walked from the top bit
    down with no negation, then reversed once."""
    out: List[int] = []
    while v:
        q = v.bit_length() - 1
        out.append(q)
        v ^= 1 << q
    out.reverse()
    return out


class Basis:
    """Echelon basis of a GF(2) subspace, keyed by pivot.

    ``top`` maps each pivot (highest set bit) to its row and ``mask`` has
    the pivots set.  ``reduce`` XORs in the row of the highest pivot still
    set until none is, so it touches only the pivots it hits, and ``add``
    stores the result with no back-substitution.  ``rows`` is the reduced
    echelon form in pivot insertion order, unique for the span and that
    order; it is built on first read after an ``add`` by one ascending-pivot
    pass, which replaces the stored rows.  The list is shared: read only.
    """

    def __init__(self, vectors: Iterable[int] = ()) -> None:
        self.top: Dict[int, int] = {}
        self.mask = 0
        self._rows: Optional[List[int]] = []
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self.top)

    @property
    def rows(self) -> List[int]:
        if self._rows is None:
            top, mask = self.top, self.mask
            for piv in sorted(top):
                row = top[piv]
                # The lower rows are reduced already: one XOR per pivot bit.
                for q in bits(row & mask ^ (1 << piv)):
                    row ^= top[q]
                top[piv] = row
            self._rows = list(top.values())
        return self._rows

    def reduce(self, v: int) -> int:
        """Reduce v against the basis: the unique representative of v + span
        with no pivot bit set; zero iff v is in the span."""
        top, mask = self.top, self.mask
        hit = v & mask
        while hit:
            v ^= top[hit.bit_length() - 1]
            hit = v & mask
        return v

    def add(self, v: int) -> bool:
        """Insert v; returns True if it enlarged the span."""
        v = self.reduce(v)
        if v == 0:
            return False
        piv = v.bit_length() - 1
        self.top[piv] = v
        self.mask |= 1 << piv
        self._rows = None
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def copy(self) -> "Basis":
        b = Basis()
        b.top, b.mask, b._rows = dict(self.top), self.mask, self._rows
        return b


def relations(cols: Sequence[int]) -> List[int]:
    """Basis of the relations among the columns (the x whose set bits pick
    columns that XOR to 0), in one sweep: with w = len(cols), column v at
    index c, ascending, is reduced as (v << w) | (1 << c) against the
    independent columns so far.  A zero high half leaves the relation, 1 << c
    plus the earlier independent columns that sum to v, which is unique."""
    w, ind, out = len(cols), Basis(), []
    for c, v in enumerate(cols):
        r = ind.reduce(v << w | 1 << c)
        (ind.add if r >> w else out.append)(r)
    return out


def min_coset_weight(basis: Basis, vectors: Iterable[int]) -> Optional[int]:
    """min |v ^ x| over the given vectors v and every x in span(basis);
    None when there are no vectors.

    Exact, by the Brouwer-Zimmermann search over disjoint information sets
    (Zimmermann 1996; Grassl 2006).  Each set is the pivots of an echelon
    form whose pivots avoid the earlier sets, from eliminating
    ((row & free) << w) | row, Zassenhaus style; the sets end at the
    first form not full rank on the free columns.  A vector reduced against
    such a form has no pivot bit, so adding r of its rows gives a coset
    vector of weight r on the set plus the weight of their tails' XOR off
    it.  Level r weighs every r-subset of each set's tails.  A coset vector
    unseen after levels below r on all t sets and level r on the first j
    weighs at least t*r + j, so the search stops once best reaches that.
    """
    vectors = list(vectors)
    if not vectors:
        return None
    rows, dim = basis.rows, basis.dim
    if not dim:
        return min(v.bit_count() for v in vectors)
    w = max([basis.mask.bit_length()] + [v.bit_length() for v in vectors])
    low = free = (1 << w) - 1
    sets = []
    while True:
        work = Basis(((row & free) << w) | row for row in rows)
        pivots = work.mask >> w
        if pivots.bit_count() < dim:
            break
        tails = [row & low & ~pivots for row in work.rows]
        reduced = [work.reduce(((v & free) << w) | v) & low for v in vectors]
        sets.append((tails, reduced))
        free &= ~pivots
    t, best = len(sets), w
    for r in range(dim + 1):
        for j, (tails, reduced) in enumerate(sets):
            if best <= t * r + j:
                return best
            for combo in combinations(tails, r):
                x = reduce(xor, combo, 0)
                for u in reduced:
                    weight = r + (u ^ x).bit_count()
                    if weight < best:
                        best = weight
    return best


def span_vectors(basis_rows: List[int]) -> List[int]:
    """All 2^dim vectors of the span.  Caller is responsible for the cap."""
    out = [0]
    for row in basis_rows:
        out.extend(v ^ row for v in list(out))
    return out

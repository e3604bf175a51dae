"""GF(2) linear algebra on int bitsets.

Vectors are Python ints read as little-endian bit vectors (bit i = coordinate
i).  Matrices are lists of row ints.  There is one elimination routine, the
pivot-keyed echelon ``Basis``; ``rank``, ``intersection`` and ``kernel`` all
run on it.  A reduction costs one XOR per pivot it hits, on ints as wide as
the vectors.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


def parity(x: int) -> int:
    return x.bit_count() & 1


def dot(a: int, b: int) -> int:
    """Inner product of two bit vectors over GF(2)."""
    return (a & b).bit_count() & 1


def bits(v: int) -> List[int]:
    """Indices of the set bits of v, ascending."""
    out: List[int] = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
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
    def pivots(self) -> List[int]:
        return list(self.top)

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


def rank(rows: Iterable[int]) -> int:
    return Basis(rows).dim


def intersection(a: Basis, b: Iterable[int]) -> List[int]:
    """A basis of span(a) intersected with span(b), by Zassenhaus: with w
    the bit width, rows (u << w) | u for u in a and v << w for v in b share
    one echelon basis, whose rows with a pivot below w (a zero high half)
    span the intersection.  Returned in reduced echelon form."""
    b = list(b)
    w = max([a.mask.bit_length()] + [v.bit_length() for v in b])
    work = Basis((u << w) | u for u in a.top.values())
    for v in b:
        work.add(v << w)
    return Basis(r for piv, r in work.top.items() if piv < w).rows


def kernel(rows: List[int], ncols: int) -> List[int]:
    """Basis of {x : M x = 0} where M has the given rows as bit vectors.

    M maps GF(2)^ncols -> GF(2)^len(rows); row_i . x is a parity of an AND.
    Runs the echelon core on the bit-reversed rows, so pivots are the lowest
    set columns; each free column c, ascending, gets 1 << c plus the pivot
    column of every reduced row with bit c set.
    """
    last, full = ncols - 1, (1 << ncols) - 1
    ech = Basis(int(f"{r & full:0{ncols}b}"[::-1], 2) for r in rows)
    fill: Dict[int, int] = {}
    for piv, row in zip(ech.pivots, ech.rows):
        for b in bits(row ^ (1 << piv)):
            fill[last - b] = fill.get(last - b, 0) | (1 << (last - piv))
    pivot_cols = {last - piv for piv in ech.pivots}
    return [(1 << c) | fill.get(c, 0) for c in range(ncols) if c not in pivot_cols]


def min_coset_weight(basis: Basis, vectors: Iterable[int]) -> Optional[int]:
    """min |v ^ x| over the given vectors v and every x in span(basis);
    None when there are no vectors.

    Exact, by search over one information set, the pivots (Leon 1988).  In
    reduced echelon form a span vector is the XOR of the rows whose pivots
    it contains, and ``reduce(v)`` has no pivot bit, so |reduce(v) ^ x| is
    the number of those rows plus the weight of their XOR off the pivots.
    A depth-first search over row subsets carries that XOR and cuts a
    branch once one more row cannot beat the best weight so far, which is
    shared across the vectors; a node whose children could not go deeper
    weighs them in place.  It visits at most 2^dim subsets per vector.
    """
    mask = basis.mask
    tails = [row & ~mask for row in basis.rows]
    dim = len(tails)
    best: Optional[int] = None
    for v in vectors:
        stack = [(0, 0, basis.reduce(v))]
        while stack:
            start, depth, acc = stack.pop()
            w = depth + acc.bit_count()
            if best is None or w < best:
                best = w
            depth += 1
            if depth + 1 < best:
                stack.extend((j + 1, depth, acc ^ tails[j]) for j in range(start, dim))
            elif depth < best and start < dim:
                # The children could not push grandchildren: weigh them here.
                best = min(best, depth + min((acc ^ t).bit_count() for t in tails[start:]))
    return best


def span_vectors(basis_rows: List[int]) -> List[int]:
    """All 2^dim vectors of the span.  Caller is responsible for the cap."""
    out = [0]
    for row in basis_rows:
        out.extend(v ^ row for v in list(out))
    return out

"""The row-scan GF(2) elimination that tscodes.gf2 replaced, kept as the
oracle of a differential test.

``Basis`` keeps a fully reduced echelon basis by scanning every row on each
reduce and back-substituting on each insert; ``kernel`` eliminates column by
column.  Simple and slow, and independent of the pivot-keyed core.
``intersection`` is the Zassenhaus elimination that gave the stabilizer as
the gauge span intersected with the cycle-operator span before
``tscodes.analyzer.build_code`` read it off the Gram matrix of the cycle
operators; the tests compare the two.
"""

from __future__ import annotations

from typing import Iterable, List


class Basis:
    """Maintains a reduced (echelon) basis of a GF(2) subspace.

    Vectors are reduced against the basis on insert; pivots are recorded so
    membership tests and reductions are O(dim).
    """

    def __init__(self, vectors: Iterable[int] = ()) -> None:
        self.rows: List[int] = []
        self.pivots: List[int] = []
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: int) -> int:
        """Reduce v against the basis; zero iff v is in the span."""
        for row, piv in zip(self.rows, self.pivots):
            if (v >> piv) & 1:
                v ^= row
        return v

    def add(self, v: int) -> bool:
        """Insert v; returns True if it enlarged the span."""
        v = self.reduce(v)
        if v == 0:
            return False
        piv = v.bit_length() - 1
        # Back-substitute to keep the basis fully reduced.
        for i, row in enumerate(self.rows):
            if (row >> piv) & 1:
                self.rows[i] = row ^ v
        self.rows.append(v)
        self.pivots.append(piv)
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def copy(self) -> "Basis":
        b = Basis()
        b.rows = list(self.rows)
        b.pivots = list(self.pivots)
        return b


def intersection(a: Basis, b: Iterable[int]) -> List[int]:
    """A basis of span(a) intersected with span(b), by Zassenhaus: with w
    the bit width, rows (u << w) | u for u in a (already reduced, so they
    enter as they are) and v << w for v in b share one echelon basis, whose
    rows with a zero high half span the intersection."""
    b = list(b)
    w = max((v.bit_length() for v in a.rows + b), default=0)
    work = Basis()
    work.rows = [(u << w) | u for u in a.rows]
    work.pivots = [p + w for p in a.pivots]
    for v in b:
        work.add(v << w)
    return [r for r in work.rows if r >> w == 0]


def kernel(rows: List[int], ncols: int) -> List[int]:
    """Basis of {x : M x = 0} where M has the given rows as bit vectors.

    M maps GF(2)^ncols -> GF(2)^len(rows); row_i . x is a parity of an AND.
    """
    work = [r for r in rows]
    pivot_of_col: dict[int, int] = {}
    row_idx = 0
    for col in range(ncols):
        pivot = None
        for r in range(row_idx, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        for r in range(len(work)):
            if r != row_idx and ((work[r] >> col) & 1):
                work[r] ^= work[row_idx]
        pivot_of_col[col] = row_idx
        row_idx += 1
        if row_idx == len(work):
            # Remaining columns are all free.
            break
    basis: List[int] = []
    for col in range(ncols):
        if col in pivot_of_col:
            continue
        v = 1 << col
        for pcol, prow in pivot_of_col.items():
            if (work[prow] >> col) & 1:
                v |= 1 << pcol
        basis.append(v)
    return basis

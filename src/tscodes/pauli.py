"""n-qubit Pauli algebra in the GF(2) symplectic representation.

An operator is a pair of bit-vector ints (x, z): qubit i carries X iff
x_i = 1, Z iff z_i = 1, Y iff both.  ``hypergraph``, ``analyzer`` and
``scheduler`` pass operators as raw (x, z) tuples; ``phase_product`` (the
signed ordered product, for ``build_schedule``'s signs) and
``first_bad_prefix`` (the prefix rule) work on them; ``link_operator`` reads
each link's operator (``Hypergraph.link_ops``) off ``LINK_PAULI``, the one color ->
Pauli table.  Spans are ``gf2.Basis`` objects over 2n-bit vectors laid out as
x | (z << n); ``center``, the test oracle for the stabilizer, works on
those raw rows.  The ``Pauli`` dataclass is the API edge: string I/O,
``commutes`` and the operators ``scheduler.Tableau`` measures (each decodes
its ``support`` once).  Global phases are dropped except in
``phase_product`` (``scheduler.Tableau`` keeps its own, in XZ form).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import xor
from typing import Iterable, List, Optional, Sequence, Tuple

from . import gf2
from .errors import ColorMissing, NotACycle, SizeMismatch

_CHAR = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS = {v: k for k, v in _CHAR.items()}


@dataclass(frozen=True)
class Pauli:
    n: int
    x: int
    z: int

    @staticmethod
    def identity(n: int) -> "Pauli":
        return Pauli(n, 0, 0)

    @staticmethod
    def from_string(s: str) -> "Pauli":
        x = z = 0
        for i, ch in enumerate(s):
            bx, bz = _BITS[ch]
            x |= bx << i
            z |= bz << i
        return Pauli(len(s), x, z)

    def to_string(self) -> str:
        return "".join(
            _CHAR[((self.x >> i) & 1, (self.z >> i) & 1)] for i in range(self.n)
        )

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @cached_property
    def support(self) -> Tuple[List[int], List[int]]:
        """The qubits with an X part and with a Z part, ascending, decoded
        on first read and kept (outside the fields, so equality, hash and
        repr are unchanged): the tableau measures the same link operators
        many times.  The lists are shared: read only."""
        return gf2.bits(self.x), gf2.bits(self.z)

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def mul(self, other: "Pauli") -> "Pauli":
        """Product mod phase."""
        if self.n != other.n:
            raise SizeMismatch(f"{self.n} != {other.n}")
        return Pauli(self.n, self.x ^ other.x, self.z ^ other.z)

    def vec(self) -> int:
        return self.x | (self.z << self.n)

    @staticmethod
    def from_vec(n: int, v: int) -> "Pauli":
        mask = (1 << n) - 1
        return Pauli(n, v & mask, v >> n)


def commutes(p: Pauli, q: Pauli) -> bool:
    """True iff the symplectic inner product x_p.z_q + z_p.x_q vanishes."""
    if p.n != q.n:
        raise SizeMismatch(f"{p.n} != {q.n}")
    return (gf2.dot(p.x, q.z) ^ gf2.dot(p.z, q.x)) == 0


def phase_product(ops: Iterable[Tuple[int, int]]) -> Tuple[Tuple[int, int], int]:
    """Exact ordered product of (x, z) operators: ((x, z) mod phase, k)
    with phase i^k, where (x, z) stands for i^{x.z} X^x Z^z.

    Per qubit the cyclically ordered pairs XY, YZ, ZX add 1 to k and the
    reversed pairs subtract 1; equal or identity factors add nothing.  The
    empty product is the identity.
    """
    x = z = k = 0
    for px, pz in ops:
        k += (
            (x & ~z & px & pz)  # X then Y
            | (x & z & ~px & pz)  # Y then Z
            | (~x & z & px & ~pz)  # Z then X
        ).bit_count() - (
            (x & z & px & ~pz)  # Y then X
            | (~x & z & px & pz)  # Z then Y
            | (x & ~z & ~px & pz)  # X then Z
        ).bit_count()
        x ^= px
        z ^= pz
    return (x, z), k % 4


def first_bad_prefix(ops: Sequence[Tuple[int, int]]) -> Optional[int]:
    """Prefix rule on (x, z) operators: the index of the first one that
    anticommutes with the product of those before it, None if there is none."""
    x = z = 0
    for j, (px, pz) in enumerate(ops):
        if gf2.dot(x, pz) ^ gf2.dot(z, px):
            return j
        x ^= px
        z ^= pz
    return None


LINK_PAULI = {"r": "X", "g": "Y", "b": "Z"}


def link_operator(vertices: Sequence[int], color: Optional[str]) -> Tuple[int, int]:
    """(x, z) of a link: XX/YY/ZZ by color on two vertices, ZZZ on three."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    if len(vertices) == 3:
        return 0, mask
    if color not in LINK_PAULI:
        raise ColorMissing(f"rank-2 edge {tuple(vertices)} has no color")
    ch = LINK_PAULI[color]
    return (mask if ch in "XY" else 0), (mask if ch in "YZ" else 0)


def cycle_operator(h, sigma: int) -> Tuple[int, int]:
    """W(sigma): the (x, z) product of link operators over the edges of a
    hypercycle (mod phase).  One walk over sigma's edges reads the per-edge
    masks cached on ``h`` and XORs the vertex masks and the operators
    together; odd incidence raises NotACycle before an uncolored edge (the
    lowest one) raises ColorMissing."""
    masks = h.edge_masks
    odd = x = z = 0
    uncolored = None
    for i in gf2.bits(sigma & ((1 << h.num_edges) - 1)):
        verts, link = masks[i]
        odd ^= verts
        if link is not None:
            x ^= link[0]
            z ^= link[1]
        elif uncolored is None:
            uncolored = i
    if odd:
        raise NotACycle("odd incidence at a vertex")
    if uncolored is not None:
        raise ColorMissing(f"rank-2 edge {h.edges[uncolored].vertices} has no color")
    return x, z


def center(span: gf2.Basis, n: int) -> gf2.Basis:
    """span intersected with its centralizer (x | z << n layout): the
    radical of the symplectic form restricted to the span.

    Gram row i has bit j when rows i and j anticommute: one ``gf2.dot`` of
    row i with row j half-swapped (x and z exchanged).  The Gram matrix is
    symmetric, so its rows are its columns, and their ``gf2.relations`` are
    the coefficients of the radical.  Run on the gauge span, it is the test
    oracle for ``analyzer.build_code``, whose Gram matrix is the cycle
    operators' and filled from their rank-3 edges only."""
    rows, low = span.rows, (1 << n) - 1
    swapped = [v >> n | (v & low) << n for v in rows]
    gram = [sum(gf2.dot(v, u) << j for j, u in enumerate(swapped)) for v in rows]
    picks = gf2.relations(gram)
    return gf2.Basis(reduce(xor, (rows[j] for j in gf2.bits(c))) for c in picks)

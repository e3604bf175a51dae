"""Phase-free n-qubit Pauli algebra in the GF(2) symplectic representation.

A Pauli is a pair of bit vectors (x, z): position i carries X iff x_i = 1,
Z iff z_i = 1, Y iff both.  Global phases are dropped throughout; commutation
is still exact because it lives in the symplectic form.  Spans are reduced
echelon bases of 2n-bit vectors laid out as x | (z << n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import gf2
from .errors import ColorMissing, GaugeMismatch, NotACycle, SizeMismatch

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


def phase_product(paulis: Sequence[Pauli]) -> Tuple[Pauli, int]:
    """Exact product: (Pauli mod phase, exponent k with phase i^k).

    Tracks powers of i accumulated by single-qubit multiplications, so the
    sign of an ordered product (e.g. a syndrome decomposition) is recovered.
    """
    if not paulis:
        raise ValueError("empty product")
    n = paulis[0].n
    x = z = 0
    k = 0
    for p in paulis:
        if p.n != n:
            raise SizeMismatch(f"{p.n} != {n}")
        k = (k + _phase_exponent(x, z, p.x, p.z)) % 4
        x ^= p.x
        z ^= p.z
    return Pauli(n, x, z), k


def _phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    """i-exponent of P(x1,z1) * P(x2,z2) with P(x,z) = i^{xz} X^x Z^z.

    Per qubit the cyclically ordered pairs XY, YZ, ZX contribute +1 and the
    reversed pairs contribute -1; equal or identity factors contribute 0.
    """
    pos = (
        (x1 & ~z1 & x2 & z2)  # X then Y
        | (x1 & z1 & ~x2 & z2)  # Y then Z
        | (~x1 & z1 & x2 & ~z2)  # Z then X
    ).bit_count()
    neg = (
        (x1 & z1 & x2 & ~z2)  # Y then X
        | (~x1 & z1 & x2 & z2)  # Z then Y
        | (x1 & ~z1 & ~x2 & z2)  # X then Z
    ).bit_count()
    return (pos - neg) % 4


class PauliSpan:
    """GF(2) span of Pauli operators with a maintained reduced basis."""

    def __init__(self, n: int, generators: Iterable[Pauli] = ()) -> None:
        self.n = n
        self.generators: List[Pauli] = []
        self.basis = gf2.Basis()
        for p in generators:
            self.add(p)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def add(self, p: Pauli) -> bool:
        if p.n != self.n:
            raise SizeMismatch(f"{p.n} != {self.n}")
        self.generators.append(p)
        return self.basis.add(p.vec())

    def contains(self, p: Pauli) -> bool:
        return self.basis.contains(p.vec())

    def basis_paulis(self) -> List[Pauli]:
        return [Pauli.from_vec(self.n, v) for v in self.basis.rows]

    def to_strings(self) -> List[str]:
        return [p.to_string() for p in self.basis_paulis()]


LINK_PAULI = {"r": "X", "g": "Y", "b": "Z"}


def link_operator(edge: Sequence[int], color: Optional[str], n: int) -> Pauli:
    """Two-body XX/YY/ZZ by color for rank-2 edges, ZZZ for rank-3."""
    if len(edge) == 3:
        z = 0
        for v in edge:
            z |= 1 << v
        return Pauli(n, 0, z)
    if color not in LINK_PAULI:
        raise ColorMissing(f"rank-2 edge {tuple(edge)} has no color")
    ch = LINK_PAULI[color]
    x = z = 0
    for v in edge:
        if ch in ("X", "Y"):
            x |= 1 << v
        if ch in ("Y", "Z"):
            z |= 1 << v
    return Pauli(n, x, z)


def cycle_operator(h, sigma: int) -> Pauli:
    """W(sigma): the product of link operators over the edges of a
    hypercycle (mod phase), from the per-edge masks cached on ``h``."""
    edges = gf2.bits(sigma & ((1 << h.num_edges) - 1))
    odd = 0
    for i in edges:
        odd ^= h.edge_masks[i][0]
    if odd:
        raise NotACycle("odd incidence at a vertex")
    x = z = 0
    for i in edges:
        link = h.edge_masks[i][1]
        if link is None:
            raise ColorMissing(f"rank-2 edge {h.edges[i].vertices} has no color")
        x ^= link[0]
        z ^= link[1]
    return Pauli(h.num_vertices, x, z)


def anticommuting_masks(ops: Sequence[Pauli], against: Sequence[Pauli]) -> List[int]:
    """For each op, the bitmask of the entries of ``against`` it
    anticommutes with.

    Column masks over the symplectically swapped ``against`` (z | x << n)
    cost each op one XOR per set bit of its x | z << n vector instead of one
    symplectic product per pair.
    """
    cols: Dict[int, int] = {}
    for j, q in enumerate(against):
        for b in gf2.bits(q.z | (q.x << q.n)):
            cols[b] = cols.get(b, 0) ^ (1 << j)
    out: List[int] = []
    for p in ops:
        mask = 0
        for b in gf2.bits(p.vec()):
            mask ^= cols.get(b, 0)
        out.append(mask)
    return out


def symplectic_rows(span: PauliSpan) -> List[int]:
    """Rows r with parity(r & v) = symplectic product against the basis."""
    n = span.n
    return [
        (vec >> n) | ((vec & ((1 << n) - 1)) << n) for vec in span.basis.rows
    ]


def centralizer(span: PauliSpan, n: Optional[int] = None) -> PauliSpan:
    """All phase-free Paulis commuting with every generator.

    dim = 2n - dim(span) by symplectic rank-nullity.
    """
    n = span.n if n is None else n
    rows = symplectic_rows(span)
    basis = gf2.kernel(rows, 2 * n)
    out = PauliSpan(n)
    for v in basis:
        out.add(Pauli.from_vec(n, v))
    if out.dim != 2 * n - span.dim:
        raise GaugeMismatch(f"dim centralizer {out.dim} != 2n - dim span {span.dim}")
    return out


def center(span: PauliSpan) -> PauliSpan:
    """span(gen) intersected with its centralizer: the radical of the
    symplectic form restricted to the span.

    Builds the full Gram matrix of the span, so it serves as the test oracle
    for ``analyzer.build_code``, which intersects the gauge span with the
    cycle-operator span instead."""
    rows = span.basis.rows
    k = len(rows)
    n = span.n
    gram: List[int] = []
    for i in range(k):
        row = 0
        pi = Pauli.from_vec(n, rows[i])
        for j in range(k):
            pj = Pauli.from_vec(n, rows[j])
            if not commutes(pi, pj):
                row |= 1 << j
        gram.append(row)
    # Transpose-free: gram is symmetric over GF(2).
    coeffs = gf2.kernel(gram, k)
    out = PauliSpan(n)
    for c in coeffs:
        v = 0
        for j in range(k):
            if (c >> j) & 1:
                v ^= rows[j]
        out.add(Pauli.from_vec(n, v))
    return out

"""`Pauli`-object product and prefix rule kept as test oracles.

These are the versions `tscodes.pauli.phase_product` and
`tscodes.pauli.first_bad_prefix` replaced when operators inside the package
became raw (x, z) int pairs.  They multiply `Pauli` dataclasses one factor
at a time; the differential tests feed them and the int versions the same
random sequences and require the same product, i-exponent and first bad
index.

`anticommuting_masks` is the per-qubit column-mask commutation check that
`tscodes.analyzer.build_code` ran over the dense cycle operators before it
read each link's anticommuting cycles by bilinearity; the tests use it as
the oracle for the link that check names and for the masks of each link
and each rank-3 edge's ZZZ that the Gram matrix is built from.

`centralizer` is the symplectic kernel that `tscodes.analyzer.exact_distance`
took as C(S) before it read C(S) = G + L off the code's gauge rows and
quotient operators; the tests require both to span the same space.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import reference_gf2
from tscodes import gf2, pauli
from tscodes.errors import GaugeMismatch, SizeMismatch
from tscodes.pauli import Pauli


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


def first_bad_prefix(ops: Sequence[Pauli]) -> Optional[int]:
    if not ops:
        return None
    prefix = ops[0]
    for j in range(1, len(ops)):
        if not pauli.commutes(ops[j], prefix):
            return j
        prefix = prefix.mul(ops[j])
    return None


def anticommuting_masks(
    ops: Sequence[Tuple[int, int]], against: Sequence[Tuple[int, int]]
) -> List[int]:
    """For each (x, z) op, the bitmask of the entries of ``against`` it
    anticommutes with.

    Per-qubit column masks of ``against`` (its Z parts meet the op's X part
    and its X parts the op's Z part) cost each op one XOR per qubit of its
    support instead of one symplectic product per pair.
    """
    by_x: Dict[int, int] = {}  # qubit -> entries with Z there
    by_z: Dict[int, int] = {}  # qubit -> entries with X there
    for j, (qx, qz) in enumerate(against):
        for b in gf2.bits(qz):
            by_x[b] = by_x.get(b, 0) ^ (1 << j)
        for b in gf2.bits(qx):
            by_z[b] = by_z.get(b, 0) ^ (1 << j)
    out: List[int] = []
    for px, pz in ops:
        mask = 0
        for b in gf2.bits(px):
            mask ^= by_x.get(b, 0)
        for b in gf2.bits(pz):
            mask ^= by_z.get(b, 0)
        out.append(mask)
    return out


def centralizer(span: gf2.Basis, n: int) -> gf2.Basis:
    """All phase-free Paulis commuting with an n-qubit span (both laid out
    as x | z << n); dim = 2n - dim(span) by symplectic rank-nullity."""
    low = (1 << n) - 1
    swapped = [(v >> n) | ((v & low) << n) for v in span.rows]
    out = gf2.Basis(reference_gf2.kernel(swapped, 2 * n))
    if out.dim != 2 * n - span.dim:
        raise GaugeMismatch(f"dim centralizer {out.dim} != 2n - dim span {span.dim}")
    return out

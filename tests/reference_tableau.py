"""Row-major stabilizer tableau kept as a test oracle.

This is the straightforward O(n)-per-measurement tableau that
`scheduler.Tableau` replaced: every row is a raw (x, z) int pair and each
measurement scans all rows.  The differential tests drive it and the
column-mask tableau with identical gates, measurements and random streams
and require identical outcomes, rows, signs and random-number use.

`stab_of` and `destab_of` read the rows of a column-mask
`tscodes.scheduler.Tableau` back as `Pauli` lists; only the tests need them.
"""

from __future__ import annotations

import random
from typing import List

from tscodes import gf2
from tscodes.errors import InconsistentOutcome
from tscodes.pauli import Pauli

from reference_pauli import _phase_exponent


class ReferenceTableau:
    """Stabilizer tableau with destabilizers and sign tracking.

    Rows are stored as raw (x, z) int pairs; only stabilizer signs matter
    for outcomes, so destabilizer phases are not tracked.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.sx: List[int] = [0] * n
        self.sz: List[int] = [1 << i for i in range(n)]
        self.dx: List[int] = [1 << i for i in range(n)]
        self.dz: List[int] = [0] * n
        self.sign: List[int] = [0] * n  # i-exponent (0 or 2) per stabilizer

    @property
    def stab(self) -> List[Pauli]:
        return [Pauli(self.n, x, z) for x, z in zip(self.sx, self.sz)]

    @property
    def destab(self) -> List[Pauli]:
        return [Pauli(self.n, x, z) for x, z in zip(self.dx, self.dz)]

    def apply_h(self, q: int) -> None:
        bit = 1 << q
        for xs, zs, track in ((self.sx, self.sz, True), (self.dx, self.dz, False)):
            for i in range(self.n):
                xb, zb = xs[i] & bit, zs[i] & bit
                if xb and zb and track:
                    self.sign[i] ^= 2
                if bool(xb) != bool(zb):
                    xs[i] ^= bit
                    zs[i] ^= bit

    def apply_s(self, q: int) -> None:
        bit = 1 << q
        for xs, zs, track in ((self.sx, self.sz, True), (self.dx, self.dz, False)):
            for i in range(self.n):
                if xs[i] & bit:
                    if zs[i] & bit and track:
                        self.sign[i] ^= 2
                    zs[i] ^= bit

    def apply_cnot(self, c: int, t: int) -> None:
        cb, tb = 1 << c, 1 << t
        for xs, zs, track in ((self.sx, self.sz, True), (self.dx, self.dz, False)):
            for i in range(self.n):
                xc, zc = xs[i] & cb, zs[i] & cb
                xt, zt = xs[i] & tb, zs[i] & tb
                if track and xc and zt and (bool(xt) == bool(zc)):
                    self.sign[i] ^= 2
                if xc:
                    xs[i] ^= tb
                if zt:
                    zs[i] ^= cb

    def measure(self, op: Pauli, sign: int, rng: random.Random) -> int:
        """Measure (+-1) * op; returns the outcome bit (0 for the +1
        projector)."""
        ox, oz = op.x, op.z
        sx, sz = self.sx, self.sz
        anti = [
            i
            for i in range(self.n)
            if ((sx[i] & oz).bit_count() ^ (sz[i] & ox).bit_count()) & 1
        ]
        if anti:
            p0 = anti[0]
            px, pz = sx[p0], sz[p0]
            for i in anti[1:]:
                ph = _phase_exponent(sx[i], sz[i], px, pz)
                self.sign[i] = (self.sign[i] + self.sign[p0] + ph) % 4
                sx[i] ^= px
                sz[i] ^= pz
            dx, dz = self.dx, self.dz
            for i in range(self.n):
                if i != p0 and ((dx[i] & oz).bit_count() ^ (dz[i] & ox).bit_count()) & 1:
                    dx[i] ^= px
                    dz[i] ^= pz
            dx[p0], dz[p0] = px, pz
            outcome = rng.randrange(2)
            sx[p0], sz[p0] = ox, oz
            self.sign[p0] = (2 * outcome + (0 if sign == 1 else 2)) % 4
            return outcome
        acc_x = acc_z = 0
        phase = 0
        for i in range(self.n):
            if ((self.dx[i] & oz).bit_count() ^ (self.dz[i] & ox).bit_count()) & 1:
                phase = (
                    phase
                    + _phase_exponent(acc_x, acc_z, sx[i], sz[i])
                    + self.sign[i]
                ) % 4
                acc_x ^= sx[i]
                acc_z ^= sz[i]
        if acc_x != ox or acc_z != oz or phase % 2 != 0:
            raise InconsistentOutcome("deterministic measurement mismatch")
        value = 0 if phase % 4 == 0 else 1
        return value ^ (0 if sign == 1 else 1)

    def randomize(self, rng: random.Random, depth: int = 3) -> None:
        for _ in range(depth * self.n):
            gate = rng.randrange(3)
            if gate == 0:
                self.apply_h(rng.randrange(self.n))
            elif gate == 1:
                self.apply_s(rng.randrange(self.n))
            else:
                c = rng.randrange(self.n)
                t = rng.randrange(self.n)
                if c != t:
                    self.apply_cnot(c, t)


def stab_of(t) -> List[Pauli]:
    """The stabilizer rows of a tableau, from its (x, z) row ints."""
    return [Pauli(t.n, x, z) for x, z in zip(t.sx, t.sz)]


def destab_of(t) -> List[Pauli]:
    """The destabilizer rows of a column-mask tableau: row ``row_of[s]``
    has an X / Z part on qubit q iff live slot s is set in the destabilizer
    half (``col >> n``) of xcol[q] / zcol[q]."""
    rows = [[0, 0] for _ in range(t.n)]
    for part, cols in enumerate((t.xcol, t.zcol)):
        for q, col in enumerate(cols):
            for s in gf2.bits((col >> t.n) & t.live):
                rows[t.row_of[s]][part] |= 1 << q
    return [Pauli(t.n, x, z) for x, z in rows]

"""Syndrome measurement: round schedules of the link-operator
decompositions, and stabilizer-tableau verification.

Every stabilizer generator carries its decomposition into link operators
(``Generator.links``, ids into the hypergraph's link table
``Hypergraph.links``).  The decompositions are formed in ``hypergraph``, by
the same face walk that finds each generator's cycle, and ``build_code``
stores them; this module reads no face structure and no triangle side.
The schedule measures the full gauge generator set, each link at the time
step its ``Link.step`` names: in the relaxed model the three color rounds
suffice (links sharing a qubit in the b round commute); in the exclusive
model the b round splits in two so no qubit is touched twice in a time
step.  ``build_schedule`` sorts each decomposition into time order once
and checks that sequence once: its signed product is the generator's cycle
operator with a real sign, computed here and nowhere else and kept in
``MeasurementSchedule.signs``, and every prefix commutes with the next
operator.  These checks and the round conflict check run on the (x, z) int
pairs cached in ``Hypergraph.link_ops``; ``Pauli`` objects appear only at
the tableau's API edge (one per link and one per generator, built once per
simulation).

Schedules are checked on a column-major stabilizer tableau: a measurement
finds its anticommuting rows from the columns on its operator's support.
Destabilizer rows live in renamed slots of 2n-bit columns, so a random
measurement costs O(|op| + |pivot|) column XORs plus the stabilizer row
updates of its anticommuting rows, and not a pass over all n columns; the
dead slots it leaves are freed by one O(n) pass per n + 1 random
measurements.  Signs follow from one mask per pivot qubit, chosen by the
pivot's letter there, and each measured ``Pauli`` decodes its support once
(``Pauli.support``), since a sweep measures the same links again and again.
Each simulated trial is three ``Tableau.measure_all`` calls: two sweeps,
each on the concatenated time-ordered link sequences of all generators
(a syndrome bit is the parity of its generator's slice of the outcomes),
then the direct measurement of every signed generator.
``Tableau.measure`` stays as the one-item API.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, compress, pairwise
from typing import Dict, List, Sequence, Tuple

from . import gf2, pauli
from .analyzer import SubsystemCode
from .errors import (
    BadParams,
    InconsistentOutcome,
    NoValidDecomposition,
    ScheduleConflict,
    SizeMismatch,
)
from .pauli import Pauli


@dataclass(frozen=True)
class ScheduledLink:
    link: int
    vertices: Tuple[int, int]
    pauli: str
    stabilizers: Tuple[int, ...]


@dataclass(frozen=True)
class MeasurementSchedule:
    model: str  # "relaxed" | "exclusive"
    time_steps: int
    rounds: Tuple[Tuple[ScheduledLink, ...], ...]
    per_stabilizer: Tuple[Tuple[int, ...], ...]  # link ids in time order
    signs: Tuple[int, ...]  # +-1 sign of each generator's time-ordered product


def build_schedule(
    code: SubsystemCode, model: str = "relaxed"
) -> MeasurementSchedule:
    """Rounds r, g, b (relaxed) or r, g, b1, b2 (exclusive): each link is
    measured at its ``Link.step``, and the relaxed model merges steps 2 and
    3 into one b round.  Links without a step are not measured.  The full
    gauge generator set is scheduled; decompositions pick their outcomes out
    of the shared rounds.

    Each generator's links, sorted by (round, link id), must multiply to its
    cycle operator with a real sign and obey the prefix rule; the sign and
    the round owners come from that one sequence.
    """
    if model not in ("relaxed", "exclusive"):
        raise ScheduleConflict(f"unknown model {model!r}")
    if code.faceless:
        raise NoValidDecomposition(
            "the hypergraph has no face records (a bombin dual-expansion "
            "code builds none, and hypergraph JSON carries none), so it has "
            "no stabilizer generators to schedule; scheduling needs a graph "
            "or colex input with the theorem2, theorem3 or custom pipeline"
        )
    if not code.generators_complete:
        raise NoValidDecomposition(
            "stabilizer generators are incomplete for this hypergraph"
        )
    h = code.hypergraph
    links, ops = h.links, h.link_ops
    last = 3 if model == "exclusive" else 2
    steps: List[List[int]] = [[] for _ in range(last + 1)]
    for i, lk in enumerate(links):
        if lk.step is not None:
            steps[min(lk.step, last)].append(i)
    steps = [ids for ids in steps if ids]
    _check_conflicts(code, steps, model)
    per_stab: List[Tuple[int, ...]] = []
    owners: Dict[int, List[int]] = {}
    signs: List[int] = []
    for gen in code.generators:
        seq = tuple(sorted(gen.links, key=lambda i: (min(links[i].step, last), i)))
        seq_ops = [ops[i] for i in seq]
        prod, phase = pauli.phase_product(seq_ops)
        if prod != pauli.cycle_operator(h, gen.cycle) or phase % 2:
            raise NoValidDecomposition(
                f"decomposition of generator {gen.gid} does not reproduce it"
            )
        if pauli.first_bad_prefix(seq_ops) is not None:
            raise ScheduleConflict(
                f"generator {gen.gid} breaks the prefix rule in time order"
            )
        per_stab.append(seq)
        signs.append(1 if phase == 0 else -1)
        for i in seq:
            owners.setdefault(i, []).append(gen.gid)
    rounds = tuple(
        tuple(
            ScheduledLink(
                i,
                links[i].vertices,
                2 * pauli.LINK_PAULI[links[i].color],
                tuple(sorted(owners.get(i, []))),
            )
            for i in ids
        )
        for ids in steps
    )
    return MeasurementSchedule(
        model=model,
        time_steps=len(rounds),
        rounds=rounds,
        per_stabilizer=tuple(per_stab),
        signs=tuple(signs),
    )


def _check_conflicts(
    code: SubsystemCode, steps: Sequence[Sequence[int]], model: str
) -> None:
    """No qubit twice in a time step (exclusive), or no anticommuting links
    on a shared qubit in a round (relaxed)."""
    links, ops = code.hypergraph.links, code.hypergraph.link_ops
    for t, ids in enumerate(steps):
        seen: Dict[int, int] = {}
        for i in ids:
            for v in links[i].vertices:
                if v in seen:
                    if model == "exclusive":
                        raise ScheduleConflict(
                            f"qubit {v} measured twice in time step {t}"
                        )
                    (ax, az), (bx, bz) = ops[seen[v]], ops[i]
                    if gf2.dot(ax, bz) ^ gf2.dot(az, bx):
                        raise ScheduleConflict(
                            f"anticommuting links share qubit {v} in round {t}"
                        )
                seen[v] = i


class Tableau:
    """Stabilizer tableau with destabilizers and sign tracking, stored by
    column (Aaronson-Gottesman's transposed layout).

    cx[q] / cz[q] masks the stabilizer rows with an X / Z part on qubit q;
    neg masks the stabilizers with sign -1.  Stabilizer rows are also kept
    as (x, z) ints for the pivot and for deterministic products.

    Destabilizer row i lives in slot[i], a bit position of the 2n-bit masks
    dX[q] / dZ[q] (row_of maps a slot back to its row).  Slots in `live`
    hold the n rows; `free` slots are zero in every column; the rest are
    dead and hold stale bits.  A random measurement moves the pivot's
    destabilizer to the lowest free slot and kills its old one, so it costs
    O(|pivot|) column XORs instead of clearing a row from all n columns.
    When no slot is free, one pass masks every column with `live`, which
    frees the n + 1 dead slots (`recycles` counts these passes): one O(n)
    pass per n + 1 random measurements, and no column grows past 2n bits.
    Destabilizer phases are not tracked.

    The sign of each anticommuting row times the pivot comes from an
    i-exponent summed over the pivot's qubits, walked in three loops by the
    pivot's letter.  At qubit q that letter picks one mask of the rows
    whose letter there anticommutes with it: cz[q] for X, cx[q] for Z,
    cx[q] ^ cz[q] for Y.  Each such row adds 1 to bit-sliced lo/hi
    counters, and those that give -1 instead (YX, XZ, ZY) add 2 more, kept
    as one parity mask.  A deterministic outcome is the sign of the product
    of the rows whose destabilizers anticommute with the operator: none
    (the identity), one (its own sign) or ``pauli.phase_product`` of
    several.  The measured operator's support is decoded once per ``Pauli``
    object (``Pauli.support``), and outcomes and ``randomize`` draw from
    the generator exactly as ``randrange`` would.

    ``measure_all`` is the one measurement kernel: it binds the columns,
    slots and masks to locals once per call and measures a whole sequence,
    so a syndrome sweep pays the entry cost once; ``measure`` is its
    one-item case.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.sx: List[int] = [0] * n
        self.sz: List[int] = [1 << i for i in range(n)]
        self.cx: List[int] = [0] * n
        self.cz: List[int] = [1 << q for q in range(n)]
        self.neg = 0
        self.dX: List[int] = [1 << q for q in range(n)]
        self.dZ: List[int] = [0] * n
        self.slot: List[int] = list(range(n))
        self.row_of: List[int] = list(range(n)) * 2
        self.live = (1 << n) - 1
        self.free = self.live << n
        self.recycles = 0  # passes that freed the dead slots

    @property
    def stab(self) -> List[Pauli]:
        return [Pauli(self.n, x, z) for x, z in zip(self.sx, self.sz)]

    @property
    def destab(self) -> List[Pauli]:
        rows = [[0, 0] for _ in range(self.n)]
        for part, cols in enumerate((self.dX, self.dZ)):
            for q, col in enumerate(cols):
                for s in gf2.bits(col & self.live):
                    rows[self.row_of[s]][part] |= 1 << q
        return [Pauli(self.n, x, z) for x, z in rows]

    def apply_h(self, q: int) -> None:
        cx, cz, bit = self.cx, self.cz, 1 << q
        self.neg ^= cx[q] & cz[q]
        for i in gf2.bits(cx[q] ^ cz[q]):
            self.sx[i] ^= bit
            self.sz[i] ^= bit
        cx[q], cz[q] = cz[q], cx[q]
        self.dX[q], self.dZ[q] = self.dZ[q], self.dX[q]

    def apply_s(self, q: int) -> None:
        cx, cz, bit = self.cx, self.cz, 1 << q
        self.neg ^= cx[q] & cz[q]
        for i in gf2.bits(cx[q]):
            self.sz[i] ^= bit
        cz[q] ^= cx[q]
        self.dZ[q] ^= self.dX[q]

    def apply_cnot(self, c: int, t: int) -> None:
        if c == t:
            raise BadParams(f"CNOT control and target are both qubit {c}")
        cx, cz = self.cx, self.cz
        self.neg ^= cx[c] & cz[t] & ~(cx[t] ^ cz[c])
        for i in gf2.bits(cx[c]):
            self.sx[i] ^= 1 << t
        for i in gf2.bits(cz[t]):
            self.sz[i] ^= 1 << c
        cx[t] ^= cx[c]
        cz[c] ^= cz[t]
        self.dX[t] ^= self.dX[c]
        self.dZ[c] ^= self.dZ[t]

    def measure(self, op: Pauli, sign: int, rng: random.Random) -> int:
        """Measure (+-1) * op; returns the outcome bit (0 for the +1
        projector).  The one-item case of ``measure_all``."""
        return self.measure_all(((op, sign),), rng)[0]

    def measure_all(
        self, ops: Sequence[Tuple[Pauli, int]], rng: random.Random
    ) -> List[int]:
        """Measure (+-1) * op for each (op, sign) pair in order; returns the
        outcome bits (0 for the +1 projector).  Every width and sign is
        checked before the first measurement.  InconsistentOutcome leaves
        the tableau unusable."""
        n = self.n
        for op, sign in ops:
            if op.n != n:
                raise SizeMismatch(f"{op.n}-qubit operator on a {n}-qubit tableau")
            if sign not in (1, -1):
                raise BadParams(f"measurement sign must be 1 or -1, not {sign!r}")
        sx, sz, cx, cz, dX, dZ = self.sx, self.sz, self.cx, self.cz, self.dX, self.dZ
        slot, row_of = self.slot, self.row_of
        live, free, neg = self.live, self.free, self.neg
        draw, full = rng.getrandbits, (1 << 2 * n) - 1
        out: List[int] = []
        try:
            for op, sign in ops:
                flip = 0 if sign == 1 else 1
                ox, oz = op.x, op.z
                xs, zs = op.support
                # stabilizer rows / destabilizer slots anticommuting with op
                anti = danti = 0
                for q in xs:
                    anti ^= cz[q]
                    danti ^= dZ[q]
                for q in zs:
                    anti ^= cx[q]
                    danti ^= dX[q]
                if anti:
                    low = anti & -anti
                    p0 = low.bit_length() - 1
                    px, pz = sx[p0], sz[p0]
                    rest = anti ^ low
                    # The pivot replaces destabilizer p0, moved to a fresh slot,
                    # and multiplies the other anticommuting destabilizers.
                    live ^= 1 << slot[p0]
                    if not free:
                        dX = [col & live for col in dX]
                        dZ = [col & live for col in dZ]
                        free = full ^ live
                        self.recycles += 1
                    new = free & -free
                    s = new.bit_length() - 1
                    free ^= new
                    live |= new
                    slot[p0], row_of[s] = s, p0
                    dm = (danti & live) | new
                    # i-exponents of row * pivot (class docstring): t masks the
                    # rows anticommuting with the pivot at q, dn the parity of
                    # their -1s.
                    lo = hi = dn = 0
                    walk = px & ~pz  # pivot X
                    while walk:
                        bit = walk & -walk
                        walk ^= bit
                        q = bit.bit_length() - 1
                        xc = cx[q]
                        t = cz[q] & rest
                        dn ^= xc & t
                        cx[q] = xc ^ anti
                        dX[q] ^= dm
                        hi ^= lo & t
                        lo ^= t
                    walk = pz & ~px  # pivot Z
                    while walk:
                        bit = walk & -walk
                        walk ^= bit
                        q = bit.bit_length() - 1
                        zc = cz[q]
                        t = cx[q] & rest
                        dn ^= t & ~zc
                        cz[q] = zc ^ anti
                        dZ[q] ^= dm
                        hi ^= lo & t
                        lo ^= t
                    walk = px & pz  # pivot Y
                    while walk:
                        bit = walk & -walk
                        walk ^= bit
                        q = bit.bit_length() - 1
                        xc, zc = cx[q], cz[q]
                        t = (xc ^ zc) & rest
                        dn ^= zc & t
                        cx[q] = xc ^ anti
                        cz[q] = zc ^ anti
                        dX[q] ^= dm
                        dZ[q] ^= dm
                        hi ^= lo & t
                        lo ^= t
                    if lo:
                        raise InconsistentOutcome("stabilizer rows do not commute")
                    neg ^= hi ^ dn ^ (rest if (neg >> p0) & 1 else 0)
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        i = bit.bit_length() - 1
                        sx[i] ^= px
                        sz[i] ^= pz
                    outcome = _randbelow(draw, 2)
                    sx[p0], sz[p0] = ox, oz
                    for q in xs:
                        cx[q] ^= low
                    for q in zs:
                        cz[q] ^= low
                    neg = (neg & ~low) | (low if outcome ^ flip else 0)
                    out.append(outcome)
                    continue
                # Deterministic: op is the signed product of the rows
                # whose destabilizers anticommute with it.
                m = danti & live
                if not m:
                    ax = az = phase = 0
                else:
                    bit = m & -m
                    m ^= bit
                    i = row_of[bit.bit_length() - 1]
                    if not m:
                        ax, az, phase = sx[i], sz[i], 2 * ((neg >> i) & 1)
                    else:
                        rows, rmask = [(sx[i], sz[i])], 1 << i
                        while m:
                            bit = m & -m
                            m ^= bit
                            i = row_of[bit.bit_length() - 1]
                            rows.append((sx[i], sz[i]))
                            rmask |= 1 << i
                        (ax, az), phase = pauli.phase_product(rows)
                        phase += 2 * (neg & rmask).bit_count()
                if ax != ox or az != oz or phase % 2 != 0:
                    raise InconsistentOutcome("deterministic measurement mismatch")
                out.append(((phase >> 1) & 1) ^ flip)
        finally:
            self.dX, self.dZ = dX, dZ
            self.live, self.free, self.neg = live, free, neg
        return out

    def randomize(self, rng: random.Random, depth: int = 3) -> None:
        draw, n = rng.getrandbits, self.n
        for _ in range(depth * n):
            gate = _randbelow(draw, 3)
            if gate == 0:
                self.apply_h(_randbelow(draw, n))
            elif gate == 1:
                self.apply_s(_randbelow(draw, n))
            else:
                c = _randbelow(draw, n)
                t = _randbelow(draw, n)
                if c != t:
                    self.apply_cnot(c, t)


def _randbelow(getrandbits, k: int) -> int:
    """``random.Random.randrange(k)`` for k >= 1, drawn the same way from
    the same stream (getrandbits(k.bit_length()) until it is below k),
    without randrange's argument checks and two Python calls."""
    b = k.bit_length()
    r = getrandbits(b)
    while r >= k:
        r = getrandbits(b)
    return r


@dataclass(frozen=True)
class SyndromeReport:
    trials: int
    agreement: float
    direct_agreement: float
    idempotent: bool
    varying_links: int
    failures: Tuple[Tuple[int, int], ...] = ()  # (generator, trial) witnesses

    @property
    def consistent(self) -> bool:
        return self.agreement == 1.0 and self.direct_agreement == 1.0


def simulate_syndrome(
    code: SubsystemCode,
    schedule: MeasurementSchedule,
    trials: int = 100,
    seed: int = 0,
    strict: bool = True,
) -> SyndromeReport:
    """Per random stabilizer state, measure every stabilizer twice through
    its ordered link sequence and XOR-combine the outcomes; the two combined
    values must agree, and a direct measurement of the generator's cycle
    operator with its ``schedule.signs`` sign must reproduce them.  With
    strict=True the first disagreement raises InconsistentOutcome;
    otherwise the fractions are reported (useful for the adversarial
    broken-schedule fixtures)."""
    if trials < 1:
        raise BadParams("trials must be >= 1")
    rng = random.Random(seed)
    n = code.n
    h = code.hypergraph
    direct = [
        (Pauli(n, *pauli.cycle_operator(h, gen.cycle)), sign)
        for gen, sign in zip(code.generators, schedule.signs)
    ]
    # The sweep program: every generator's links in order, one Pauli per
    # link (so each decodes its support once), and each generator's slice
    # of the outcomes.
    flat = [i for seq in schedule.per_stabilizer for i in seq]
    link_ops = {i: Pauli(n, *h.link_ops[i]) for i in flat}
    program = [(link_ops[i], 1) for i in flat]
    slices = list(pairwise(accumulate(map(len, schedule.per_stabilizer), initial=0)))
    agree = direct_agree = 0
    failures: List[Tuple[int, int]] = []
    gave_0: set = set()  # links that gave outcome 0 / 1 in some first sweep
    gave_1: set = set()

    for trial in range(trials):
        tab = Tableau(n)
        tab.randomize(rng)
        out1 = tab.measure_all(program, rng)
        out2 = tab.measure_all(program, rng)
        out3 = tab.measure_all(direct, rng)
        gave_1.update(compress(flat, out1))
        gave_0.update(compress(flat, [o ^ 1 for o in out1]))
        for gid, ((a, b), d) in enumerate(zip(slices, out3)):
            b1, b2 = sum(out1[a:b]) & 1, sum(out2[a:b]) & 1
            agree += b1 == b2
            direct_agree += d == b2
            if b1 != b2:
                witness = f"{b1} != {b2}"
            elif d != b2:
                witness = f"direct {d} != {b2}"
            else:
                continue
            if strict:
                raise InconsistentOutcome(f"generator {gid} trial {trial}: {witness}")
            failures.append((gid, trial))
    total = trials * len(slices)
    return SyndromeReport(
        trials=trials,
        agreement=agree / max(total, 1),
        direct_agreement=direct_agree / max(total, 1),
        idempotent=agree == total,
        varying_links=len(gave_0 & gave_1),
        failures=tuple(failures[:32]),
    )


def schedule_json_dict(schedule: MeasurementSchedule) -> dict:
    return {
        "model": schedule.model,
        "time_steps": schedule.time_steps,
        "rounds": [
            [
                {
                    "edge": sl.link,
                    "pauli": sl.pauli,
                    "vertices": list(sl.vertices),
                    "stabilizers": list(sl.stabilizers),
                }
                for sl in rnd
            ]
            for rnd in schedule.rounds
        ],
        "per_stabilizer": [list(seq) for seq in schedule.per_stabilizer],
    }

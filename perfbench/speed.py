"""Speed probes: turn measured seconds into reference seconds.

On a shared 2-vCPU cloud VM the single-thread speed drifts with co-tenant
load, by up to 40% over tens of seconds, which no repetition inside a 30 s
run averages out.  The benchmark therefore runs a fixed probe after every
job, for PROBE_SHARE of the job's time, and scales each timing by how long
the probes within PROBE_WINDOW_S of it took.  This cut the run-to-run
spread of the ladder's wall time from about 19% to about 5% there.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Tuple

# Time of one probe at the reference speed, the share of each job's time
# spent probing after it, and how far from a job its probes may lie.
PROBE_REFERENCE_S = 0.005
PROBE_SHARE = 0.05
PROBE_WINDOW_S = 1.0
_PROBE_ROWS = [random.Random(1).getrandbits(1440) for _ in range(400)]


@dataclass(frozen=True)
class _ProbePair:
    x: int
    z: int


def _probe_kernel() -> int:
    """Fixed pure-Python work like the hot loops of tscodes: frozen
    dataclasses holding 1440-bit ints, tested pairwise for commutation."""
    ps = [_ProbePair(r, _PROBE_ROWS[(7 * i) % len(_PROBE_ROWS)])
          for i, r in enumerate(_PROBE_ROWS)]
    acc = 0
    for a in ps[::4]:
        for b in ps[:60]:
            acc ^= ((a.x & b.z).bit_count() ^ (a.z & b.x).bit_count()) & 1
    return acc


def probe(budget: float = 0.0) -> List[Tuple[float, float]]:
    """(end time, duration) of back-to-back probes, at least one, until
    `budget` seconds are spent."""
    clock = time.perf_counter
    out: List[Tuple[float, float]] = []
    spent = 0.0
    while not out or spent < budget:
        t0 = clock()
        _probe_kernel()
        t1 = clock()
        out.append((t1, t1 - t0))
        spent += t1 - t0
    return out


def normalize(probes: List[Tuple[float, float]]) -> float:
    """Factor that turns seconds measured next to `probes` into reference
    seconds: what the timing would read where one probe takes
    PROBE_REFERENCE_S."""
    return PROBE_REFERENCE_S * len(probes) / sum(d for _, d in probes)


def scale_near(probes: List[Tuple[float, float]], t0: float, t1: float) -> float:
    """normalize() over the probes within PROBE_WINDOW_S of [t0, t1]."""
    return normalize([p for p in probes
                      if t0 - PROBE_WINDOW_S <= p[0] <= t1 + PROBE_WINDOW_S])

"""How fast the box runs right now, from a fixed reference kernel.

On a guest that shares its host's cores, the same work takes 1.0 to 1.9
times its fastest time, and the level drifts over minutes: the mean of 25 s
windows of fixed census work spread 0.14 to 0.19 (interquartile range over
median) across ten minutes, far more than the program's own run-to-run
variation.  CPU time drifts with wall time, so the slowdown is contention
inside the core, which neither the load average nor CPU time shows.

A run therefore times a reference kernel between its calls, and every
end-to-end time is divided by the median reference time over REFERENCE_S:
times read in seconds at the box's reference speed.  The kernel mixes three
kinds of pure-Python interpreter work, so it slows with cliquefree's kernels
and with interpreter start-up; it is the benchmark's code, so a change to
cliquefree does not move it.  Over the same ten minutes, scaled fixed census
and solver work spread 0.02 to 0.03.
"""

from __future__ import annotations

import random
import statistics
import time
from itertools import combinations

# median of reference() on a 2-CPU Intel Xeon guest at its usual speed
REFERENCE_S = 0.0133

# share of the measured time spent timing the reference
REFERENCE_SHARE = 0.03

_N = 40
_rng = random.Random(5)
_ROWS = [0] * _N
for _v in range(1, _N):
    for _u in range(_v):
        if _rng.getrandbits(1):
            _ROWS[_u] |= 1 << _v
            _ROWS[_v] |= 1 << _u
_ADJ = [[(row >> v) & 1 for v in range(_N)] for row in _ROWS]


def _k4_by_bitsets() -> int:
    rows, total = _ROWS, 0
    for u in range(_N):
        a = rows[u] >> (u + 1) << (u + 1)
        while a:
            v = (a & -a).bit_length() - 1
            a &= a - 1
            b = a & rows[v]
            while b:
                w = (b & -b).bit_length() - 1
                b &= b - 1
                total += (b & rows[w]).bit_count()
    return total


def _k4_by_tuples(m: int) -> int:
    adj = _ADJ
    return sum(1 for s in combinations(range(m), 4)
               if all(adj[a][b] for a, b in combinations(s, 2)))


def _kernel() -> tuple:
    """Three kinds of interpreter work, about a third of the time each:
    bitset loops, generator arithmetic, and tuples with list indexing."""
    return (sum(_k4_by_bitsets() for _ in range(8)),
            sum(i * i % 7 for i in range(40_000)),
            _k4_by_tuples(19))


_EXPECTED = _kernel()


def reference() -> float:
    """Seconds for one run of the reference kernel."""
    t0 = time.perf_counter()
    got = _kernel()
    dt = time.perf_counter() - t0
    if got != _EXPECTED:
        raise RuntimeError(f"reference kernel gave {got}, not {_EXPECTED}")
    return dt


class Meter:
    """Reference samples taken between measured calls."""

    def __init__(self):
        self.samples: list[float] = []

    def keep_up(self, busy: float):
        """Sample until the reference has taken REFERENCE_SHARE of busy seconds."""
        while sum(self.samples) < REFERENCE_SHARE * busy or not self.samples:
            self.samples.append(reference())


def factor(samples: list[float]) -> float:
    """How many times slower than the reference speed the box ran."""
    return statistics.median(samples) / REFERENCE_S

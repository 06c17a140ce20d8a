"""Deterministic counter-mode randomness.

Every random object in this package is a pure function of a 64-bit seed and
an integer counter.  The generator is the SplitMix64 finalizer applied to
``seed + (t + 1) * GAMMA`` for counter ``t``, which matches the output
stream of the standard sequential SplitMix64 generator seeded with ``seed``.
Counter mode means any position in the stream can be evaluated directly,
so vertex-by-vertex graph growth and one-shot sampling can share coins.

Reference stream (first five outputs for seed 1234567):

    6457827717110365317, 3203168211198807973, 9817491932198370423,
    4593380528125082431, 16408922859458223821
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit word."""
    x &= _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


def stream_at(seed: int, t: int) -> int:
    """Output ``t`` (0-based) of the SplitMix64 stream for ``seed``."""
    if t < 0:
        raise ValueError("stream position must be non-negative")
    return mix64((seed + (t + 1) * GAMMA) & _MASK)


def stream_block(seed: int, t0: int, count: int) -> np.ndarray:
    """Outputs ``t0 .. t0+count-1`` as a uint64 array (vectorized)."""
    if t0 < 0 or count < 0:
        raise ValueError("stream block must lie in the non-negative range")
    t = np.arange(t0, t0 + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (np.uint64(seed & _MASK) + (t + np.uint64(1)) * np.uint64(GAMMA))
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def sub_seed(master: int, index: int) -> int:
    """Independent child seed ``index`` derived from ``master``.

    Used to give every replicate of an experiment its own coin stream.
    """
    return stream_at(master, index)


"""Labeled-graph censuses over all graphs on m vertices.

The full sweep enumerates every labeled graph on m vertices as an integer
edge mask (bit t is the pair with index t in (max, min) order, matching
the sampler's pair indexing), filters out those containing a clique on
r+1 vertices, and histograms the exact distance to r-partiteness: the
minimum number of edges whose deletion leaves an r-colorable graph.
Everything is vectorized over the 2^C(m,2) masks, which caps the full
sweep at m = 7; larger m use seeded sampling over the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .rng import stream_block, sub_seed

_FULL_SWEEP_MAX_BITS = 24
_MAX_COLORINGS = 4_000_000
_SAMPLE_MAX_BITS = 63


def _pair_bits(m: int) -> list[tuple[int, int]]:
    """Pairs in (max, min) index order: bit t holds pair_index t."""
    return [(u, v) for v in range(m) for u in range(v)]


def _clique_masks(m: int, r: int) -> np.ndarray:
    pairs = _pair_bits(m)
    pidx = {p: t for t, p in enumerate(pairs)}
    masks = []
    for cl in combinations(range(m), r + 1):
        msk = 0
        for u, v in combinations(cl, 2):
            msk |= 1 << pidx[(u, v)]
        masks.append(msk)
    return np.array(masks, dtype=np.uint64)


def _mono_masks(m: int, r: int) -> np.ndarray:
    """Within-class pair masks for every r-coloring with vertex 0 fixed."""
    pairs = _pair_bits(m)
    count = r ** (m - 1)
    if count > _MAX_COLORINGS:
        raise ValueError(f"r^(m-1) = {count} colorings exceed the supported cap")
    out = np.empty(count, dtype=np.uint64)
    for idx in range(count):
        c = [0] * m
        x = idx
        for v in range(1, m):
            c[v] = x % r
            x //= r
        msk = 0
        for t, (u, v) in enumerate(pairs):
            if c[u] == c[v]:
                msk |= 1 << t
        out[idx] = msk
    return out


@dataclass(frozen=True)
class PartiteCensus:
    """Census of clique-free labeled graphs by distance to r-partiteness."""

    m: int
    r: int
    mode: str  # "full" or "sample"
    total: int
    clique_free: int
    distance_histogram: dict
    seed: int | None = None

    @property
    def exact_partite_fraction(self) -> float:
        """Fraction of clique-free graphs already r-partite (distance 0)."""
        if self.clique_free == 0:
            return float("nan")
        return self.distance_histogram.get(0, 0) / self.clique_free

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "r": self.r,
            "mode": self.mode,
            "total": self.total,
            "clique_free": self.clique_free,
            "distance_histogram": {
                str(t): c for t, c in sorted(self.distance_histogram.items())
            },
            "exact_partite_fraction": self.exact_partite_fraction,
            "seed": self.seed,
        }


def _census_kernel(masks: np.ndarray, m: int, r: int) -> tuple[int, dict]:
    cm = _clique_masks(m, r)
    free = np.ones(masks.shape, dtype=bool)
    for msk in cm:
        free &= (masks & msk) != msk
    gf = masks[free]
    if gf.size == 0:
        return 0, {}
    best = np.full(gf.shape, 255, dtype=np.uint8)
    for mono in _mono_masks(m, r):
        cnt = np.bitwise_count(gf & mono).astype(np.uint8)
        np.minimum(best, cnt, out=best)
    hist = np.bincount(best)
    return int(gf.size), {t: int(c) for t, c in enumerate(hist) if c}


def partite_census(
    m: int,
    r: int,
    *,
    sample_size: int | None = None,
    seed: int = 0,
) -> PartiteCensus:
    """Full or sampled census of labeled graphs on m vertices.

    Without sample_size, sweeps all 2^C(m,2) graphs (m at most 7).  With
    sample_size, draws that many seeded uniform graphs instead.
    """
    if m < 2 or r < 2:
        raise ValueError("need m >= 2 and r >= 2")
    nbits = m * (m - 1) // 2
    if sample_size is None:
        if nbits > _FULL_SWEEP_MAX_BITS:
            raise ValueError(
                f"full sweep needs C(m,2) <= {_FULL_SWEEP_MAX_BITS} bits; "
                f"m={m} has {nbits} (use sample_size)"
            )
        masks = np.arange(1 << nbits, dtype=np.uint64)
        freec, hist = _census_kernel(masks, m, r)
        return PartiteCensus(
            m=m, r=r, mode="full", total=1 << nbits,
            clique_free=freec, distance_histogram=hist,
        )
    if nbits > _SAMPLE_MAX_BITS:
        raise ValueError(f"sampling supports C(m,2) <= {_SAMPLE_MAX_BITS} bits")
    if sample_size < 1:
        raise ValueError("sample_size must be positive")
    weights = (np.uint64(1) << np.arange(nbits, dtype=np.uint64))
    masks = np.empty(sample_size, dtype=np.uint64)
    for i in range(sample_size):
        bits = stream_block(sub_seed(seed, i), 0, nbits) & np.uint64(1)
        masks[i] = np.uint64((bits * weights).sum())
    freec, hist = _census_kernel(masks, m, r)
    return PartiteCensus(
        m=m, r=r, mode="sample", total=sample_size,
        clique_free=freec, distance_histogram=hist, seed=seed,
    )

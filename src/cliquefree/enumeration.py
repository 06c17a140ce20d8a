"""Labeled-graph censuses over all graphs on m vertices.

The full sweep enumerates every labeled graph on m vertices as an integer
edge mask, filters out those containing a clique on r+1 vertices, and
histograms the exact distance to r-partiteness: the minimum number of
edges whose deletion leaves an r-colorable graph.  Bit t of every mask is
pair t of graphs._pairs(m), the pair order of the sampler and of graph6,
and sample i of a sampled census is the graph sample_graph(m,
sub_seed(seed, i)) read from the same edge coins.  Everything is
vectorized over the masks, which caps the full sweep at m = 7; larger m
use seeded sampling over the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graphs import _pairs, edge_coins
from .rng import sub_seed

_FULL_SWEEP_MAX_BITS = 24
_MAX_COLORINGS = 4_000_000
_SAMPLE_MAX_BITS = 63


def _pack(columns, count: int) -> np.ndarray:
    """count uint64 edge masks with bit t set where boolean column t is true."""
    masks = np.zeros(count, dtype=np.uint64)
    for t, column in enumerate(columns):
        np.bitwise_or(masks, np.uint64(1 << t), out=masks, where=column)
    return masks


def _same_label_masks(labels: np.ndarray) -> np.ndarray:
    """For each row of a count x m label table, the mask of the pairs whose
    endpoints share a label, built one pair column at a time."""
    v, u = _pairs(labels.shape[1])
    return _pack((labels[:, a] == labels[:, b] for a, b in zip(v, u)), len(labels))


def _clique_masks(m: int, r: int) -> np.ndarray:
    """Each clique on r+1 vertices shares label 0; the rest have their own."""
    cliques = np.array(list(combinations(range(m), r + 1)), dtype=np.intp)
    labels = np.tile(np.arange(1, m + 1), (len(cliques), 1))
    np.put_along_axis(labels, cliques.reshape(-1, r + 1), 0, axis=1)
    return _same_label_masks(labels)


def _mono_masks(m: int, r: int) -> np.ndarray:
    """Within-class pair masks for every r-coloring with vertex 0 fixed;
    vertex v takes base-r digit v-1 of the coloring's index."""
    count = r ** (m - 1)
    if count > _MAX_COLORINGS:
        raise ValueError(f"r^(m-1) = {count} colorings exceed the supported cap")
    # wide enough for r labels: a byte would merge colors 256 apart
    colors = np.zeros((count, m), dtype=np.min_scalar_type(r - 1))
    idx = np.arange(count, dtype=np.min_scalar_type(count))
    for v in range(1, m):
        colors[:, v] = idx % r
        idx //= r
    return _same_label_masks(colors)


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
    mono = _mono_masks(m, r)
    # colorings in blocks against every surviving graph; about 2^16 pairs a
    # block bounds the temporary arrays
    step = max(1, 2 ** 16 // gf.size)
    for s in range(0, mono.size, step):
        cnt = np.bitwise_count(mono[s:s + step, None] & gf[None, :]).min(axis=0)
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
    else:
        if nbits > _SAMPLE_MAX_BITS:
            raise ValueError(f"sampling supports C(m,2) <= {_SAMPLE_MAX_BITS} bits")
        if sample_size < 1:
            raise ValueError("sample_size must be positive")
        coins = np.array(
            [edge_coins(m, sub_seed(seed, i)) for i in range(sample_size)], dtype=bool
        )
        masks = _pack(coins.T, sample_size)
    freec, hist = _census_kernel(masks, m, r)
    return PartiteCensus(
        m=m, r=r, mode="full" if sample_size is None else "sample",
        total=len(masks), clique_free=freec, distance_histogram=hist,
        seed=None if sample_size is None else seed,
    )

"""Bitmask graphs, deterministic sampling, and text formats.

Graphs are immutable adjacency-row structures: row u is a Python int whose
bit v is set iff uv is an edge.  Vertex sets are plain int masks, so set
algebra is bitwise arithmetic and counting is int.bit_count().  The size
cap of 512 vertices keeps every mask a handful of machine words.

Sampling is counter-mode: the pairs u < v are ordered by (max, min), and
edge {u, v} of the graph with a given seed is decided by the low bit of
the SplitMix64 stream at the pair's position C(v,2) + u.  Adding vertex v
consumes the contiguous stream block [C(v,2), C(v+1,2)), so the first m
vertices of any larger sample are the sample on m vertices, and growing a
graph one vertex at a time (vertex exposure) reproduces the one-shot
sample exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import Graph6Error
from .rng import stream_block

MAX_VERTICES = 512


def _check_vertex_count(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in [0, {MAX_VERTICES}]")


class Graph:
    """Immutable simple graph on vertices 0..n-1 with bitmask rows."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int], validate: bool = True):
        rows = tuple(rows)
        if validate:
            _check_vertex_count(n)
            if len(rows) != n:
                raise ValueError("row count does not match vertex count")
            full = (1 << n) - 1
            for u, row in enumerate(rows):
                if row & ~full:
                    raise ValueError(f"row {u} references vertices >= n")
                if (row >> u) & 1:
                    raise ValueError(f"self-loop at vertex {u}")
            for u, row in enumerate(rows):
                m = row
                while m:
                    b = m & -m
                    v = b.bit_length() - 1
                    m ^= b
                    if not (rows[v] >> u) & 1:
                        raise ValueError(f"asymmetric adjacency at ({u}, {v})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("Graph is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def complete(n: int) -> "Graph":
        _check_vertex_count(n)
        full = (1 << n) - 1
        return Graph(n, [full ^ (1 << u) for u in range(n)], validate=False)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_vertex_count(n)  # before the rows list, which takes n slots
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, rows)

    # -- queries ----------------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            m = self.rows[v] & ((1 << v) - 1)  # u < v only
            while m:
                b = m & -m
                m ^= b
                yield (b.bit_length() - 1, v)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def mask_to_vertices(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def covers_edge(g: Graph, mask: int, u: int, v: int) -> bool:
    """True if no vertex of the mask is adjacent to both u and v.

    A vertex set with this property cannot extend the edge uv to a
    triangle, which is what lets an independent set sit next to a single
    defect edge without creating larger cliques.
    """
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    if mask & ((1 << u) | (1 << v)):
        raise ValueError("covering set must avoid the edge endpoints")
    return mask & g.rows[u] & g.rows[v] == 0


# -- deterministic sampling ------------------------------------------------


def edge_coins(n: int, seed: int) -> np.ndarray:
    """The C(n,2) edge indicator bits for (n, seed), in (max, min) pair order."""
    _check_vertex_count(n)
    total = n * (n - 1) // 2
    return (stream_block(seed, 0, total) & np.uint64(1)).astype(np.uint8)


def sample_graph(n: int, seed: int) -> Graph:
    """Uniform random graph (edge probability 1/2), fully seed-determined."""
    return Graph(n, _rows_from_pair_bits(n, edge_coins(n, seed)), validate=False)


@lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(v, u) index arrays of the pairs u < v, listed in (max, min) order.

    np.tril_indices(n, -1) walks the strict lower triangle row by row, so
    it yields (v, u) v-major with ascending u: exactly (max, min) order.
    The arrays are cached and read-only because every caller shares them.
    """
    v, u = np.tril_indices(n, -1)
    v.flags.writeable = False
    u.flags.writeable = False
    return v, u


def _rows_from_pair_bits(n: int, bits: np.ndarray) -> list[int]:
    """Adjacency rows of the graph whose C(n,2) edge bits are in (max, min) order."""
    v, u = _pairs(n)
    adj = np.zeros((n, n), dtype=bool)
    adj[v, u] = bits
    adj |= adj.T
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _pair_bits_from_rows(n: int, rows: tuple[int, ...]) -> np.ndarray:
    """The inverse of _rows_from_pair_bits: bit v of row u for each pair u < v."""
    v, u = _pairs(n)
    width = (n + 7) // 8
    packed = np.frombuffer(
        b"".join(row.to_bytes(width, "little") for row in rows), dtype=np.uint8
    ).reshape(n, width)
    adj = np.unpackbits(packed, axis=1, bitorder="little")
    return adj[u, v]


class ExposureStream:
    """Vertex-by-vertex growth of the seeded random graph.

    After m calls to step() the current graph equals sample_graph(m, seed)
    bit for bit.  Pairs are ordered by (max, min), so the first m vertices
    of sample_graph(N, seed) for any N >= m are sample_graph(m, seed): the
    stream holds one sample and returns its prefixes, sampling again at
    twice the size when a step runs past it.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.n = 0
        self._sample = Graph(0, (), validate=False)

    @property
    def graph(self) -> Graph:
        keep = (1 << self.n) - 1
        return Graph(self.n, [row & keep for row in self._sample.rows[:self.n]], validate=False)

    def step(self) -> Graph:
        if self.n >= MAX_VERTICES:
            raise ValueError("exposure stream exceeded the vertex cap")
        self.n += 1
        if self.n > self._sample.n:
            self._sample = sample_graph(min(2 * self.n, MAX_VERTICES), self.seed)
        return self.graph


# -- graph6 ------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])


def graph6_encode(g: Graph) -> str:
    """Canonical graph6 text for the graph (no trailing newline)."""
    bits = _pair_bits_from_rows(g.n, g.rows)
    # six bits a byte, most significant first, zero padding at the end
    sixes = np.pad(bits, (0, -len(bits) % 6)).reshape(-1, 6)
    body = (np.packbits(sixes, axis=1) >> 2) + 63
    return (_g6_size_bytes(g.n) + body.tobytes()).decode("ascii")


def graph6_decode(text: str) -> Graph:
    """Parse one graph6 line; accepts an optional >>graph6<< header."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string")
    if not s.isascii():
        raise Graph6Error("non-ASCII character outside the graph6 alphabet")
    data = s.encode("ascii")
    codes = np.frombuffer(data, dtype=np.uint8)
    outside = np.flatnonzero((codes < 63) | (codes > 126))
    if outside.size:
        raise Graph6Error(f"byte {data[outside[0]]} outside the graph6 alphabet")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("graph6 sizes above 258047 are not supported")
        if len(data) < 4:
            raise Graph6Error("truncated graph6 size field")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph on {n} vertices exceeds the {MAX_VERTICES} cap")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"graph6 body length {len(body)} does not match n={n} (need {need})"
        )
    sixes = np.frombuffer(body, dtype=np.uint8).reshape(-1, 1) - np.uint8(63)
    bits = np.unpackbits(sixes, axis=1)[:, 2:].ravel()
    total = n * (n - 1) // 2
    if bits[total:].any():
        raise Graph6Error("nonzero padding bits in graph6 body")
    return Graph(n, _rows_from_pair_bits(n, bits[:total]), validate=False)


# -- edge-list text ----------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    lines = [
        ln for ln in (raw.strip() for raw in text.splitlines())
        if ln and not ln.startswith("#")
    ]
    if not lines:
        raise ValueError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError as e:
        raise ValueError(f"edge-list header must be a vertex count: {lines[0]!r}") from e
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"edge line needs two endpoints: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph.from_edges(n, edges)


def read_graph(text: str) -> Graph:
    """Auto-detect graph6 vs edge list (edge lists start with a digit)."""
    s = text.lstrip()
    if not s:
        raise ValueError("empty graph input")
    if s[0].isdigit():
        return parse_edge_list(text)
    return graph6_decode(s.splitlines()[0])

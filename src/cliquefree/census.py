"""Exhaustive census of k-subsets with bounded induced edge count.

The census walks k-subsets by backtracking in ascending-degree order,
pruning any partial selection whose induced edge count already exceeds the
budget.  Low-degree-first ordering makes the prune fire early on dense
graphs, which is what keeps desk-scale parameter points (n around 35,
k around 8) in the millisecond range.

Node accounting: every attempted vertex extension counts as one node.
Searches carry a node limit and raise NodeLimitError with their partial
tallies when they hit it, so runaway parameter choices fail loudly instead
of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NodeLimitError
from .graphs import Graph, mask_to_vertices

DEFAULT_NODE_LIMIT = 10 ** 9
DEFAULT_WITNESS_CAP = 10 ** 5


@dataclass
class CensusResult:
    """Counts of k-subsets by exact induced edge count 0..budget.

    witnesses, when requested, holds (vertex mask, edge count) pairs in
    ascending mask order, truncated at the cap; witnesses_complete records
    whether truncation happened.
    """

    n: int
    k: int
    budget: int
    counts: dict = field(default_factory=dict)
    nodes: int = 0
    witnesses: list | None = None
    witnesses_complete: bool = True

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, i: int) -> int:
        return self.counts.get(i, 0)

    def as_dict(self) -> dict:
        d = {
            "n": self.n,
            "k": self.k,
            "budget": self.budget,
            "counts": {str(i): c for i, c in sorted(self.counts.items())},
            "total": self.total,
            "nodes": self.nodes,
            "witnesses_complete": self.witnesses_complete,
        }
        if self.witnesses is not None:
            d["witnesses"] = [
                {"vertices": mask_to_vertices(m), "edges": e}
                for m, e in self.witnesses
            ]
        return d


def census(
    g: Graph,
    k: int,
    budget: int,
    *,
    candidates: int | None = None,
    witnesses: bool = False,
    node_limit: int = DEFAULT_NODE_LIMIT,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> CensusResult:
    """Count (and optionally list) k-subsets inducing at most budget edges.

    candidates restricts the ground set to a vertex mask.  Counts are keyed
    by exact edge count, so callers needing "exactly i" read counts[i].
    """
    if k < 0 or budget < 0:
        raise ValueError("k and budget must be non-negative")
    if candidates is None:
        candidates = g.full_mask
    verts = [v for v in mask_to_vertices(candidates) if 0 <= v < g.n]
    order = sorted(verts, key=lambda v: (g.degree(v), v))
    nn = len(order)

    # adjacency translated to positions in the chosen order
    posadj = []
    for v in order:
        m = 0
        for q, u in enumerate(order):
            if (g.rows[v] >> u) & 1:
                m |= 1 << q
        posadj.append(m)

    result = CensusResult(
        n=g.n, k=k, budget=budget,
        witnesses=[] if witnesses else None,
    )
    counts = result.counts
    if k == 0:
        counts[0] = 1
        if witnesses:
            result.witnesses.append((0, 0))
        return result
    if nn < k:
        return result

    nodes = 0
    wit = result.witnesses
    # stack of (next position, chosen position mask, depth, edge count)
    stack = [(0, 0, 0, 0)]
    while stack:
        start, chosen, depth, edges = stack.pop()
        if depth == k:
            counts[edges] = counts.get(edges, 0) + 1
            if wit is not None:
                if len(wit) < witness_cap:
                    # translate back to original vertex labels
                    m = 0
                    c = chosen
                    while c:
                        b = c & -c
                        c ^= b
                        m |= 1 << order[b.bit_length() - 1]
                    wit.append((m, edges))
                else:
                    result.witnesses_complete = False
            continue
        need = k - depth
        # push in reverse so positions are explored in ascending order
        for p in range(nn - need, start - 1, -1):
            nodes += 1
            e2 = edges + (posadj[p] & chosen).bit_count()
            if e2 <= budget:
                stack.append((p + 1, chosen | (1 << p), depth + 1, e2))
        if nodes > node_limit:
            result.nodes = nodes
            raise NodeLimitError(
                f"census exceeded {node_limit} nodes", nodes, partial=result
            )
    result.nodes = nodes
    if wit is not None:
        wit.sort()
    return result


def cover_family(
    g: Graph,
    u: int,
    v: int,
    k: int,
    *,
    node_limit: int = DEFAULT_NODE_LIMIT,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> list[int]:
    """All independent k-sets that cover the edge uv, as vertex masks.

    Covering means avoiding both endpoints and every common neighbor of
    u and v; see covers_edge.  Returned in ascending mask order.
    """
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    allowed = g.full_mask & ~(g.rows[u] & g.rows[v]) & ~(1 << u) & ~(1 << v)
    res = census(
        g, k, 0,
        candidates=allowed, witnesses=True,
        node_limit=node_limit, witness_cap=witness_cap,
    )
    if not res.witnesses_complete:
        raise NodeLimitError(
            f"cover family exceeded {witness_cap} witnesses", res.nodes, partial=res
        )
    return [m for m, _ in res.witnesses]

"""Exhaustive census of k-subsets with bounded induced edge count.

The search walks k-subsets as increasing position sequences.  Counting mode
takes the vertices themselves as positions and the graph's rows as their
adjacency, since counts do not depend on the order.  The ranking by
ascending (degree, label), and the rows relabelled in that order, serve
listing only: they fix which witnesses a listing truncated at WITNESS_CAP
keeps.  A prefix carries its later candidates bit-sliced by how many
neighbours they have among the chosen positions: slices[c] is the mask of
later positions with exactly c chosen neighbours, for c up to the budget
the prefix has left.  Choosing position p moves each of p's later
neighbours up one slice; a position pushed past the remaining budget falls
out, so no extension is tried and then rejected.  A prefix is pruned when
its slices hold fewer positions than it still needs, and the last level is
tallied by a popcount per slice.

Counting mode stops walking once at most one unit of budget is left.  With
none left only slices[0] remains, and the completions are the independent
sets of that mask, counted by one independent-set counter.  With one left,
a completion of need positions draws need - 1 of them from slices[0] =: s0,
independent of each other, and the last from s0 or slices[1] =: s1.  One
walk over the independent (need - 1)-subsets S of s0 counts them all.  It
carries two masks: z, the positions of s0 | s1 with no neighbour in S, and
hi, the positions of s0 with exactly one neighbour in S that lie above it.
Choosing position b (as a bit), whose row is adj, updates them to
z & ~adj and (hi & ~adj) | (z & adj & s0 & ~(2b - 1)).  Once S is whole,
with b its last position, the walk's remaining candidates above b outside
adj complete it with no new edge, and z & s1 and hi (after the update)
with exactly one.  A completion C with one new edge uv, u < v, is counted
once, from S = C - {v}.  Since z & s0 above b is the walk's candidate
mask, the code carries only that and the union of z & s1 with hi, which
one rule drops and one popcount tallies.  Listing mode walks every prefix
and carries the chosen vertex mask down to the leaves, so a truncated
witness list keeps the walk's first witnesses.

Node accounting: every extension the search takes to a prefix of at most
k - 1 positions counts as one node: in the walk, in the independent-set
counter, and in the one-unit walk, where each position added to S is one.
An extension whose candidates are too few to complete the set (for the
last position of S: that nothing completes it) is pruned before it is
taken and is not counted, and the k-th position is tallied by popcount and
adds none.  Counting and listing the same census may take different node
counts.  Searches carry a node limit and raise NodeLimitError with a
partial result holding the tallies made so far, so runaway parameter
choices fail loudly instead of hanging.  The one-unit walk tallies as it
goes, so its partial counts are lower bounds that grow with the limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NodeLimitError
from .graphs import Graph, mask_to_vertices

DEFAULT_NODE_LIMIT = 10 ** 9
WITNESS_CAP = 10 ** 5  # most witnesses a listing keeps


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
) -> CensusResult:
    """Count (and optionally list) k-subsets inducing at most budget edges.

    candidates restricts the ground set to a vertex mask.  Counts are keyed
    by exact edge count, so callers needing "exactly i" read counts[i].
    A listing keeps at most WITNESS_CAP witnesses: when it truncates, the
    kept witnesses are the first WITNESS_CAP the walk meets, sorted by
    mask, and witnesses_complete is False.
    """
    if k < 0 or budget < 0:
        raise ValueError("k and budget must be non-negative")
    if node_limit < 0:
        raise ValueError("node_limit must be non-negative")
    if candidates is None:
        candidates = g.full_mask
    candidates &= g.full_mask
    if witnesses:
        # adjacency translated to positions in ascending (degree, label) order
        order = sorted(mask_to_vertices(candidates), key=lambda v: (g.degree(v), v))
        pos = [0] * g.n
        for q, v in enumerate(order):
            pos[v] = q
        posadj = []
        for v in order:
            m = 0
            row = g.rows[v] & candidates
            while row:
                b = row & -row
                row ^= b
                m |= 1 << pos[b.bit_length() - 1]
            posadj.append(m)
        vbit = [1 << v for v in order]
        every = (1 << len(order)) - 1
    else:
        # counts do not depend on the order: the positions are the vertices
        posadj, vbit, every = g.rows, None, candidates

    result = CensusResult(
        n=g.n, k=k, budget=budget,
        witnesses=[] if witnesses else None,
    )
    if k == 0:
        result.counts[0] = 1
        if witnesses:
            result.witnesses.append((0, 0))
        return result
    if every.bit_count() < k:
        return result

    # a k-set has at most k(k-1)/2 edges, so no larger budget needs a slice
    tally = [0] * (min(budget, k * (k - 1) // 2) + 1)
    wit = result.witnesses
    nodes = 0

    def finish() -> CensusResult:
        result.counts = {e: c for e, c in enumerate(tally) if c}
        result.nodes = nodes
        if wit is not None:
            wit.sort()
        return result

    def stop() -> None:
        result.witnesses_complete = False
        raise NodeLimitError(
            f"census exceeded {node_limit} nodes", nodes, partial=finish()
        )

    def leaves(slices: list[int], rest: int, e: int, vm: int) -> None:
        """Tally (and list) the k-sets completing a prefix of k - 1.

        rest is the union of slices, the prefix's possible last positions.
        """
        for c, s in enumerate(slices):
            tally[e + c] += s.bit_count()
        if wit is None:
            return
        while rest:
            if len(wit) >= WITNESS_CAP:
                result.witnesses_complete = False
                return
            b = rest & -rest
            rest ^= b
            c = 0
            while not slices[c] & b:
                c += 1
            wit.append((vm | vbit[b.bit_length() - 1], e + c))

    def independent(cand: int, need: int) -> int:
        """Count the independent need-sets of cand, for need >= 2."""
        nonlocal nodes
        total = 0
        while cand.bit_count() >= need:
            b = cand & -cand
            cand ^= b
            sub = cand & ~posadj[b.bit_length() - 1]
            size = sub.bit_count()
            if size < need - 1:
                continue
            nodes += 1
            if nodes > node_limit:
                stop()
            total += size if need == 2 else independent(sub, need - 1)
        return total

    def walk(cand: int, w: int, e: int, left: int) -> None:
        """Tally one-unit completions while choosing the last left >= 1 of S.

        S is an independent (need - 1)-subset of s0, walked in ascending
        order; cand holds the positions of s0 above S's last position with
        no neighbour in S, and w is z & s1 | hi: the positions that complete
        S with exactly one new edge and are counted from S.  Once S is
        whole, cand's positions outside the last one's row complete it with
        no new edge.
        """
        nonlocal nodes
        if left > 1:
            while cand.bit_count() >= left:
                b = cand & -cand
                cand ^= b
                adj = posadj[b.bit_length() - 1]
                later = cand & ~adj
                if later.bit_count() < left - 1:
                    continue
                nodes += 1
                if nodes > node_limit:
                    stop()
                walk(later, (w & ~adj) | (cand & adj), e, left - 1)
            return
        while cand:
            b = cand & -cand
            cand ^= b
            adj = posadj[b.bit_length() - 1]
            up = cand & adj
            none = cand.bit_count() - up.bit_count()
            one = (w & ~adj).bit_count() + up.bit_count()
            if not none | one:
                continue
            nodes += 1
            if nodes > node_limit:
                stop()
            tally[e] += none
            tally[e + 1] += one

    def branch(slices: list[int], rest: int, e: int, need: int, vm: int) -> None:
        """Complete a prefix with e edges by need >= 1 more positions.

        rest is the union of slices; the budget left is len(slices) - 1.
        """
        if need == 1:
            leaves(slices, rest, e, vm)
        elif wit is None and len(slices) == 1:
            tally[e] += independent(rest, need)
        elif wit is None and len(slices) == 2:
            walk(slices[0], slices[1], e, need - 1)
        else:
            grow(slices, rest, e, need, vm)

    def grow(slices: list[int], rest: int, e: int, need: int, vm: int) -> None:
        """Walk the extensions of a prefix with e edges by need >= 2 positions.

        rest is the union of slices; the budget left is len(slices) - 1.
        """
        nonlocal nodes
        while rest.bit_count() >= need:
            b = rest & -rest
            rest ^= b
            c = 0
            while not slices[c] & b:
                c += 1
            p = b.bit_length() - 1
            adj = posadj[p]
            child = [slices[0] & ~adj & rest]
            for i in range(1, len(slices) - c):
                child.append(((slices[i] & ~adj) | (slices[i - 1] & adj)) & rest)
            union = 0
            for s in child:
                union |= s
            if union.bit_count() < need - 1:
                continue
            nodes += 1
            if nodes > node_limit:
                stop()
            branch(child, union, e + c, need - 1, vm | vbit[p] if vbit else 0)

    branch([every] + [0] * (len(tally) - 1), every, 0, k, 0)
    return finish()


def cover_family(
    g: Graph,
    u: int,
    v: int,
    k: int,
    *,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> list[int]:
    """All independent k-sets that cover the edge uv, as vertex masks.

    Covering means avoiding both endpoints and every common neighbor of
    u and v; see covers_edge.  Returned in ascending mask order.
    """
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    allowed = g.full_mask & ~(g.rows[u] & g.rows[v]) & ~(1 << u) & ~(1 << v)
    res = census(g, k, 0, candidates=allowed, witnesses=True, node_limit=node_limit)
    if not res.witnesses_complete:
        raise NodeLimitError(
            f"cover family exceeded {WITNESS_CAP} witnesses", res.nodes, partial=res
        )
    return [m for m, _ in res.witnesses]

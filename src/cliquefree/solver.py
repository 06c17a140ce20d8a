"""Exact solvers: largest clique-free induced subgraphs and defect structures.

max_clique_free and max_pattern_free compute the maximum number of
vertices inducing no copy of a forbidden graph F (a clique on q vertices,
or any pattern f) with one branch and bound over vertex masks.  A search
call holds an F-free chosen set and the candidates that can each join it
without making a copy.  It includes them in ascending order, each one's
subtree searched before the next is tried, so sets are met in the order of
a search that branches on the lowest candidate, include before exclude.
After an include of b, the later candidates that now make a copy are
dropped.  The two solvers differ only in that filter: for K_q only b's
neighbours can make a copy, found by an exact clique search inside the
common chosen neighbourhood (for a triangle, one union of the rows of b's
chosen neighbours); for f every later candidate c can, found by a
subgraph match with b and c pinned into the copy.  Both filters are
exact, so every reported witness is correct by construction.

The bound is a clique cover of the candidates, built once per call: from
the highest candidate down, each joins the first class it is fully
adjacent to.  Any |F| vertices of a clique hold a copy of F, so an F-free
set holds no clique on more than cap = |F| - 1 vertices (q - 1 for K_q).
The members a set takes from one class form a clique with the largest
clique K_t of common, the chosen vertices adjacent to the whole class, so
a class adds at most max(1, cap - t) of them (each candidate passed the
filter with all of chosen, so t < cap).  The candidates left after the
lower ones have been tried form a suffix, which keeps each class's
highest members, and those members see at least the class's common, so
the one pass bounds every suffix; the call stops once |chosen| plus the
suffix's bound cannot beat the incumbent.  Only subtrees that cannot
strictly beat the incumbent are cut, and the incumbent changes only on a
strict gain, so the search meets the same sequence of incumbents as one
bounded by |chosen| + |candidates|: size and witness are those of the
plain bound, and only the node count moves.  One node is one chosen set
the search enters: the root and every include.

max_clique_free can also grow an exact result by one vertex: given
grown_from, the exact maximum for g without its last vertex v, only sets
through v can beat it, and none by more than one, since dropping v from
any set leaves a set of g - v.  The search keeps grown_from as its
incumbent, roots at the set {v} and stops at grown_from.size + 1, so the
result is the exact maximum of g at a fraction of a full search.

build_structure assembles the certificate family behind the lower-bound
side of the two-point prediction: j parts of size k+1 carrying mu or mu+1
defect edges, plus r-j independent k-sets, one per defect edge, each
covering its edge (no common neighbor of the endpoints inside the set).
Any clique meets each part in at most a defect-edge clique and each cover
in at most one vertex, and using a defect edge locks the clique out of
that edge's cover, so the union contains no clique on r+1 vertices; this
is checked invariant by invariant in verify_structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .census import DEFAULT_NODE_LIMIT, census, cover_family
from .errors import NodeLimitError
from .graphs import Graph, covers_edge, mask_to_vertices
from .profiles import mu_xi


@dataclass(frozen=True)
class SolveResult:
    size: int
    witness: int  # vertex mask
    nodes: int

    def as_dict(self) -> dict:
        return {
            "size": self.size,
            "witness": mask_to_vertices(self.witness),
            "nodes": self.nodes,
        }


def _clique_within(rows: list[int], cand: int, need: int) -> bool:
    """True iff cand holds a clique on need >= 1 vertices."""
    if need == 1:
        return cand != 0
    while cand:
        if cand.bit_count() < need:
            return False
        b = cand & -cand
        cand ^= b
        # extend with v's later neighbors only, so each clique is
        # enumerated once in ascending order
        if _clique_within(rows, rows[b.bit_length() - 1] & cand, need - 1):
            return True
    return False


def has_clique(g: Graph, mask: int, q: int) -> bool:
    """True iff the mask contains a clique on q vertices."""
    return q <= 0 or _clique_within(g.rows, mask, q)


def _max_free(
    g: Graph,
    keep,
    cap: int,
    node_limit: int,
    grown_from: SolveResult | None = None,
) -> SolveResult:
    """Branch and bound behind max_clique_free and max_pattern_free.

    keep(chosen, b, later) returns the vertices of later that make no copy
    of F with the F-free mask chosen, whose vertex bit b was added last;
    cap = |F| - 1 is the most vertices of a clique an F-free set can hold,
    so a class of the cover adds at most max(1, cap - t), with K_t the
    largest clique of the chosen vertices adjacent to the whole class.
    The greedy seed keeps, in vertex order, each vertex that makes no
    copy.  With grown_from, the exact result for g without its last
    vertex v, the incumbent is grown_from instead, the search roots at the
    set {v} and it stops on reaching grown_from.size + 1.  Each call
    includes its candidates in ascending order and stops once the
    clique-cover bound of the untried ones cannot beat the incumbent
    (module docstring); one node is one call.  Only subtrees that cannot
    strictly beat the incumbent are cut, so size and witness are those of
    the plain size bound.
    """
    if node_limit < 0:
        raise ValueError("node_limit must be non-negative")
    rows = g.rows
    target = g.n + 1
    if grown_from is None:
        best_mask = 0
        cand = g.full_mask
        while cand:
            b = cand & -cand
            best_mask |= b
            cand = keep(best_mask, b, cand ^ b)
        best = best_mask.bit_count()
        root = (g.full_mask, 0, 0)
    else:
        best, best_mask = grown_from.size, grown_from.witness
        last = 1 << (g.n - 1)
        target = best + 1
        if best == 0:  # g is the one vertex v
            best, best_mask = 1, last
        root = (keep(last, last, g.full_mask ^ last), last, 1)

    nodes = 0

    def dfs(cand: int, chosen: int, size: int):
        nonlocal best, best_mask, nodes
        if best >= target:
            return
        nodes += 1
        if nodes > node_limit:
            raise NodeLimitError(
                f"solver exceeded {node_limit} nodes",
                nodes,
                partial=SolveResult(best, best_mask, nodes),
            )
        if size + cand.bit_count() <= best:  # no cover bound is larger
            return
        # one clique cover of cand, built a class at a time: each class
        # takes, from the highest vertex down, every vertex adjacent to all
        # it holds, as when each vertex joins the first class that fits.
        # A class adds at most max(1, cap - t) members, K_t the largest
        # clique of common (module docstring).  A suffix of cand holds a
        # class's members from the top, so its bound counts the suffix's
        # members of tops, the highest that many members of each class.
        tops = 0
        left = cand
        while left:
            fits = left
            common = chosen
            top = 0
            taken = 0
            while fits:
                v = fits.bit_length() - 1
                left ^= 1 << v
                if taken < cap:
                    top |= 1 << v
                    taken += 1
                row = rows[v]
                common &= row
                fits &= row
            if common and taken > 1:
                # t >= 1, so adds = min(taken, cap - t) >= 1: find it by the
                # cliques of common, then drop top's lowest members
                adds = min(taken, cap - 1)
                while adds > 1 and _clique_within(rows, common, cap - adds + 1):
                    adds -= 1
                for _ in range(taken - adds):
                    top &= top - 1
            tops |= top
        bound = size + tops.bit_count()
        while cand and bound > best and best < target:
            b = cand & -cand
            cand ^= b
            if b & tops:
                bound -= 1
            with_b = chosen | b
            if size + 1 > best:
                best = size + 1
                best_mask = with_b
            dfs(keep(with_b, b, cand), with_b, size + 1)

    dfs(*root)
    return SolveResult(best, best_mask, nodes)


def max_clique_free(
    g: Graph,
    q: int,
    *,
    node_limit: int = DEFAULT_NODE_LIMIT,
    grown_from: SolveResult | None = None,
) -> SolveResult:
    """Maximum induced subgraph with no clique on q vertices.

    grown_from is the exact result for g without its last vertex v, as
    when a graph grows one vertex at a time.  The maximum of g is then
    grown_from.size or one more, and a larger set must contain v, so only
    sets through v are searched; the result is still the exact maximum.
    A grown_from whose witness reaches v, lies outside g, does not match
    its size or holds a clique on q vertices raises ValueError.
    """
    if q < 2:
        raise ValueError("clique order q must be at least 2")
    if grown_from is not None:
        w = grown_from.witness
        if g.n == 0 or w >> (g.n - 1):  # also true for a negative w
            raise ValueError("grown_from witness must lie in g without its last vertex")
        if w.bit_count() != grown_from.size or has_clique(g, w, q):
            raise ValueError("grown_from is not a clique-free witness of its size")
    rows = g.rows
    need = q - 2

    def keep(chosen: int, b: int, later: int) -> int:
        # a copy through c must also use b, so only b's neighbours can make one
        row = rows[b.bit_length() - 1]
        if need == 0:
            return later & ~row
        within = chosen & row
        if within.bit_count() < need:
            return later
        if need == 1:  # a triangle b, c, w: drop b's neighbours that see within
            seen = 0
            while within:
                w = within & -within
                within ^= w
                seen |= rows[w.bit_length() - 1]
            return later & ~(row & seen)
        risky = later & row
        while risky:
            c = risky & -risky
            risky ^= c
            if _clique_within(rows, rows[c.bit_length() - 1] & within, need):
                later ^= c
        return later

    return _max_free(g, keep, q - 1, node_limit, grown_from)


def _pattern_back(f: Graph, first: int, second: int) -> tuple[tuple[int, ...], ...]:
    """Matching plan for f: each position's pattern neighbours at earlier positions.

    The order starts at first and second, then keeps taking the vertex with
    the most neighbours already placed, ties by descending degree then
    label, so each later position is pinned by an earlier image whenever
    the pattern allows it.
    """
    order = [first, second]
    rest = sorted((a for a in range(f.n) if a not in order), key=lambda a: (-f.degree(a), a))
    while rest:
        a = max(rest, key=lambda v: sum(f.has_edge(v, o) for o in order))
        rest.remove(a)
        order.append(a)
    return tuple(
        tuple(p for p in range(pos) if f.has_edge(a, order[p]))
        for pos, a in enumerate(order)
    )


def _embed(rows: list[int], back, pos: int, image: list[int], used: int, within: int) -> bool:
    """True iff images for positions pos.. extend image[:pos] to a copy in within."""
    if pos == len(back):
        return True
    cand = within & ~used
    for p in back[pos]:
        cand &= rows[image[p]]
    while cand:
        b = cand & -cand
        cand ^= b
        image[pos] = b.bit_length() - 1
        if _embed(rows, back, pos + 1, image, used | b, within):
            return True
    return False


def _pair_plans(f: Graph) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """One matching plan per orbit of ordered vertex pairs of f under its automorphisms.

    A pair is skipped when an earlier plan maps f onto itself with its two
    pinned vertices on the pair: an injective edge-preserving map of f into
    f is an automorphism, so the earlier plan finds the same copies.
    """
    plans = []
    image = [0] * f.n
    for a in range(f.n):
        for c in range(f.n):
            if a == c:
                continue
            image[0], image[1] = a, c
            if not any(
                (f.has_edge(a, c) or not back[1])
                and _embed(f.rows, back, 2, image, (1 << a) | (1 << c), f.full_mask)
                for back in plans
            ):
                plans.append(_pattern_back(f, a, c))
    return tuple(plans)


def max_pattern_free(g: Graph, f: Graph) -> SolveResult:
    """Maximum induced subgraph containing no copy of the pattern f.

    With f a complete graph this computes the same result as
    max_clique_free, through a general subgraph matcher instead of the
    clique recursion.  After an include of b, a later candidate c is
    dropped when chosen + c holds a copy.  Both chosen and chosen - b + c
    are F-free, so such a copy uses b and c: the test pins b and c to each
    ordered pair of pattern vertices in turn, one pair per orbit under the
    automorphisms of f, with one matching plan per pair built once per
    solve.
    """
    if f.n < 1 or f.edge_count() == 0:
        raise ValueError("pattern must have at least one edge")
    rows = g.rows
    plans = _pair_plans(f)
    image = [0] * f.n

    def keep(chosen: int, b: int, later: int) -> int:
        image[0] = b.bit_length() - 1
        row = rows[image[0]]
        risky = later
        while risky:
            c = risky & -risky
            risky ^= c
            image[1] = c.bit_length() - 1
            adjacent = row & c
            if any(_embed(rows, back, 2, image, b | c, chosen | c)
                   for back in plans if adjacent or not back[1]):
                later ^= c
        return later

    return _max_free(g, keep, f.n - 1, DEFAULT_NODE_LIMIT)


# -- defect structures --------------------------------------------------------


def _edges_of(g: Graph, mask: int) -> tuple[tuple[int, int], ...]:
    """Edges inside a mask, sorted, endpoints ascending."""
    out = []
    verts = mask_to_vertices(mask)
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if g.has_edge(u, v):
                out.append((u, v))
    return tuple(out)


@dataclass(frozen=True)
class DefectStructure:
    """A clique-free certificate on k*r + j vertices.

    parts: j masks of k+1 vertices; the defect lists record their induced
    edges (mu or mu+1 each).  covers: r-j independent k-set masks, one per
    defect edge; cover_edges[t] is the defect edge assigned to covers[t].
    """

    r: int
    j: int
    k: int
    mu: int
    xi: int
    parts: tuple[int, ...]
    part_defects: tuple[tuple[tuple[int, int], ...], ...]
    covers: tuple[int, ...]
    cover_edges: tuple[tuple[int, int], ...]

    @property
    def union_mask(self) -> int:
        m = 0
        for p in self.parts:
            m |= p
        for c in self.covers:
            m |= c
        return m

    @property
    def size(self) -> int:
        return self.k * self.r + self.j

    def as_dict(self) -> dict:
        return {
            "r": self.r,
            "j": self.j,
            "k": self.k,
            "mu": self.mu,
            "xi": self.xi,
            "size": self.size,
            "parts": [mask_to_vertices(p) for p in self.parts],
            "part_defects": [list(map(list, d)) for d in self.part_defects],
            "covers": [mask_to_vertices(c) for c in self.covers],
            "cover_edges": [list(e) for e in self.cover_edges],
            "vertices": mask_to_vertices(self.union_mask),
        }


def build_structure(
    g: Graph,
    r: int,
    j: int,
    k: int,
    *,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> DefectStructure | None:
    """Search for a defect structure with parameters (r, j, k) in g.

    Deterministic: candidate parts and covers are tried in ascending mask
    order, so the same graph always yields the same structure.  Returns
    None when the search space is exhausted without a hit.  The parts are
    counted before they are listed: when too few exist, it returns None
    with no listing.
    """
    if k < 1:
        raise ValueError("part size parameter k must be positive")
    mu, xi = mu_xi(r, j)
    need_small = xi          # parts with mu defects
    need_large = j - xi      # parts with mu + 1 defects

    budget = mu + (1 if need_large else 0)
    try:
        supply = census(g, k + 1, budget, node_limit=node_limit)
    except NodeLimitError:
        pass  # a count cut short decides nothing: the listing stops as it would
    else:
        if supply.count(mu) < need_small or supply.count(mu + 1) < need_large:
            return None
    scan = census(g, k + 1, budget, witnesses=True, node_limit=node_limit)
    if not scan.witnesses_complete:
        raise NodeLimitError(
            "part enumeration exceeded the witness cap", scan.nodes, partial=scan
        )
    small = [m for m, e in scan.witnesses if e == mu]
    large = [m for m, e in scan.witnesses if e == mu + 1] if need_large else []
    if len(small) < need_small or len(large) < need_large:
        return None

    nodes = 0

    def bump():
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise NodeLimitError(
                f"structure search exceeded {node_limit} nodes", nodes, partial=scan
            )

    def pick_parts(pool: list[int], start: int, need: int, used: int, acc: list[int]):
        """Disjoint selections from pool[start:], ascending, as a generator."""
        if need == 0:
            yield acc
            return
        for idx in range(start, len(pool) - need + 1):
            m = pool[idx]
            if m & used:
                continue
            bump()
            yield from pick_parts(pool, idx + 1, need - 1, used | m, acc + [m])

    def pick_covers(defects, used, acc):
        if not defects:
            return acc
        (u, v), rest = defects[0], defects[1:]
        for cm in cover_family(g, u, v, k, node_limit=node_limit):
            if cm & used:
                continue
            bump()
            got = pick_covers(rest, used | cm, acc + [cm])
            if got is not None:
                return got
        return None

    for smalls in pick_parts(small, 0, need_small, 0, []):
        used_small = 0
        for m in smalls:
            used_small |= m
        for larges in pick_parts(large, 0, need_large, used_small, []):
            parts = tuple(smalls) + tuple(larges)
            used = used_small
            for m in larges:
                used |= m
            part_defects = tuple(_edges_of(g, pm) for pm in parts)
            defects = tuple(e for d in part_defects for e in d)
            covers = pick_covers(defects, used, [])
            if covers is not None:
                return DefectStructure(
                    r=r, j=j, k=k, mu=mu, xi=xi,
                    parts=parts,
                    part_defects=part_defects,
                    covers=tuple(covers),
                    cover_edges=defects,
                )
    return None


_DIRECT_CHECK_LIMIT = 30


def verify_structure(g: Graph, s: DefectStructure) -> bool:
    """Re-check every invariant of a defect structure against the graph.

    The invariants are exactly the premises of the freeness argument, so a
    True return certifies the union induces no clique on r+1 vertices.  On
    graphs small enough for it (n <= 30) the clique search is also run
    directly as a belt-and-braces check.
    """
    r, j, k = s.r, s.j, s.k
    if not 1 <= j <= r or k < 1:
        return False
    mu, xi = mu_xi(r, j)
    if (mu, xi) != (s.mu, s.xi):
        return False
    if len(s.parts) != j or len(s.part_defects) != j:
        return False
    if len(s.covers) != r - j or len(s.cover_edges) != r - j:
        return False

    union = 0
    for pm, claimed in zip(s.parts, s.part_defects):
        if pm.bit_count() != k + 1 or pm & union:
            return False
        union |= pm
        actual = _edges_of(g, pm)
        if actual != tuple(claimed):
            return False
        # no tally of mu-edge parts: a split other than xi moves the cover_edges count
        if len(actual) not in (mu, mu + 1):
            return False

    all_defects = [e for d in s.part_defects for e in d]
    if sorted(all_defects) != sorted(s.cover_edges):
        return False

    for cm, (u, v) in zip(s.covers, s.cover_edges):
        if cm.bit_count() != k or cm & union:
            return False
        union |= cm
        if _edges_of(g, cm):
            return False
        if not covers_edge(g, cm, u, v):
            return False

    if union.bit_count() != k * r + j:
        return False
    if g.n <= _DIRECT_CHECK_LIMIT and has_clique(g, union, r + 1):
        return False
    return True

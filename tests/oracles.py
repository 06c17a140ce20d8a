"""Independent reference implementations used only by the tests.

Nothing here imports the package under test.  Each oracle recomputes a
quantity from first principles with a deliberately different algorithm:
Pascal's triangle instead of lgamma, exact rationals instead of log
floats, exhaustive enumeration instead of branch and bound, sequential
instead of counter-mode randomness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import numpy as np

# -- exact binomial coefficients via Pascal's triangle ------------------------

_pascal_rows: list[list[int]] = [[1]]


def binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    while len(_pascal_rows) <= n:
        prev = _pascal_rows[-1]
        _pascal_rows.append(
            [1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1]
        )
    return _pascal_rows[n][k]


def exact_expected_defect(n: int, k: int, i: int) -> Fraction:
    """E[Z_{k,i}] as an exact rational."""
    pairs = k * (k - 1) // 2
    return Fraction(binom(n, k) * binom(pairs, i), 2 ** pairs)


# -- sequential SplitMix64 (stateful reference) --------------------------------

_M64 = (1 << 64) - 1

# the reference vector of the rng module docstring: the first five outputs
# of SplitMix64 seeded with 1234567
TEST_SEED = 1234567
TEST_STREAM = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
)


def splitmix_sequential(seed: int, count: int) -> list[int]:
    out = []
    state = seed & _M64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _M64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _M64
        z ^= z >> 31
        out.append(z)
    return out


def pair_index(u: int, v: int) -> int:
    """Stream position of the vertex pair {u, v} in the package's pair order.

    Pairs are ordered by (max, min): all pairs inside {0..v-1} come before
    any pair touching v, so adding vertex v consumes the contiguous block
    [C(v,2), C(v+1,2)).
    """
    if u == v or u < 0 or v < 0:
        raise ValueError("pair_index needs two distinct non-negative vertices")
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


# -- tiny graph toolkit on explicit edge sets ----------------------------------


def edge_set(n: int, pairs) -> frozenset:
    return frozenset(frozenset(p) for p in pairs)


def vertex_mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def edge_list_text(n: int, pairs) -> str:
    """Edge-list input: the vertex count, then one "u v" line per pair."""
    lines = [str(n), *(f"{u} {v}" for u, v in pairs)]
    return "\n".join(lines) + "\n"


def graph6_from_definition(n: int, edges: frozenset) -> str:
    """graph6 text written straight from the format description.

    N(n) is the byte n + 63 for n <= 62; otherwise the byte 126, then n in
    18 bits as three six-bit groups, most significant first, each + 63.
    R(x) lists the upper triangle column by column, x(0,1), x(0,2), x(1,2),
    x(0,3), ..., pads it with zeros on the right to a multiple of six bits
    and writes each six-bit group, big-endian, + 63.
    """
    if n <= 62:
        size = chr(n + 63)
    else:
        size = chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    x = "".join(
        "1" if frozenset((i, j)) in edges else "0" for j in range(n) for i in range(j)
    )
    x += "0" * (-len(x) % 6)
    return size + "".join(chr(int(x[p:p + 6], 2) + 63) for p in range(0, len(x), 6))


def subsets_census(n: int, edges: frozenset, k: int, budget: int) -> dict:
    """Counts of k-subsets by induced edge count, exhaustively."""
    counts: dict = {}
    for sub in combinations(range(n), k):
        e = sum(1 for p in combinations(sub, 2) if frozenset(p) in edges)
        if e <= budget:
            counts[e] = counts.get(e, 0) + 1
    return counts


def subsets_witnesses(n: int, edges: frozenset, k: int, budget: int) -> list:
    out = []
    for sub in combinations(range(n), k):
        e = sum(1 for p in combinations(sub, 2) if frozenset(p) in edges)
        if e <= budget:
            out.append((vertex_mask(sub), e))
    out.sort()
    return out


def max_clique_size_in(n: int, edges: frozenset, subset) -> int:
    """Largest clique inside subset, trying sizes upward.

    Every subset of a clique is a clique, so the first size with no clique
    ends the scan.
    """
    best = 0
    verts = list(subset)
    for size in range(1, len(verts) + 1):
        if not any(
            all(frozenset(p) in edges for p in combinations(cl, 2))
            for cl in combinations(verts, size)
        ):
            break
        best = size
    return best


def alpha_clique_free(n: int, edges: frozenset, q: int) -> int:
    """Largest subset with no q-clique, by scanning all 2^n subsets.

    Uses the subset DP omega[mask] = max clique inside mask.
    """
    rows = [0] * n
    for e in edges:
        u, v = sorted(e)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    omega = bytearray(1 << n)
    for m in range(1, 1 << n):
        b = m & -m
        v = b.bit_length() - 1
        rest = m ^ b
        a = omega[rest]
        c = 1 + omega[rest & rows[v]]
        omega[m] = a if a > c else c
    best = 0
    for m in range(1 << n):
        if omega[m] < q:
            s = bin(m).count("1")
            if s > best:
                best = s
    return best


def chromatic_brute(n: int, edges: frozenset) -> int:
    if n == 0:
        return 0
    if not edges:
        return 1
    elist = [tuple(sorted(e)) for e in edges]
    for t in range(2, n + 1):
        for coloring in product(range(t), repeat=n - 1):
            c = (0,) + coloring
            if all(c[u] != c[v] for u, v in elist):
                return t
    return n


def distance_to_partite_brute(n: int, edges: frozenset, r: int) -> int:
    elist = [tuple(sorted(e)) for e in edges]
    best = len(elist)
    for coloring in product(range(r), repeat=max(n - 1, 0)):
        c = (0,) + coloring
        mono = sum(1 for u, v in elist if c[u] == c[v])
        if mono < best:
            best = mono
    return best


def triangle_census_brute(m: int) -> tuple:
    """Triangle-free count and bipartite-distance histogram over all
    2^C(m,2) labeled graphs on m vertices, by direct mask enumeration.

    Pairs are numbered lexicographically, deliberately different from
    the library's colex numbering; the counts are numbering-invariant.
    """
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    bit = {p: 1 << i for i, p in enumerate(pairs)}
    tri_masks = [
        bit[(a, b)] | bit[(a, c)] | bit[(b, c)]
        for a, b, c in combinations(range(m), 3)
    ]
    mono_masks = set()
    for colors in range(1 << m):
        mono = 0
        for (u, v), b in bit.items():
            if ((colors >> u) ^ (colors >> v)) & 1 == 0:
                mono |= b
        mono_masks.add(mono)
    mono_masks = sorted(mono_masks)
    free = 0
    hist: dict = {}
    for mask in range(1 << len(pairs)):
        for t in tri_masks:
            if mask & t == t:
                break
        else:
            free += 1
            d = min((mask & mono).bit_count() for mono in mono_masks)
            hist[d] = hist.get(d, 0) + 1
    return free, hist


def contains_pattern_brute(
    gn: int, gedges: frozenset, fn: int, fedges: frozenset
) -> bool:
    """Injective pattern embedding by brute force over vertex tuples."""
    from itertools import permutations

    felist = [tuple(sorted(e)) for e in fedges]
    for image in permutations(range(gn), fn):
        if all(frozenset((image[u], image[v])) in gedges for u, v in felist):
            return True
    return False



def alpha_pattern_free(gn: int, gedges: frozenset, fn: int, fedges: frozenset) -> int:
    """Largest vertex set of g holding no copy of f, by scanning all 2^gn sets.

    A set holds a copy iff it contains one of the fn-sets that holds a copy,
    and those are found once by brute force over vertex tuples.
    """
    from itertools import permutations

    felist = [tuple(sorted(e)) for e in fedges]
    bad = []
    for sub in combinations(range(gn), fn):
        if any(
            all(frozenset((img[u], img[v])) in gedges for u, v in felist)
            for img in permutations(sub)
        ):
            bad.append(sum(1 << v for v in sub))
    best = 0
    for m in range(1 << gn):
        size = bin(m).count("1")
        if size > best and not any(b & m == b for b in bad):
            best = size
    return best

# -- divisor-staircase breakpoints ---------------------------------------------


def breakpoints_by_divisors(r: int) -> list[int]:
    """{floor(r/d) : d = 1..r}, sorted: an independent route to the j-set."""
    return sorted({r // d for d in range(1, r + 1)})


def breakpoints_by_scan(r: int) -> list[int]:
    """Direct scan of where floor(r/j) - 1 changes, with the end sentinel."""
    out = []
    for j in range(1, r + 1):
        mu_here = r // j - 1
        mu_next = r // (j + 1) - 1 if j < r else -1
        if mu_here != mu_next:
            out.append(j)
    return out


def interval_lengths_brute(r: int) -> dict:
    """Multiset of predicted interval lengths, from the scanned breakpoints."""
    bps = breakpoints_by_scan(r)
    lengths: dict = {}
    prev = 0
    for j in bps:
        lengths[1] = lengths.get(1, 0) + 1
        g = j - prev + 1
        lengths[g] = lengths.get(g, 0) + 1
        prev = j
    return lengths


# -- exact pmf of defect counts over all labeled graphs ------------------------


def exact_defect_pmf(n: int, k: int, i: int) -> np.ndarray:
    """pmf[v] = P(Z_{k,i} = v) under the uniform measure on all graphs.

    Enumerates all 2^C(n,2) labeled graphs as bit masks (vectorized);
    exact because every graph is equally likely.
    """
    pairs = [(u, v) for v in range(n) for u in range(v)]
    nbits = len(pairs)
    pidx = {p: t for t, p in enumerate(pairs)}
    g = np.arange(1 << nbits, dtype=np.uint64)
    counts = np.zeros(g.shape, dtype=np.int64)
    for sub in combinations(range(n), k):
        mask = 0
        for p in combinations(sub, 2):
            mask |= 1 << pidx[(min(p), max(p))]
        counts += np.bitwise_count(g & np.uint64(mask)) == i
    hist = np.bincount(counts)
    return hist / float(1 << nbits)


def poisson_pmf_ref(lam: float, t: int) -> float:
    import math

    if lam == 0:
        return 1.0 if t == 0 else 0.0
    return math.exp(-lam + t * math.log(lam) - math.lgamma(t + 1))


def tv_full_l1(pmf: np.ndarray, lam: float, extra_terms: int = 400) -> float:
    """Full-L1 distance between a finite pmf and Poisson(lam)."""
    s = 0.0
    top = len(pmf) - 1
    for v in range(top + 1):
        s += abs(float(pmf[v]) - poisson_pmf_ref(lam, v))
    cum = sum(poisson_pmf_ref(lam, v) for v in range(top + 1))
    s += max(0.0, 1.0 - cum)
    return s


# -- hitting times by re-solving every exposure step ---------------------------


def hitting_rep_resolving(lib, t: int, child_seed: int, r: int, j: int, n_max: int) -> dict:
    """A hitting_times replicate that re-samples and re-solves every step.

    The graph at step n is the one-shot sample_graph(n, child_seed), and
    the size target is decided by a full exact solve, so neither the
    exposure stream nor the grown search is used.  lib is the package
    under test, passed in so this module imports nothing from it.
    """
    mu, xi = lib.mu_xi(r, j)
    t_alpha = None
    t_supply = None
    for n in range(lib.level_threshold(3), n_max + 1):
        g = lib.sample_graph(n, child_seed)
        k = lib.level(n)
        if t_alpha is None and lib.max_clique_free(g, r + 1).size >= k * r + j:
            t_alpha = n
        if t_supply is None and lib.census(g, k + 1, mu).count(mu) >= xi:
            t_supply = n
        if t_alpha is not None and t_supply is not None:
            break
    return {
        "rep": t,
        "seed": child_seed,
        "t_alpha": t_alpha,
        "t_supply": t_supply,
    }


# -- the exact solver with the plain size bound --------------------------------


def _clique_within_ref(rows: list[int], cand: int, need: int) -> bool:
    """True iff cand holds a clique on need >= 1 vertices."""
    if need == 1:
        return cand != 0
    while cand:
        if cand.bit_count() < need:
            return False
        b = cand & -cand
        cand ^= b
        if _clique_within_ref(rows, rows[b.bit_length() - 1] & cand, need - 1):
            return True
    return False


def _plain_max_free(lib, g, makes_copy, node_limit: int, grown_from=None):
    """The branch and bound behind both solvers, bounded by |chosen| + |candidates|.

    The search as it was before the clique-cover bound: a greedy seed (or
    grown_from), then the lowest candidate, include before exclude, each
    call one node.  lib is the package under test, passed in so this
    module imports nothing from it; only its SolveResult and
    NodeLimitError are used.
    """
    target = g.n + 1
    if grown_from is None:
        best_mask = 0
        best = 0
        for v in range(g.n):
            if not makes_copy(best_mask, 1 << v):
                best_mask |= 1 << v
                best += 1
        root = (g.full_mask, 0, 0)
    else:
        best, best_mask = grown_from.size, grown_from.witness
        last = 1 << (g.n - 1)
        target = best + 1
        if best == 0:
            best, best_mask = 1, last
        root = (g.full_mask ^ last, last, 1)
    nodes = 0

    def dfs(cand: int, chosen: int, size: int):
        nonlocal best, best_mask, nodes
        if best >= target:
            return
        nodes += 1
        if nodes > node_limit:
            raise lib.NodeLimitError(
                f"solver exceeded {node_limit} nodes",
                nodes,
                partial=lib.SolveResult(best, best_mask, nodes),
            )
        if size + cand.bit_count() <= best:
            return
        b = cand & -cand
        rest = cand ^ b
        if not makes_copy(chosen, b):
            if size + 1 > best:
                best = size + 1
                best_mask = chosen | b
            dfs(rest, chosen | b, size + 1)
        dfs(rest, chosen, size)

    dfs(*root)
    return lib.SolveResult(best, best_mask, nodes)


def plain_max_clique_free(lib, g, q: int, *, node_limit: int = 10 ** 9, grown_from=None):
    """max_clique_free on the plain-bound search; same arguments, no checks."""
    rows = g.rows
    need = q - 1
    return _plain_max_free(
        lib, g,
        lambda chosen, b: _clique_within_ref(rows, rows[b.bit_length() - 1] & chosen, need),
        node_limit, grown_from,
    )


def _pattern_plan_ref(f, first: int) -> tuple:
    """Each position's earlier pattern neighbours, in the matcher's order from first."""
    order = [first]
    rest = sorted((a for a in range(f.n) if a != first), key=lambda a: (-f.degree(a), a))
    while rest:
        a = max(rest, key=lambda v: sum(f.has_edge(v, o) for o in order))
        rest.remove(a)
        order.append(a)
    return tuple(
        tuple(p for p in range(pos) if f.has_edge(a, order[p]))
        for pos, a in enumerate(order)
    )


def _embed_ref(rows, back, pos: int, image: list, used: int, within: int) -> bool:
    if pos == len(back):
        return True
    cand = within & ~used
    for p in back[pos]:
        cand &= rows[image[p]]
    while cand:
        b = cand & -cand
        cand ^= b
        image[pos] = b.bit_length() - 1
        if _embed_ref(rows, back, pos + 1, image, used | b, within):
            return True
    return False


def plain_max_pattern_free(lib, g, f, *, node_limit: int = 10 ** 9):
    """max_pattern_free on the plain-bound search, with its pinned matcher."""
    rows = g.rows
    plans = tuple(dict.fromkeys(_pattern_plan_ref(f, a) for a in range(f.n)))
    image = [0] * f.n

    def makes_copy(chosen: int, b: int) -> bool:
        image[0] = b.bit_length() - 1
        return any(_embed_ref(rows, back, 1, image, b, chosen | b) for back in plans)

    return _plain_max_free(lib, g, makes_copy, node_limit)


# -- the census count with the last unit of budget split by defect core -------


def _independent_ref(rows: list[int], cand: int, need: int) -> int:
    """Count the independent need-sets of cand, for need >= 1."""
    if need == 1:
        return cand.bit_count()
    total = 0
    while cand.bit_count() >= need:
        b = cand & -cand
        cand ^= b
        sub = cand & ~rows[b.bit_length() - 1]
        if sub.bit_count() >= need - 1:
            total += _independent_ref(rows, sub, need - 1)
    return total


def _last_unit_ref(rows: list[int], s0: int, s1: int, need: int) -> tuple[int, int]:
    """Completions by need >= 2 positions with (no, one) new edge.

    s0 and s1 hold the later positions with no and with one chosen
    neighbour.  A completion with a new edge has a core -- a position x
    of s1, or an edge uv inside s0 -- and an independent rest drawn from
    s0 outside the core's neighbourhood; each core's rest is counted apart.
    """
    none = _independent_ref(rows, s0, need)
    one = 0
    while s1:
        b = s1 & -s1
        s1 ^= b
        one += _independent_ref(rows, s0 & ~rows[b.bit_length() - 1], need - 1)
    later = s0
    while later:
        b = later & -later
        later ^= b
        adj = rows[b.bit_length() - 1]
        ends = later & adj
        away = s0 & ~adj
        while ends:
            v = ends & -ends
            ends ^= v
            rest = away & ~rows[v.bit_length() - 1]
            one += 1 if need == 2 else _independent_ref(rows, rest, need - 2)
    return none, one


def core_census_counts(rows: list[int], candidates: int, k: int, budget: int) -> dict:
    """Counts of k-subsets of candidates by exact induced edge count <= budget.

    The counting census as it was before the last unit of budget became
    one walk: bit-sliced prefixes while two or more units are left, then
    an independent-set count with none left, or the defect-core split
    with one left.  rows is the adjacency as vertex masks.
    """
    if k == 0:
        return {0: 1}
    tally = [0] * (min(budget, k * (k - 1) // 2) + 1)

    def branch(slices: list[int], rest: int, e: int, need: int) -> None:
        if need == 1:
            for c, s in enumerate(slices):
                tally[e + c] += s.bit_count()
        elif len(slices) == 1:
            tally[e] += _independent_ref(rows, rest, need)
        elif len(slices) == 2:
            none, one = _last_unit_ref(rows, slices[0], slices[1], need)
            tally[e] += none
            tally[e + 1] += one
        else:
            while rest.bit_count() >= need:
                b = rest & -rest
                rest ^= b
                c = 0
                while not slices[c] & b:
                    c += 1
                adj = rows[b.bit_length() - 1]
                child = [slices[0] & ~adj & rest]
                for i in range(1, len(slices) - c):
                    child.append(((slices[i] & ~adj) | (slices[i - 1] & adj)) & rest)
                union = 0
                for s in child:
                    union |= s
                branch(child, union, e + c, need - 1)

    if candidates.bit_count() >= k:
        branch([candidates] + [0] * (len(tally) - 1), candidates, 0, k)
    return {e: c for e, c in enumerate(tally) if c}

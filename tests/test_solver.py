"""Tests for the exact solvers and defect-structure certificates."""

import dataclasses
import hashlib
import json
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cliquefree
from cliquefree.errors import NodeLimitError
from cliquefree.graphs import (
    ExposureStream,
    Graph,
    covers_edge,
    mask_to_vertices,
    sample_graph,
)
from cliquefree.rng import sub_seed
from cliquefree.solver import (
    SolveResult,
    build_structure,
    has_clique,
    max_clique_free,
    max_pattern_free,
    verify_structure,
)
from cliquefree.thresholds import level

from oracles import (
    alpha_clique_free,
    alpha_pattern_free,
    contains_pattern_brute,
    edge_set,
    max_clique_size_in,
    plain_max_clique_free,
    plain_max_pattern_free,
    vertex_mask,
)


def _edges(g):
    return edge_set(g.n, g.edges())


def _free_of(g, witness, f):
    """True iff the witness induces no copy of f, by brute force on its edges."""
    verts = mask_to_vertices(witness)
    m = len(verts)
    pairs = [(a, b) for b in range(m) for a in range(b) if g.has_edge(verts[a], verts[b])]
    return not contains_pattern_brute(m, edge_set(m, pairs), f.n, _edges(f))


# -- clique search ---------------------------------------------------------


def test_has_clique_edge_cases():
    g = Graph.complete(5)
    assert has_clique(g, 0, 0)  # empty clique always present
    assert has_clique(g, 0b1, 1)
    assert not has_clique(g, 0, 1)
    assert has_clique(g, 0b10101, 3)
    assert not has_clique(g, 0b10101, 4)
    e = Graph.from_edges(5, [])
    assert not has_clique(e, e.full_mask, 2)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
    st.integers(min_value=1, max_value=5),
)
def test_has_clique_matches_bruteforce(n, seed, q):
    g = sample_graph(n, seed)
    en = _edges(g)
    mask = (seed * 2654435761) & g.full_mask
    verts = [v for v in range(n) if (mask >> v) & 1]
    want = max_clique_size_in(n, en, verts) >= q
    assert has_clique(g, mask, q) == want


# -- maximum clique-free subgraphs -------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
    st.integers(min_value=2, max_value=4),
)
def test_max_clique_free_matches_subset_dp(n, seed, q):
    g = sample_graph(n, seed)
    res = max_clique_free(g, q)
    want = alpha_clique_free(n, _edges(g), q)
    assert res.size == want
    assert res.witness.bit_count() == res.size
    assert not has_clique(g, res.witness, q)


def test_max_clique_free_fixed_cases():
    for seed in range(10):
        g = sample_graph(12, seed)
        for q in (3, 4):
            res = max_clique_free(g, q)
            assert res.size == alpha_clique_free(12, _edges(g), q), (seed, q)


def test_max_clique_free_extremes():
    assert max_clique_free(Graph.complete(7), 3).size == 2
    assert max_clique_free(Graph.from_edges(7, []), 3).size == 7
    assert max_clique_free(Graph.from_edges(0, []), 3).size == 0
    with pytest.raises(ValueError):
        max_clique_free(Graph.from_edges(3, []), 1)


# recorded before the clique and pattern solvers shared one search core;
# node counts included, so any change to the search order shows here.  The
# node counts were re-recorded when the search took the clique-cover bound
# (3688, 6922, 23596, 3666, 4606 and 20378 under the plain size bound), and
# again when each class's cap took the cliques of its common neighbourhood
# (54, 118, 544, 300, 172 and 891 under the cover bound).
MAX_CLIQUE_FREE_GOLDEN = [
    ((18, 1, 3), {"size": 11, "witness": [2, 3, 4, 5, 7, 8, 9, 10, 11, 15, 16],
                  "nodes": 42}),
    ((20, 2, 3), {"size": 10, "witness": [0, 3, 4, 10, 11, 12, 13, 14, 16, 18],
                  "nodes": 48}),
    ((22, 3, 3), {"size": 10, "witness": [0, 1, 3, 5, 6, 7, 9, 15, 19, 21],
                  "nodes": 333}),
    ((18, 4, 4), {"size": 13, "witness": [0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 15, 17],
                  "nodes": 161}),
    ((20, 5, 4), {"size": 14, "witness": [0, 1, 2, 3, 5, 7, 9, 10, 11, 13, 14, 15, 16, 19],
                  "nodes": 112}),
    ((21, 6, 4), {"size": 15,
                  "witness": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 20],
                  "nodes": 175}),
]


# size and witness are node-free goldens and are never re-recorded; "nodes"
# is version-specific effort accounting that a faster search may change
@pytest.mark.parametrize("point,want", MAX_CLIQUE_FREE_GOLDEN)
def test_max_clique_free_golden(point, want):
    n, seed, q = point
    got = max_clique_free(sample_graph(n, seed), q).as_dict()
    assert (got["size"], got["witness"]) == (want["size"], want["witness"])
    assert got["nodes"] == want["nodes"]


def test_max_clique_free_node_limit():
    g = sample_graph(24, 3)
    with pytest.raises(NodeLimitError) as exc:
        max_clique_free(g, 3, node_limit=50)
    assert exc.value.nodes > 50
    assert isinstance(exc.value.partial, SolveResult)


@pytest.mark.parametrize("q", [3, 4])
def test_max_clique_free_node_limit_partial(q):
    g = sample_graph(30, 1)
    exact = max_clique_free(g, q)
    en = _edges(g)
    for limit in (0, 1, exact.nodes // 2, exact.nodes - 1):
        with pytest.raises(NodeLimitError) as exc:
            max_clique_free(g, q, node_limit=limit)
        part = exc.value.partial
        assert exc.value.nodes == part.nodes == limit + 1
        assert part.size <= exact.size
        assert part.witness.bit_count() == part.size
        assert max_clique_size_in(g.n, en, mask_to_vertices(part.witness)) < q
    assert max_clique_free(g, q, node_limit=exact.nodes) == exact


# -- growing the maximum one vertex at a time ----------------------------------


GROWN_SEEDS = range(20)
GROWN_N_MAX = 24
ORACLE_N_MAX = 13  # the subset DP scans 2^n masks


@pytest.mark.parametrize("q", [3, 4])
def test_grown_max_clique_free_along_exposure_streams(q):
    for seed in GROWN_SEEDS:
        stream = ExposureStream(seed)
        res = max_clique_free(Graph.from_edges(0, []), q)
        checked = None
        for n in range(1, GROWN_N_MAX + 1):
            g = stream.step()
            res = max_clique_free(g, q, grown_from=res)
            assert res.size == max_clique_free(g, q).size, (seed, n)
            assert res.witness.bit_count() == res.size
            en = _edges(g)
            if n <= ORACLE_N_MAX:
                assert res.size == alpha_clique_free(n, en, q), (seed, n)
            if res.witness != checked:  # an unchanged witness was checked at n - 1
                assert max_clique_size_in(n, en, mask_to_vertices(res.witness)) < q
                checked = res.witness


def test_grown_max_clique_free_node_limit_partial():
    stream = ExposureStream(3)
    for _ in range(23):
        stream.step()
    before = max_clique_free(stream.graph, 3)
    g = stream.step()
    with pytest.raises(NodeLimitError) as exc:
        max_clique_free(g, 3, grown_from=before, node_limit=5)
    part = exc.value.partial
    assert isinstance(part, SolveResult)
    assert exc.value.nodes > 5
    assert part.size >= before.size
    assert part.witness.bit_count() == part.size
    assert part.witness >> g.n == 0
    assert max_clique_size_in(g.n, _edges(g), mask_to_vertices(part.witness)) < 3


def test_grown_max_clique_free_rejects_a_bad_start():
    g = sample_graph(10, 4)
    ok = max_clique_free(sample_graph(9, 4), 3)
    for bad in [
        SolveResult(1, 1 << 9, 0),                # reaches the last vertex
        SolveResult(1, 1 << 10, 0),               # outside g
        SolveResult(-1, -1, 0),                   # not a vertex set
        SolveResult(ok.size + 1, ok.witness, 0),  # size is not the witness's
    ]:
        with pytest.raises(ValueError):
            max_clique_free(g, 3, grown_from=bad)
    with pytest.raises(ValueError):  # holds a clique on q vertices
        max_clique_free(Graph.complete(5), 3, grown_from=SolveResult(3, 0b111, 0))
    with pytest.raises(ValueError):  # g has no last vertex
        max_clique_free(Graph.from_edges(0, []), 3, grown_from=SolveResult(0, 0, 0))
    assert max_clique_free(g, 3, grown_from=ok).size == max_clique_free(g, 3).size


# -- the cover bound against the plain size bound ----------------------------------
# The cover cuts only subtrees that cannot strictly beat the incumbent, so
# size and witness equal those of the plain-bound search in tests/oracles.py.


def test_max_clique_free_equals_plain_bound_search():
    for n in range(25):
        for seed in range(6):
            g = sample_graph(n, seed)
            for q in range(2, 6):
                want = plain_max_clique_free(cliquefree, g, q)
                got = max_clique_free(g, q)
                assert (got.size, got.witness) == (want.size, want.witness), (n, seed, q)


@pytest.mark.parametrize("q", [3, 4])
def test_grown_max_clique_free_equals_plain_bound_search(q):
    for seed in range(10):
        stream = ExposureStream(seed)
        got = want = None
        for n in range(1, GROWN_N_MAX + 1):
            g = stream.step()
            want = plain_max_clique_free(cliquefree, g, q, grown_from=want)
            got = max_clique_free(g, q, grown_from=got)
            assert (got.size, got.witness) == (want.size, want.witness), (seed, n)


@pytest.mark.parametrize("q,n_max", [(3, 40), (4, 34), (5, 30)])
def test_grown_trajectories_equal_a_plain_resolve(q, n_max):
    # longer streams than above, where the class caps cut most
    for s in range(3):
        stream = ExposureStream(sub_seed(11, s))
        res = None
        checked = None
        for n in range(1, n_max + 1):
            g = stream.step()
            res = max_clique_free(g, q, grown_from=res)
            assert res.size == max_clique_free(g, q).size, (s, n)
            assert res.witness.bit_count() == res.size
            if res.witness != checked:
                assert max_clique_size_in(n, _edges(g), mask_to_vertices(res.witness)) < q
                checked = res.witness


PATTERNS = {
    "K3": Graph.complete(3),
    "P4": Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    "C5": Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
}


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_max_pattern_free_equals_plain_bound_search(name):
    f = PATTERNS[name]
    for n in range(15):
        for seed in range(3):
            g = sample_graph(n, seed)
            want = plain_max_pattern_free(cliquefree, g, f)
            got = max_pattern_free(g, f)
            assert (got.size, got.witness) == (want.size, want.witness), (n, seed)


# -- maximum pattern-free subgraphs ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_max_pattern_free_matches_bruteforce(n, gseed, fn, fseed):
    g = sample_graph(n, gseed)
    f = sample_graph(fn, fseed)
    assume(f.edge_count() > 0)
    res = max_pattern_free(g, f)
    assert res.size == alpha_pattern_free(n, _edges(g), fn, _edges(f))
    assert res.witness.bit_count() == res.size
    assert _free_of(g, res.witness, f)


def test_max_pattern_free_on_cliques_matches_clique_solver():
    # one search core: same size, witness and node count, not only same size;
    # equal nodes also mean the triangle filter keeps what the matcher keeps
    for q in (3, 4, 5):
        clique = Graph.complete(q)
        for n in (10, 14):
            for seed in range(8):
                g = sample_graph(n, seed)
                a = max_clique_free(g, q)
                b = max_pattern_free(g, clique)
                assert a == b, (q, n, seed)
                assert _free_of(g, b.witness, clique)


def test_max_pattern_free_path_pattern():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    for n, seed in [(8, 0), (8, 1), (8, 2), (11, 3), (12, 4), (12, 5)]:
        g = sample_graph(n, seed)
        res = max_pattern_free(g, path)
        assert res.size == alpha_pattern_free(n, _edges(g), 3, _edges(path)), (n, seed)
        assert res.witness.bit_count() == res.size
        assert _free_of(g, res.witness, path)


def test_max_pattern_free_five_cycle_matches_bruteforce():
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    for n, seed in ((9, 0), (10, 1), (11, 2), (12, 3), (12, 4), (13, 5), (13, 6)):
        g = sample_graph(n, seed)
        res = max_pattern_free(g, c5)
        assert res.size == alpha_pattern_free(n, _edges(g), 5, _edges(c5)), (n, seed)
        assert res.witness.bit_count() == res.size
        assert _free_of(g, res.witness, c5)


def test_max_pattern_free_validation():
    g = Graph.from_edges(4, [])
    with pytest.raises(ValueError, match="at least one edge"):
        max_pattern_free(g, Graph.from_edges(3, []))


# -- defect structures -----------------------------------------------------------


BUILD_POINTS = [
    # (n, r, j, k, seeds): all verified to admit a structure
    (18, 2, 1, 4, (0, 1, 2, 3, 4)),
    (16, 3, 1, 3, (0, 1, 2, 3, 4)),
    (20, 4, 2, 3, (0, 1, 2, 3, 4)),
    (18, 3, 3, 3, (0, 1, 3, 4)),  # j == r: independent parts, no covers
]


@pytest.mark.parametrize("n,r,j,k,seeds", BUILD_POINTS)
def test_build_structure_found_and_verified(n, r, j, k, seeds):
    for seed in seeds:
        g = sample_graph(n, seed)
        s = build_structure(g, r, j, k)
        assert s is not None, seed
        assert verify_structure(g, s), seed
        assert s.size == k * r + j
        assert s.union_mask.bit_count() == s.size
        assert len(s.parts) == j
        assert all(p.bit_count() == k + 1 for p in s.parts)
        assert len(s.covers) == r - j
        # deterministic: same graph, same structure
        assert build_structure(g, r, j, k) == s


def test_build_structure_no_covers_when_j_equals_r():
    g = sample_graph(18, 0)
    s = build_structure(g, 3, 3, 3)
    assert s.covers == ()
    assert s.cover_edges == ()
    assert s.part_defects == ((), (), ())


def test_build_structure_as_dict():
    g = sample_graph(18, 0)
    s = build_structure(g, 2, 1, 4)
    d = s.as_dict()
    assert d["size"] == 9
    assert len(d["parts"]) == 1 and len(d["parts"][0]) == 5
    assert len(d["covers"]) == 1 and len(d["covers"][0]) == 4
    assert len(d["vertices"]) == 9


def test_build_structure_impossible_cases():
    # complete graph: every 4-set has 6 induced edges, far over budget
    assert build_structure(Graph.complete(8), 2, 1, 3) is None
    # empty graph: a part needs exactly one defect edge but none exist
    assert build_structure(Graph.from_edges(12, []), 2, 1, 3) is None


def test_build_structure_lists_no_parts_when_the_count_is_short(monkeypatch):
    calls = []
    real = cliquefree.solver.census

    def spy(*args, **kw):
        calls.append(kw.get("witnesses", False))
        return real(*args, **kw)

    monkeypatch.setattr(cliquefree.solver, "census", spy)
    # K8 has no 4-set with exactly one edge; sample_graph(21, 2) has no
    # 6-set with at most one, and sample_graph(21, 0) no independent one
    for g, (r, j, k) in ((Graph.complete(8), (2, 1, 3)),
                         (sample_graph(21, 2), (2, 1, 5)),
                         (sample_graph(21, 0), (3, 2, 5))):
        calls.clear()
        assert build_structure(g, r, j, k) is None
        assert calls == [False]
    # with the supply there, the count is followed by the listing
    calls.clear()
    assert build_structure(sample_graph(21, 1), 2, 1, 5) is not None
    assert calls == [False, True]


# sha256 over build_structure(sample_graph(n, seed), r, j, level(n)) for
# n = 14..24, (r, j) in ((2, 1), (3, 1), (3, 2)) and seeds 0..19, each
# result's as_dict() (or None) as sort_keys JSON plus a newline; 17 of the
# 660 find a structure.  Recorded before the parts were counted first.
BUILD_GOLDEN = "b15244ba259c831d557d72f2761595e3fafaf11eaa43ba56adecdda760719744"


def test_build_structure_golden_grid():
    h = hashlib.sha256()
    found = 0
    for n in range(14, 25):
        k = level(n)
        for r, j in ((2, 1), (3, 1), (3, 2)):
            for seed in range(20):
                s = build_structure(sample_graph(n, seed), r, j, k)
                found += s is not None
                doc = None if s is None else s.as_dict()
                h.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    assert found == 17
    assert h.hexdigest() == BUILD_GOLDEN


def test_build_structure_validation():
    g = Graph.from_edges(8, [])
    with pytest.raises(ValueError):
        build_structure(g, 2, 1, 0)
    with pytest.raises(ValueError):
        build_structure(g, 2, 3, 3)  # j > r


def test_build_structure_node_limit():
    g = sample_graph(18, 0)
    with pytest.raises(NodeLimitError):
        build_structure(g, 2, 1, 4, node_limit=3)


@pytest.fixture(scope="module")
def good():
    g = sample_graph(20, 1)
    s = build_structure(g, 4, 2, 3)
    assert s is not None and verify_structure(g, s)
    return g, s


class TestVerifyRejectsCorruption:
    def test_wrong_parameters(self, good):
        g, s = good
        assert not verify_structure(g, dataclasses.replace(s, r=s.r + 1))
        assert not verify_structure(g, dataclasses.replace(s, j=0))
        assert not verify_structure(g, dataclasses.replace(s, mu=s.mu + 1))
        assert not verify_structure(g, dataclasses.replace(s, k=s.k + 1))

    def test_overlapping_parts(self, good):
        g, s = good
        bad = dataclasses.replace(
            s, parts=(s.parts[0], s.parts[0]),
            part_defects=(s.part_defects[0], s.part_defects[0]),
        )
        assert not verify_structure(g, bad)

    def test_misreported_defects(self, good):
        g, s = good
        fake = tuple(
            tuple() if i == 0 else d for i, d in enumerate(s.part_defects)
        )
        assert not verify_structure(g, dataclasses.replace(s, part_defects=fake))

    def test_cover_touching_union(self, good):
        g, s = good
        bad_cover = s.parts[0] & -s.parts[0]  # one vertex already in a part
        covers = (bad_cover,) + s.covers[1:]
        assert not verify_structure(g, dataclasses.replace(s, covers=covers))

    def test_cover_with_internal_edge(self, good):
        # a k-set off the rest of the union that covers its edge and leaves
        # the union clique-free, so only the cover's own edge rejects it
        g, s = good
        rest = s.union_mask & ~s.covers[0]
        u, v = s.cover_edges[0]
        for c in combinations(range(g.n), s.k):
            cm = vertex_mask(c)
            if (not cm & (rest | 1 << u | 1 << v) and covers_edge(g, cm, u, v)
                    and any(g.has_edge(a, b) for a, b in combinations(c, 2))
                    and not has_clique(g, rest | cm, s.r + 1)):
                break
        else:
            pytest.fail("no edged cover candidate in the fixture graph")
        covers = (cm,) + s.covers[1:]
        assert not verify_structure(g, dataclasses.replace(s, covers=covers))

    def test_cover_edge_multiset_mismatch(self, good):
        g, s = good
        fake_edges = ((0, 1),) * len(s.cover_edges)
        assert not verify_structure(
            g, dataclasses.replace(s, cover_edges=fake_edges)
        )

    def test_part_with_an_extra_defect(self, good):
        g, s = good
        assert len(s.part_defects[0]) == s.mu
        used = 0
        for m in s.parts[1:] + s.covers:
            used |= m
        free = [v for v in range(g.n) if not used >> v & 1]
        for verts in combinations(free, s.k + 1):
            defects = tuple(
                (u, v) for u, v in combinations(verts, 2) if g.has_edge(u, v)
            )
            if len(defects) == s.mu + 1:
                break
        else:
            pytest.fail("no replacement part with mu + 1 edges")
        bad = dataclasses.replace(
            s,
            parts=(vertex_mask(verts),) + s.parts[1:],
            part_defects=(defects,) + s.part_defects[1:],
        )
        assert not verify_structure(g, bad)

    def test_dropped_vertex(self, good):
        g, s = good
        shrunk = s.covers[:-1] + (s.covers[-1] & (s.covers[-1] - 1),)
        assert not verify_structure(g, dataclasses.replace(s, covers=shrunk))

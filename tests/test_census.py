"""Tests for the bounded-defect subset census."""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquefree.census import CensusResult, census, cover_family
from cliquefree.errors import NodeLimitError
from cliquefree.graphs import Graph, covers_edge, sample_graph

from oracles import (
    core_census_counts,
    edge_set,
    subsets_census,
    subsets_witnesses,
    vertex_mask,
)

# the package binds the name census to the function, so fetch the module itself
census_module = importlib.import_module("cliquefree.census")


def _tally(witnesses) -> dict:
    """Counts by edge count of a (mask, edge count) witness list."""
    counts = {}
    for _, e in witnesses:
        counts[e] = counts.get(e, 0) + 1
    return counts


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_census_counts_match_bruteforce(n, k, budget, seed):
    g = sample_graph(n, seed)
    en = edge_set(n, g.edges())
    got = census(g, k, budget)
    want = subsets_census(n, en, k, budget)
    assert got.counts == want
    assert got.total == sum(want.values())


def test_census_fixed_cases():
    g = sample_graph(12, 7)
    en = edge_set(12, g.edges())
    for k in (3, 5):
        for budget in (0, 1, 2, 3):
            got = census(g, k, budget)
            assert got.counts == subsets_census(12, en, k, budget), (k, budget)


def test_census_witnesses_match_bruteforce():
    # budgets 0..3, candidate masks, and k at both ends of the ground set
    for n, seed in ((7, 1), (9, 1), (9, 2), (9, 3), (10, 3), (11, 4)):
        g = sample_graph(n, seed)
        en = edge_set(n, g.edges())
        for cand in (g.full_mask, g.full_mask & 0b10110111011, g.full_mask >> 2):
            nn = cand.bit_count()
            for k in sorted({0, 1, 2, 3, 4, nn, nn + 1}):
                for budget in range(4):
                    got = census(g, k, budget, candidates=cand, witnesses=True)
                    want = [
                        (m, e) for m, e in subsets_witnesses(n, en, k, budget)
                        if not m & ~cand
                    ]
                    assert got.witnesses == want, (n, seed, cand, k, budget)
                    assert got.witnesses_complete
                    assert got.counts == _tally(want)
                    if cand == g.full_mask:
                        assert got.counts == subsets_census(n, en, k, budget)


def test_census_counts_keyed_by_exact_edge_count():
    # triangle plus isolated vertex: 3-subsets by edge count
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    got = census(g, 3, 3)
    assert got.counts == {1: 3, 3: 1}
    assert got.count(0) == 0
    assert got.count(3) == 1


def test_census_candidates_mask():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    got = census(g, 2, 0, candidates=vertex_mask([0, 1, 2, 4]))
    # pairs within {0,1,2,4} with no edge: 02 04 12 14 24 (01 is an edge)
    assert got.counts == {0: 5}


def test_census_k_zero_and_infeasible():
    g = Graph.from_edges(4, [])
    z = census(g, 0, 0, witnesses=True)
    assert z.counts == {0: 1}
    assert z.witnesses == [(0, 0)]
    assert census(g, 5, 0).counts == {}
    assert census(g, 5, 0).total == 0


def test_census_validation():
    g = Graph.from_edges(3, [])
    with pytest.raises(ValueError):
        census(g, -1, 0)
    with pytest.raises(ValueError):
        census(g, 2, -1)


def test_census_witness_cap_truncates(monkeypatch):
    monkeypatch.setattr(census_module, "WITNESS_CAP", 10)
    g = Graph.from_edges(8, [])
    got = census(g, 3, 0, witnesses=True)
    assert len(got.witnesses) == 10
    assert not got.witnesses_complete
    assert got.total == 56  # counts still complete


def test_census_node_limit():
    g = Graph.from_edges(16, [])
    with pytest.raises(NodeLimitError) as exc:
        census(g, 8, 0, node_limit=100)
    err = exc.value
    assert err.nodes > 100
    assert isinstance(err.partial, CensusResult)
    assert err.partial.total < 12870


def test_census_as_dict():
    g = Graph.from_edges(3, [(0, 1)])
    got = census(g, 2, 1, witnesses=True)
    d = got.as_dict()
    assert d["counts"] == {"0": 2, "1": 1}
    assert d["total"] == 3
    assert d["witnesses_complete"] is True
    assert {"vertices": [0, 1], "edges": 1} in d["witnesses"]


def test_cover_family_matches_definition():
    for seed in (11, 12, 13, 14):
        g = sample_graph(10, seed)
        edges = list(g.edges())
        if not edges:
            continue
        u, v = edges[0]
        fam = cover_family(g, u, v, 3)
        assert fam == sorted(fam)
        # brute force: independent 3-sets covering the edge
        en = edge_set(10, g.edges())
        want = [
            m for m, _ in subsets_witnesses(10, en, 3, 0)
            if not m & ((1 << u) | (1 << v)) and covers_edge(g, m, u, v)
        ]
        assert fam == want


def test_cover_family_validation():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="not an edge"):
        cover_family(g, 0, 2, 2)


def test_cover_family_witness_overflow(monkeypatch):
    monkeypatch.setattr(census_module, "WITNESS_CAP", 5)
    g = Graph.from_edges(40, [(0, 1)])
    with pytest.raises(NodeLimitError, match="exceeded 5 witnesses"):
        cover_family(g, 0, 1, 3)


# -- the bit-sliced kernel ----------------------------------------------------------


# counts by exact edge count 0..i+2 at the c07 points (n, k, i), on
# sample_graph(n, seed) for seeds 0..19, recorded with the stack-loop kernel
C07_COUNTS = {
    (30, 7, 0): [
        (0, 6, 84), (2, 26, 272), (0, 0, 26), (0, 4, 85), (0, 0, 14),
        (0, 1, 50), (2, 33, 252), (0, 8, 74), (0, 6, 126), (0, 1, 45),
        (0, 2, 35), (0, 15, 188), (0, 9, 208), (0, 17, 90), (0, 21, 331),
        (0, 0, 11), (0, 1, 79), (0, 18, 276), (6, 90, 555), (0, 8, 118),
    ],
    (32, 7, 0): [
        (0, 7, 91), (2, 29, 307), (0, 1, 47), (0, 4, 93), (0, 1, 32),
        (0, 4, 105), (2, 34, 270), (0, 12, 158), (0, 14, 272), (1, 9, 131),
        (0, 4, 42), (0, 19, 333), (0, 9, 215), (0, 18, 101), (0, 27, 411),
        (0, 2, 47), (0, 3, 119), (1, 31, 376), (8, 100, 728), (0, 45, 436),
    ],
    (34, 8, 1): [
        (0, 0, 1, 19), (0, 3, 14, 136), (0, 0, 0, 4), (0, 5, 58, 393),
        (0, 0, 1, 24), (0, 0, 16, 91), (0, 3, 29, 222), (0, 0, 1, 28),
        (0, 0, 5, 146), (0, 0, 4, 46), (0, 0, 0, 10), (0, 0, 15, 199),
        (0, 0, 1, 61), (0, 0, 5, 33), (0, 0, 5, 160), (0, 0, 0, 5),
        (0, 0, 5, 81), (0, 1, 21, 143), (0, 4, 68, 542), (0, 0, 12, 163),
    ],
}


@pytest.mark.parametrize("point", sorted(C07_COUNTS))
def test_census_counts_at_c07_points(point):
    n, k, i = point
    for seed, want in enumerate(C07_COUNTS[point]):
        g = sample_graph(n, seed)
        wide = census(g, k, i + 2)
        assert tuple(wide.count(e) for e in range(i + 3)) == want, seed
        assert set(wide.counts) <= set(range(i + 3))
        assert census(g, k, i).counts == {e: c for e, c in wide.counts.items() if e <= i}


def test_census_witness_cap_keeps_the_walks_first_witnesses(monkeypatch):
    # recorded with the stack-loop kernel: the first WITNESS_CAP k-sets in
    # ascending position order (degree, then label), then sorted by mask
    monkeypatch.setattr(census_module, "WITNESS_CAP", 25)
    g = sample_graph(12, 5)
    got = census(g, 4, 2, witnesses=True)
    assert got.total == 38 and not got.witnesses_complete
    assert got.witnesses == [
        (85, 2), (519, 2), (525, 2), (533, 1), (540, 2), (549, 2), (564, 2),
        (581, 2), (596, 2), (2061, 2), (2069, 2), (2076, 1), (2132, 2),
        (2565, 1), (2572, 1), (2577, 2), (2580, 0), (2584, 2), (2596, 2),
        (2608, 2), (2640, 2), (3084, 1), (3092, 2), (3588, 2), (3600, 2),
    ]
    g = sample_graph(16, 9)
    cand = g.full_mask & ~0b100000100010
    monkeypatch.setattr(census_module, "WITNESS_CAP", 30)
    got = census(g, 5, 3, candidates=cand, witnesses=True)
    assert got.total == 161 and not got.witnesses_complete
    assert got.witnesses == [
        (1053, 3), (1101, 3), (1165, 2), (1221, 3), (1293, 2), (1413, 3),
        (1549, 2), (1605, 3), (1669, 2), (9229, 2), (9237, 3), (9349, 3),
        (9733, 3), (17421, 1), (17477, 3), (17541, 3), (17925, 2),
        (17929, 2), (17985, 3), (18049, 3), (25605, 2), (26113, 2),
        (33805, 2), (33813, 3), (33925, 3), (34309, 2), (34321, 3),
        (41989, 2), (50181, 2), (50689, 2),
    ]


def test_census_budget_beyond_pair_count():
    for seed in (0, 1, 2):
        g = sample_graph(12, seed)
        huge = census(g, 4, 10 ** 6)
        assert huge.counts == census(g, 4, 6).counts
        assert huge.total == 495
        assert huge.budget == 10 ** 6


def test_census_node_limit_partial_holds_tallies_so_far():
    g = sample_graph(16, 4)
    full = census(g, 5, 2, witnesses=True)
    with pytest.raises(NodeLimitError) as exc:
        census(g, 5, 2, witnesses=True, node_limit=full.nodes // 2)
    part = exc.value.partial
    assert not part.witnesses_complete
    assert 0 < part.total < full.total
    assert all(part.count(e) <= full.count(e) for e in part.counts)
    assert part.witnesses == sorted(part.witnesses)
    assert set(part.witnesses) <= set(full.witnesses)
    assert len(part.witnesses) == part.total


def test_census_counting_matches_listing_tally():
    # counting mode counts the last unit of budget in one walk; listing mode
    # still walks every prefix, so its witnesses tallied by edge count are
    # an independent path to the same counts
    for n, seed in ((16, 1), (21, 2), (26, 3), (34, 4)):
        g = sample_graph(n, seed)
        for cand in (g.full_mask, g.full_mask & ~0b1001000100101):
            for k in range(3, 10):
                for budget in (1, 2, 3):
                    listed = census(g, k, budget, candidates=cand, witnesses=True)
                    assert listed.witnesses_complete
                    counted = census(g, k, budget, candidates=cand)
                    assert counted.counts == _tally(listed.witnesses), (
                        n, seed, cand, k, budget
                    )


def test_census_counting_node_limit_stops_in_the_last_unit():
    # at (34, 8, 1) the root has one unit of budget, so every node is taken
    # in the last unit's count.  Every limit short of the full run stops it;
    # the partial counts are lower bounds that grow with the limit, and
    # some stop lands strictly between nothing and the full count.
    for seed in (1, 18):
        g = sample_graph(34, seed)
        full = census(g, 8, 1)
        prev = {}
        between = False
        for limit in range(full.nodes):
            with pytest.raises(NodeLimitError) as exc:
                census(g, 8, 1, node_limit=limit)
            part = exc.value.partial
            assert exc.value.nodes == limit + 1
            assert part.witnesses is None and not part.witnesses_complete
            assert all(part.count(e) <= full.count(e) for e in part.counts)
            assert all(prev.get(e, 0) <= part.count(e) for e in (0, 1))
            prev = part.counts
            between |= 0 < part.total < full.total
        assert between, seed
        assert census(g, 8, 1, node_limit=full.nodes).counts == full.counts


def test_census_counting_on_vertices_matches_relabelled_listing_and_oracle():
    # counting mode walks the vertices themselves as positions; listing mode
    # walks them relabelled by (degree, label).  Both must give the same
    # counts, and so must the brute-force oracle where it is cheap.  The masks
    # have gaps at low and middle labels, and the three-vertex mask makes most
    # k exceed the candidates.  Up to n = 20 every (mask, budget) pair runs;
    # above it each k takes one pair, and any twelve consecutive n give each k
    # all twelve pairs.
    for n in range(41):
        g = sample_graph(n, 1000 + n)
        en = edge_set(n, g.edges())
        masks = (
            None,
            g.full_mask & ~(0b1001000100101 | 1 << (n // 2)),
            g.full_mask & 0b1011 << (n // 3),
        )
        for k in range(9):
            brute = subsets_witnesses(n, en, k, 3) if n <= 12 else None
            if n <= 20:
                grid = [(cand, budget) for cand in masks for budget in range(4)]
            else:
                grid = [(masks[(n + k) % 3], (n + 2 * k) % 4)]
            for cand, budget in grid:
                case = (n, k, budget, cand)
                ground = g.full_mask if cand is None else cand
                counted = census(g, k, budget, candidates=cand)
                listed = census(g, k, budget, candidates=cand, witnesses=True)
                assert listed.witnesses_complete, case
                assert counted.counts == _tally(listed.witnesses), case
                if k > ground.bit_count():
                    assert counted.counts == {} and counted.nodes == 0, case
                if brute is not None:
                    want = [(m, e) for m, e in brute if e <= budget and not m & ~ground]
                    assert listed.witnesses == want, case
                    assert counted.counts == _tally(want), case


def test_census_counting_matches_the_defect_core_count():
    # the last unit of budget is one walk over independent sets; the oracle
    # is the count it replaced, which split each completion by its defect
    # core.  The c07 point (34, 8, 1) and the c08 part size (21, 7, 1) are
    # one-unit censuses at the root; smaller points cover budgets 0..3, and
    # the holed masks drop low, middle and top positions.
    points = [(34, 8, 1, range(20)), (21, 7, 1, range(20)), (30, 7, 0, range(4)),
              (30, 8, 2, range(2))]
    points += [(n, k, budget, range(3)) for n in (9, 14, 18, 24)
               for k in range(2, 8) for budget in range(4)]
    for n, k, budget, seeds in points:
        for seed in seeds:
            g = sample_graph(n, seed)
            for cand in (g.full_mask, g.full_mask & ~(0b1001000100101 | 1 << n - 1)):
                case = (n, k, budget, seed, cand)
                want = core_census_counts(g.rows, cand, k, budget)
                assert census(g, k, budget, candidates=cand).counts == want, case

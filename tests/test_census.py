"""Tests for the bounded-defect subset census."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquefree.census import CensusResult, census, cover_family
from cliquefree.errors import NodeLimitError
from cliquefree.graphs import Graph, covers_edge, sample_graph, vertices_to_mask

from oracles import edge_set, subsets_census, subsets_witnesses


def _oracle_args(g):
    return g.n, edge_set(g.n, g.edges())


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
    for seed in (1, 2, 3):
        g = sample_graph(9, seed)
        en = edge_set(9, g.edges())
        got = census(g, 4, 2, witnesses=True)
        assert got.witnesses == subsets_witnesses(9, en, 4, 2)
        assert got.witnesses_complete


def test_census_counts_keyed_by_exact_edge_count():
    # triangle plus isolated vertex: 3-subsets by edge count
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    got = census(g, 3, 3)
    assert got.counts == {1: 3, 3: 1}
    assert got.count(0) == 0
    assert got.count(3) == 1


def test_census_candidates_mask():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    got = census(g, 2, 0, candidates=vertices_to_mask([0, 1, 2, 4]))
    # pairs within {0,1,2,4} with no edge: 02 04 12 14 24 (01 is an edge)
    assert got.counts == {0: 5}


def test_census_k_zero_and_infeasible():
    g = Graph.empty(4)
    z = census(g, 0, 0, witnesses=True)
    assert z.counts == {0: 1}
    assert z.witnesses == [(0, 0)]
    assert census(g, 5, 0).counts == {}
    assert census(g, 5, 0).total == 0


def test_census_validation():
    g = Graph.empty(3)
    with pytest.raises(ValueError):
        census(g, -1, 0)
    with pytest.raises(ValueError):
        census(g, 2, -1)


def test_census_witness_cap_truncates():
    g = Graph.empty(8)
    got = census(g, 3, 0, witnesses=True, witness_cap=10)
    assert len(got.witnesses) == 10
    assert not got.witnesses_complete
    assert got.total == 56  # counts still complete


def test_census_node_limit():
    g = Graph.empty(16)
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


def test_cover_family_witness_overflow():
    g = Graph.from_edges(40, [(0, 1)])
    with pytest.raises(NodeLimitError, match="witnesses"):
        cover_family(g, 0, 1, 3, witness_cap=5)

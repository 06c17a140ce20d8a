"""Tests for the bitmask graph type, sampling, and the two text formats."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquefree import graphs
from cliquefree.errors import Graph6Error
from cliquefree.graphs import (
    MAX_VERTICES,
    ExposureStream,
    Graph,
    _pairs,
    covers_edge,
    edge_coins,
    graph6_decode,
    graph6_encode,
    mask_to_vertices,
    parse_edge_list,
    read_graph,
    sample_graph,
)
from cliquefree.rng import stream_at

from oracles import (
    TEST_SEED,
    edge_list_text,
    edge_set,
    graph6_from_definition,
    pair_index,
    vertex_mask,
)


def small_graphs():
    return st.integers(min_value=0, max_value=9).flatmap(
        lambda n: st.builds(
            lambda pairs: Graph.from_edges(
                n, [(u % n, v % n) for u, v in pairs if n and u % n != v % n]
            ),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=8),
                    st.integers(min_value=0, max_value=8),
                ),
                max_size=20,
            ),
        )
    )


# -- construction and validation ---------------------------------------------


def test_empty_and_complete():
    e = Graph.from_edges(5, [])
    assert e.edge_count() == 0
    assert list(e.edges()) == []
    k = Graph.complete(5)
    assert k.edge_count() == 10
    assert all(k.degree(v) == 4 for v in range(5))
    assert Graph.from_edges(0, []).n == 0
    assert Graph.complete(1).edge_count() == 0


def test_from_edges_and_queries():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.edge_count() == 3
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.full_mask == 0b1111


def test_edges_are_minor_major_ordered():
    g = Graph.from_edges(5, [(4, 0), (3, 1), (2, 0)])
    assert list(g.edges()) == [(0, 2), (1, 3), (0, 4)]


def test_validation_errors():
    with pytest.raises(ValueError, match="row count"):
        Graph(3, [0, 0])
    with pytest.raises(ValueError, match="vertices >= n"):
        Graph(2, [0b100, 0])
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [0b01, 0])
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, [0b10, 0b00])
    with pytest.raises(ValueError, match="vertex count"):
        Graph.from_edges(MAX_VERTICES + 1, [])
    with pytest.raises(ValueError, match="vertex count"):
        Graph.from_edges(-1, [])
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="outside vertex range"):
        Graph.from_edges(3, [(0, 3)])


def test_graph_is_immutable():
    g = Graph.from_edges(2, [])
    with pytest.raises(AttributeError):
        g.n = 5


def test_equality_and_hash():
    a = Graph.from_edges(3, [(0, 1)])
    b = Graph.from_edges(3, [(1, 0)])
    c = Graph.from_edges(3, [(0, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != "not a graph"


def test_mask_vertex_roundtrip():
    assert mask_to_vertices(0b101001) == [0, 3, 5]
    assert vertex_mask([5, 0, 3]) == 0b101001
    assert mask_to_vertices(0) == []


# -- structural predicates -----------------------------------------------------


def test_covers_edge():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    # vertex 3 sees only 2, so it covers edge (0, 1)
    assert covers_edge(g, 0b1000, 0, 1)
    # vertex 2 is a common neighbor of 0 and 1
    assert not covers_edge(g, 0b0100, 0, 1)
    assert covers_edge(g, 0, 0, 1)
    with pytest.raises(ValueError, match="not an edge"):
        covers_edge(g, 0b1000, 0, 3)
    with pytest.raises(ValueError, match="avoid the edge endpoints"):
        covers_edge(g, 0b0001, 0, 1)


# -- seeded sampling -----------------------------------------------------------


def test_edge_coins_match_stream():
    coins = edge_coins(6, TEST_SEED)
    assert len(coins) == 15
    for t in range(15):
        assert coins[t] == stream_at(TEST_SEED, t) & 1
    with pytest.raises(ValueError):
        edge_coins(MAX_VERTICES + 1, TEST_SEED)


def test_pairs_list_pair_index_order():
    # one pair order serves sampling, graph6 and the labeled census masks
    for m in range(71):
        v, u = _pairs(m)
        assert not v.flags.writeable and not u.flags.writeable
        assert (u < v).all()
        got = [pair_index(int(b), int(a)) for a, b in zip(v, u)]
        assert got == list(range(m * (m - 1) // 2)), m


def test_sample_graph_uses_pair_index_coins():
    g = sample_graph(8, TEST_SEED)
    for v in range(8):
        for u in range(v):
            want = bool(stream_at(TEST_SEED, pair_index(u, v)) & 1)
            assert g.has_edge(u, v) == want


def test_sample_graph_determinism_and_seed_sensitivity():
    a = sample_graph(20, 42)
    b = sample_graph(20, 42)
    c = sample_graph(20, 43)
    assert a == b
    assert a != c
    assert sample_graph(0, 7).n == 0
    assert sample_graph(1, 7).n == 1


def test_exposure_stream_matches_one_shot():
    # every prefix up to the cap, across each resample of the held sample
    for seed in (TEST_SEED, 0, 11):
        ex = ExposureStream(seed)
        assert ex.n == 0 and ex.graph == sample_graph(0, seed)
        for m in range(1, MAX_VERTICES + 1):
            want = sample_graph(m, seed)
            assert ex.step() == want, (seed, m)
            assert ex.n == m
            assert ex.graph == want, (seed, m)
        with pytest.raises(ValueError):
            ex.step()
        assert ex.n == MAX_VERTICES


def test_exposure_stream_samples_once_up_to_32_vertices(monkeypatch):
    sizes = []

    def spy(n, seed):
        sizes.append(n)
        return sample_graph(n, seed)

    monkeypatch.setattr(graphs, "sample_graph", spy)
    ex = ExposureStream(5)
    for _ in range(20):
        ex.step()
    assert sizes == [32]
    for _ in range(20):
        ex.step()
    assert sizes == [32, 66]
    assert ex.graph == sample_graph(40, 5)


# -- graph6 --------------------------------------------------------------------


def test_graph6_known_values():
    # 5-vertex star centered at the last vertex
    g = graph6_decode("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert graph6_decode("@").n == 1
    assert graph6_decode("?").n == 0
    assert graph6_decode(">>graph6<<D?{") == g


def test_graph6_roundtrip_sizes():
    for n in (0, 1, 2, 5, 62, 63, 100):
        g = sample_graph(n, 1000 + n)
        text = graph6_encode(g)
        assert graph6_decode(text) == g
        if n <= 62:
            assert len(text) == 1 + (n * (n - 1) // 2 + 5) // 6
        else:
            assert text.startswith("~")


@pytest.mark.parametrize("n", [0, 1, 2, 5, 62, 63, 100, 511, 512])
def test_graph6_matches_definition_oracle(n):
    # edges drawn without the package's sampler, which shares the codec
    rng = random.Random(n)
    for density in (0.5, 1.0):
        pairs = [(u, v) for v in range(n) for u in range(v) if rng.random() < density]
        g = Graph.from_edges(n, pairs)
        text = graph6_from_definition(n, edge_set(n, pairs))
        assert graph6_encode(g) == text
        assert graph6_decode(text) == g


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_graph6_roundtrip_random(g):
    assert graph6_decode(graph6_encode(g)) == g


def test_graph6_errors():
    with pytest.raises(Graph6Error, match="alphabet"):
        graph6_decode("D?\x20?")
    # a non-ASCII character must not pass as a byte inside the alphabet
    with pytest.raises(Graph6Error, match="alphabet"):
        graph6_decode("B\u00e9")
    with pytest.raises(Graph6Error, match="truncated"):
        graph6_decode("~?")
    with pytest.raises(Graph6Error, match="not supported"):
        graph6_decode("~~????")
    with pytest.raises(Graph6Error, match="body length"):
        graph6_decode("D?")
    with pytest.raises(Graph6Error, match="padding"):
        graph6_decode("D?}")
    with pytest.raises(Graph6Error, match="cap"):
        graph6_decode("~?G@")
    with pytest.raises(Graph6Error, match="empty"):
        graph6_decode("")


def test_graph6_error_names_the_first_bad_byte():
    text = graph6_encode(sample_graph(40, 0))
    bad = text[:50] + "!" + text[51:90] + " " + text[91:]
    with pytest.raises(Graph6Error, match="^byte 33 outside the graph6 alphabet$"):
        graph6_decode(bad)


# -- edge-list text ------------------------------------------------------------


def test_edge_list_roundtrip():
    g = Graph.from_edges(6, [(0, 3), (3, 5), (1, 2)])
    text = edge_list_text(g.n, g.edges())
    lines = text.splitlines()
    assert lines[0] == "6"
    assert parse_edge_list(text) == g


def test_edge_list_comments_and_blanks():
    text = "# a graph\n4\n\n0 1\n# middle\n2 3\n"
    g = parse_edge_list(text)
    assert edge_set(4, g.edges()) == edge_set(4, [(0, 1), (2, 3)])


def test_edge_list_errors():
    with pytest.raises(ValueError, match="empty"):
        parse_edge_list("# nothing\n")
    with pytest.raises(ValueError, match="header"):
        parse_edge_list("abc\n0 1\n")
    with pytest.raises(ValueError, match="two endpoints"):
        parse_edge_list("3\n0 1 2\n")
    for header in ("513", "-1", str(2 ** 61)):
        with pytest.raises(ValueError, match="vertex count"):
            parse_edge_list(f"{header}\n0 1\n")


def test_read_graph_autodetect():
    g = Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert read_graph("D?{") == g
    assert read_graph(edge_list_text(g.n, g.edges())) == g
    assert read_graph("  \nD?{\n") == g
    with pytest.raises(ValueError, match="empty"):
        read_graph("   ")


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_both_formats_roundtrip(g):
    assert read_graph(edge_list_text(g.n, g.edges())) == g
    assert read_graph(graph6_encode(g)) == g

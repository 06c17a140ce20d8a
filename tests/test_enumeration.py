"""Tests for the labeled-graph censuses and partite distance."""

import math

import pytest

from cliquefree.enumeration import (
    PartiteCensus,
    partite_census,
)
from cliquefree.graphs import sample_graph
from cliquefree.rng import sub_seed

from oracles import (
    distance_to_partite_brute,
    edge_set,
    max_clique_size_in,
)


def _all_graphs(m):
    """Every labeled graph on m vertices as (mask, edge list)."""
    pairs = [(u, v) for v in range(m) for u in range(v)]
    for mask in range(1 << len(pairs)):
        yield mask, [p for t, p in enumerate(pairs) if (mask >> t) & 1]


def _brute_census(m, r):
    free = 0
    hist = {}
    for _, edges in _all_graphs(m):
        en = edge_set(m, edges)
        if max_clique_size_in(m, en, range(m)) >= r + 1:
            continue
        free += 1
        d = distance_to_partite_brute(m, en, r)
        hist[d] = hist.get(d, 0) + 1
    return free, hist


# -- full sweeps ---------------------------------------------------------------


@pytest.mark.parametrize("m,r", [(2, 2), (3, 2), (4, 2), (4, 3), (5, 3)])
def test_full_census_matches_bruteforce(m, r):
    got = partite_census(m, r)
    free, hist = _brute_census(m, r)
    assert got.mode == "full"
    assert got.total == 1 << (m * (m - 1) // 2)
    assert got.clique_free == free
    assert got.distance_histogram == hist


def test_full_census_known_triangle_free_counts():
    # labeled triangle-free graph counts for m = 2..7
    want = {2: 2, 3: 7, 4: 41, 5: 388, 6: 5789, 7: 133501}
    for m, count in want.items():
        got = partite_census(m, 2)
        assert got.clique_free == count, m


def test_full_census_bipartite_fractions():
    # every triangle-free graph on up to 4 vertices is bipartite; the
    # twelve labeled 5-cycles are the first non-bipartite ones
    assert partite_census(3, 2).exact_partite_fraction == 1.0
    assert partite_census(4, 2).exact_partite_fraction == 1.0
    c5 = partite_census(5, 2)
    assert c5.distance_histogram == {0: 376, 1: 12}
    assert c5.exact_partite_fraction == pytest.approx(376 / 388)


def test_full_census_caps():
    with pytest.raises(ValueError, match="full sweep"):
        partite_census(8, 2)
    with pytest.raises(ValueError, match="m >= 2"):
        partite_census(1, 2)
    with pytest.raises(ValueError, match="m >= 2"):
        partite_census(4, 1)


# -- sampled censuses -------------------------------------------------------------


def test_sampled_census_deterministic():
    a = partite_census(8, 2, sample_size=40, seed=9)
    b = partite_census(8, 2, sample_size=40, seed=9)
    c = partite_census(8, 2, sample_size=40, seed=10)
    assert a.mode == "sample" and a.total == 40 and a.seed == 9
    assert a.distance_histogram == b.distance_histogram
    assert a.clique_free == b.clique_free
    assert (a.clique_free, a.distance_histogram) != (c.clique_free, c.distance_histogram)


def test_sampled_census_matches_per_graph_computation():
    # replicate i uses the edge coins of sub_seed(seed, i), so the census
    # must agree with solving each sampled graph individually
    m, r, reps, seed = 7, 2, 25, 4
    free = 0
    hist = {}
    for i in range(reps):
        g = sample_graph(m, sub_seed(seed, i))
        en = edge_set(m, g.edges())
        if max_clique_size_in(m, en, range(m)) >= r + 1:
            continue
        free += 1
        d = distance_to_partite_brute(m, en, r)
        hist[d] = hist.get(d, 0) + 1
    got = partite_census(m, r, sample_size=reps, seed=seed)
    assert got.clique_free == free
    assert got.distance_histogram == hist


def test_sampled_census_caps():
    with pytest.raises(ValueError, match="sample_size"):
        partite_census(6, 2, sample_size=0)
    with pytest.raises(ValueError, match="sampling supports"):
        partite_census(12, 2, sample_size=5)
    with pytest.raises(ValueError, match="colorings"):
        partite_census(7, 15, sample_size=5)


def test_census_as_dict_and_nan_fraction():
    d = partite_census(4, 2).as_dict()
    assert d["clique_free"] == 41
    assert d["distance_histogram"]["0"] == 41
    assert d["mode"] == "full"
    empty = PartiteCensus(
        m=3, r=2, mode="sample", total=1, clique_free=0, distance_histogram={}
    )
    assert math.isnan(empty.exact_partite_fraction)

"""Tests for color-critical patterns and the concentration window."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquefree import critical
from cliquefree.critical import (
    chromatic_number,
    concentration_window,
    first_vanishing_size,
    is_color_critical,
    log_expected_partite,
    log_partite_count,
    partite_exponent_residual,
)
from cliquefree.graphs import Graph, sample_graph
from cliquefree.logmath import log_binomial

from oracles import chromatic_brute, edge_set, first_vanishing_by_scan


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# -- chromatic number ------------------------------------------------------------


def test_chromatic_known_graphs():
    assert chromatic_number(Graph.from_edges(0, [])) == 0
    assert chromatic_number(Graph.from_edges(5, [])) == 1
    assert chromatic_number(Graph.from_edges(2, [(0, 1)])) == 2
    assert chromatic_number(cycle(5)) == 3
    assert chromatic_number(cycle(6)) == 2
    assert chromatic_number(Graph.complete(4)) == 4
    # wheel: C5 plus a dominating hub
    wheel = Graph.from_edges(
        6, [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)]
    )
    assert chromatic_number(wheel) == 4


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_chromatic_matches_bruteforce(n, seed):
    g = sample_graph(n, seed)
    assert chromatic_number(g) == chromatic_brute(n, edge_set(n, g.edges()))


# -- color criticality -------------------------------------------------------------


def test_color_critical_cases():
    # odd cycles are the classic 2-critical patterns
    assert is_color_critical(cycle(5), 2)
    assert is_color_critical(cycle(7), 2)
    assert not is_color_critical(cycle(6), 2)
    # complete graphs are critical one level down
    assert is_color_critical(Graph.complete(4), 3)
    assert not is_color_critical(Graph.complete(4), 2)
    # triangle plus a pendant edge: chi = 3 but the pendant edge is not
    # the only removable one, criticality still holds via a triangle edge
    tri_pendant = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert is_color_critical(tri_pendant, 2)
    # two disjoint triangles: removing one edge leaves the other triangle
    two_tris = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_color_critical(two_tris, 2)
    with pytest.raises(ValueError):
        is_color_critical(cycle(5), 0)


# -- partite count surrogate -------------------------------------------------------


def test_log_partite_count_values():
    # m = 0 is the empty product; r = 1 leaves only the empty graph
    assert log_partite_count(0, 3) == 0.0
    assert log_partite_count(5, 1) == 0.0
    # exponent at (m, r) = (4, 2): (1/2)*16/2 + 4*1 = 8 bits
    assert log_partite_count(4, 2) == pytest.approx(8 * math.log(2))
    with pytest.raises(ValueError):
        log_partite_count(-1, 2)
    with pytest.raises(ValueError):
        log_partite_count(3, 0)


def test_log_expected_partite_composition():
    n, m, r = 50, 10, 2
    want = (
        log_binomial(n, m).ln + log_partite_count(m, r) - 45 * math.log(2)
    )
    assert log_expected_partite(n, m, r) == pytest.approx(want)
    assert log_expected_partite(5, 9, 2) == float("-inf")


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=60),
)
def test_residual_identity(m, k, r):
    res = partite_exponent_residual(m, k, r)
    assert res == (r - 1) * m * m - r * m * (m - 1) + r * r * k * (k - 1)
    if m == r * k:
        assert res == 0


def test_residual_vanishes_exactly_at_balanced_sizes():
    for r in (2, 3, 5, 7):
        for k in (1, 2, 5, 12):
            m = r * k
            assert partite_exponent_residual(m, k, r) == 0
            if m > 0:
                assert partite_exponent_residual(m + 1, k, r) != 0
                assert partite_exponent_residual(m - 1, k, r) != 0
    with pytest.raises(ValueError):
        partite_exponent_residual(-1, 0, 2)


# -- the concentration window ------------------------------------------------------


def test_first_vanishing_size_certificate():
    for n, r in ((1000, 2), (1000, 3), (5000, 2), (300, 5)):
        m0 = first_vanishing_size(n, r)
        assert log_expected_partite(n, m0, r) <= 0.0
        assert log_expected_partite(n, m0 - 1, r) > 0.0
    with pytest.raises(ValueError):
        first_vanishing_size(1, 2)
    with pytest.raises(ValueError):
        first_vanishing_size(100, 1)
    with pytest.raises(ValueError, match="past the float range"):
        first_vanishing_size(10 ** 400, 2)


@pytest.mark.parametrize("r", range(2, 9))
def test_first_vanishing_size_equals_the_old_scan(r):
    # n = 10^3..10^6 at r = 2, 3 are the c10 acceptance points
    rng = random.Random(r)
    seeded = [int(10 ** rng.uniform(3, 15)) for _ in range(40)]
    for n in [*range(2, 401), *(10 ** e for e in range(3, 16)), *seeded]:
        assert first_vanishing_size(n, r) == first_vanishing_by_scan(critical, n, r), n


def test_first_vanishing_size_whose_search_probes_past_the_supported_range():
    # the bracket doubles m to 2^18, past log_binomial's 200,000-term range,
    # while the crossing lies below it; the old scan would take hours here
    n, r = 10 ** 300, 100
    m0 = first_vanishing_size(n, r)
    assert m0 < 200_000 < 2 ** 18
    assert log_expected_partite(n, m0, r) <= 0.0 < log_expected_partite(n, m0 - 1, r)


def test_concentration_window_at_n1000_r2():
    w = concentration_window(1000, 2)
    assert w.m0 == 32
    assert w.M == 32
    assert (w.lo, w.hi) == (29, 31)
    assert w.hi - w.lo == w.r
    assert w.correction_threshold == pytest.approx(-math.log(1000) / 4.0)
    assert w.log_expected_at_m0 <= w.correction_threshold


def test_concentration_window_geometry():
    for n, r in ((500, 2), (2000, 3), (10000, 2), (750, 4)):
        w = concentration_window(n, r)
        assert w.hi == w.M - 1
        assert w.lo == w.M - 1 - r
        assert w.M in (w.m0, w.m0 + 1)
        if w.M == w.m0:
            assert w.log_expected_at_m0 <= w.correction_threshold
        else:
            assert w.log_expected_at_m0 > w.correction_threshold


def test_concentration_window_grows_with_n():
    sizes = [concentration_window(n, 2).M for n in (100, 1000, 10000, 100000)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))

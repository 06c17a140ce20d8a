"""Counter-mode randomness: stream identity, block consistency, pair order."""

import numpy as np
import pytest

from cliquefree.rng import (
    GAMMA,
    mix64,
    stream_at,
    stream_block,
    sub_seed,
)
from oracles import TEST_SEED, TEST_STREAM, pair_index, splitmix_sequential


def test_published_stream_vector():
    got = tuple(stream_at(TEST_SEED, t) for t in range(5))
    assert got == TEST_STREAM


def test_counter_mode_equals_sequential_reference():
    for seed in (0, 1, 42, 2 ** 63, (1 << 64) - 1):
        ref = splitmix_sequential(seed, 20)
        got = [stream_at(seed, t) for t in range(20)]
        assert got == ref


def test_stream_block_matches_scalar():
    block = stream_block(987654321, 100, 50)
    assert block.dtype == np.uint64
    for off, x in enumerate(block):
        assert int(x) == stream_at(987654321, 100 + off)


def test_stream_block_empty_and_validation():
    assert stream_block(5, 0, 0).size == 0
    with pytest.raises(ValueError):
        stream_block(5, -1, 3)
    with pytest.raises(ValueError):
        stream_at(5, -1)


def test_sub_seed_is_stream():
    assert sub_seed(77, 3) == stream_at(77, 3)
    # children differ from each other and from the parent stream start
    seeds = {sub_seed(77, i) for i in range(100)}
    assert len(seeds) == 100


def test_pair_index_is_a_bijection_on_pairs():
    seen = {}
    n = 40
    for v in range(n):
        for u in range(v):
            t = pair_index(u, v)
            assert t not in seen
            seen[t] = (u, v)
    assert sorted(seen) == list(range(n * (n - 1) // 2))
    # symmetric in its arguments
    assert pair_index(3, 9) == pair_index(9, 3)
    # block property: pairs touching v occupy [C(v,2), C(v+1,2))
    for v in range(1, n):
        lo = v * (v - 1) // 2
        for u in range(v):
            assert pair_index(u, v) == lo + u


def test_pair_index_rejects_degenerate_input():
    with pytest.raises(ValueError):
        pair_index(4, 4)
    with pytest.raises(ValueError):
        pair_index(-1, 3)


def test_mix64_avalanche_smoke():
    # flipping one input bit flips roughly half the output bits
    x = 0x123456789ABCDEF
    flips = bin(mix64(x) ^ mix64(x ^ 1)).count("1")
    assert 10 <= flips <= 54


def test_gamma_constant():
    # the increment must be the canonical odd constant or streams shift
    assert GAMMA == 0x9E3779B97F4A7C15

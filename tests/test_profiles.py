"""Part-structure arithmetic: identities, breakpoints, interval lengths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquefree.profiles import (
    breakpoint_profile,
    interval_length_multiset,
    mu_xi,
    mu_xi_table,
)
from oracles import breakpoints_by_divisors, breakpoints_by_scan, interval_lengths_brute


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=1, max_value=5000))
def test_mu_xi_identities(r):
    for j in {v for v in (1, 2, 3, r // 2, r - 1, r) if 1 <= v <= r}:
        mu, xi = mu_xi(r, j)
        assert 1 <= xi <= j
        assert xi * (mu + 1) + (j - xi) * (mu + 2) == r
        assert xi * mu + (j - xi) * (mu + 1) == r - j


def test_interval_lengths_follow_clique_order_law():
    # r counts parts, so the forbidden clique is K_{r+1} and the paper's
    # "1 to floor(r/2) + 1" law reads floor((r+1)/2) + 1 here
    for r in range(1, 2001):
        lengths = interval_length_multiset(r)
        assert min(lengths) == 1
        assert max(lengths) == (r + 1) // 2 + 1


def test_mu_xi_table_matches_scalar():
    for r in (1, 2, 7, 100, 373):
        mu, xi = mu_xi_table(r)
        for j in range(1, r + 1):
            assert (mu[j - 1], xi[j - 1]) == mu_xi(r, j)


def test_mu_xi_table_float_division_is_exact_floor():
    # mu_xi_table truncates the float quotient r / j; it must equal r // j
    for r in [*range(1, 3001), 10 ** 6]:
        j = np.arange(1, r + 1, dtype=np.int64)
        mu, _ = mu_xi_table(r)
        np.testing.assert_array_equal(mu, r // j - 1)


def test_mu_xi_validation():
    with pytest.raises(ValueError):
        mu_xi(5, 0)
    with pytest.raises(ValueError):
        mu_xi(5, 6)
    with pytest.raises(ValueError):
        mu_xi(0, 1)


def test_breakpoints_match_both_oracles():
    for r in list(range(1, 200)) + [500, 997, 1001]:
        prof = breakpoint_profile(r)
        assert list(prof.breakpoints) == breakpoints_by_divisors(r), r
        assert list(prof.breakpoints) == breakpoints_by_scan(r), r
        # profile values at breakpoints are the scalar values
        for j, mu, xi in zip(prof.breakpoints, prof.mus, prof.xis):
            assert (mu, xi) == mu_xi(r, j)
        # mu strictly decreasing along breakpoints, ending at 0
        assert list(prof.mus) == sorted(prof.mus, reverse=True)
        assert len(set(prof.mus)) == len(prof.mus)
        assert prof.mus[-1] == 0 and prof.breakpoints[-1] == r


def test_breakpoint_count_is_about_two_sqrt_r():
    # |{floor(r/d)}| = 2*sqrt(r) + O(1); sanity-check the growth rate
    for r in (100, 400, 2500):
        c = breakpoint_profile(r).count
        assert abs(c - 2 * int(r ** 0.5)) <= 2


def test_interval_lengths_small_cases():
    assert sorted(interval_length_multiset(11)) == [1, 2, 3, 7]
    assert sorted(interval_length_multiset(2)) == [1, 2]
    assert sorted(interval_length_multiset(1)) == [1, 2]
    counts = interval_length_multiset(11)
    assert counts[1] == 5  # one singleton phase per breakpoint
    assert counts[2] == 3 and counts[3] == 1 and counts[7] == 1


def test_interval_lengths_match_brute():
    for r in (1, 2, 3, 10, 11, 23, 97, 360):
        assert interval_length_multiset(r) == interval_lengths_brute(r)


def test_accounting_identity_vectorized_sweep():
    # the same identity the acceptance gate checks, at reduced scale
    for r in range(1, 501):
        mu, xi = mu_xi_table(r)
        j = np.arange(1, r + 1, dtype=np.int64)
        assert np.all(xi * (mu + 1) + (j - xi) * (mu + 2) == r)
        assert np.all(1 <= xi) and np.all(xi <= j)

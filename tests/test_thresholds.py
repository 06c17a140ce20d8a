"""Tests for appearance thresholds, levels, and predicted intervals."""

import math

import pytest

from cliquefree.logmath import (
    LogValue,
    expected_defect_sets,
    poisson_tail,
)
from cliquefree.thresholds import (
    ThresholdTable,
    level,
    level_threshold,
    predicted_interval,
    predicted_pmf,
    threshold_slack,
    threshold_table,
)

from oracles import exact_expected_defect

# First n with C(n,k) 2^{-C(k,2)} >= ln k, computed by direct evaluation.
KNOWN_THRESHOLDS = {3: 5, 4: 9, 5: 14, 6: 22, 7: 33, 8: 51, 10: 116}


def test_level_threshold_known_values():
    for k, a_k in KNOWN_THRESHOLDS.items():
        assert level_threshold(k) == a_k


def test_level_threshold_certificates():
    # the defining property, checked on both sides of the flip
    for k in range(3, 31):
        a_k = level_threshold(k)
        target = LogValue.from_number(math.log(k))
        assert expected_defect_sets(a_k, k, 0) >= target
        assert expected_defect_sets(a_k - 1, k, 0) < target


def test_level_threshold_strictly_increasing():
    values = [level_threshold(k) for k in range(3, 40)]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_level_threshold_validation():
    with pytest.raises(ValueError):
        level_threshold(2)
    with pytest.raises(ValueError):
        level_threshold(0)


def test_threshold_slack():
    assert threshold_slack(8) == pytest.approx(1.0 / math.log(8))
    assert threshold_slack(2) == pytest.approx(1.0 / math.log(2))
    with pytest.raises(ValueError):
        threshold_slack(1)


def test_level_known_values():
    assert level(21) == 5
    assert level(22) == 6
    assert level(30) == 6
    assert level(115) == 9
    assert level(116) == 10


def test_level_window_property():
    for n in range(5, 200):
        k = level(n)
        assert level_threshold(k) <= n < level_threshold(k + 1)


def test_level_validation():
    with pytest.raises(ValueError):
        level(4)


def _raw_certificates(table: ThresholdTable):
    k = table.k
    lo_t = LogValue.from_number(table.slack)
    hi_t = LogValue.from_number(math.log(k + 1))
    for mu, b, c in zip(table.mus, table.raw_lower, table.raw_upper):
        assert expected_defect_sets(b, k + 1, mu) >= lo_t
        assert expected_defect_sets(b - 1, k + 1, mu) < lo_t
        assert expected_defect_sets(c, k + 1, mu) >= hi_t
        assert expected_defect_sets(c - 1, k + 1, mu) < hi_t


def test_threshold_table_level10_parts2():
    table = threshold_table(10, 2)
    assert table.breakpoints == (1, 2)
    assert table.mus == (1, 0)
    assert table.xis == (1, 2)
    assert table.slack == pytest.approx(1.0 / math.log(11))
    assert table.level_start == 116
    assert table.level_end == level_threshold(11)
    # at this level one-edge defect sets are already abundant when the
    # window opens, so the first lower threshold clamps to the level start
    assert table.raw_lower[0] < table.lower[0] == 116
    assert table.upper[-1] == level_threshold(11)
    _raw_certificates(table)


def test_threshold_table_level20_parts3():
    table = threshold_table(20, 3)
    assert table.breakpoints == (1, 3)
    assert table.mus == (2, 0)
    assert table.xis == (1, 3)
    chain = [table.level_start]
    for b, c in zip(table.lower, table.upper):
        chain.extend((b, c))
    assert chain == sorted(chain)
    assert table.upper[-1] == level_threshold(21)
    _raw_certificates(table)


def test_threshold_table_validation():
    with pytest.raises(ValueError):
        threshold_table(4, 2)
    with pytest.raises(ValueError):
        threshold_table(10, 0)
    # defect count r-1 above the level-11 pair count: no threshold exists
    with pytest.raises(ValueError):
        threshold_table(10, 60)


def test_threshold_table_cached_identity():
    assert threshold_table(10, 2) is threshold_table(10, 2)


def test_predicted_interval_known_value():
    assert predicted_interval(116, 2) == (20, 21)


def test_predicted_interval_window_membership():
    for n in (116, 130, 150, 170):
        lo, hi = predicted_interval(n, 2)
        k = level(n)
        assert k * 2 <= lo <= hi <= k * 2 + 2


def test_predicted_interval_level_seam():
    # crossing into level 11 hands the location from j=r back to j=0
    a_11 = level_threshold(11)
    assert predicted_interval(a_11 - 1, 2) == (21, 22)
    assert predicted_interval(a_11, 2)[0] == 22


class TestCleanRegime:
    """Level 320, 11 parts: large enough that no clamping occurs.

    Here the chain is strictly interleaved and the predicted interval walks
    through every breakpoint exactly as the thresholds pass n.
    """

    K = 320
    R = 11

    def test_no_clamping(self):
        table = threshold_table(self.K, self.R)
        assert table.raw_lower == table.lower
        assert table.raw_upper == table.upper
        assert table.lower[0] > table.level_start

    def test_strict_chain(self):
        table = threshold_table(self.K, self.R)
        chain = [table.level_start]
        for b, c in zip(table.lower, table.upper):
            chain.extend((b, c))
        assert all(x < y for x, y in zip(chain, chain[1:]))

    def test_profile(self):
        table = threshold_table(self.K, self.R)
        assert table.breakpoints == (1, 2, 3, 5, 11)
        assert table.mus == (10, 4, 2, 1, 0)
        assert table.xis == (1, 1, 1, 4, 11)

    def test_singleton_at_level_start(self):
        table = threshold_table(self.K, self.R)
        base = self.K * self.R
        assert predicted_interval(table.level_start, self.R) == (base, base)

    def test_interval_tracks_thresholds(self):
        table = threshold_table(self.K, self.R)
        base = self.K * self.R
        j_vals = (0,) + table.breakpoints
        for i, (b, c) in enumerate(zip(table.lower, table.upper)):
            # hi jumps to breakpoint j_i exactly at the lower threshold
            assert predicted_interval(b - 1, self.R)[1] == base + j_vals[i]
            assert predicted_interval(b, self.R)[1] == base + j_vals[i + 1]
            if c < table.level_end:
                # lo catches up exactly at the upper threshold
                assert predicted_interval(c - 1, self.R)[0] == base + j_vals[i]
                assert predicted_interval(c, self.R)[0] == base + j_vals[i + 1]


def test_predicted_pmf_level7_parts2():
    out = predicted_pmf(40, 2)
    assert out.k == 7
    assert out.alphas == (14, 15, 16)
    assert out.js == (0, 1, 2)
    assert out.mus[1:] == (1, 0)
    assert out.xis == (0, 1, 2)

    lam1 = float(exact_expected_defect(40, 8, 1))
    lam2 = float(exact_expected_defect(40, 8, 0))
    lam_next = float(exact_expected_defect(40, 9, 1))
    assert out.lambdas[1] == pytest.approx(lam1, rel=1e-12)
    assert out.lambdas[2] == pytest.approx(lam2, rel=1e-12)

    t1 = poisson_tail(lam1, 1)
    t2 = poisson_tail(lam2, 2)
    t_end = poisson_tail(lam_next, 1)
    assert out.tails == pytest.approx((1.0, t1, t2))
    assert out.pmf[14] == pytest.approx(1.0 - t1)
    assert out.pmf[15] == pytest.approx(t1 - t2)
    assert out.pmf[16] == pytest.approx(t2 - t_end)
    assert out.mass_defect == pytest.approx(t_end)

    # lambda_1 = 8.02 is far above n^(1/4) = 2.51, lambda_2 = 0.29 is not
    assert out.flagged == (1,)

    d = out.as_dict()
    assert d["pmf"]["14"] == out.pmf[14]
    assert d["flagged_j"] == [1]


def test_predicted_pmf_validation():
    with pytest.raises(ValueError):
        predicted_pmf(40, 0)


def test_predicted_pmf_mass_sums_to_one_minus_defect():
    # the last entry may go negative near a level seam: the tail for the
    # next level counts only its scarcest part, so it can overstate; the
    # sum identity holds regardless and mass_defect makes it visible
    for n, r in ((40, 2), (60, 3), (116, 2)):
        out = predicted_pmf(n, r)
        assert out.tails[0] == 1.0
        assert sum(out.pmf.values()) == pytest.approx(1.0 - out.mass_defect)


def test_predicted_pmf_clean_regime_concentrates_at_level_start():
    # at the level threshold every defect event one level up is still rare,
    # so essentially all mass sits on size k*r and nothing is flagged
    n = level_threshold(320)
    out = predicted_pmf(n, 11)
    assert out.k == 320
    base = 320 * 11
    assert out.pmf[base] == pytest.approx(1.0, abs=1e-6)
    assert all(abs(out.pmf[a]) < 1e-6 for a in out.alphas if a != base)
    assert abs(out.mass_defect) < 1e-6
    assert out.flagged == ()

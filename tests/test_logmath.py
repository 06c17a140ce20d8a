"""Log-domain arithmetic against exact-rational and closed-form oracles."""

import hashlib
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliquefree.logmath import (
    LN2,
    LogValue,
    expected_defect_sets,
    log_binomial,
    log_sum,
    poisson_pmf,
    poisson_tail,
    stein_chen_bound,
    two_pow,
)
from oracles import binom, exact_expected_defect

REL = 1e-11
EPS = 2.0 ** -52


def close(lv: LogValue, value: Fraction | float, rel: float = REL) -> bool:
    if value == 0:
        return lv.sign == 0
    return lv.sign == 1 and abs(lv.ln - math.log(float(value))) <= rel


# -- LogValue core -------------------------------------------------------------


def test_logvalue_zero_and_one():
    z = LogValue.zero()
    o = LogValue.one()
    assert z.sign == 0 and z.to_float() == 0.0
    assert o.to_float() == 1.0
    assert (z + o).to_float() == 1.0
    assert (z + z).sign == 0
    assert (z * o).sign == 0


def rel_bound(a: Fraction, b: Fraction, exact: Fraction) -> float:
    """Error allowed in la * lb or la + lb against the exact result.

    Storing x as ln(x) rounds ln(x) to one ulp, a relative error in x of
    about eps * |ln x|; sums of non-negatives never cancel, so that error
    stays relative to the result.
    """
    lns = [abs(math.log(float(x))) for x in (a, b, exact) if x]
    return 4 * EPS * max([1.0, *lns]) * float(exact)


@settings(max_examples=300, deadline=None)
@given(
    st.fractions(min_value=Fraction(0), max_value=Fraction(10**6), max_denominator=997),
    st.fractions(min_value=Fraction(0), max_value=Fraction(10**6), max_denominator=997),
)
@example(Fraction(225999997, 226), Fraction(297999997, 298))
def test_logvalue_field_ops_match_fractions(a, b):
    la, lb = LogValue.from_number(float(a)), LogValue.from_number(float(b))
    for got, exact in ((la * lb, a * b), (la + lb, a + b)):
        error = abs(Fraction(got.to_float()) - exact)
        assert error <= rel_bound(a, b, exact), (got, exact)
    assert (la < lb) == (a < b)
    assert (la >= lb) == (a >= b)


def test_logvalue_from_number_rejects_negative_and_non_finite():
    for bad in (-1, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            LogValue.from_number(bad)


def test_logvalue_powers():
    x = LogValue.from_number(3.0)
    assert close(x ** 3, 27.0)
    assert close(x ** 2, 9.0)
    assert close(x ** 0, 1.0)
    assert (LogValue.zero() ** 2).sign == 0
    with pytest.raises(ZeroDivisionError):
        LogValue.zero() ** 0


def test_logvalue_from_huge_int():
    v = LogValue.from_number(2 ** 300 * 3)
    assert abs(v.ln - (300 * math.log(2) + math.log(3))) < 1e-9


def test_two_pow_and_log2():
    assert abs(two_pow(100).ln / LN2 - 100.0) < 1e-12


def test_log_sum_drops_zero_terms():
    vals = [LogValue.from_number(x) for x in (3e5, 0.0, 1e5, 2.5)]
    assert close(log_sum(vals), 4e5 + 2.5, 1e-9)
    assert log_sum([LogValue.zero(), LogValue.zero()]).sign == 0
    assert log_sum([]).sign == 0


# -- binomials ------------------------------------------------------------------


def test_log_binomial_matches_pascal():
    for n in range(0, 60):
        for k in range(-1, n + 2):
            got = log_binomial(n, k)
            assert close(got, binom(n, k)), (n, k)


def test_log_binomial_large_n_path_consistency():
    # whichever path the library picks, it must agree with the log-sum
    # reference within the lgamma path's intrinsic error of about one ulp
    # of lgamma(n+1), which is n*ln(n)*2^-53
    for n in (10 ** 9, 2 ** 40 - 7, 2 ** 40 + 7):
        for k in (3, 17, 200):
            nf = float(n)
            ref = math.fsum(math.log(nf - i) for i in range(k)) - math.lgamma(k + 1)
            bound = 4.0 * n * math.log(n) * 2.0 ** -53 + 1e-9
            assert abs(log_binomial(n, k).ln - ref) < bound


def test_log_binomial_huge_n():
    n = 10 ** 50
    got = log_binomial(n, 320)
    approx = 320 * math.log(n) - math.lgamma(321)
    assert abs(got.ln - approx) < 1e-6 * abs(approx)
    assert log_binomial(n, 0) == LogValue.one()
    with pytest.raises(TypeError):
        log_binomial(10.0, 2)
    top = int(sys.float_info.max)  # the largest n a float holds
    assert log_binomial(top, 2).ln == pytest.approx(2 * math.log(top) - math.log(2))
    with pytest.raises(ValueError, match="past the float range"):
        log_binomial(10 ** 400, 2)


# -- first moments ---------------------------------------------------------------


def test_expected_defect_sets_matches_exact_rationals():
    for n in range(1, 26, 3):
        for k in range(1, min(n, 9)):
            pairs = k * (k - 1) // 2
            for i in range(0, min(pairs, 5) + 1):
                got = expected_defect_sets(n, k, i)
                want = exact_expected_defect(n, k, i)
                assert close(got, want), (n, k, i)


# -- poisson helpers -------------------------------------------------------------


def test_poisson_pmf_and_tail():
    lam = 1.7
    total = sum(poisson_pmf(lam, t) for t in range(60))
    assert abs(total - 1.0) < 1e-12
    for t in range(6):
        tail_direct = 1.0 - sum(poisson_pmf(lam, v) for v in range(t))
        assert abs(poisson_tail(lam, t) - tail_direct) < 1e-12
    assert poisson_tail(lam, 0) == 1.0
    assert poisson_tail(0.0, 1) == 0.0
    assert poisson_tail(float("inf"), 5) == 1.0
    assert poisson_pmf(0.0, 0) == 1.0
    with pytest.raises(ValueError):
        poisson_pmf(-1.0, 2)


def test_poisson_pmf_and_tail_equal_scipy_stats_bitwise():
    # the reference is the scipy.stats law these functions replaced; the
    # package itself never imports scipy.stats
    from scipy.stats import poisson

    lams = [0.0, 1e-12, 1e-6, 0.01, 0.3, 1.0, 1.7, 2.5, 7.0, 13.3, 29.9,
            50.0, 99.5, 120.0, 333.3, 1000.0, 2718.28, 1e4]
    for lam in lams:
        for t in range(121):
            assert poisson_pmf(lam, t) == float(poisson.pmf(t, lam)), (lam, t)
            assert poisson_tail(lam, t) == float(poisson.sf(t - 1, lam)), (lam, t)


# -- stein-chen sanity ---------------------------------------------------------------


def test_stein_chen_bound_basic_shape():
    b = stein_chen_bound(10, 3, 0)
    assert b.sign == 1
    # self-pair term alone makes the bound at least 2 p^2 C(n,k)
    p = two_pow(-3)  # a 3-set induces no edge with probability 2^-3
    floor = 2 * p * p * log_binomial(10, 3)
    assert b >= floor
    # degenerate defect count: probability zero, bound zero
    assert stein_chen_bound(10, 1, 1).sign == 0
    # k = 1: bound must still dominate the (large) distance to Poisson(n)
    b1 = stein_chen_bound(7, 1, 0)
    assert b1.to_float() >= 2 * 7 * (1 - poisson_pmf(7.0, 7))


# -- byte-level golden ----------------------------------------------------------------

# sha256 of repr([(sign, ln), ...]) over the grid below; any one-ulp drift in
# the model moves it.  Recorded when LogValue still carried signed arithmetic,
# then recomputed over the same grid without its overlap-sum term, on the code
# that still had that term, when the term was deleted.
FIRST_MOMENT_GOLDEN = "e29fab10e8bd085f7baf40906ac3ace63602e09792a4881f8dfb9bcf63780168"


def test_first_moment_grid_golden():
    values = []
    for n in [*range(1, 25), 100, 10**3, 10**6, 10**9, 2**40 - 3, 2**40 + 3, 10**15]:
        for k in range(11):
            values.extend(expected_defect_sets(n, k, i) for i in range(6))
            values.extend(stein_chen_bound(n, k, i) for i in range(-1, 5))
    text = repr([(v.sign, v.ln) for v in values])
    assert hashlib.sha256(text.encode()).hexdigest() == FIRST_MOMENT_GOLDEN

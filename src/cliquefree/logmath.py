"""Log-domain arithmetic for astronomically scaled counting quantities.

The first-moment quantities this package works with (numbers of vertex
subsets weighted by powers of 1/2) overflow floats long before the
parameter ranges of interest are reached, so everything here is carried
as the natural log of the value.  Every such quantity is a sum or product
of non-negative terms, so ``LogValue`` holds only non-negative numbers:
zero is ``ln = -inf``, and ``log_sum`` is the one place that drops zero
terms.  The module functions build the specific first-moment formulas on
top of it.

Conventions:

* ``expected_defect_sets(n, k, i)`` is the mean number of k-vertex subsets
  of a uniform random graph on n vertices whose induced subgraph has
  exactly i edges: C(n,k) * C(C(k,2), i) * 2^(-C(k,2)).
* Total variation distance between integer-valued laws is the full L1 sum
  sum_v |P(X = v) - Q(v)| with no factor 1/2.  Every bound and every
  empirical distance in this package uses this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
from scipy.special import gammaln, logsumexp, pdtrc, xlogy

LN2 = math.log(2.0)

_EXACT_LGAMMA_LIMIT = 1 << 40  # above this, lgamma differences cancel catastrophically
_LOGSUM_TERM_LIMIT = 200_000


@dataclass(frozen=True, order=True)
class LogValue:
    """A non-negative real number stored as ln(value); zero is ``-inf``."""

    ln: float

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(-math.inf)

    @staticmethod
    def one() -> "LogValue":
        return LogValue(0.0)

    @staticmethod
    def from_number(x) -> "LogValue":
        if isinstance(x, LogValue):
            return x
        if isinstance(x, int) and x > 0:
            # bit_length scaling keeps huge ints out of float range
            shift = max(x.bit_length() - 53, 0)
            return LogValue(math.log(x >> shift if shift else x) + shift * LN2)
        xf = float(x)
        if not 0.0 <= xf < math.inf:
            raise ValueError("LogValue requires a finite non-negative number")
        return LogValue(math.log(xf)) if xf else LogValue.zero()

    @property
    def sign(self) -> int:
        return 0 if self.ln == -math.inf else 1

    def __mul__(self, other) -> "LogValue":
        return LogValue(self.ln + LogValue.from_number(other).ln)

    __rmul__ = __mul__

    def __add__(self, other) -> "LogValue":
        o = LogValue.from_number(other).ln
        hi, lo = (self.ln, o) if self.ln >= o else (o, self.ln)
        if lo == -math.inf:
            return LogValue(hi)
        return LogValue(hi + math.log1p(math.exp(lo - hi)))

    def __pow__(self, e: int) -> "LogValue":
        if not isinstance(e, int):
            raise TypeError("LogValue powers must be integers")
        if self.ln == -math.inf and e <= 0:
            raise ZeroDivisionError("0 ** non-positive power")
        return LogValue(self.ln * e)

    def to_float(self) -> float:
        """Nearest float; overflows to inf rather than raising."""
        try:
            return math.exp(self.ln)
        except OverflowError:
            return math.inf


def two_pow(e: float) -> LogValue:
    """2**e as a LogValue, for arbitrary real (possibly huge) exponents."""
    return LogValue(float(e) * LN2)


def log_sum(values: Iterable[LogValue]) -> LogValue:
    """Sum of LogValues, stable for many terms of mixed magnitude.

    Zero terms are dropped here, so callers pass their terms unfiltered.
    """
    lns = [v.ln for v in values if v.ln != -math.inf]
    if len(lns) > _LOGSUM_TERM_LIMIT:
        raise ValueError("log_sum term count exceeds supported size")
    return LogValue(float(logsumexp(lns))) if lns else LogValue.zero()


def log_binomial(n: int, k: int) -> LogValue:
    """C(n, k) as a LogValue.  Out-of-range k gives exact zero, not an error.

    Three regimes: k in {0, n} is exactly one; n below 2^40 uses lgamma;
    larger n uses a sum of min(k, n-k) logs because the lgamma difference
    there is smaller than one ulp of its operands.
    """
    if not isinstance(n, int) or not isinstance(k, int):
        raise TypeError("log_binomial takes integers")
    if k < 0 or k > n:
        return LogValue.zero()
    if k == 0 or k == n:
        return LogValue.one()
    if n <= _EXACT_LGAMMA_LIMIT:
        return LogValue(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        )
    m = min(k, n - k)
    if m > _LOGSUM_TERM_LIMIT:
        raise ValueError("log_binomial outside supported range (huge n with huge k)")
    nf = float(n)
    s = math.fsum(math.log(nf - i) for i in range(m)) - math.lgamma(m + 1)
    return LogValue(s)


def pair_count(k: int) -> int:
    """C(k, 2) as an exact integer."""
    return k * (k - 1) // 2 if k >= 2 else 0


def expected_defect_sets(n: int, k: int, i: int) -> LogValue:
    """Mean number of k-subsets inducing exactly i edges, edge density 1/2."""
    if k < 0 or i < 0:
        return LogValue.zero()
    P = pair_count(k)
    return log_binomial(n, k) * log_binomial(P, i) * two_pow(-P)


def poisson_pmf(lam: float, t: int) -> float:
    """P(Poisson(lam) = t)."""
    if lam < 0:
        raise ValueError("Poisson rate must be non-negative")
    if t < 0:
        return 0.0
    if lam == 0:
        return 1.0 if t == 0 else 0.0
    # the formula scipy.stats.poisson.pmf evaluates, without loading scipy.stats
    return float(np.exp(xlogy(t, lam) - gammaln(t + 1) - lam))


def poisson_tail(lam: float, t: int) -> float:
    """P(Poisson(lam) >= t)."""
    if lam < 0:
        raise ValueError("Poisson rate must be non-negative")
    if t <= 0:
        return 1.0
    if math.isinf(lam):
        return 1.0
    # scipy.stats.poisson.sf(t - 1, lam) is this same call
    return float(pdtrc(t - 1, lam))


@lru_cache(maxsize=None)
def stein_chen_bound(n: int, k: int, i: int) -> LogValue:
    """Poisson-approximation error bound for the i-defect k-set count.

    Dependency-graph bound: with X the number of k-subsets inducing exactly
    i edges, d_TV(X, Poisson(EX)) <= 2 * (b1 + b2), where b1 sums p_a * p_b
    over dependent pairs (including a = b) and b2 sums the joint moments
    E[1_a 1_b] over distinct dependent pairs.  Distances here follow the
    full-L1 convention, hence the leading 2.
    """
    if k < 1 or n < k or i < 0:
        return LogValue.zero()
    P = pair_count(k)
    p = log_binomial(P, i) * two_pow(-P)  # P(single k-set has exactly i edges)
    nk = log_binomial(n, k)

    # b1: neighborhood sizes; two k-sets are dependent iff they share >= 2
    # vertices, and each set is in its own neighborhood.
    b1_terms = [
        log_binomial(k, j) * log_binomial(n - k, k - j) for j in range(2, k + 1)
    ]
    if k == 1:
        b1_terms.append(LogValue.one())  # self pair; no j >= 2 term exists
    b1 = nk * (p ** 2) * log_sum(b1_terms)

    # b2: joint probability that two j-overlapping k-sets both have i edges.
    b2_terms = []
    for j in range(2, k):
        Pj = pair_count(j)
        inner = (
            log_binomial(Pj, m) * (log_binomial(P - Pj, i - m) ** 2)
            for m in range(max(0, i - (P - Pj)), min(i, Pj) + 1)
        )
        joint = two_pow(Pj - 2 * P) * log_sum(inner)
        b2_terms.append(log_binomial(k, j) * log_binomial(n - k, k - j) * joint)
    b2 = nk * log_sum(b2_terms)

    return 2 * (b1 + b2)

"""Log-domain arithmetic for astronomically scaled counting quantities.

The first-moment quantities this package works with (numbers of vertex
subsets weighted by powers of 1/2) overflow floats long before the
parameter ranges of interest are reached, so everything here is carried
as a sign plus the natural log of the magnitude.  ``LogValue`` implements
exact-zero-aware signed arithmetic on that representation; the module
functions build the specific first-moment formulas on top of it.

Conventions:

* ``expected_defect_sets(n, k, i)`` is the mean number of k-vertex subsets
  of a uniform random graph on n vertices whose induced subgraph has
  exactly i edges: C(n,k) * C(C(k,2), i) * 2^(-C(k,2)).
* ``expected_independent_sets(n, k)`` is the i = 0 case, evaluated through
  the identical code path so the two agree bit for bit.
* Total variation distance between integer-valued laws is the full L1 sum
  sum_v |P(X = v) - Q(v)| with no factor 1/2.  Every bound and every
  empirical distance in this package uses this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import gammaln, logsumexp, pdtrc, xlogy

LN2 = math.log(2.0)

_EXACT_LGAMMA_LIMIT = 1 << 40  # above this, lgamma differences cancel catastrophically
_LOGSUM_TERM_LIMIT = 200_000


@dataclass(frozen=True)
class LogValue:
    """A real number stored as (sign, ln|value|).

    ``sign`` is -1, 0 or +1; ``ln`` is ``-inf`` exactly when ``sign`` is 0.
    """

    sign: int
    ln: float

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(0, float("-inf"))

    @staticmethod
    def one() -> "LogValue":
        return LogValue(1, 0.0)

    @staticmethod
    def from_ln(ln: float, sign: int = 1) -> "LogValue":
        if sign == 0 or ln == float("-inf"):
            return LogValue.zero()
        return LogValue(1 if sign > 0 else -1, float(ln))

    @staticmethod
    def from_number(x) -> "LogValue":
        if isinstance(x, LogValue):
            return x
        if x == 0:
            return LogValue.zero()
        if isinstance(x, int):
            # bit_length scaling keeps huge ints out of float range
            sign = 1 if x > 0 else -1
            ax = abs(x)
            shift = max(ax.bit_length() - 53, 0)
            return LogValue(sign, math.log(ax >> shift if shift else ax) + shift * LN2)
        xf = float(x)
        if math.isnan(xf) or math.isinf(xf):
            raise ValueError("LogValue requires a finite number")
        return LogValue(1 if xf > 0 else -1, math.log(abs(xf)))

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other) -> "LogValue":
        o = LogValue.from_number(other)
        if self.sign == 0 or o.sign == 0:
            return LogValue.zero()
        return LogValue(self.sign * o.sign, self.ln + o.ln)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LogValue":
        o = LogValue.from_number(other)
        if o.sign == 0:
            raise ZeroDivisionError("LogValue division by zero")
        if self.sign == 0:
            return LogValue.zero()
        return LogValue(self.sign * o.sign, self.ln - o.ln)

    def __add__(self, other) -> "LogValue":
        o = LogValue.from_number(other)
        if self.sign == 0:
            return o
        if o.sign == 0:
            return self
        if self.sign == o.sign:
            hi, lo = (self.ln, o.ln) if self.ln >= o.ln else (o.ln, self.ln)
            return LogValue(self.sign, hi + math.log1p(math.exp(lo - hi)))
        # opposite signs: larger magnitude wins
        if self.ln == o.ln:
            return LogValue.zero()
        if self.ln > o.ln:
            return LogValue(self.sign, self.ln + math.log1p(-math.exp(o.ln - self.ln)))
        return LogValue(o.sign, o.ln + math.log1p(-math.exp(self.ln - o.ln)))

    __radd__ = __add__

    def __sub__(self, other) -> "LogValue":
        return self + (-LogValue.from_number(other))

    def __neg__(self) -> "LogValue":
        return LogValue(-self.sign, self.ln)

    def __abs__(self) -> "LogValue":
        return LogValue(abs(self.sign), self.ln)

    def __pow__(self, e: int) -> "LogValue":
        if not isinstance(e, int):
            raise TypeError("LogValue powers must be integers")
        if self.sign == 0:
            if e <= 0:
                raise ZeroDivisionError("0 ** non-positive power")
            return LogValue.zero()
        sign = self.sign if e % 2 else abs(self.sign)
        return LogValue(sign, self.ln * e)

    # -- comparisons --------------------------------------------------

    def _key(self):
        # monotone order key: sign-major, magnitude-minor
        return (self.sign, self.sign * self.ln if self.sign else 0.0)

    def __lt__(self, other):
        return self._key() < LogValue.from_number(other)._key()

    def __le__(self, other):
        return self._key() <= LogValue.from_number(other)._key()

    def __gt__(self, other):
        return self._key() > LogValue.from_number(other)._key()

    def __ge__(self, other):
        return self._key() >= LogValue.from_number(other)._key()

    def __eq__(self, other):
        try:
            o = LogValue.from_number(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self._key() == o._key()

    def __hash__(self):
        return hash(self._key())

    # -- conversions --------------------------------------------------

    def to_float(self) -> float:
        """Nearest float; overflows to +-inf rather than raising."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.ln)
        except OverflowError:
            return self.sign * float("inf")

    __float__ = to_float

    @property
    def log2(self) -> float:
        if self.sign < 0:
            raise ValueError("log2 of a negative LogValue")
        return self.ln / LN2

    def __repr__(self):
        if self.sign == 0:
            return "LogValue(0)"
        return f"LogValue({'+' if self.sign > 0 else '-'}exp({self.ln:.6g}))"


def two_pow(e: float) -> LogValue:
    """2**e as a LogValue, for arbitrary real (possibly huge) exponents."""
    return LogValue(1, float(e) * LN2)


def log_sum(values: Iterable[LogValue]) -> LogValue:
    """Sum of LogValues, stable for many terms of mixed magnitude."""
    pos = []
    neg = []
    for v in values:
        if v.sign > 0:
            pos.append(v.ln)
        elif v.sign < 0:
            neg.append(v.ln)
    if len(pos) + len(neg) > _LOGSUM_TERM_LIMIT:
        raise ValueError("log_sum term count exceeds supported size")
    p = LogValue.from_ln(float(logsumexp(pos))) if pos else LogValue.zero()
    n = LogValue.from_ln(float(logsumexp(neg))) if neg else LogValue.zero()
    return p - n


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
        return LogValue.from_ln(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        )
    m = min(k, n - k)
    if m > _LOGSUM_TERM_LIMIT:
        raise ValueError("log_binomial outside supported range (huge n with huge k)")
    nf = float(n)
    s = math.fsum(math.log(nf - i) for i in range(m)) - math.lgamma(m + 1)
    return LogValue.from_ln(s)


def pair_count(k: int) -> int:
    """C(k, 2) as an exact integer."""
    return k * (k - 1) // 2 if k >= 2 else 0


def expected_defect_sets(n: int, k: int, i: int) -> LogValue:
    """Mean number of k-subsets inducing exactly i edges, edge density 1/2."""
    if k < 0 or i < 0:
        return LogValue.zero()
    P = pair_count(k)
    return log_binomial(n, k) * log_binomial(P, i) * two_pow(-P)


def expected_independent_sets(n: int, k: int) -> LogValue:
    """Mean number of independent k-subsets; the i = 0 defect case."""
    return expected_defect_sets(n, k, 0)


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


def overlap_sum(n: int, k: int) -> LogValue:
    """Mean number of ordered pairs of independent k-sets sharing vertices.

    C(n,k) * sum_{j=1}^{k-1} C(k,j) C(n-k,k-j) 2^(C(j,2) - 2 C(k,2)).
    This is the clumping term that controls how far the independent-set
    count sits from a Poisson law of the same mean.
    """
    if k < 1 or n < k:
        return LogValue.zero()
    P = pair_count(k)
    terms = []
    for j in range(1, k):
        t = log_binomial(k, j) * log_binomial(n - k, k - j) * two_pow(pair_count(j) - 2 * P)
        if t.sign != 0:
            terms.append(t)
    return log_binomial(n, k) * log_sum(terms) if terms else LogValue.zero()


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
    if p.sign == 0:
        return LogValue.zero()
    nk = log_binomial(n, k)

    # b1: neighborhood sizes; two k-sets are dependent iff they share >= 2
    # vertices, and each set is in its own neighborhood.
    b1_terms = []
    for j in range(2, k + 1):
        t = log_binomial(k, j) * log_binomial(n - k, k - j)
        if t.sign != 0:
            b1_terms.append(t)
    if k == 1:
        b1_terms.append(LogValue.one())  # self pair; no j >= 2 term exists
    b1 = nk * (p ** 2) * log_sum(b1_terms)

    # b2: joint probability that two j-overlapping k-sets both have i edges.
    b2_terms = []
    for j in range(2, k):
        Pj = pair_count(j)
        inner = []
        for m in range(max(0, i - (P - Pj)), min(i, Pj) + 1):
            t = log_binomial(Pj, m) * (log_binomial(P - Pj, i - m) ** 2)
            if t.sign != 0:
                inner.append(t)
        if not inner:
            continue
        joint = two_pow(Pj - 2 * P) * log_sum(inner)
        t = log_binomial(k, j) * log_binomial(n - k, k - j) * joint
        if t.sign != 0:
            b2_terms.append(t)
    b2 = nk * log_sum(b2_terms) if b2_terms else LogValue.zero()

    return 2 * (b1 + b2)

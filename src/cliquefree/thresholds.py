"""Appearance thresholds and predicted concentration intervals.

Everything in this module is driven by first moments of subset counts in a
uniform random graph on n vertices.  Write Y_k for the number of
independent k-sets and Z_{k,i} for the number of k-sets inducing exactly i
edges.  With the slack eps(k) = 1 / ln k:

* the level threshold of k is the first n with E[Y_k] >= ln k;
* the level of n is the k whose window [threshold(k), threshold(k+1))
  contains n;
* within a level, a defect count i at size k+1 switches from "absent" to
  "present" across a pair of thresholds where E[Z_{k+1,i}] passes eps(k+1)
  and 1/eps(k+1) respectively.

The predicted two-point / short-interval location of the largest induced
(r+1)-clique-free subgraph is read off a ThresholdTable: runs of the form
{k r + j} or {k r + j .. k r + j'} between consecutive thresholds.

All defect thresholds at level k use the slack of k+1, never of k; this
makes the last upper threshold of the table literally the same search as
the next level threshold, so the chain closes exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ThresholdChainError
from .logmath import (
    LogValue,
    expected_defect_sets,
    poisson_tail,
)
from .profiles import breakpoint_profile, mu_xi

_MIN_LEVEL = 3
_TABLE_MIN_LEVEL = 5


def threshold_slack(k: int) -> float:
    """Slack eps(k) = 1 / ln k used by every threshold definition."""
    if k < 2:
        raise ValueError("slack needs k >= 2")
    return 1.0 / math.log(k)


def _min_n(pred, lo: int) -> int:
    """Smallest n > lo with pred(n) true; pred must be monotone in n.

    The model layer's one crossing search, behind level_threshold, level,
    threshold_table and critical.first_vanishing_size.  pred(lo) must be
    false.  The bracket doubles from 2*lo + 2 until it captures the flip,
    then bisects: a deterministic sequence of evaluations for a fixed pred.
    An n where pred raises ValueError (past the supported range, which ends
    at some n) counts as past the flip.  A flip past the range, or one not
    captured in 500 doublings, raises ValueError.
    """
    if pred(lo):
        raise AssertionError("search bracket does not start below the flip")

    def past_flip(n: int) -> bool:
        try:
            return pred(n)
        except ValueError:
            return True

    hi = 2 * lo + 2
    doublings = 0
    while not past_flip(hi):
        lo, hi = hi, hi * 2
        doublings += 1
        if doublings > 500:
            raise ValueError("size past the supported range: no crossing found")
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if past_flip(mid):
            hi = mid
        else:
            lo = mid
    pred(hi)  # raises ValueError when the flip itself is past the range
    return hi


@lru_cache(maxsize=None)
def level_threshold(k: int) -> int:
    """First n at which E[Y_k] reaches ln k."""
    if k < _MIN_LEVEL:
        raise ValueError(f"level threshold needs k >= {_MIN_LEVEL}")
    target = LogValue.from_number(math.log(k))
    return _min_n(lambda n: expected_defect_sets(n, k, 0) >= target, k - 1)


def level(n: int) -> int:
    """The k with level_threshold(k) <= n < level_threshold(k+1)."""
    if n < level_threshold(_MIN_LEVEL):
        raise ValueError(f"n below the smallest supported threshold, n={n}")
    return _min_n(lambda k: level_threshold(k + 1) > n, _MIN_LEVEL - 1)


@dataclass(frozen=True)
class ThresholdTable:
    """Appearance thresholds for one level k and part count r.

    For breakpoint j_i with profile (mu_i, xi_i), raw_lower[i] is the first
    n with E[Z_{k+1, mu_i}] >= eps(k+1) and raw_upper[i] the first with
    E[Z_{k+1, mu_i}] >= 1/eps(k+1).  lower/upper are the same values
    clamped up to the level threshold, which is where the level's window
    starts; the clamp only matters at small k where low-defect sets are
    already abundant when the level opens.  The clamped chain satisfies

        a_k <= lower[0] <= upper[0] <= ... <= upper[-1] = a_{k+1}

    with a_k = level_threshold(k), and upper[-1] equals a_{k+1} exactly
    because it is literally the same search.
    """

    k: int
    r: int
    slack: float
    level_start: int
    level_end: int
    breakpoints: tuple[int, ...]
    mus: tuple[int, ...]
    xis: tuple[int, ...]
    raw_lower: tuple[int, ...]
    raw_upper: tuple[int, ...]
    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "r": self.r,
            "slack": self.slack,
            "level_start": self.level_start,
            "level_end": self.level_end,
            "breakpoints": list(self.breakpoints),
            "mu": list(self.mus),
            "xi": list(self.xis),
            "raw_lower": list(self.raw_lower),
            "raw_upper": list(self.raw_upper),
            "lower": list(self.lower),
            "upper": list(self.upper),
        }


@lru_cache(maxsize=None)
def threshold_table(k: int, r: int) -> ThresholdTable:
    """Build and validate the threshold chain for level k, part count r."""
    if k < _TABLE_MIN_LEVEL:
        raise ValueError(f"threshold tables need k >= {_TABLE_MIN_LEVEL}")
    if r < 1:
        raise ValueError("r must be positive")
    if r - 1 > (k + 1) * k // 2:
        # defect count r-1 exceeds the pair count one level up: the first
        # breakpoint's threshold does not exist
        raise ValueError(f"part count r={r} too large for level k={k}")
    a_k = level_threshold(k)
    a_next = level_threshold(k + 1)
    slack = threshold_slack(k + 1)
    lo_t = LogValue.from_number(slack)
    hi_t = LogValue.from_number(math.log(k + 1))
    prof = breakpoint_profile(r)

    def first_n(mu: int, target: LogValue) -> int:
        return _min_n(lambda n: expected_defect_sets(n, k + 1, mu) >= target, k)

    raw_lower = tuple(first_n(mu, lo_t) for mu in prof.mus)
    raw_upper = tuple(first_n(mu, hi_t) for mu in prof.mus)
    lower = tuple(max(a_k, b) for b in raw_lower)
    upper = tuple(max(a_k, c) for c in raw_upper)

    chain = [a_k]
    for b, c in zip(lower, upper):
        chain.extend((b, c))
    if any(x > y for x, y in zip(chain, chain[1:])):
        raise ThresholdChainError(
            f"threshold chain not monotone at k={k}, r={r}: {chain}"
        )
    if upper[-1] != a_next:
        raise ThresholdChainError(
            f"chain does not close on the next level threshold at k={k}, r={r}: "
            f"{upper[-1]} != {a_next}"
        )
    return ThresholdTable(
        k=k,
        r=r,
        slack=slack,
        level_start=a_k,
        level_end=a_next,
        breakpoints=prof.breakpoints,
        mus=prof.mus,
        xis=prof.xis,
        raw_lower=raw_lower,
        raw_upper=raw_upper,
        lower=lower,
        upper=upper,
    )


def predicted_interval(n: int, r: int) -> tuple[int, int]:
    """Predicted location range (inclusive) of the maximum size.

    Returns (lo, hi) such that the maximum number of vertices in an induced
    subgraph with no clique on r+1 vertices is predicted to lie in
    [lo, hi].  Sizes are of the form k*r + j; which j are live at n is read
    from the threshold table of k = level(n).
    """
    k = level(n)
    table = threshold_table(k, r)
    j_vals = (0,) + table.breakpoints
    i_hi = sum(1 for b in table.lower if b <= n)
    i_lo = sum(1 for c in table.upper if c <= n)
    return k * r + j_vals[i_lo], k * r + j_vals[i_hi]


@dataclass(frozen=True)
class PredictedPmf:
    """Poisson-tail prediction for the law of the maximum size at n.

    For each j in 0..r the predicted P(alpha >= k r + j) is the Poisson
    tail P(Pois(lambda_j) >= xi_j) with lambda_j = E[Z_{k+1, mu_j}](n);
    j = 0 has tail 1 by convention.  pmf values are consecutive tail
    differences.  Entries whose lambda exceeds n^(1/4) sit outside the
    regime where the tail heuristic is meaningful and are flagged.
    """

    n: int
    r: int
    k: int
    alphas: tuple[int, ...]
    js: tuple[int, ...]
    mus: tuple[int, ...]
    xis: tuple[int, ...]
    lambdas: tuple[float, ...]
    tails: tuple[float, ...]
    pmf: dict
    mass_defect: float
    flagged: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "alphas": list(self.alphas),
            "j": list(self.js),
            "mu": list(self.mus),
            "xi": list(self.xis),
            "lambda": list(self.lambdas),
            "tail": list(self.tails),
            "pmf": {str(a): p for a, p in self.pmf.items()},
            "mass_defect": self.mass_defect,
            "flagged_j": list(self.flagged),
        }


def predicted_pmf(n: int, r: int) -> PredictedPmf:
    """Tail-difference prediction for the distribution of the maximum size."""
    k = level(n)
    if r < 1:
        raise ValueError("r must be positive")
    js = tuple(range(r + 1))
    mus = []
    xis = []
    lambdas = []
    tails = []
    for j in js:
        if j == 0:
            mus.append(k + 1)  # sentinel: j = 0 needs no defect event
            xis.append(0)
            lambdas.append(float("inf"))
            tails.append(1.0)
            continue
        mu, xi = mu_xi(r, j)
        lam = expected_defect_sets(n, k + 1, mu).to_float()
        mus.append(mu)
        xis.append(xi)
        lambdas.append(lam)
        tails.append(poisson_tail(lam, xi))
    # tail just past the level: first breakpoint event one level higher
    mu1, xi1 = mu_xi(r, 1)
    lam_next = expected_defect_sets(n, k + 2, mu1).to_float()
    tail_end = poisson_tail(lam_next, xi1)

    pmf = {}
    seq = list(tails) + [tail_end]
    for j in js:
        pmf[k * r + j] = seq[j] - seq[j + 1]
    flagged = tuple(
        j for j in js[1:] if lambdas[j] > float(n) ** 0.25
    )
    return PredictedPmf(
        n=n,
        r=r,
        k=k,
        alphas=tuple(k * r + j for j in js),
        js=js,
        mus=tuple(mus),
        xis=tuple(xis),
        lambdas=tuple(lambdas),
        tails=tuple(tails),
        pmf=pmf,
        mass_defect=1.0 - sum(pmf.values()),
        flagged=flagged,
    )

"""Color-critical patterns and the multipartite concentration window.

For forbidden patterns F with an edge whose removal drops the chromatic
number from r+1 to r, the maximum F-free induced subgraph of a dense
random graph concentrates on a short window whose location is governed by
a count surrogate for r-partite graphs:

    count(m)    ~ 2^((1 - 1/r) m^2 / 2 + m log2 r)
    expected(m) =  C(n,m) * count(m) * 2^(-C(m,2))

The window endpoint M is the first m where expected(m) dips below 1, with
a one-step correction when the dip is shallower than n^(-1/(2r)).

chromatic_number / is_color_critical are exact solvers for the small
patterns used as inputs here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .logmath import LN2, log_binomial
from .graphs import Graph
from .thresholds import _min_n


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by iterative-deepening backtracking.

    Intended for pattern-sized graphs (n up to roughly 16).
    """
    n = g.n
    if n == 0:
        return 0
    if g.edge_count() == 0:
        return 1
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))

    def feasible(t: int) -> bool:
        colors = [-1] * n

        def assign(pos: int, used: int) -> bool:
            if pos == n:
                return True
            v = order[pos]
            forbidden = 0
            m = g.rows[v]
            while m:
                b = m & -m
                m ^= b
                c = colors[b.bit_length() - 1]
                if c >= 0:
                    forbidden |= 1 << c
            # at most one previously unused color, breaking color symmetry
            limit = min(t, used + 1)
            for c in range(limit):
                if (forbidden >> c) & 1:
                    continue
                colors[v] = c
                if assign(pos + 1, max(used, c + 1)):
                    return True
                colors[v] = -1
            return False

        return assign(0, 0)

    t = 2
    while not feasible(t):
        t += 1
    return t


def is_color_critical(f: Graph, r: int) -> bool:
    """True iff chi(f) = r + 1 and deleting some edge makes chi = r."""
    if r < 1:
        raise ValueError("r must be positive")
    if chromatic_number(f) != r + 1:
        return False
    edges = list(f.edges())
    for drop in range(len(edges)):
        remaining = edges[:drop] + edges[drop + 1:]
        if chromatic_number(Graph.from_edges(f.n, remaining)) == r:
            return True
    return False


def log_partite_count(m: int, r: int) -> float:
    """Natural log of the r-partite count surrogate on m labeled vertices."""
    if m < 0 or r < 1:
        raise ValueError("need m >= 0 and r >= 1")
    return ((1.0 - 1.0 / r) * m * m / 2.0 + m * math.log2(r)) * LN2


def log_expected_partite(n: int, m: int, r: int) -> float:
    """Natural log of C(n,m) * count(m) * 2^(-C(m,2))."""
    if m > n:
        return float("-inf")
    return (
        log_binomial(n, m).ln
        + log_partite_count(m, r)
        - (m * (m - 1) // 2) * LN2
    )


def first_vanishing_size(n: int, r: int) -> int:
    """Smallest m >= 1 with expected(m) at most 1.

    f(m) = ln expected(m) has strictly decreasing steps and f(0) = 0 < f(1),
    so once f(m) <= 0 for some m >= 1 it stays so, and thresholds._min_n applies.
    """
    if n < 2 or r < 2:
        raise ValueError("need n >= 2 and r >= 2")
    return _min_n(lambda m: log_expected_partite(n, m, r) <= 0.0, 1)


@dataclass(frozen=True)
class CriticalWindow:
    """Predicted window [lo, hi] for the maximum F-free subgraph size.

    M is the corrected vanishing size; the window has width r + 1.
    log_expected_at_m0 and correction_threshold record the dip test that
    decides whether the correction step fires.
    """

    n: int
    r: int
    m0: int
    M: int
    lo: int
    hi: int
    log_expected_at_m0: float
    correction_threshold: float

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "m0": self.m0,
            "M": self.M,
            "lo": self.lo,
            "hi": self.hi,
            "log_expected_at_m0": self.log_expected_at_m0,
            "correction_threshold": self.correction_threshold,
        }


def concentration_window(n: int, r: int) -> CriticalWindow:
    """Locate the width-(r+1) window ending at M - 1."""
    m0 = first_vanishing_size(n, r)
    dip = log_expected_partite(n, m0, r)
    thresh = -math.log(n) / (2.0 * r)
    M = m0 if dip <= thresh else m0 + 1
    return CriticalWindow(
        n=n,
        r=r,
        m0=m0,
        M=M,
        lo=M - 1 - r,
        hi=M - 1,
        log_expected_at_m0=dip,
        correction_threshold=thresh,
    )


def partite_exponent_residual(m: int, k: int, r: int) -> int:
    """Exact integer residual of the surrogate-exponent identity.

    2r * [ (1 - 1/r) m^2 / 2  -  C(m,2)  +  r * C(k,2) ] as an integer:
    (r-1) m^2 - r m (m-1) + r^2 k (k-1).  At m = r*k this vanishes, which
    says the surrogate exponent agrees exactly with the edge count of the
    balanced complete r-partite graph with parts of size k.
    """
    if m < 0 or k < 0 or r < 1:
        raise ValueError("arguments must be non-negative with r >= 1")
    return (r - 1) * m * m - r * m * (m - 1) + r * r * k * (k - 1)

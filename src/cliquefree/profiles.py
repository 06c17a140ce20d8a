"""Integer profiles of balanced part structures.

For r parts and a merge count j (1 <= j <= r), splitting r into j groups as
evenly as possible gives group sizes mu_j + 1 and mu_j + 2 where

    mu_j = floor(r / j) - 1        (defect count of the smaller groups)
    xi_j = j * (mu_j + 2) - r      (number of smaller groups)

so that xi_j groups of size mu_j + 1 and (j - xi_j) groups of size mu_j + 2
partition r, with 1 <= xi_j <= j.  The breakpoint set records where mu_j
changes as j grows; everything downstream (threshold tables, interval
predictions) is driven by these breakpoints.

Throughout, r is the part count: the forbidden clique is K_{r+1}, so the
package's r is the paper's alpha_{r+1} (the paper indexes by clique order).
Under this convention the interval lengths run from 1 to floor((r+1)/2) + 1,
the abstract's floor(r'/2) + 1 with r' = r + 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np


def mu_xi(r: int, j: int) -> tuple[int, int]:
    """Profile pair (mu_j, xi_j) for j groups out of r."""
    if r < 1 or not 1 <= j <= r:
        raise ValueError(f"need 1 <= j <= r, got j={j}, r={r}")
    mu = r // j - 1
    xi = j * (mu + 2) - r
    return mu, xi


def mu_xi_table(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (mu_j, xi_j) for j = 1..r; index 0 holds j = 1."""
    if r < 1:
        raise ValueError("r must be positive")
    j = np.arange(1, r + 1, dtype=np.int64)
    # float r / j truncates to r // j exactly: for r < 2^52 (any array that
    # fits in memory) its relative gap to the next integer is at least
    # 1 / (r + j) > 2^-53, so rounding never reaches it
    mu = (r / j).astype(np.int64) - 1
    xi = j * (mu + 2) - r
    return mu, xi


@dataclass(frozen=True)
class BreakpointProfile:
    """Where the balanced-split profile of r changes as j increases.

    breakpoints lists every j at which mu_j differs from mu_{j+1}
    (with mu_{r+1} taken to be -1, so j = r is always included).
    mus and xis are the profile pairs at those j.
    """

    r: int
    breakpoints: tuple[int, ...]
    mus: tuple[int, ...]
    xis: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.breakpoints)

    def as_dict(self) -> dict:
        return {
            "r": self.r,
            "breakpoints": list(self.breakpoints),
            "mu": list(self.mus),
            "xi": list(self.xis),
            "count": self.count,
        }


def breakpoint_profile(r: int) -> BreakpointProfile:
    """Breakpoints of r, i.e. the j where floor(r / j) strictly drops."""
    if r < 1:
        raise ValueError("r must be positive")
    mu, xi = mu_xi_table(r)
    # mu_{j+1} for j = 1..r, with the j = r sentinel value -1
    mu_next = np.concatenate([mu[1:], [-1]])
    idx = np.nonzero(mu != mu_next)[0]
    js = tuple(int(i) + 1 for i in idx)
    return BreakpointProfile(
        r=r,
        breakpoints=js,
        mus=tuple(int(mu[i]) for i in idx),
        xis=tuple(int(xi[i]) for i in idx),
    )


def interval_length_multiset(r: int) -> Counter:
    """Multiset of predicted concentration-interval lengths across one level.

    As n sweeps a full level, the predicted interval alternates between a
    single point and a run from one breakpoint to the next: the lengths are
    one 1 per breakpoint phase plus (j_i - j_{i-1} + 1) per run, j_0 = 0.

    r is the part count (forbidden clique K_{r+1}, the paper's alpha_{r+1}),
    so the lengths run from 1 to floor((r+1)/2) + 1.
    """
    prof = breakpoint_profile(r)
    lengths = Counter()
    prev = 0
    for j in prof.breakpoints:
        lengths[1] += 1
        lengths[j - prev + 1] += 1
        prev = j
    return lengths

"""Breakpoint profiles of the divisor staircase.

For a part count r, the per-part defect budget mu_j = floor(r/j) - 1 only
drops at the values j = floor(r/d), so those values partition 1..r into
phases.  Each phase needs xi_j parts carrying mu_j defect edges and the
accounting xi_j*(mu_j+1) + (j-xi_j)*(mu_j+2) = r returns the part count
exactly.  This script prints the staircase for two small part counts and
summarizes the interval-length multiset for a large one.
"""

from collections import Counter

from cliquefree.profiles import (
    breakpoint_profile,
    interval_length_multiset,
    mu_xi,
)

for r in (11, 23):
    prof = breakpoint_profile(r)
    print(f"part count r = {r}")
    print(f"  breakpoints: {prof.breakpoints}")
    print("  j   mu  xi   defect accounting        group split")
    for j in prof.breakpoints:
        mu, xi = mu_xi(r, j)
        total = xi * (mu + 1) + (j - xi) * (mu + 2)
        print(f"  {j:3d} {mu:3d} {xi:3d}   {xi}*{mu + 1} + {j - xi}*{mu + 2}"
              f" = {total} = r        ({xi}, {j - xi}, {r - j})")
    print()

# every j in 1..r, not just the breakpoints, satisfies the accounting
r = 23
assert all(
    (lambda m, x: x * (m + 1) + (j - x) * (m + 2) == r)(*mu_xi(r, j))
    for j in range(1, r + 1)
)
print(f"accounting identity holds for every j = 1..{r}")
print()

lengths: Counter = interval_length_multiset(1001)
print("interval lengths for part count r = 1001 (the paper's alpha_1002)")
print(f"  intervals: {sum(lengths.values())}")
print(f"  distinct lengths: {sorted(lengths)}")
print(f"  most common: {lengths.most_common(3)}")
print(f"  largest: {max(lengths)} (last gap spans j = 500 to j = 1001)")

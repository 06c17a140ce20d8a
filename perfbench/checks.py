"""Correctness checks that do not trust the code under test.

Outputs are fingerprinted in two parts: every non-float value (histograms,
counts, sizes, witnesses) goes into a digest that must match exactly, and
every float is compared with a relative tolerance of 1e-9, so that a change
of numerical library (for example replacing scipy's Poisson law with math)
is not flagged while a changed count is.  Search-effort fields are left out,
because a faster search legitimately visits fewer nodes.

Clique tests here use itertools over an adjacency-row list, sharing no code
with cliquefree's own bitset kernels.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import combinations

FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12

# search effort: version-specific, never pinned
UNPINNED_KEYS = frozenset({"nodes"})


def _split(obj, floats: list):
    if isinstance(obj, float):
        floats.append(obj)
        return "<float>"
    if isinstance(obj, dict):
        return {k: _split(v, floats) for k, v in obj.items() if k not in UNPINNED_KEYS}
    if isinstance(obj, (list, tuple)):
        return [_split(v, floats) for v in obj]
    return obj


def fingerprint(obj) -> list:
    """[digest of the non-float skeleton, list of floats in document order]."""
    floats: list = []
    skeleton = _split(obj, floats)
    text = json.dumps(skeleton, sort_keys=True, separators=(",", ":"))
    return [hashlib.sha256(text.encode()).hexdigest()[:20], floats]


def fingerprint_mismatch(got: list, pinned: list) -> str | None:
    """None when got matches the pinned fingerprint, else the reason."""
    if got[0] != pinned[0]:
        return f"integer digest {got[0]} != pinned {pinned[0]}"
    if len(got[1]) != len(pinned[1]):
        return f"{len(got[1])} floats != pinned {len(pinned[1])}"
    for a, b in zip(got[1], pinned[1]):
        if not math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL):
            return f"float {a!r} != pinned {b!r}"
    return None


def vertices(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def has_clique(rows, verts, q: int) -> bool:
    """Some q of the vertices are pairwise adjacent (rows[u] bit v = edge uv)."""
    return any(
        all((rows[a] >> b) & 1 for a, b in combinations(combo, 2))
        for combo in combinations(verts, q)
    )


def witness_problem(rows, n: int, q: int, size: int, mask: int) -> str | None:
    """None when mask is a K_q-free vertex set of the claimed size."""
    verts = vertices(mask)
    if len(verts) != size:
        return f"witness has {len(verts)} vertices, claimed size {size}"
    if verts and verts[-1] >= n:
        return f"witness vertex {verts[-1]} outside 0..{n - 1}"
    if has_clique(rows, verts, q):
        return f"witness of size {size} contains a {q}-clique"
    return None


def structure_problem(rows, n: int, r: int, j: int, k: int, parts, covers) -> str | None:
    """None when parts and covers form a disjoint K_{r+1}-free union of size k*r+j."""
    if len(parts) != j or len(covers) != r - j:
        return f"structure has {len(parts)} parts and {len(covers)} covers"
    union = 0
    for m, want in [(p, k + 1) for p in parts] + [(c, k) for c in covers]:
        if m.bit_count() != want or m & union:
            return "structure pieces overlap or have the wrong size"
        union |= m
    for c in covers:
        if any((rows[a] >> b) & 1 for a, b in combinations(vertices(c), 2)):
            return "structure cover is not independent"
    return witness_problem(rows, n, r + 1, k * r + j, union)

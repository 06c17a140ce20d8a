"""Spans around cliquefree's public functions, installed from outside.

Callers look functions up in their own module's globals (`from .census
import census` binds a name in solver, experiments and cli), so a function
is wrapped at every module global that holds it, not only where it is
defined.  Spans are kept in memory as lists [name, start, end, parent index,
replicate id, count]; self time is a span's duration minus its children's.
Hot internals (has_clique, the solver's dfs, the coin stream) are not
wrapped: their time is the self time of the kernel that calls them.
"""

from __future__ import annotations

import sys
import time

# (module, attribute) of every traced function; the span is named after both
TRACED = [
    ("graphs", "sample_graph"),
    ("graphs", "ExposureStream.step"),
    ("graphs", "graph6_decode"),
    ("graphs", "graph6_encode"),
    ("census", "census"),
    ("census", "cover_family"),
    ("solver", "max_clique_free"),
    ("solver", "build_structure"),
    ("solver", "verify_structure"),
    ("enumeration", "partite_census"),
    ("logmath", "stein_chen_bound"),
    ("logmath", "expected_defect_sets"),
    ("logmath", "poisson_pmf"),
    ("logmath", "poisson_tail"),
    ("thresholds", "threshold_table"),
    ("thresholds", "predicted_pmf"),
    ("thresholds", "predicted_interval"),
    ("critical", "concentration_window"),
    ("critical", "chromatic_number"),
    ("profiles", "breakpoint_profile"),
    ("experiments", "poisson_check"),
    ("experiments", "alpha_distribution"),
    ("experiments", "hitting_times"),
    ("experiments", "witness_rate"),
    ("cli", "run"),
]

# what each kernel span counts, read from its return value
COUNTERS = {
    "census.census": lambda res: (res.nodes, res.total),
    "census.cover_family": lambda res: (len(res), 0),
    "solver.max_clique_free": lambda res: (res.nodes, 0),
    "solver.build_structure": lambda res: (int(res is not None), 0),
}

# the size a kernel ran at, so per-size timings can be compared with
# figures quoted at fixed sizes
SIZES = {
    "graphs.sample_graph": lambda a, kw: (a[0],),
    "census.census": lambda a, kw: (a[0].n, a[1], a[2]),
    "solver.max_clique_free": lambda a, kw: (a[0].n, a[1], kw.get("at_least")),
    "graphs.graph6_decode": lambda a, kw: (len(a[0]),),
    "graphs.graph6_encode": lambda a, kw: (a[0].n,),
}

REPLICATE = "experiments.replicate"


def _resolve(module: str, attr: str):
    owner = sys.modules[f"cliquefree.{module}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Patches:
    """Replaces functions at every lookup site and puts them back on remove()."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, original, wrapper, owner=None, name=None):
        sites = [(owner, name)] if owner is not None else [
            (mod, key)
            for mname, mod in list(sys.modules.items())
            if mname == "cliquefree" or mname.startswith("cliquefree.")
            for key, val in list(vars(mod).items())
            if val is original
        ]
        for obj, key in sites:
            self._saved.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapper)

    def remove(self):
        for obj, key, val in reversed(self._saved):
            setattr(obj, key, val)
        self._saved.clear()


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.sizes: dict[int, tuple] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        sizer = SIZES.get(name)
        is_rep = name == REPLICATE

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rep = idx if is_rep else (spans[parent][4] if parent >= 0 else -1)
            rec = [name, 0.0, 0.0, parent, rep, None]
            spans.append(rec)
            if sizer is not None:
                sizes[idx] = sizer(args, kwargs)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = counter(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, patches: Patches):
        for module, attr in TRACED:
            owner, name = _resolve(module, attr)
            original = getattr(owner, name)
            wrapper = self.wrap(f"{module}.{attr}", original)
            if "." in attr:  # a method: patch the class attribute
                patches.replace(original, wrapper, owner, name)
            else:
                patches.replace(original, wrapper)
        # replicate boundaries are the experiments module's _<kind>_rep functions
        exp = sys.modules["cliquefree.experiments"]
        for key, val in list(vars(exp).items()):
            if key.startswith("_") and key.endswith("_rep") and callable(val):
                patches.replace(val, self.wrap(REPLICATE, val), exp, key)

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "replicate": s[4],
             "count": s[5], "size": self.sizes.get(i)}
            for i, s in enumerate(self.spans)
        ]

"""Seeded Monte Carlo experiments with reproducible reports.

Every experiment is one call of the same runner, _experiment, with a
module-level replicate function _<kind>_rep and a summary of the rows:

* replicate t is _<kind>_rep(t, sub_seed(seed, t), *params), so reports
  are a pure function of (parameters, seed, reps) regardless of worker
  count; with workers, replicates map one per task in t order;
* per-replicate rows are plain dicts; summaries are computed from the full
  row list after the (optionally parallel) map;
* dump_json is the one JSON writer, here and in the CLI: sorted keys, and
  non-finite floats written as the strings "nan", "inf" and "-inf";
* JSON serialization excludes wall-clock timing by default, so rerunning
  the same command yields byte-identical output.

The experiments:

poisson_check      law of the exact-defect subset count vs its Poisson fit
alpha_distribution law of the maximum clique-free subgraph size
hitting_times      first n where the size target / defect-set supply appear
witness_rate       how often the certificate structure can actually be built
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

from .census import census
from .errors import NodeLimitError
from .graphs import ExposureStream, sample_graph
from .logmath import (
    expected_defect_sets,
    poisson_pmf,
    poisson_tail,
    stein_chen_bound,
)
from .profiles import mu_xi
from .rng import sub_seed
from .solver import build_structure, max_clique_free, verify_structure
from .thresholds import level, level_threshold, predicted_interval

SCHEMA_VERSION = 1


def _sanitize(obj):
    """Make an object strict-JSON safe (no NaN / infinity floats)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)  # "nan", "inf", "-inf"
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, non-finite floats as
    the strings "nan", "inf" and "-inf"."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


@dataclass
class ExperimentReport:
    name: str
    config: dict
    summary: dict
    replicates: list = field(default_factory=list)
    wall_clock_s: float | None = None

    def to_json(self, *, include_rows: bool = False, include_timing: bool = False) -> str:
        doc = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "config": self.config,
            "summary": self.summary,
        }
        if include_rows:
            doc["replicates"] = self.replicates
        if include_timing:
            doc["wall_clock_s"] = self.wall_clock_s
        return dump_json(doc)

    def rows_csv(self) -> str:
        if not self.replicates:
            return ""
        fields = sorted({k for row in self.replicates for k in row})
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=fields)
        w.writeheader()
        for row in self.replicates:
            w.writerow(row)
        return buf.getvalue()


def _experiment(
    name: str, replicate, params: dict, reps: int, seed: int, workers: int, summarise
) -> ExperimentReport:
    """Run replicate(t, sub_seed(seed, t), *params.values()) for t < reps and
    report summarise(rows), with config = params plus reps and seed.

    Parallel runs map one replicate per task in t order, in chunks of
    ceil(reps / workers); the replicate is sent by reference, so it must be
    a module-level function.
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    t0 = time.perf_counter()
    args = tuple(params.values())
    if workers <= 1 or reps < 2 * workers:
        rows = [replicate(t, sub_seed(seed, t), *args) for t in range(reps)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(
                replicate,
                range(reps),
                [sub_seed(seed, t) for t in range(reps)],
                *(repeat(a, reps) for a in args),
                chunksize=math.ceil(reps / workers),
            ))
    summary = summarise(rows)
    return ExperimentReport(
        name, {**params, "reps": reps, "seed": seed}, summary, rows,
        wall_clock_s=time.perf_counter() - t0,
    )


def _histogram(values) -> dict:
    """Value counts keyed by the value as a string, in ascending value order."""
    return {str(v): c for v, c in sorted(Counter(values).items())}


def tv_to_poisson(counts: dict, reps: int, lam: float) -> float:
    """Full-L1 distance between an empirical law and Poisson(lam)."""
    if reps <= 0:
        raise ValueError("reps must be positive")
    if lam < 0:
        raise ValueError("rate must be non-negative")
    top = max(counts) if counts else 0
    s = 0.0
    cum = 0.0
    for v in range(top + 1):
        p = poisson_pmf(lam, v)
        cum += p
        s += abs(counts.get(v, 0) / reps - p)
    return s + max(0.0, 1.0 - cum)


# -- poisson_check -------------------------------------------------------------


def _poisson_rep(t: int, child_seed: int, n: int, k: int, i: int) -> dict:
    g = sample_graph(n, child_seed)
    res = census(g, k, i)
    return {"rep": t, "seed": child_seed, "value": res.count(i), "nodes": res.nodes}


def poisson_check(
    n: int, k: int, i: int, reps: int, seed: int, *, workers: int = 1
) -> ExperimentReport:
    """Empirical law of the exact-i-defect k-set count vs Poisson."""

    def summarise(rows: list[dict]) -> dict:
        values = [r["value"] for r in rows]
        counts = Counter(values)
        mean = sum(values) / reps
        var = sum((v - mean) ** 2 for v in values) / reps
        lam = expected_defect_sets(n, k, i).to_float()
        bound = stein_chen_bound(n, k, i)
        return {
            "reps": reps,
            "histogram": _histogram(values),
            "mean": mean,
            "variance": var,
            "lambda_theory": lam,
            "clt_radius_3sigma": 3.0 * math.sqrt(var / reps),
            "tv_vs_theory": tv_to_poisson(counts, reps, lam),
            "tv_vs_mean": tv_to_poisson(counts, reps, mean),
            "stein_chen_log10": bound.ln / math.log(10.0) if bound.sign else None,
        }

    return _experiment(
        "poisson_check", _poisson_rep, {"n": n, "k": k, "i": i}, reps, seed, workers,
        summarise,
    )


# -- alpha_distribution --------------------------------------------------------


def _alpha_rep(t: int, child_seed: int, n: int, r: int) -> dict:
    g = sample_graph(n, child_seed)
    res = max_clique_free(g, r + 1)
    return {"rep": t, "seed": child_seed, "alpha": res.size, "nodes": res.nodes}


def alpha_distribution(
    n: int, r: int, reps: int, seed: int, *, workers: int = 1
) -> ExperimentReport:
    """Empirical law of the maximum (r+1)-clique-free subgraph size."""

    def summarise(rows: list[dict]) -> dict:
        values = [r_["alpha"] for r_ in rows]
        try:
            lo, hi = predicted_interval(n, r)
            coverage = sum(1 for v in values if lo <= v <= hi) / reps
            interval = [lo, hi]
        except ValueError:
            interval = None
            coverage = None
        return {
            "reps": reps,
            "histogram": _histogram(values),
            "mean": sum(values) / reps,
            "predicted_interval": interval,
            "interval_coverage": coverage,
            "level": level(n),
        }

    return _experiment(
        "alpha_distribution", _alpha_rep, {"n": n, "r": r}, reps, seed, workers, summarise
    )


# -- hitting_times -------------------------------------------------------------


def _hitting_rep(t: int, child_seed: int, r: int, j: int, n_max: int) -> dict:
    mu, xi = mu_xi(r, j)
    stream = ExposureStream(child_seed)
    t_alpha = None
    t_supply = None
    start = level_threshold(3)
    res = None
    for n in range(1, n_max + 1):
        g = stream.step()
        if n < start:
            continue
        k = level(n)
        target = k * r + j
        if t_alpha is None:
            res = max_clique_free(g, r + 1, grown_from=res)
            if res.size >= target:
                t_alpha = n
        if t_supply is None:
            c = census(g, k + 1, mu)
            if c.count(mu) >= xi:
                t_supply = n
        if t_alpha is not None and t_supply is not None:
            break
    return {
        "rep": t,
        "seed": child_seed,
        "t_alpha": t_alpha,
        "t_supply": t_supply,
    }


def hitting_times(
    r: int, j: int, n_max: int, reps: int, seed: int, *, workers: int = 1
) -> ExperimentReport:
    """First exposure step where the size target / defect supply appear.

    t_alpha: first n with maximum clique-free size at least level(n)*r + j.
    The maximum is solved once at the first step and then grown one vertex
    at a time (max_clique_free's grown_from): each step searches only the
    sets through the new vertex, and the maximum stays exact.
    t_supply: first n with at least xi_j subsets of size level(n)+1 carrying
    exactly mu_j defect edges.  Coincidence of the two is tallied; no
    ordering between them is asserted.
    """
    if not 1 <= j <= r:
        raise ValueError("need 1 <= j <= r")

    def summarise(rows: list[dict]) -> dict:
        both = [r_ for r_ in rows if r_["t_alpha"] is not None and r_["t_supply"] is not None]
        coincide = sum(1 for r_ in both if r_["t_alpha"] == r_["t_supply"])
        return {
            "reps": reps,
            "completed": len(both),
            "censored_alpha": sum(1 for r_ in rows if r_["t_alpha"] is None),
            "censored_supply": sum(1 for r_ in rows if r_["t_supply"] is None),
            "coincidence_rate": coincide / len(both) if both else None,
            "alpha_first": sum(1 for r_ in both if r_["t_alpha"] < r_["t_supply"]),
            "supply_first": sum(1 for r_ in both if r_["t_alpha"] > r_["t_supply"]),
        }

    return _experiment(
        "hitting_times", _hitting_rep, {"r": r, "j": j, "n_max": n_max}, reps, seed,
        workers, summarise,
    )


# -- witness_rate --------------------------------------------------------------


def _witness_rep(t: int, child_seed: int, n: int, r: int, j: int, k: int) -> dict:
    mu, xi = mu_xi(r, j)
    g = sample_graph(n, child_seed)
    c = census(g, k + 1, mu)
    supply = c.count(mu)
    row = {
        "rep": t,
        "seed": child_seed,
        "supply": supply,
        "supply_event": int(supply >= xi),
        "built": 0,
        "verified": 0,
        "alpha_reached": None,
    }
    try:
        s = build_structure(g, r, j, k)
    except NodeLimitError:
        row["built"] = -1  # search gave up; counted separately
        return row
    if s is None:
        return row
    row["built"] = 1
    row["verified"] = int(verify_structure(g, s))
    if n <= 30:
        row["alpha_reached"] = int(max_clique_free(g, r + 1).size >= s.size)
    return row


def witness_rate(
    n: int,
    r: int,
    j: int,
    reps: int,
    seed: int,
    *,
    k: int | None = None,
    workers: int = 1,
) -> ExperimentReport:
    """How often the defect-structure certificate exists and builds.

    Compares the supply event (enough exact-mu defect subsets one level up)
    against actual constructibility of the full structure with covers.
    """
    if not 1 <= j <= r:
        raise ValueError("need 1 <= j <= r")
    if k is None:
        k = level(n)

    def summarise(rows: list[dict]) -> dict:
        mu, xi = mu_xi(r, j)
        built = [r_ for r_ in rows if r_["built"] == 1]
        lam = expected_defect_sets(n, k + 1, mu).to_float()
        return {
            "reps": reps,
            "k": k,
            "mu": mu,
            "xi": xi,
            "supply_rate": sum(r_["supply_event"] for r_ in rows) / reps,
            "build_rate": len(built) / reps,
            "gave_up": sum(1 for r_ in rows if r_["built"] == -1),
            "verified_all": all(r_["verified"] == 1 for r_ in built) if built else None,
            "alpha_reached_all": (
                all(r_["alpha_reached"] == 1 for r_ in built if r_["alpha_reached"] is not None)
                if built else None
            ),
            "poisson_supply_prediction": poisson_tail(lam, xi),
        }

    return _experiment(
        "witness_rate", _witness_rep, {"n": n, "r": r, "j": j, "k": k}, reps, seed,
        workers, summarise,
    )

"""Tests for the seeded experiment harness and its reports."""

import hashlib
import json
import math

import pytest

import cliquefree
from cliquefree import experiments
from cliquefree.census import census
from cliquefree.experiments import (
    ExperimentReport,
    _hitting_rep,
    alpha_distribution,
    hitting_times,
    poisson_check,
    tv_to_poisson,
    witness_rate,
)
from cliquefree.graphs import ExposureStream, sample_graph
from cliquefree.logmath import poisson_pmf, stein_chen_bound
from cliquefree.rng import sub_seed
from cliquefree.profiles import mu_xi
from cliquefree.solver import build_structure, max_clique_free
from cliquefree.thresholds import level, level_threshold

from conftest import node_free_digest
from oracles import hitting_rep_resolving


# -- tv distance helper ----------------------------------------------------------


def test_tv_to_poisson_hand_case():
    # two observations of 0 and two of 1 against Poisson(0)
    tv = tv_to_poisson({0: 2, 1: 2}, 4, 0.0)
    assert tv == pytest.approx(abs(0.5 - 1.0) + abs(0.5 - 0.0))
    # against the empirical mean 0.5
    lam = 0.5
    expect = (
        abs(0.5 - poisson_pmf(lam, 0))
        + abs(0.5 - poisson_pmf(lam, 1))
        + (1.0 - poisson_pmf(lam, 0) - poisson_pmf(lam, 1))
    )
    assert tv_to_poisson({0: 2, 1: 2}, 4, lam) == pytest.approx(expect)
    assert tv_to_poisson({}, 5, 1.0) == pytest.approx(
        abs(0.0 - poisson_pmf(1.0, 0)) + (1.0 - poisson_pmf(1.0, 0))
    )
    with pytest.raises(ValueError):
        tv_to_poisson({0: 1}, 0, 1.0)
    with pytest.raises(ValueError):
        tv_to_poisson({0: 1}, 1, -0.5)


def test_tv_identical_distribution_is_small():
    # empirical law equal to the poisson pmf scaled to integers
    lam = 1.25
    reps = 10 ** 6
    counts = {v: round(poisson_pmf(lam, v) * reps) for v in range(20)}
    tv = tv_to_poisson(counts, reps, lam)
    assert tv < 1e-4


# -- poisson_check ----------------------------------------------------------------


def test_poisson_check_rows_match_direct_computation():
    rep = poisson_check(16, 5, 1, reps=6, seed=3)
    assert rep.name == "poisson_check"
    assert len(rep.replicates) == 6
    for t, row in enumerate(rep.replicates):
        child = sub_seed(3, t)
        assert row["seed"] == child
        g = sample_graph(16, child)
        assert row["value"] == census(g, 5, 1).count(1)
    hist = rep.summary["histogram"]
    assert sum(hist.values()) == 6
    mean = sum(r["value"] for r in rep.replicates) / 6
    assert rep.summary["mean"] == pytest.approx(mean)
    assert rep.summary["tv_vs_mean"] >= 0.0
    assert rep.summary["stein_chen_log10"] is not None
    assert rep.wall_clock_s is not None


def test_poisson_check_validation():
    with pytest.raises(ValueError):
        poisson_check(10, 3, 0, reps=0, seed=1)


# -- alpha_distribution -------------------------------------------------------------


def test_alpha_distribution_rows_and_coverage():
    rep = alpha_distribution(24, 2, reps=5, seed=11)
    assert rep.summary["level"] == level(24)
    for t, row in enumerate(rep.replicates):
        g = sample_graph(24, sub_seed(11, t))
        assert row["alpha"] == max_clique_free(g, 3).size
    lo, hi = rep.summary["predicted_interval"]
    values = [r["alpha"] for r in rep.replicates]
    want_cov = sum(1 for v in values if lo <= v <= hi) / 5
    assert rep.summary["interval_coverage"] == pytest.approx(want_cov)


def test_alpha_distribution_below_table_range():
    # n in the level-3 window has no threshold table; interval is omitted
    rep = alpha_distribution(7, 2, reps=3, seed=2)
    assert rep.summary["predicted_interval"] is None
    assert rep.summary["interval_coverage"] is None


def test_alpha_distribution_with_broken_threshold_chain():
    # (n, r) = (20, 15) has a non-monotone threshold chain; interval is omitted
    rep = alpha_distribution(20, 15, 2, 0)
    assert rep.summary["predicted_interval"] is None
    assert rep.summary["interval_coverage"] is None


# -- hitting_times ------------------------------------------------------------------


def test_hitting_times_rows_match_exposure_replay():
    rep = hitting_times(2, 1, n_max=24, reps=4, seed=5)
    row = rep.replicates[2]
    child = sub_seed(5, 2)
    assert row["seed"] == child

    # replay the exposure stream by hand for this replicate
    stream = ExposureStream(child)
    t_alpha = None
    for n in range(1, 25):
        g = stream.step()
        if n < 5:
            continue
        k = level(n)
        if max_clique_free(g, 3).size >= k * 2 + 1:
            t_alpha = n
            break
    assert row["t_alpha"] == t_alpha

    s = rep.summary
    assert s["completed"] + 0 <= 4
    if s["completed"]:
        assert s["coincidence_rate"] is not None
        assert s["alpha_first"] + s["supply_first"] <= s["completed"]


@pytest.mark.parametrize("r,j,n_max,reps", [
    (2, 1, 20, 24), (2, 2, 24, 12), (3, 1, 22, 16), (3, 3, 22, 16),
])
def test_hitting_rows_match_resolving_every_step(r, j, n_max, reps):
    rows = [_hitting_rep(t, sub_seed(19, t), r, j, n_max) for t in range(reps)]
    want = [hitting_rep_resolving(cliquefree, t, sub_seed(19, t), r, j, n_max)
            for t in range(reps)]
    assert rows == want
    # some replicate is still searching when the target jumps with level(n)
    jumps = [n for n in range(level_threshold(3) + 1, n_max + 1) if level(n) > level(n - 1)]
    assert jumps
    for n in jumps:
        assert any(row["t_alpha"] is None or row["t_alpha"] >= n for row in rows), n


def test_hitting_times_validation():
    with pytest.raises(ValueError):
        hitting_times(2, 3, n_max=10, reps=1, seed=0)
    with pytest.raises(ValueError):
        hitting_times(2, 1, n_max=10, reps=0, seed=0)


# -- witness_rate ---------------------------------------------------------------------


def test_witness_rate_small_point():
    rep = witness_rate(18, 2, 1, reps=8, seed=7, k=4)
    s = rep.summary
    assert s["k"] == 4 and s["mu"] == 1 and s["xi"] == 1
    assert 0.0 <= s["supply_rate"] <= 1.0
    assert 0.0 <= s["build_rate"] <= s["supply_rate"]
    if s["build_rate"] > 0:
        assert s["verified_all"] is True
        assert s["alpha_reached_all"] is True  # n <= 30: exact check ran
    assert 0.0 <= s["poisson_supply_prediction"] <= 1.0
    assert rep.config["k"] == 4


def test_witness_rate_defaults_to_level():
    rep = witness_rate(22, 2, 1, reps=2, seed=1)
    assert rep.summary["k"] == level(22) == 6


@pytest.mark.parametrize("n,r,j", [(18, 2, 1), (21, 2, 2), (24, 3, 2), (20, 5, 4)])
def test_witness_rep_builds_as_often_as_build_structure(n, r, j):
    # a replicate with fewer than xi exact-mu parts skips build_structure,
    # which finds no structure there; (21,2,2) builds at a supply of exactly
    # xi, and (24,3,2) and (20,5,4) also need parts with mu + 1 defects
    k = level(n)
    mu, xi = mu_xi(r, j)
    short = 0
    for t in range(24):
        row = experiments._witness_rep(t, sub_seed(5, t), n, r, j, k)
        built = build_structure(sample_graph(n, sub_seed(5, t)), r, j, k) is not None
        assert row["built"] == built
        short += row["supply"] < xi
    assert short


def test_witness_rate_validation():
    with pytest.raises(ValueError):
        witness_rate(18, 2, 0, reps=1, seed=0)


# -- determinism and serialization ----------------------------------------------------


def test_reports_are_deterministic_and_parallel_invariant():
    a = poisson_check(14, 4, 1, reps=8, seed=9)
    b = poisson_check(14, 4, 1, reps=8, seed=9)
    c = poisson_check(14, 4, 1, reps=8, seed=9, workers=2)
    assert a.to_json() == b.to_json() == c.to_json()
    assert a.to_json(include_rows=True) == c.to_json(include_rows=True)
    d = poisson_check(14, 4, 1, reps=8, seed=10)
    assert d.to_json() != a.to_json()


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_are_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        poisson_check(14, 4, 1, reps=8, seed=9, workers=workers)


class _PoolSpy:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize("cpus,started", [(3, [3]), (1, []), (None, [])])
def test_pool_never_outnumbers_the_cpus(monkeypatch, cpus, started):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _PoolSpy)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_PoolSpy, "started", [])
    got = poisson_check(14, 4, 1, reps=8, seed=9, workers=64)
    assert _PoolSpy.started == started
    want = poisson_check(14, 4, 1, reps=8, seed=9)
    assert got.to_json(include_rows=True) == want.to_json(include_rows=True)


def test_poisson_check_json_holds_with_cold_and_warm_stein_chen_cache():
    stein_chen_bound.cache_clear()
    cold = poisson_check(14, 4, 1, reps=6, seed=3).to_json(include_rows=True)
    assert stein_chen_bound.cache_info().currsize == 1
    warm = poisson_check(14, 4, 1, reps=6, seed=3).to_json(include_rows=True)
    assert stein_chen_bound.cache_info().hits >= 1
    assert cold == warm


# sha256 of to_json(include_rows=True), recorded before the four experiments
# shared one replicate runner and one JSON writer; the poisson digest was
# re-recorded when the census kernel redefined its rows' "nodes" (with every
# row's "nodes" removed, the JSON is byte-identical to the earlier kernel's),
# again when counting mode began to count the last unit of budget by core,
# again when counting mode stopped relabelling vertices by degree, and
# again when the last unit became one walk.
# The alpha digest was re-recorded when the solver took the clique-cover bound,
# and again when each class's cap took the cliques of its common neighbourhood.
# The second digest is node_free_digest of the same JSON: a kernel change may
# re-record the first for its "nodes" values, never the second.
REPORT_GOLDEN = [
    (lambda w: poisson_check(14, 4, 1, reps=6, seed=3, workers=w),
     "4f752a2943b095e3c22e672ce1353e1504df097a67cc4e3f9a1772f92f5097b3",
     "5089c266ebd9ab37bc9399441b83723cd5e4e87cd1992d31cfa1e6c63a8e9bc7"),
    (lambda w: alpha_distribution(16, 2, reps=4, seed=5, workers=w),
     "033ec9179d3b4c360e268dfc705a4635359ace65cea90dfc9ab395fa6bbbd8d6",
     "2d9ac5287970added6e57868d3da5d805527318aa0b6e83ddeb2de06c7ce18b6"),
    (lambda w: hitting_times(2, 1, n_max=20, reps=4, seed=5, workers=w),
     "1cbbb1f02b902904392ba13f961df7d9b08501067153533326da10c0fefc34c6",
     "577a79cc5bde50d6a13eefb286ac76f4d79f74c5ff3f98a3cddad35fc13142ed"),
    (lambda w: witness_rate(18, 2, 1, reps=6, seed=7, k=4, workers=w),
     "5ea20338abbdf7a2d7b9962b82c36e0a1cd8c498912e4de230e0ca4360a7c9db",
     "1ed34b74060a0a7a5f144a9bcea4f2893586ea17412401765b427a94c98238d2"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "make,digest,node_free",
    REPORT_GOLDEN,
    ids=["poisson", "alpha", "hitting", "witness"],
)
def test_report_json_golden(make, digest, node_free, workers):
    text = make(workers).to_json(include_rows=True)
    assert node_free_digest(text) == node_free
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_non_finite_summary_floats_serialise_as_strings():
    rep = ExperimentReport(
        "x", {}, {"lam": math.inf, "neg": -math.inf, "bad": math.nan, "ok": [1.5]}
    )
    doc = json.loads(rep.to_json())
    assert doc["summary"] == {"lam": "inf", "neg": "-inf", "bad": "nan", "ok": [1.5]}


def test_json_shape_and_timing_flag():
    rep = alpha_distribution(16, 2, reps=3, seed=4)
    doc = json.loads(rep.to_json())
    assert set(doc) == {"schema", "name", "config", "summary"}
    assert doc["schema"] == 1
    doc_rows = json.loads(rep.to_json(include_rows=True))
    assert len(doc_rows["replicates"]) == 3
    doc_t = json.loads(rep.to_json(include_timing=True))
    assert isinstance(doc_t["wall_clock_s"], float)
    # default output embeds no timing, so reruns are byte-identical
    assert "wall_clock_s" not in doc


def test_rows_csv_shape():
    rep = witness_rate(16, 2, 1, reps=3, seed=2, k=4)
    text = rep.rows_csv()
    lines = text.strip().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header == sorted(header)
    assert "supply" in header and "built" in header
    assert ExperimentReport("x", {}, {}).rows_csv() == ""

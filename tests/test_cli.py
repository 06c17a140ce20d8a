"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cliquefree
from cliquefree.census import census
from cliquefree.cli import run
from cliquefree.experiments import dump_json
from cliquefree.graphs import Graph, graph6_encode, sample_graph
from cliquefree.profiles import mu_xi
from cliquefree.solver import max_clique_free
from cliquefree.thresholds import level, predicted_interval

from conftest import node_free_digest
from oracles import edge_list_text


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_profile(capsys):
    assert run(["profile", "--r", "11"]) == 0
    doc = _json_out(capsys)
    assert doc["breakpoints"] == [1, 2, 3, 5, 11]
    assert doc["mu"] == [10, 4, 2, 1, 0]
    assert doc["xi"] == [1, 1, 1, 4, 11]
    assert doc["interval_lengths"] == [1, 2, 3, 7]
    assert doc["interval_length_counts"] == {"1": 5, "2": 3, "3": 1, "7": 1}


def test_thresholds(capsys):
    assert run(["thresholds", "--k", "10", "--r", "2"]) == 0
    doc = _json_out(capsys)
    assert doc["k"] == 10 and doc["r"] == 2
    assert doc["level_start"] == 116
    assert doc["lower"][0] == 116
    assert doc["upper"][-1] == doc["level_end"]


def test_intervals_csv(capsys):
    assert run(["intervals", "--r", "2", "--n-from", "116", "--n-to", "118"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,level,lo,hi"
    assert len(lines) == 4
    lo, hi = predicted_interval(116, 2)
    assert lines[1] == f"116,{level(116)},{lo},{hi}"


def test_intervals_bad_range(capsys):
    assert run(["intervals", "--r", "2", "--n-from", "10", "--n-to", "5"]) == 2
    err = capsys.readouterr().err
    assert "n-from" in err or "n_from" in err or "exceed" in err


def test_predict(capsys):
    assert run(["predict", "--n", "40", "--r", "2"]) == 0
    doc = _json_out(capsys)
    assert doc["alphas"] == [14, 15, 16]
    assert doc["lambda"][0] == "inf"  # sentinel for the j = 0 row
    assert doc["flagged_j"] == [1]
    assert set(doc["pmf"]) == {"14", "15", "16"}


# sha256 of stdout, recorded when LogValue still carried signed arithmetic;
# these pin the model output byte for byte, where the perfbench pins allow
# a 1e-9 float tolerance.  "{c5}" is a C5 edge list written to tmp_path.
CLI_GOLDEN = [
    ("profile --r 11",
     "7913c1795d16e982ec17ea62ee58e50913dfadd7c93e6dac5c7349de3b6784b1"),
    ("thresholds --k 10 --r 2",
     "a697cfcae837bf22cf54d8bf4b52374f805e23d9d311309cde3fd17027b90b60"),
    ("thresholds --k 60 --r 11",
     "7ed9fc90dd311a99425566b7fd227927288144172d1e20f28638e9727330c9de"),
    # thresholds above 2^40 reach log_binomial's sum-of-logs path
    ("thresholds --k 90 --r 3",
     "b2553643db11d760a5b55686c8bdb6080e931aa67a49fb8a5ad890398fd01a3b"),
    ("intervals --r 2 --n-from 100 --n-to 200",
     "db440de72abf478441204f46225e2bbc88b9a147ea5bad21dab8f0001cab2846"),
    ("predict --n 40 --r 2",
     "443550043ba0cd07abd0a8e7fa6f5f90fd9e27bedbf118b7b288c3e040bfe69e"),
    ("predict --n 1000 --r 3",
     "1a34d1d38fd063d0151177cc586082ed9ee752709fd03fe096cb7c60eebd6957"),
    ("critical --in {c5} --r 2 --n 1000",
     "1e1f30b5e9861882970e34b4452d6f6c30b256eaca4372073959ec5ed4f6f53a"),
    ("census-all --m 6 --r 2",
     "01566c1f16995154df95b6e213aa8270e3074574a48fa439d169c41c90ec1caf"),
    ("structure --n 18 --r 2 --j 1 --k 4 --seed 0",
     "d412b7e4c65224874405dc278b26b591f3f30e68ee13f40327ea39ca61315df2"),
]


@pytest.mark.parametrize("argv,digest", CLI_GOLDEN, ids=[a for a, _ in CLI_GOLDEN])
def test_cli_stdout_golden(argv, digest, tmp_path, capsys):
    c5 = tmp_path / "c5.el"
    c5_edges = [(i, (i + 1) % 5) for i in range(5)]
    c5.write_text(edge_list_text(5, c5_edges))
    assert run(argv.format(c5=c5).split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# node_free_digest of stdout on sample_graph(30, 0) as graph6; "nodes" is
# version-specific effort accounting, everything else must not move
NODE_FREE_GOLDEN = [
    ("solve --q 3",
     "297cca27a2544f2065d9d201e34d0b9f752b3ad54b6e68f5dc968e7a5dc54076"),
    ("census-graph --k 3 --budget 1",
     "36d9da2c304a019ce55e60175839de94a83eef7d2e5b411c67473708d4f2731b"),
]


@pytest.mark.parametrize(
    "argv,digest", NODE_FREE_GOLDEN, ids=[a for a, _ in NODE_FREE_GOLDEN]
)
def test_kernel_stdout_node_free_golden(argv, digest, tmp_path, capsys):
    path = tmp_path / "g30.g6"
    path.write_text(graph6_encode(sample_graph(30, 0)) + "\n")
    cmd, *rest = argv.split()
    assert run([cmd, "--in", str(path), *rest]) == 0
    assert node_free_digest(capsys.readouterr().out) == digest


def test_solve_on_file(tmp_path, capsys):
    g = sample_graph(12, 3)
    path = tmp_path / "g.el"
    path.write_text(edge_list_text(g.n, g.edges()))
    assert run(["solve", "--in", str(path), "--q", "3"]) == 0
    doc = _json_out(capsys)
    want = max_clique_free(g, 3)
    assert doc["size"] == want.size
    assert doc["n"] == 12 and doc["q"] == 3
    assert len(doc["witness"]) == doc["size"]


def test_solve_graph6_input(tmp_path, capsys):
    g = sample_graph(10, 8)
    path = tmp_path / "g.g6"
    path.write_text(graph6_encode(g) + "\n")
    assert run(["solve", "--in", str(path), "--q", "3"]) == 0
    assert _json_out(capsys)["size"] == max_clique_free(g, 3).size


def test_solve_node_limit_exit_code(tmp_path, capsys):
    path = tmp_path / "g.el"
    g = sample_graph(24, 3)
    path.write_text(edge_list_text(g.n, g.edges()))
    assert run(["solve", "--in", str(path), "--q", "3", "--node-limit", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "node_limit"
    assert err["nodes"] > 10
    partial = err["partial"]
    assert partial["size"] > 0
    assert len(partial["witness"]) == partial["size"]


def test_structure_census_node_limit_partial_is_incomplete(capsys):
    args = ["structure", "--n", "18", "--r", "2", "--j", "1", "--k", "4",
            "--node-limit", "3"]
    assert run(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "node_limit"
    assert err["nodes"] > 3
    partial = err["partial"]
    assert partial["witnesses_complete"] is False
    assert partial["k"] == 5
    assert partial["total"] == len(partial["witnesses"])


def test_structure_pick_node_limit_carries_scan_partial(capsys):
    # the part scan finishes in 291 nodes; the pick loop then stops at 292
    args = ["structure", "--n", "18", "--r", "3", "--j", "2", "--k", "4",
            "--seed", "26", "--node-limit", "291"]
    assert run(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "node_limit"
    assert err["message"] == "structure search exceeded 291 nodes"
    mu, xi = mu_xi(3, 2)
    scan = census(sample_graph(18, 26), 5, mu + (1 if xi < 2 else 0), witnesses=True)
    assert err["partial"] == json.loads(dump_json(scan.as_dict()))
    assert err["partial"]["witnesses_complete"] is True


@pytest.mark.parametrize(
    "cmd",
    [["solve", "--q", "3"], ["census-graph", "--k", "3", "--budget", "1"]],
    ids=["solve", "census-graph"],
)
def test_negative_node_limit_is_bad_input(cmd, tmp_path, capsys):
    path = tmp_path / "g.el"
    g = sample_graph(12, 3)
    path.write_text(edge_list_text(g.n, g.edges()))
    name, *rest = cmd
    assert run([name, "--in", str(path), *rest, "--node-limit", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err == {"error": "ValueError", "message": "node_limit must be non-negative"}
    # a zero limit still stops the search at its first node
    assert run([name, "--in", str(path), *rest, "--node-limit", "0"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "node_limit" and err["nodes"] == 1


def test_solve_missing_file(capsys):
    assert run(["solve", "--in", "/nonexistent/g6", "--q", "3"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] in (
        "FileNotFoundError", "OSError"
    )


@pytest.mark.parametrize(
    "text,error,message",
    [
        ("Bé\n", "Graph6Error", "non-ASCII character outside the graph6 alphabet"),
        # the header is checked before the rows are allocated; 2^61 rows of
        # 8 bytes overflow the address space, so no run tries to take them
        (f"{2 ** 61}\n0 1\n", "ValueError", "vertex count must be in [0, 512]"),
    ],
    ids=["graph6-non-ascii", "edge-list-huge-header"],
)
def test_bad_graph_file_is_bad_input(text, error, message, tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    assert run(["solve", "--in", str(path), "--q", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": error, "message": message}


def test_structure(capsys):
    assert run([
        "structure", "--n", "18", "--r", "2", "--j", "1", "--k", "4", "--seed", "0",
    ]) == 0
    doc = _json_out(capsys)
    assert doc["found"] is True
    assert doc["verified"] is True
    assert doc["size"] == 9
    assert len(doc["vertices"]) == 9


def test_structure_not_found(capsys):
    # complete-graph-free parameters that cannot exist in an empty graph:
    # parts need a defect edge but a seeded graph this small lacks supply
    assert run([
        "structure", "--n", "6", "--r", "5", "--j", "5", "--k", "2", "--seed", "0",
    ]) == 0
    doc = _json_out(capsys)
    if not doc["found"]:
        assert set(doc) == {"found", "n", "r", "j", "k"}


def test_census_graph(tmp_path, capsys):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    path = tmp_path / "g.el"
    path.write_text(edge_list_text(g.n, g.edges()))
    assert run([
        "census-graph", "--in", str(path), "--k", "3", "--budget", "3", "--witnesses",
    ]) == 0
    doc = _json_out(capsys)
    assert doc["counts"] == {"1": 3, "3": 1}
    assert any(w["vertices"] == [0, 1, 2] for w in doc["witnesses"])


def test_census_all_full(capsys):
    assert run(["census-all", "--m", "5", "--r", "2"]) == 0
    doc = _json_out(capsys)
    assert doc["clique_free"] == 388
    assert doc["distance_histogram"] == {"0": 376, "1": 12}
    assert doc["mode"] == "full"


def test_census_all_sampled(capsys):
    assert run(["census-all", "--m", "8", "--r", "2", "--samples", "30", "--seed", "5"]) == 0
    doc = _json_out(capsys)
    assert doc["mode"] == "sample"
    assert doc["total"] == 30


def test_critical(tmp_path, capsys):
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    path = tmp_path / "c5.g6"
    path.write_text(graph6_encode(c5))
    assert run(["critical", "--in", str(path), "--r", "2", "--n", "1000"]) == 0
    doc = _json_out(capsys)
    assert doc["chromatic_number"] == 3
    assert doc["is_color_critical"] is True
    assert doc["window"]["m0"] == 32
    assert (doc["window"]["lo"], doc["window"]["hi"]) == (29, 31)


def test_critical_without_n(tmp_path, capsys):
    path = tmp_path / "k4.g6"
    path.write_text(graph6_encode(Graph.complete(4)))
    assert run(["critical", "--in", str(path), "--r", "3"]) == 0
    doc = _json_out(capsys)
    assert doc["is_color_critical"] is True
    assert "window" not in doc


def test_simulate_poisson_and_rerun_identical(capsys):
    argv = ["simulate", "poisson", "--n", "14", "--k", "4", "--i", "1",
            "--reps", "5", "--seed", "3"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["name"] == "poisson_check"
    assert doc["summary"]["reps"] == 5
    assert "replicates" not in doc
    assert "wall_clock_s" not in doc


def test_simulate_rows_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    assert run([
        "simulate", "witness", "--n", "16", "--r", "2", "--j", "1", "--k", "4",
        "--reps", "3", "--seed", "2", "--rows", "--csv", str(csv_path),
    ]) == 0
    doc = _json_out(capsys)
    assert len(doc["replicates"]) == 3
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 4


def test_simulate_missing_flags(capsys):
    assert run(["simulate", "poisson", "--n", "14", "--reps", "2", "--seed", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "--k" in err["message"] and "--i" in err["message"]


def test_simulate_alpha_with_timing(capsys):
    assert run([
        "simulate", "alpha", "--n", "16", "--r", "2",
        "--reps", "3", "--seed", "1", "--timing",
    ]) == 0
    doc = _json_out(capsys)
    assert isinstance(doc["wall_clock_s"], float)


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert run(["profile", "--r", "5", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(path.read_text())
    assert doc["breakpoints"] == [1, 2, 5]


@pytest.mark.parametrize("argv", [
    ["solve", "--in", "g.el", "--q", "3", "--bogus"],
    ["solve", "--in", "g.el", "--q", "x"],
    ["solve", "--in", "g.el"],
    ["simulate", "nope", "--reps", "1", "--seed", "0"],
    ["no-such-command"],
    [],
])
def test_parse_errors_are_json(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert err["message"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--help"])
    assert exc.value.code == 0
    assert "--node-limit" in capsys.readouterr().out


def test_domain_error_exit_code(capsys):
    assert run(["thresholds", "--k", "3", "--r", "2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


def test_broken_threshold_chain_exit_code(capsys):
    assert run(["intervals", "--r", "15", "--n-from", "20", "--n-to", "21"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ThresholdChainError"


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone took about a second to import, paid by every CLI process
    src = str(Path(cliquefree.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, cliquefree.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"

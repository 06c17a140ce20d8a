"""Command-line interface.

Subcommands map one-to-one onto the library surface:

  profile       breakpoint profile and interval lengths for a part count r
  thresholds    appearance-threshold table for a level k and part count r
  intervals     predicted location intervals over a range of n, as CSV
  predict       Poisson-tail prediction of the size distribution at n
  solve         exact maximum clique-free subgraph of an input graph
  structure     build and verify a defect structure in a seeded graph
  census-graph  bounded-defect subset census of an input graph
  census-all    labeled census over all graphs on m vertices
  critical      chromatic diagnostics of a pattern plus the window at n
  simulate      seeded Monte Carlo experiments (poisson, alpha, hitting,
                witness)

All output is canonical JSON (sorted keys, two-space indent) except
`intervals`, which emits CSV.  Exit codes: 0 success, 2 usage or domain
error, 3 node-limit exceeded; errors are one JSON object on stderr, which
for a node-limit stop carries the search's partial result when it has one.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .census import DEFAULT_NODE_LIMIT, census
from .critical import chromatic_number, concentration_window, is_color_critical
from .enumeration import partite_census
from .errors import CliquefreeError, NodeLimitError
from .experiments import (
    alpha_distribution,
    dump_json,
    hitting_times,
    poisson_check,
    witness_rate,
)
from .graphs import graph6_encode, read_graph, sample_graph
from .profiles import breakpoint_profile, interval_length_multiset
from .solver import build_structure, max_clique_free, verify_structure
from .thresholds import (
    level,
    predicted_interval,
    predicted_pmf,
    threshold_table,
)


def _emit(args, text: str):
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_graph(path: str):
    return read_graph(Path(path).read_text())


# -- subcommand handlers -------------------------------------------------------


def _cmd_profile(args) -> int:
    prof = breakpoint_profile(args.r)
    doc = prof.as_dict()
    lengths = interval_length_multiset(args.r)
    doc["interval_lengths"] = sorted(lengths)
    doc["interval_length_counts"] = {str(k): v for k, v in sorted(lengths.items())}
    _emit(args, dump_json(doc))
    return 0


def _cmd_thresholds(args) -> int:
    table = threshold_table(args.k, args.r)
    _emit(args, dump_json(table.as_dict()))
    return 0


def _cmd_intervals(args) -> int:
    if args.n_from > args.n_to:
        raise ValueError("--n-from must not exceed --n-to")
    lines = ["n,level,lo,hi"]
    for n in range(args.n_from, args.n_to + 1):
        lo, hi = predicted_interval(n, args.r)
        lines.append(f"{n},{level(n)},{lo},{hi}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_predict(args) -> int:
    _emit(args, dump_json(predicted_pmf(args.n, args.r).as_dict()))
    return 0


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    res = max_clique_free(g, args.q, node_limit=args.node_limit)
    doc = res.as_dict()
    doc["n"] = g.n
    doc["q"] = args.q
    _emit(args, dump_json(doc))
    return 0


def _cmd_structure(args) -> int:
    g = sample_graph(args.n, args.seed)
    k = args.k if args.k is not None else level(args.n)
    s = build_structure(g, args.r, args.j, k, node_limit=args.node_limit)
    if s is None:
        _emit(args, dump_json({"found": False, "n": args.n, "r": args.r, "j": args.j, "k": k}))
        return 0
    doc = s.as_dict()
    doc["found"] = True
    doc["verified"] = verify_structure(g, s)
    _emit(args, dump_json(doc))
    return 0


def _cmd_census_graph(args) -> int:
    g = _load_graph(args.graph)
    res = census(
        g, args.k, args.budget,
        witnesses=args.witnesses, node_limit=args.node_limit,
    )
    _emit(args, dump_json(res.as_dict()))
    return 0


def _cmd_census_all(args) -> int:
    res = partite_census(args.m, args.r, sample_size=args.samples, seed=args.seed)
    _emit(args, dump_json(res.as_dict()))
    return 0


def _cmd_critical(args) -> int:
    f = _load_graph(args.pattern)
    doc = {
        "n": f.n,
        "edges": f.edge_count(),
        "graph6": graph6_encode(f),
        "chromatic_number": chromatic_number(f),
        "is_color_critical": is_color_critical(f, args.r),
        "r": args.r,
    }
    if args.n is not None:
        doc["window"] = concentration_window(args.n, args.r).as_dict()
    _emit(args, dump_json(doc))
    return 0


# experiment -> (function, required options passed before reps and seed,
# optional options passed by keyword)
_SIMULATE = {
    "poisson": (poisson_check, ["n", "k", "i"], []),
    "alpha": (alpha_distribution, ["n", "r"], []),
    "hitting": (hitting_times, ["r", "j", "n_max"], []),
    "witness": (witness_rate, ["n", "r", "j"], ["k"]),
}


def _cmd_simulate(args) -> int:
    fn, required, optional = _SIMULATE[args.experiment]
    missing = [f"--{n.replace('_', '-')}" for n in required if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing required options: {', '.join(missing)}")
    report = fn(
        *(getattr(args, n) for n in required), args.reps, args.seed,
        workers=args.workers, **{n: getattr(args, n) for n in optional},
    )
    if args.csv:
        Path(args.csv).write_text(report.rows_csv())
    _emit(args, report.to_json(include_rows=args.rows, include_timing=args.timing))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as ValueError, so run() answers it with
    exit code 2 and a JSON error like any other bad input."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="cliquefree",
        description="Two-point concentration toolkit for clique-free subgraphs "
                    "of dense random graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", help="write output to a file instead of stdout")

    sp = sub.add_parser("profile", help="breakpoint profile of a part count")
    sp.add_argument("--r", type=int, required=True)
    add_out(sp)
    sp.set_defaults(fn=_cmd_profile)

    sp = sub.add_parser("thresholds", help="threshold table for level k")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    add_out(sp)
    sp.set_defaults(fn=_cmd_thresholds)

    sp = sub.add_parser("intervals", help="predicted intervals over an n range (CSV)")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--n-from", dest="n_from", type=int, required=True)
    sp.add_argument("--n-to", dest="n_to", type=int, required=True)
    add_out(sp)
    sp.set_defaults(fn=_cmd_intervals)

    sp = sub.add_parser("predict", help="predicted size distribution at n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    add_out(sp)
    sp.set_defaults(fn=_cmd_predict)

    sp = sub.add_parser("solve", help="exact maximum clique-free subgraph")
    sp.add_argument("--in", dest="graph", required=True,
                    help="graph file (graph6 or edge list, auto-detected)")
    sp.add_argument("--q", type=int, required=True, help="forbidden clique order")
    sp.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    add_out(sp)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("structure", help="build a defect structure in a seeded graph")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--k", type=int, default=None,
                    help="level parameter; defaults to level(n)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    add_out(sp)
    sp.set_defaults(fn=_cmd_structure)

    sp = sub.add_parser("census-graph", help="bounded-defect subset census")
    sp.add_argument("--in", dest="graph", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--witnesses", action="store_true")
    sp.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    add_out(sp)
    sp.set_defaults(fn=_cmd_census_graph)

    sp = sub.add_parser("census-all", help="labeled census on m vertices")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--samples", type=int, default=None,
                    help="sample instead of full sweep")
    sp.add_argument("--seed", type=int, default=0)
    add_out(sp)
    sp.set_defaults(fn=_cmd_census_all)

    sp = sub.add_parser("critical", help="pattern diagnostics and window")
    sp.add_argument("--in", dest="pattern", required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--n", type=int, default=None,
                    help="also locate the window at this n")
    add_out(sp)
    sp.set_defaults(fn=_cmd_critical)

    sp = sub.add_parser("simulate", help="seeded Monte Carlo experiments")
    sp.add_argument("experiment", choices=["poisson", "alpha", "hitting", "witness"])
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--i", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--n-max", dest="n_max", type=int, default=None)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--rows", action="store_true",
                    help="include per-replicate rows in the JSON")
    sp.add_argument("--timing", action="store_true",
                    help="include wall-clock time (breaks rerun byte-identity)")
    sp.add_argument("--csv", default=None, help="also write per-replicate rows as CSV")
    add_out(sp)
    sp.set_defaults(fn=_cmd_simulate)

    return p


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except NodeLimitError as e:
        doc = {"error": "node_limit", "message": str(e), "nodes": e.nodes}
        if hasattr(e.partial, "as_dict"):
            doc["partial"] = e.partial.as_dict()
        sys.stderr.write(dump_json(doc))
        return 3
    except (ValueError, CliquefreeError, OSError) as e:
        sys.stderr.write(dump_json({"error": type(e).__name__, "message": str(e)}))
        return 2


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()

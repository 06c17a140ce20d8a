"""One workload process: set up, say READY, then run the timed or traced part.

Started by run.py with PYTHONPATH pointing at the checkout's src, so the
cliquefree under test is the one in the checkout and nothing else.  Prints
READY once set-up (interpreter, import, inputs, warm-up) is done, then one
JSON line with the raw measurements.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cliquefree
import numpy
import scipy

import speed
import tracing
import workloads
from run import tail

HERE = Path(__file__).resolve().parent
TRACE_CLOSURE_FLOOR = 0.01


def one_call(wl, c: int, fn, problems: list) -> tuple[float, int]:
    """Run call c through fn; (seconds, failed operations)."""
    t0 = time.perf_counter()
    try:
        out = fn(c)
    except Exception as e:  # a failed operation, counted and reported
        dt = time.perf_counter() - t0
        problems.append(f"{wl.kind(c)} call {c}: {type(e).__name__}: {e}")
        if hasattr(wl, "captures"):
            wl.captures.drain()
        return dt, wl.ops(c)
    dt = time.perf_counter() - t0
    failed, why = wl.check(c, out)
    problems.extend(why)
    return dt, failed


def timed(wl, seconds: float, children: bool) -> dict:
    """Whole cycles of calls 0, 1, ... back to back until their summed
    latency reaches seconds, so every run has the workload's full mix; then
    the workload's probes once each, counted as operations but not timed."""
    calls, probes, problems = [], [], []
    meter = speed.Meter()
    busy = 0.0
    while busy < seconds:
        for _ in range(wl.cycle):
            c = len(calls)
            dt, failed = one_call(wl, c, wl.call, problems)
            calls.append([wl.kind(c), dt, wl.ops(c), failed])
            busy += dt
            meter.keep_up(busy)
    for c in wl.probe_calls:
        dt, failed = one_call(wl, c, wl.call, problems)
        probes.append([wl.kind(c), dt, wl.ops(c), failed])
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return {
        "calls": calls,
        "probes": probes,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "reference_s": meter.samples,
        "problems": problems,
    }


# -- traced run --------------------------------------------------------------------


def import_times(root: Path, env: dict, samples: int = 3) -> dict:
    """Median cumulative import seconds of cliquefree, scipy and numpy, from
    `python -X importtime -c "import cliquefree.cli"`."""
    got = {"cliquefree": [], "scipy": [], "numpy": []}
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cliquefree.cli"],
            capture_output=True, text=True, env=env, cwd=root, timeout=120, check=True,
        )
        entries = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            entries.append((depth, int(parts[1]), name.strip()))
        for pkg in got:
            total, stack = 0, []
            # the log is post-order; reversed it lists each parent before its children
            for depth, cum, name in reversed(entries):
                while stack and stack[-1][0] >= depth:
                    stack.pop()
                inside = bool(stack) and stack[-1][1]
                mine = name == pkg or name.startswith(pkg + ".")
                if mine and not inside:
                    total += cum
                stack.append((depth, inside or mine))
            got[pkg].append(total / 1e6)
    return {pkg: statistics.median(v) for pkg, v in got.items()}


def traced_pass(wl, fn, n: int, problems: list):
    """Run calls 0..n-1 under a fresh tracer; (tracer, call records, span bounds)."""
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracer.install(patches)
    calls, bounds = [], []
    try:
        for c in range(n):
            i0 = len(tracer.spans)
            dt, failed = one_call(wl, c, fn, problems)
            calls.append([wl.kind(c), dt, wl.ops(c), failed])
            bounds.append((i0, len(tracer.spans)))
    finally:
        patches.remove()
    return tracer, calls, bounds


def layer_metrics(tracer, walls: list, bounds: list, untraced_wall: float) -> dict:
    spans = tracer.spans
    selfs = tracer.self_times()
    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s[0], []).append(i)

    def calls(name):
        return len(by.get(name, []))

    def self_s(name):
        return sum(selfs[i] for i in by.get(name, []))

    def durs(name):
        return [spans[i][2] - spans[i][1] for i in by.get(name, [])]

    def median(xs):
        return statistics.median(xs) if xs else 0.0

    def counted(name, k):
        return sum(spans[i][5][k] for i in by.get(name, []) if spans[i][5] is not None)

    m = {}
    for name in ["graphs.sample_graph", "graphs.ExposureStream.step", "census.census",
                 "census.cover_family", "solver.max_clique_free", "solver.build_structure",
                 "logmath.stein_chen_bound", "logmath.expected_defect_sets",
                 "logmath.poisson_pmf", "logmath.poisson_tail"]:
        m[f"{name}.calls"] = calls(name)
    for name in ["graphs.sample_graph", "graphs.ExposureStream.step", "graphs.graph6_decode",
                 "graphs.graph6_encode", "census.census", "census.cover_family",
                 "solver.max_clique_free", "solver.build_structure", "solver.verify_structure",
                 "enumeration.partite_census", "logmath.stein_chen_bound",
                 "logmath.expected_defect_sets", "logmath.poisson_pmf", "logmath.poisson_tail",
                 "thresholds.threshold_table", "thresholds.predicted_pmf",
                 "thresholds.predicted_interval", "critical.concentration_window",
                 "critical.chromatic_number", "profiles.breakpoint_profile"]:
        m[f"{name}.self_s"] = self_s(name)
    m["graphs.sample_graph.p50_us"] = median(durs("graphs.sample_graph")) * 1e6
    m["census.census.p50_us"] = median(durs("census.census")) * 1e6
    m["census.census.nodes"] = counted("census.census", 0)
    m["census.census.subsets"] = counted("census.census", 1)
    m["census.census.subsets_per_node"] = (
        m["census.census.subsets"] / m["census.census.nodes"] if m["census.census.nodes"] else 0.0
    )
    m["census.cover_family.witnesses"] = counted("census.cover_family", 0)
    solve = durs("solver.max_clique_free")
    m["solver.max_clique_free.p50_s"] = median(solve)
    m["solver.max_clique_free.tail_s"] = tail(solve)[0] if solve else 0.0
    m["solver.max_clique_free.nodes"] = counted("solver.max_clique_free", 0)
    m["solver.max_clique_free.nodes_per_s"] = (
        m["solver.max_clique_free.nodes"] / m["solver.max_clique_free.self_s"] if solve else 0.0
    )
    m["solver.build_structure.found"] = counted("solver.build_structure", 0)
    m["solver.build_structure.found_ratio"] = (
        m["solver.build_structure.found"] / m["solver.build_structure.calls"]
        if m["solver.build_structure.calls"] else 0.0
    )
    exp_self = sum(selfs[i] for i, s in enumerate(spans) if s[0].startswith("experiments."))
    traced_wall = sum(walls)
    m["experiments.self_s"] = exp_self
    m["experiments.call_wall_s"] = traced_wall
    m["experiments.overhead_frac"] = exp_self / traced_wall
    reps = durs(tracing.REPLICATE)
    m["experiments.replicate_p50_ms"] = median(reps) * 1e3
    m["experiments.replicate_tail_ms"] = tail(reps)[0] * 1e3 if reps else 0.0
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.traced_wall_s"] = traced_wall
    m["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    covered = sum(sum(selfs[i0:i1]) for i0, i1 in bounds)
    m["trace.closure_gap_frac"] = (traced_wall - covered) / traced_wall
    return m


def per_size(tracer) -> dict:
    """Median inclusive seconds of sized kernels, keyed by name and size."""
    groups: dict[str, list[float]] = {}
    for i, size in tracer.sizes.items():
        s = tracer.spans[i]
        groups.setdefault(f"{s[0]}{list(size)}", []).append(s[2] - s[1])
    return {k: {"p50_s": statistics.median(v), "calls": len(v)} for k, v in sorted(groups.items())}


def traced(wl, root: Path, is_cli: bool) -> dict:
    problems: list[str] = []
    n = wl.trace_calls
    if is_cli:
        # fresh processes give the wall time a user sees; in-process runs give
        # the part of it that is not interpreter start-up and imports
        wall = sum(one_call(wl, c, wl.call, problems)[0] for c in range(n))
        fn = wl.call_in_process
    else:
        fn = wl.call
    untraced = sum(one_call(wl, c, fn, problems)[0] for c in range(n))
    tracer, calls, bounds = traced_pass(wl, fn, n, problems)
    m = layer_metrics(tracer, [c[1] for c in calls], bounds, untraced)
    imports = import_times(root, workloads.bench_env(root))
    m["cli.import_s"] = imports["cliquefree"]
    m["cli.import.scipy_s"] = imports["scipy"]
    m["cli.import.numpy_s"] = imports["numpy"]
    if is_cli:
        m["cli.run_s"] = untraced
        m["cli.wall_s"] = wall
        m["cli.startup_s"] = wall - untraced
        m["cli.startup_frac"] = (wall - untraced) / wall
    else:
        for key in ["cli.run_s", "cli.wall_s", "cli.startup_s", "cli.startup_frac"]:
            m[key] = 0.0
    tol = max(m["trace_overhead_frac"], TRACE_CLOSURE_FLOOR)
    if abs(m["trace.closure_gap_frac"]) > tol:
        problems.append(
            f"self times close to {m['trace.closure_gap_frac']:.4f} of wall time, "
            f"beyond the tolerance {tol:.4f}: a layer is missing from the trace"
        )
    return {
        "calls": calls,
        "layers": m,
        "closure_tolerance": tol,
        "per_size": per_size(tracer),
        "spans": tracer.dump(),
        "reference_s": [speed.reference() for _ in range(10)],
        "problems": problems,
    }


# -- entry point --------------------------------------------------------------------


def load_pins(name: str, seed: int):
    pins = json.loads((HERE / "pins.json").read_text())[name]
    if name == "cli_oneshot" or seed == workloads.DEFAULT_SEED:
        return pins
    return []


def make(name: str, seed: int, root: Path, patches):
    if name == "cli_oneshot":
        return workloads.CliOneshot(seed, root)
    return workloads.library_workload(name, seed, patches)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    root = Path(args.root).resolve()

    if Path(cliquefree.__file__).resolve().parent != root / "src" / "cliquefree":
        sys.stderr.write(f"cliquefree imported from {cliquefree.__file__}, not the checkout\n")
        return 2
    patches = tracing.Patches()
    wl = make(args.workload, args.seed, root, patches)
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    wl.pins = load_pins(args.workload, args.seed)
    is_cli = args.workload == "cli_oneshot"
    if args.trace:
        result = traced(wl, root, is_cli)
    else:
        result = timed(wl, args.seconds, children=is_cli)
    spans = result.pop("spans", None)
    if spans is not None:
        out = root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(spans))
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

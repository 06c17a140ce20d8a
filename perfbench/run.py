"""cliquefree benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the cliquefree under test is the one in
its src directory.  The workload runs in a fresh worker process (worker.py),
one client calling the library back to back (a closed loop, workers=1).

--trace 0 prints the end-to-end metrics of BENCHMARK.json: set-up time (the
median of SETUP_SAMPLES fresh processes, each timed from launch until it
reports READY), operations per second, call latency median and tail, the
fraction of operations that succeeded, and peak resident memory.
--trace 1 runs a fixed list of calls untraced and then traced, and prints
the per-layer metrics; spans are written to .perfbench/.

The line before the result holds the run conditions (source digest, Python
and library versions, CPUs, load before and after) and the details behind
each metric; the same document is written to .perfbench/.

Every end-to-end time is scaled to the box's reference speed (speed.py):
divided by how many times slower than REFERENCE_S a reference kernel ran,
median over samples taken between the calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile with at
    least ten samples beyond it.  Below 100 samples that percentile would sit
    under p90, which is no longer a tail, so the maximum is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n < 100:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_id(root: Path) -> dict:
    """Git commit when the checkout is a repository, and a digest of src either way."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def spawn(args, deadline: float, setup_only: bool) -> tuple[float, dict | None]:
    """Start a worker; (seconds from launch to READY, its result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    t0 = time.perf_counter()
    # its own process group, so a timeout also stops the CLI processes it runs
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode} (ready: {ready.strip()!r})")
    return setup, None if setup_only else json.loads(rest.splitlines()[-1])


def end_to_end(result: dict, setups: list[float], slow: float) -> tuple[dict, dict]:
    """Metrics from the worker's call records [kind, latency, operations, failed],
    with times divided by slow, the box's slowdown against the reference."""
    calls = result["calls"]
    lat = [c[1] for c in calls]
    succeeded = sum(c[2] - c[3] for c in calls)
    ops = calls + result["probes"]
    tail_s, pct, n = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups) / slow,
        "reps_per_s": succeeded / sum(lat) * slow,
        "call_p50_s": statistics.median(lat) / slow,
        "call_tail_s": tail_s / slow,
        "success_frac": sum(c[2] - c[3] for c in ops) / sum(c[2] for c in ops),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    kinds: dict[str, list[float]] = {}
    for c in calls:
        kinds.setdefault(c[0], []).append(c[1])
    details = {
        "unscaled_s": {"setup": statistics.median(setups), "call_p50": statistics.median(lat),
                       "call_tail": tail_s},
        "setup_samples_s": setups,
        "calls": len(calls),
        "busy_s": sum(lat),
        "call_tail": {"percentile": pct, "samples": n},
        "call_p50_s_by_kind": {k: [statistics.median(v), len(v)] for k, v in kinds.items()},
    }
    return metrics, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        p.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not (ROOT / "src" / "cliquefree").is_dir():
        sys.stderr.write("no src/cliquefree in this checkout: nothing to benchmark\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "source": source_id(ROOT), "cpu_model": cpu_model(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args, deadline, setup_only=True)[0])
    setup, result = spawn(args, deadline, setup_only=False)
    setups.append(setup)
    report["loadavg_after"] = os.getloadavg()
    report["versions"] = result["versions"]
    slow = speed.factor(result["reference_s"])
    report["reference"] = {"nominal_s": speed.REFERENCE_S, "slowdown": slow,
                           "samples_s": result["reference_s"]}

    ops = result["calls"] + result.get("probes", [])
    if args.trace:
        metrics = result["layers"]
        details = {"per_size": result["per_size"],
                   "closure_tolerance": result["closure_tolerance"]}
        declared = spec["per_layer"]
    else:
        metrics, details = end_to_end(result, setups, slow)
        declared = spec["end_to_end"]
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ names)}")
    attempted = sum(c[2] for c in ops)
    failed = sum(c[3] for c in ops)
    report["details"] = details
    report["problems"] = result["problems"][:50]
    out = {
        "correct": not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    report["result"] = out
    text = json.dumps(report)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(text + "\n")
    print(text)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

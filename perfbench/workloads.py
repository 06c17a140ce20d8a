"""The benchmark's three workloads.

Each workload is a cyclic list of call kinds.  Call c runs kind c mod the
list length on inputs derived from (workload, seed, c), so the same seed
always gives the same inputs and a run can stop after any number of calls.
An operation is one replicate (one CLI process on cli_oneshot); a call is
one experiment call (one CLI process).

poisson_census  poisson_check at the three c07 points, equal reps, plus
                witness_rate at the c08 point: census in counting mode and
                in listing mode with candidate masks, structure build and
                verify.  Sampling is visible; the solver does little.
alpha_solver    alpha_distribution at (n, r) = (24, 2) and (23, 3), plus
                hitting_times(2, 1, 20): the solver proving the maximum and
                in at_least decision mode, and vertex exposure.  Census
                does little.
cli_oneshot     fresh `python -m cliquefree.cli` processes over every
                command family, plus three robustness probes: the only
                workload that pays process start-up and graph6 I/O.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import checks
from cliquefree import cli, experiments, graphs, solver

DEFAULT_SEED = 0


def bench_env(root: Path) -> dict:
    """Environment for child processes: the checkout's src first on the path."""
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def derive_seed(workload: str, seed: int, index) -> int:
    """A 63-bit input seed for one call or input file of a workload run."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class Captures:
    """Records every solver result and built structure for independent checks.

    Installed in untraced runs too: one list append per max_clique_free or
    build_structure call, against milliseconds to seconds of work inside it.
    """

    def __init__(self, patches):
        self.solves: list[tuple] = []
        self.structures: list[tuple] = []
        mcf, build = solver.max_clique_free, solver.build_structure

        def max_clique_free(g, q, **kw):
            res = mcf(g, q, **kw)
            self.solves.append((g.rows, g.n, q, res.size, res.witness))
            return res

        def build_structure(g, r, j, k, **kw):
            s = build(g, r, j, k, **kw)
            if s is not None:
                self.structures.append((g.rows, g.n, r, j, k, s.parts, s.covers))
            return s

        patches.replace(mcf, max_clique_free)
        patches.replace(build, build_structure)

    def drain(self) -> tuple[list, list]:
        out = (self.solves, self.structures)
        self.solves, self.structures = [], []
        return out


def _capture_problems(solves: list, structures: list) -> list[str]:
    problems = []
    for rows, n, q, size, witness in solves:
        p = checks.witness_problem(rows, n, q, size, witness)
        if p:
            problems.append(p)
    for rows, n, r, j, k, parts, covers in structures:
        p = checks.structure_problem(rows, n, r, j, k, parts, covers)
        if p:
            problems.append(p)
    return problems


class Library:
    """A workload of in-process experiment calls."""

    probe_calls: list[int] = []

    def __init__(self, name: str, seed: int, kinds: list, warm_up, trace_calls: int, patches):
        self.name, self.seed, self.kinds = name, seed, kinds
        self.cycle = len(kinds)
        self._warm_up = warm_up
        self.trace_calls = trace_calls
        self.pins: list = []  # fingerprints of calls 0, 1, ... at DEFAULT_SEED
        self.captures = Captures(patches)

    def warm_up(self):
        self._warm_up()
        self.captures.drain()

    def kind(self, c: int) -> str:
        return self.kinds[c % len(self.kinds)][0]

    def ops(self, c: int) -> int:
        return self.kinds[c % len(self.kinds)][1]

    def call(self, c: int):
        _, _, fn = self.kinds[c % len(self.kinds)]
        return fn(derive_seed(self.name, self.seed, c))

    def pin_doc(self, c: int, report):
        return {"config": report.config, "summary": report.summary, "replicates": report.replicates}

    def check(self, c: int, report) -> tuple[int, list[str]]:
        """(failed operations, reasons) for call c's report."""
        ops = self.ops(c)
        solves, structures = self.captures.drain()
        if c < len(self.pins):
            why = checks.fingerprint_mismatch(checks.fingerprint(self.pin_doc(c, report)), self.pins[c])
            if why:
                return ops, [f"call {c}: {why}"]
        problems = _capture_problems(solves, structures)
        rows, hist = report.replicates, report.summary.get("histogram")
        if len(rows) != ops or (hist is not None and sum(hist.values()) != ops):
            problems.append("report does not account for every replicate")
        if "alpha" in rows[0] and sorted(r["alpha"] for r in rows) != sorted(s[3] for s in solves):
            problems.append("reported sizes differ from the solver's results")
        problems += ["structure search hit the node limit" for r in rows if r.get("built") == -1]
        return min(ops, len(problems)), [f"call {c}: {p}" for p in problems]


def library_workload(name: str, seed: int, patches) -> Library:
    """The workload's call kinds, a warm-up through the same code paths, and
    the number of calls in a traced run."""
    if name == "poisson_census":
        # 8 witness replicates take about as long as a (32,7,0) call, so the
        # median call sits among the two middle kinds, not in a gap
        kinds = [
            (f"poisson{p}", 10, lambda s, p=p: experiments.poisson_check(*p, 10, s))
            for p in [(30, 7, 0), (32, 7, 0), (34, 8, 1)]
        ]
        kinds.append(("witness", 8, lambda s: experiments.witness_rate(21, 2, 1, 8, s, k=6)))

        def warm_up():
            experiments.poisson_check(30, 7, 0, 1, 1)
            experiments.witness_rate(21, 2, 1, 2, 1, k=6)

        return Library(name, seed, kinds, warm_up, 80, patches)
    if name == "alpha_solver":
        # graphs small enough that a run sees about 200 of them, so the
        # median call is steady; hitting replicates cost 2 ms to 80 ms, so
        # one call sums twelve, and hitting calls are the slowest and set
        # the tail
        alpha = [
            (f"alpha{p}", 1, lambda s, p=p: experiments.alpha_distribution(*p, 1, s))
            for p in [(24, 2), (23, 3)]
        ]
        kinds = alpha + alpha + [
            ("hitting", 12, lambda s: experiments.hitting_times(2, 1, 20, 12, s))
        ]

        def warm_up():
            experiments.alpha_distribution(20, 2, 1, 1)
            experiments.hitting_times(2, 1, 16, 1, 1)

        return Library(name, seed, kinds, warm_up, 100, patches)
    raise KeyError(f"unknown workload {name!r}")


# -- cli_oneshot -------------------------------------------------------------------


def random_rows(n: int, seed: int) -> list[int]:
    """G(n, 1/2) from Python's own generator, independent of cliquefree's sampler."""
    rng = random.Random(seed)
    rows = [0] * n
    for v in range(1, n):
        for u in range(v):
            if rng.getrandbits(1):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def graph6_text(n: int, rows: list[int]) -> str:
    """graph6 per the format's definition: size bytes, then pairs in column order."""
    head = [n + 63] if n <= 62 else [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    bits = [(rows[u] >> v) & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [63 + int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return bytes(head + body).decode("ascii") + "\n"


NODE_LIMIT_PROBE = 50


class CliOneshot:
    """A fixed sequence of CLI commands over seeded input files."""

    name = "cli_oneshot"

    def __init__(self, seed: int, root: Path):
        self.seed, self.root = seed, root
        self.pins: dict = {}  # label -> fingerprint; seeded labels hold at DEFAULT_SEED
        workdir = root / ".perfbench" / "inputs"
        workdir.mkdir(parents=True, exist_ok=True)
        self.rows30 = random_rows(30, derive_seed(self.name, seed, "g30"))
        self.rows512 = random_rows(512, derive_seed(self.name, seed, "g512"))
        files = {
            "g30.g6": graph6_text(30, self.rows30),
            "g512.g6": graph6_text(512, self.rows512),
            "c5.edges": "5\n0 1\n1 2\n2 3\n3 4\n4 0\n",
            "bad.g6": "Dxx~\n",  # n = 5 needs 2 body bytes, not 3
        }
        for fname, text in files.items():
            (workdir / fname).write_text(text)
        f = {k: str(workdir / k) for k in files}
        self.structure_seed = derive_seed(self.name, seed, "structure")
        # (label, argv, expected exit code, depends on the seed)
        self.commands = [
            ("profile", ["profile", "--r", "11"], 0, False),
            ("thresholds", ["thresholds", "--k", "10", "--r", "2"], 0, False),
            ("intervals", ["intervals", "--r", "2", "--n-from", "100", "--n-to", "200"], 0, False),
            ("predict", ["predict", "--n", "40", "--r", "2"], 0, False),
            ("critical", ["critical", "--in", f["c5.edges"], "--r", "2", "--n", "1000"], 0, False),
            ("census-all", ["census-all", "--m", "6", "--r", "2"], 0, False),
            ("structure", ["structure", "--n", "18", "--r", "2", "--j", "1", "--k", "4",
                           "--seed", str(self.structure_seed)], 0, True),
            ("solve", ["solve", "--in", f["g30.g6"], "--q", "3"], 0, True),
            ("census-graph", ["census-graph", "--in", f["g512.g6"], "--k", "2", "--budget", "1"],
             0, True),
        ]
        # run once after the timed cycles: operations, but not timed calls
        self.probes = [
            ("probe-bad-graph6", ["solve", "--in", f["bad.g6"], "--q", "3"], 2, False),
            ("probe-bad-option", ["solve", "--in", f["g30.g6"], "--q", "1"], 2, False),
            ("probe-node-limit", ["solve", "--in", f["g30.g6"], "--q", "3",
                                  "--node-limit", str(NODE_LIMIT_PROBE)], 3, False),
        ]
        self.cycle = self.trace_calls = len(self.commands)
        self.probe_calls = [-1 - i for i in range(len(self.probes))]
        self.env = bench_env(root)

    def warm_up(self):
        """Nothing to warm: every call is a fresh process."""

    def _entry(self, c: int) -> tuple:
        """Command c of the cycle; probes have negative numbers."""
        return self.commands[c % self.cycle] if c >= 0 else self.probes[-1 - c]

    def kind(self, c: int) -> str:
        return self._entry(c)[0]

    def ops(self, c: int) -> int:
        return 1

    def call(self, c: int):
        argv = self._entry(c)[1]
        proc = subprocess.run(
            [sys.executable, "-m", "cliquefree.cli", *argv],
            capture_output=True, text=True, env=self.env, cwd=self.root, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def call_in_process(self, c: int):
        """cli.run(argv) in this process, with cliquefree's function caches
        emptied first, as they are in the fresh process each command gets."""
        argv = self._entry(c)[1]
        for name, mod in list(sys.modules.items()):
            if name.startswith("cliquefree"):
                for val in list(vars(mod).values()):
                    for fn in (val, getattr(val, "__wrapped__", None)):  # traced or not
                        getattr(fn, "cache_clear", lambda: None)()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as e:  # argparse rejects a command line this way
                code = e.code
        return code, out.getvalue(), err.getvalue()

    def pin_doc(self, c: int, result):
        """The pinned part of a successful command's output; None for probes."""
        label, _, want_code, _ = self._entry(c)
        if want_code != 0:
            return None
        doc = {"csv": result[1]} if label == "intervals" else json.loads(result[1])
        if label == "solve":
            doc.pop("witness")  # maximum sets are not unique; checked independently
        return doc

    def check(self, c: int, result) -> tuple[int, list[str]]:
        label = self.kind(c)
        why = self._problem(c, result)
        return (1, [f"{label}: {why}"]) if why else (0, [])

    def _problem(self, c: int, result) -> str | None:
        label, _, want_code, seeded = self._entry(c)
        code, out, err = result
        if code != want_code:
            return f"exit code {code}, expected {want_code}: {err.strip()[-200:]}"
        if "Traceback" in err:
            return "traceback on stderr"
        if want_code != 0:
            try:
                doc = json.loads(err)
            except ValueError:
                return f"stderr is not a single JSON object: {err[:200]!r}"
            if not isinstance(doc, dict) or "error" not in doc or out:
                return "error report is not one JSON object with an 'error' key"
            if want_code == 3 and not (doc["error"] == "node_limit"
                                       and doc.get("nodes", 0) > NODE_LIMIT_PROBE):
                return f"node-limit stop reported no partial tally: {doc}"
            return None
        if err:
            return f"unexpected stderr: {err[:200]!r}"
        try:
            doc = json.loads(out) if label != "intervals" else None
        except ValueError:
            return "stdout is not JSON"
        if label == "solve":
            witness = sum(1 << v for v in doc["witness"])
            p = checks.witness_problem(self.rows30, 30, 3, doc["size"], witness)
            if p:
                return p
        if label == "census-graph":
            e = sum(r.bit_count() for r in self.rows512) // 2
            want = {"0": comb(512, 2) - e, "1": e}
            if doc["counts"] != want or doc["total"] != comb(512, 2):
                return f"census counts {doc['counts']} != {want} from the file's own edges"
        if label == "structure" and doc["found"]:
            p = checks.structure_problem(
                graphs.sample_graph(18, self.structure_seed).rows, 18, 2, 1, 4,
                [sum(1 << v for v in part) for part in doc["parts"]],
                [sum(1 << v for v in cover) for cover in doc["covers"]],
            )
            if p:
                return p
        if label in self.pins and (not seeded or self.seed == DEFAULT_SEED):
            return checks.fingerprint_mismatch(
                checks.fingerprint(self.pin_doc(c, result)), self.pins[label]
            )
        return None

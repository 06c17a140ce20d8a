"""Regenerate pins.json, the fingerprints the correctness gate compares with.

    python3 perfbench/pin.py [WORKLOAD ...]    (from the root of a checkout)

Pins hold the default seed's outputs of the first PIN_CALLS calls of each
library workload and of every CLI command.  Regenerate them only when an
output is meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# about twice the calls a 25 s run completes today, so faster code stays covered
PIN_CALLS = {"poisson_census": 800, "alpha_solver": 600}


def dump(pins: dict) -> str:
    """pins.json text with one pinned call or command per line."""
    parts = []
    for name, entries in pins.items():
        if isinstance(entries, dict):
            body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
            parts.append(f"{json.dumps(name)}: {{\n{body}\n}}")
        else:
            body = ",\n".join(f"  {json.dumps(v)}" for v in entries)
            parts.append(f"{json.dumps(name)}: [\n{body}\n]")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main(names: list[str]) -> int:
    pins: dict = json.loads((HERE / "pins.json").read_text())
    names = names or [*PIN_CALLS, "cli_oneshot"]
    for name in [n for n in PIN_CALLS if n in names]:
        count = PIN_CALLS[name]
        patches = tracing.Patches()
        wl = workloads.library_workload(name, workloads.DEFAULT_SEED, patches)
        wl.warm_up()
        pins[name] = []
        for c in range(count):
            report = wl.call(c)
            failed, why = wl.check(c, report)
            if failed:
                sys.stderr.write(f"{name}: {why}\n")
                return 1
            pins[name].append(checks.fingerprint(wl.pin_doc(c, report)))
        patches.remove()
        print(f"{name}: {count} calls pinned", flush=True)
    cli = workloads.CliOneshot(workloads.DEFAULT_SEED, ROOT)
    commands = enumerate(cli.commands) if "cli_oneshot" in names else []
    for c, (label, _, code, _) in commands:
        result = cli.call(c)
        failed, why = cli.check(c, result)
        if failed:
            sys.stderr.write(f"cli_oneshot: {why}\n")
            return 1
        if code == 0:
            pins["cli_oneshot"][label] = checks.fingerprint(cli.pin_doc(c, result))
    (HERE / "pins.json").write_text(dump(pins))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

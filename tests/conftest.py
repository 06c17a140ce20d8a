"""Shared test infrastructure.

Acceptance tests register a one-line verdict through record_acceptance();
the pytest_terminal_summary hook prints the collected lines at the end of
the run so the verdict table appears in captured output even when all
tests pass.  node_free_digest() hashes a JSON document with its search
effort accounting removed, for goldens that a faster kernel must not move.
"""

from __future__ import annotations

import hashlib
import json
import time

_ACCEPTANCE_LINES: list[tuple[str, bool, str]] = []


def record_acceptance(criterion: str, passed: bool, detail: str) -> None:
    _ACCEPTANCE_LINES.append((criterion, passed, detail))


class AcceptanceTimer:
    """Context manager capturing wall time for a criterion's detail line."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


def _strip_nodes(doc):
    if isinstance(doc, dict):
        return {k: _strip_nodes(v) for k, v in doc.items() if k != "nodes"}
    if isinstance(doc, list):
        return [_strip_nodes(v) for v in doc]
    return doc


def node_free_digest(text: str) -> str:
    """sha256 of a JSON document with every "nodes" key removed at any depth."""
    doc = _strip_nodes(json.loads(text))
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    tr = terminalreporter
    tr.ensure_newline()
    tr.section("acceptance criteria")
    for criterion, passed, detail in _ACCEPTANCE_LINES:
        verdict = "PASS" if passed else "FAIL"
        tr.line(f"{criterion:<12} {verdict}  {detail}")
    passed_n = sum(1 for _, ok, _ in _ACCEPTANCE_LINES if ok)
    tr.line(f"{passed_n}/{len(_ACCEPTANCE_LINES)} acceptance checks green")

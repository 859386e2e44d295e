"""Deterministic machine-readable reports.

A report is a plain JSON document with sorted keys; scalars are rendered as
decimal strings ("n/d" for non-integer rationals), so identical
configurations produce byte-identical files.  Wall-clock timing is never
written into the report body; the CLI prints it to stderr instead.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__

SCHEMA = "hbv-report/1"


def canonical(value):
    """Recursively convert a result tree into JSON-stable primitives."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    return str(value)


def build_report(command: str, config: dict, results: dict,
                 checks: CheckReport | None) -> dict:
    """The report of one command: its config, its results and the checks of
    ``checks``, flattened by ``checks_from``; ``ok`` when every check
    passes (so also when there is none)."""
    flat = checks_from(checks) if checks is not None else []
    return {
        "schema": SCHEMA,
        "tool": {"name": "hbv", "version": __version__},
        "command": command,
        "config": canonical(config),
        "results": canonical(results),
        "checks": flat,
        "ok": all(c["ok"] for c in flat),
    }


def render(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def emit(report: dict, path=None) -> str:
    """Serialize canonically; optionally write to a file.  Returns the text."""
    text = render(report)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


class CheckReport:
    """The outcome of an identity suite: named checks in the order they ran,
    each with its verdict and, when it fails, an optional witness."""

    def __init__(self):
        self.checks = []  # (name, ok, witness-or-None)

    def record(self, name, ok, witness=None):
        self.checks.append((name, bool(ok), witness))

    def all_ok(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(n, w) for n, ok, w in self.checks if not ok]

    def counts(self):
        good = sum(1 for _, ok, _ in self.checks if ok)
        return good, len(self.checks)

    def __repr__(self):
        good, total = self.counts()
        return f"CheckReport({good}/{total} checks pass)"


def checks_from(report_obj: CheckReport) -> list:
    """Flatten a ``CheckReport`` into check dicts; a witness is kept only on
    a failed check."""
    out = []
    for name, ok, witness in report_obj.checks:
        entry = {"name": name, "ok": bool(ok)}
        if witness is not None and not ok:
            entry["witness"] = canonical(witness)
        out.append(entry)
    return out

#!/usr/bin/env python
"""Render an observability hostprof artifact as a Markdown summary.

Reads a ``repro-obs-hostprof/1`` JSON file (written by ``python -m
repro.harness ... --hostprof-out``), prints a phase-accounting table to
stdout, and appends the same table to ``$GITHUB_STEP_SUMMARY`` when that
variable is set — so the CI obs-artifacts job surfaces where host time
goes (simulate vs verify vs build, cache and dispatch) without anyone
downloading the artifact.

Usage::

    python tools/obs_summary.py obs-hostprof.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _fmt_ns(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.1f}ms"
    return f"{ns / 1e3:.0f}µs"


def _phase_rows(section: dict) -> list:
    phases = section.get("phases", {})
    order = sorted(phases.items(), key=lambda kv: -kv[1]["ns"])
    return [(name, p["ns"], p["calls"], p["share"]) for name, p in order]


def render(doc: dict) -> list:
    lines = [
        "## Observability: host phase accounting",
        "",
        f"experiment: **{doc.get('experiment', '?')}** "
        f"(`{doc.get('schema', '?')}`)",
        "",
    ]

    harness = doc.get("harness", {})
    if harness.get("phases"):
        lines += [
            "### Harness",
            "",
            "| phase | wall | calls | share |",
            "|---|---:|---:|---:|",
        ]
        for name, ns, calls, share in _phase_rows(harness):
            lines.append(f"| {name} | {_fmt_ns(ns)} | {calls} "
                         f"| {share:.1%} |")
        lines.append("")

    for point in doc.get("points", []):
        name = point.get("name", "?")
        section = point.get("hostprof", {})
        lines += [
            f"### {name}",
            "",
            "| phase | wall | calls | share |",
            "|---|---:|---:|---:|",
        ]
        for pname, ns, calls, share in _phase_rows(section):
            lines.append(f"| {pname} | {_fmt_ns(ns)} | {calls} "
                         f"| {share:.1%} |")
        lines.append("")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Markdown summary of a repro-obs-hostprof/1 artifact.")
    parser.add_argument("hostprof", help="hostprof JSON (--hostprof-out)")
    args = parser.parse_args(argv)

    try:
        with open(args.hostprof) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"obs_summary: cannot read {args.hostprof}: {exc}",
              file=sys.stderr)
        return 2

    lines = render(doc)
    print("\n".join(lines))

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

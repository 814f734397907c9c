#!/usr/bin/env python
"""Render a run report's host phase accounting as a Markdown summary.

Reads a ``repro-obs-report/2`` JSON file (written by ``python -m
repro.harness ... --report-json``), prints its harness and per-point
phase-accounting tables to stdout, and appends the same tables to
``$GITHUB_STEP_SUMMARY`` when that variable is set — so the CI
obs-artifacts job surfaces where host time goes (simulate vs verify vs
build, cache and dispatch) without anyone downloading the artifact.

Usage::

    python tools/obs_summary.py obs-report.json
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


def _table(heading: str, section: dict) -> list:
    lines = [f"### {heading}", "", "| phase | wall | calls | share |",
             "|---|---:|---:|---:|"]
    phases = section.get("phases", {})
    for name, p in sorted(phases.items(), key=lambda kv: -kv[1]["ns"]):
        lines.append(f"| {name} | {_fmt_ns(p['ns'])} | {p['calls']} "
                     f"| {p['share']:.1%} |")
    return lines + [""]


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
        lines += _table("Harness", harness)
    for point in doc.get("points", []):
        if "hostprof" not in point:  # the point ran unobserved
            continue
        system = "commtm" if point.get("commtm") else "baseline"
        name = f"{point.get('name', '?')} t={point.get('num_threads')} {system}"
        lines += _table(name, point["hostprof"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Markdown summary of a repro-obs-report/2 run report.")
    parser.add_argument("report", help="run report JSON (--report-json)")
    args = parser.parse_args(argv)

    try:
        with open(args.report) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"obs_summary: cannot read {args.report}: {exc}",
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

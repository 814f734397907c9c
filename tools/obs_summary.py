#!/usr/bin/env python
"""Render a run report's host phase accounting as a Markdown summary.

Reads a ``repro-obs-report/2`` JSON file (written by ``python -m
repro.harness ... --report-json``), prints its harness and per-point
phase-accounting tables to stdout, and appends the same tables to
``$GITHUB_STEP_SUMMARY`` when that variable is set — so the CI
obs-artifacts job surfaces where host time goes (simulate vs verify vs
build, cache and dispatch) without anyone downloading the artifact.

Each observed point also gets a line comparing its abort attribution's
wasted cycles (backoff included) with its ``wasted_by_cause`` total,
Fig. 18's. The two count the same cycles, so the tool exits 1 when they
differ on any point: the run document no longer explains Fig. 18.

Usage::

    python tools/obs_summary.py obs-report.json

Exit status: 0, 1 when a point's totals differ, 2 on an unreadable file.
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


def _wasted_totals(point: dict) -> tuple:
    """An observed point's abort-attribution wasted cycles and its
    Fig. 18 total, ``sum(wasted_by_cause)``."""
    attributed = sum(row["wasted_cycles"]
                     for row in point.get("abort_attribution", ()))
    return attributed, sum(point.get("wasted_by_cause", {}).values())


def _observed(doc: dict) -> list:
    # A point that ran unobserved has no host phases or attribution.
    return [point for point in doc.get("points", []) if "hostprof" in point]


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
    for point in _observed(doc):
        system = "commtm" if point.get("commtm") else "baseline"
        name = f"{point.get('name', '?')} t={point.get('num_threads')} {system}"
        lines += _table(name, point["hostprof"])
        attributed, fig18 = _wasted_totals(point)
        relation = "==" if attributed == fig18 else "!="
        lines += [f"Fig. 18 wasted cycles: abort attribution {attributed} "
                  f"{relation} wasted_by_cause {fig18}", ""]
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
    differ = sum(attributed != fig18 for attributed, fig18
                 in map(_wasted_totals, _observed(doc)))
    if differ:
        print(f"obs_summary: {differ} point(s) whose abort attribution "
              f"does not sum to wasted_by_cause", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

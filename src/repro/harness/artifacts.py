"""Observability artifacts for harness runs.

``run_experiment`` returns rendered text, not result objects — good for
humans, useless for machines. This module gives the CLI a side channel:
:func:`install_sink` arms a module-level collector, :func:`notify` is
called by the sweep layer (:func:`~repro.harness.parallel.run_points`,
which every sweep goes through) with every batch of
:class:`~repro.harness.runner.ExperimentResult`\\ s it produces, and
:func:`write_outputs` turns the collected points into the ``--trace-out``
(Perfetto trace) and ``--report-json`` (run report) files after the
experiment's report has printed.

The sink is process-local. Sweep workers never install one — results come
back to the parent through the pool (obs payloads ride along in
``result.info["obs"]``), and the parent's ``run_points`` call notifies.
"""

from __future__ import annotations

import json
from typing import List, Optional

from ..obs.perfetto import merge_traces
from ..obs.report import run_report

_sink: Optional["ResultSink"] = None


class ResultSink:
    """Collects every ExperimentResult the sweep layer produces, in
    first-seen order, deduplicating repeated notifications of the same
    object (run_points returns cached/shared results multiple times)."""

    def __init__(self):
        self.results: List = []
        self._seen = set()

    def add(self, results) -> None:
        for result in results:
            if result is None or not hasattr(result, "info"):
                continue
            if id(result) in self._seen:
                continue
            self._seen.add(id(result))
            self.results.append(result)


def install_sink() -> ResultSink:
    global _sink
    _sink = ResultSink()
    return _sink


def clear_sink() -> None:
    global _sink
    _sink = None


def notify(results) -> None:
    """Offer a batch of results to the installed sink (no-op without one)."""
    if _sink is not None:
        _sink.add(results)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def point_label(result) -> str:
    system = "commtm" if result.commtm else "baseline"
    return f"{result.name} t={result.num_threads} {system}"


def write_trace(path: str, results) -> None:
    """Merged Chrome/Perfetto trace: one process per observed sweep point."""
    traces = [(point_label(r), r.info["obs"]["trace"]) for r in results
              if isinstance(r.info, dict) and "obs" in r.info]
    with open(path, "w") as fh:
        json.dump(merge_traces(traces), fh)


def write_report(path: str, experiment: str, results, *, threads=None,
                 scale=None) -> None:
    with open(path, "w") as fh:
        json.dump(run_report(experiment, results, threads=threads,
                             scale=scale), fh, indent=2)


def write_outputs(experiment: str, results, *, trace_out=None,
                  report_json=None, threads=None, scale=None) -> List[str]:
    """Write every requested artifact; returns the paths written."""
    written = []
    if trace_out:
        write_trace(trace_out, results)
        written.append(trace_out)
    if report_json:
        write_report(report_json, experiment, results, threads=threads,
                     scale=scale)
        written.append(report_json)
    return written


__all__ = ["ResultSink", "clear_sink", "install_sink", "notify",
           "point_label", "write_outputs", "write_report", "write_trace"]

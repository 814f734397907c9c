"""Host-side phase accountant: where does *wall-clock* go?

Every other number in :mod:`repro.obs` is simulated time. This module
accounts the simulator's own execution on the host — ``perf_counter_ns``
deltas taken at phase boundaries, never per operation — so "why is this
run slow on my machine" is answerable from the same artifact bundle as
"why is this run slow in simulated cycles". Phases are coarse by
contract: ``build_machine``, ``build_workload``, ``simulate`` and
``verify`` around one run, plus ``cache_get`` / ``cache_put`` /
``experiment`` accumulated process-wide in :data:`HARNESS_PROF`.

The accountant is zero-dependency and cheap enough to leave armed: two
``perf_counter_ns`` calls and two dict adds per phase boundary.

:meth:`HostProfiler.report` is a section of the versioned run report
(:mod:`repro.obs.report`); :meth:`~HostProfiler.trace_events` renders the
retained intervals as a Chrome ``X`` lane (host wall microseconds) that
the Perfetto exporter appends as its own thread.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Dict, List

#: Bound on *retained* per-interval events; totals and call counts keep
#: accumulating past it, and the report records how many were dropped.
DEFAULT_EVENT_LIMIT = 4096


class HostProfiler:
    """Accumulates wall-clock by named phase for one run (or process)."""

    __slots__ = ("totals", "calls", "events", "dropped", "limit", "_origin")

    def __init__(self, limit: int = DEFAULT_EVENT_LIMIT):
        #: phase name -> accumulated nanoseconds.
        self.totals: Dict[str, int] = {}
        #: phase name -> boundary-pair count.
        self.calls: Dict[str, int] = {}
        #: Retained intervals: ``(phase, start_ns_since_origin, dur_ns)``.
        self.events: List[tuple] = []
        self.dropped = 0
        self.limit = limit
        self._origin = perf_counter_ns()

    # --- recording ----------------------------------------------------------

    def start(self) -> int:
        """Open a phase: returns the timestamp to pass to :meth:`stop`."""
        return perf_counter_ns()

    def stop(self, phase: str, t0: int) -> None:
        """Close a phase opened at ``t0`` and account the delta."""
        self._account(phase, t0 - self._origin, perf_counter_ns() - t0)

    def add(self, phase: str, dur_ns: int) -> None:
        """Account an externally measured duration (e.g. a phase timed
        before this profiler existed, like machine construction)."""
        if dur_ns < 0:
            dur_ns = 0
        self._account(phase, perf_counter_ns() - self._origin - dur_ns,
                      dur_ns)

    def _account(self, phase: str, start: int, dur: int) -> None:
        if start < 0:
            # An externally measured phase (add) may have begun before
            # this profiler existed — machine construction times itself
            # around the Observer's birth. Clamp to the origin so the
            # trace lane stays monotonic from ts 0.
            start = 0
        self.totals[phase] = self.totals.get(phase, 0) + dur
        self.calls[phase] = self.calls.get(phase, 0) + 1
        if len(self.events) < self.limit:
            self.events.append((phase, start, dur))
        else:
            self.dropped += 1

    # --- exports ------------------------------------------------------------

    def report(self) -> dict:
        """Plain-dict run-report section (picklable, JSON-ready)."""
        total = sum(self.totals.values())
        return {
            "total_ns": total,
            "phases": {
                name: {
                    "ns": ns,
                    "calls": self.calls[name],
                    "share": round(ns / total, 4) if total else 0.0,
                }
                for name, ns in sorted(self.totals.items())
            },
            "dropped_events": self.dropped,
        }

    def trace_events(self) -> List[dict]:
        """Retained intervals as Chrome ``X`` events in host wall
        microseconds (the exporter assigns the lane identity). Sub-µs
        intervals clamp to 1 so they stay visible."""
        return [
            {"ph": "X", "name": phase, "cat": "host", "tid": 0,
             "ts": start // 1000, "dur": max(dur // 1000, 1), "args": {}}
            for phase, start, dur in sorted(self.events,
                                            key=lambda e: e[1])
        ]


#: Process-wide accountant for phases with no per-run Observer to hang
#: off: result-cache lookups/stores and whole-experiment dispatch. The
#: run report's ``harness`` section is its report, beside the per-point
#: sections. Worker processes accumulate their own instance; only the
#: parent's is reported (cache and dispatch run in the parent).
HARNESS_PROF = HostProfiler()


__all__ = ["DEFAULT_EVENT_LIMIT", "HARNESS_PROF", "HostProfiler"]

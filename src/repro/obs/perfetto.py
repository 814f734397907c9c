"""Chrome/Perfetto trace-event JSON export.

Produces the `Trace Event Format`_ JSON object form: ``{"traceEvents":
[...]}`` plus top-level metadata. Open the file directly in
``ui.perfetto.dev`` (or ``chrome://tracing``): each simulated core is a
named thread lane carrying its transaction spans (B/E), instant events
(reductions, gathers, barriers, NACKs, conflicts) and backoff intervals
(X), and the counter tracks (``u_lines``, ``abort_rate``) render as
graphs. Timestamps are simulated cycles presented as microseconds —
Perfetto's units are cosmetic; relative placement is what matters.

Schema ``/2`` adds an optional lane past the core lanes: the host
self-profiler's wall-clock track (phase intervals in real microseconds;
a different timebase on purpose, so it gets its own lane instead of
interleaving). Readers of ``/1`` payloads still work: the extra key is
simply absent and the export degrades to the core lanes.

Multi-point sweeps merge into one trace with one *process* per sweep
point (:func:`merge_traces`), so e.g. a thread ladder's points sit side by
side in the UI.

.. _Trace Event Format: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

#: Version tag stamped into every exported trace (bump on breaking change).
#: /2: an optional host-time lane after the core lanes.
TRACE_SCHEMA = "repro-obs-trace/2"


def _point_events(pid: int, point: str, events: List[dict],
                  host_events: Optional[List[dict]] = None) -> List[dict]:
    """One sweep point's events as a named Chrome process ``pid``.

    Stored events carry no ``pid`` and are appended in simulation order —
    chronological *per core* but interleaved across cores — so a stable
    sort by ``ts`` yields a globally ordered lane-consistent stream (B/E
    nesting per tid survives because equal timestamps keep append order).
    The host lane is appended after the core lanes and sorted on its own:
    it never emits B/E pairs, and it is on a different timebase (wall
    µs), so per-lane monotonicity is all that is required.
    """
    out: List[dict] = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0, "ts": 0,
        "args": {"name": point},
    }]
    cores = sorted({e["tid"] for e in events if "tid" in e})
    for core in cores:
        out.append({"ph": "M", "name": "thread_name", "pid": pid,
                    "tid": core, "ts": 0, "args": {"name": f"core {core}"}})
    for event in sorted(events, key=lambda e: e["ts"]):
        tagged = dict(event)
        tagged["pid"] = pid
        out.append(tagged)
    if host_events:
        lane = (cores[-1] + 1) if cores else 1
        out.append({"ph": "M", "name": "thread_name", "pid": pid,
                    "tid": lane, "ts": 0,
                    "args": {"name": "host (wall µs)"}})
        for event in sorted(host_events, key=lambda e: e["ts"]):
            tagged = dict(event)
            tagged["pid"] = pid
            tagged["tid"] = lane
            out.append(tagged)
    return out


def chrome_trace(observer, pid: int = 0, point: Optional[str] = None) -> dict:
    """Export one Observer's recording as a Chrome trace-event object."""
    recorder = observer.recorder
    recorder.close_open_spans()
    return {
        "schema": TRACE_SCHEMA,
        "displayTimeUnit": "ms",
        "traceEvents": _point_events(
            pid, point or "run", recorder.events,
            host_events=observer.hostprof.trace_events()),
        "otherData": {
            "dropped_events": recorder.dropped,
            "event_counts": recorder.counts(),
        },
    }


def merge_traces(point_traces: Iterable[Tuple[str, dict]]) -> dict:
    """Merge per-point trace payloads into one multi-process trace.

    ``point_traces`` yields ``(point_label, trace_payload)`` pairs where
    the payload is the ``"trace"`` entry of ``Observer.payload()`` (the
    form the harness attaches to ``ExperimentResult.info["obs"]``).
    Payloads written before schema ``/2`` carry no ``host_events`` key;
    they merge as core-lanes-only points.
    """
    events: List[dict] = []
    dropped = 0
    counts: dict = {}
    for pid, (point, payload) in enumerate(point_traces):
        dropped += payload.get("dropped", 0)
        for name, n in payload.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + n
        events.extend(_point_events(
            pid, point, payload["events"],
            host_events=payload.get("host_events")))
    return {
        "schema": TRACE_SCHEMA,
        "displayTimeUnit": "ms",
        "traceEvents": events,
        "otherData": {
            "dropped_events": dropped,
            "event_counts": counts,
        },
    }


__all__ = ["TRACE_SCHEMA", "chrome_trace", "merge_traces"]

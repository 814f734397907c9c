"""Structured trace recorder: typed span, instant, and counter events.

Events are stored directly in Chrome trace-event form (``ph`` B/E/X/i/C
dicts without a ``pid``; the exporter injects lane identity), appended in
the order the simulation produces them — per core that order is
chronological, which is what lets the exporter's stable sort keep B/E
pairs matched.

The recorder is bounded: past ``limit`` events new ones are *counted* as
dropped, never silently lost. Span *ends* bypass the limit while a span
is open on that core — at most one per core — so truncated traces still
parse as well-formed B/E trees in Perfetto.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Default event-list bound. Generous for micro/app runs at harness scale;
#: the exporter records the dropped count so truncation is always visible.
DEFAULT_LIMIT = 250_000


class TraceRecorder:
    """Collects trace events for one simulated machine."""

    def __init__(self, limit: int = DEFAULT_LIMIT):
        self.limit = limit
        self.events: List[dict] = []
        self.dropped = 0
        self.max_ts = 0
        self._open: Dict[int, int] = {}  # core -> open span depth

    # --- emission -----------------------------------------------------------

    def _emit(self, event: dict, force: bool = False) -> bool:
        ts = event.get("ts")
        if ts is not None and ts > self.max_ts:
            self.max_ts = ts
        if not force and len(self.events) >= self.limit:
            self.dropped += 1
            return False
        self.events.append(event)
        return True

    def begin_span(self, core: int, ts: int, name: str,
                   args: Optional[dict] = None) -> None:
        ok = self._emit({"ph": "B", "name": name, "cat": "tx",
                         "tid": core, "ts": ts, "args": args or {}})
        if ok:
            self._open[core] = self._open.get(core, 0) + 1

    def end_span(self, core: int, ts: int,
                 args: Optional[dict] = None) -> None:
        if self._open.get(core, 0) <= 0:
            return  # matching B was dropped (or never emitted): stay matched
        self._open[core] -= 1
        # Forced: an unmatched B would corrupt the whole lane's span tree.
        self._emit({"ph": "E", "tid": core, "ts": ts, "args": args or {}},
                   force=True)

    def complete(self, core: int, ts: int, dur: int, name: str,
                 args: Optional[dict] = None) -> None:
        self._emit({"ph": "X", "name": name, "cat": "interval", "tid": core,
                    "ts": ts, "dur": dur, "args": args or {}})

    def instant(self, core: int, ts: int, name: str,
                args: Optional[dict] = None) -> None:
        self._emit({"ph": "i", "s": "t", "name": name, "cat": "event",
                    "tid": core, "ts": ts, "args": args or {}})

    def counter(self, ts: int, name: str, value) -> None:
        self._emit({"ph": "C", "name": name, "tid": 0, "ts": ts,
                    "args": {name: value}})

    # --- finalization --------------------------------------------------------

    def close_open_spans(self, ts: Optional[int] = None) -> int:
        """Close every still-open span (e.g. a transaction in flight when
        the run ended) at ``ts`` so exports always pair B with E. Returns
        the number of spans closed."""
        if ts is None:
            ts = self.max_ts
        closed = 0
        for core, depth in sorted(self._open.items()):
            for _ in range(depth):
                self._emit({"ph": "E", "tid": core, "ts": ts,
                            "args": {"outcome": "unfinished"}}, force=True)
                closed += 1
            self._open[core] = 0
        return closed

    def cores(self) -> List[int]:
        """Every core that produced at least one event."""
        return sorted({e["tid"] for e in self.events if "tid" in e})

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            key = e.get("name", e["ph"])
            out[key] = out.get(key, 0) + 1
        if self.dropped:
            out["dropped"] = self.dropped
        return out


__all__ = ["DEFAULT_LIMIT", "TraceRecorder"]

"""The Observer: one object wiring recorder, lifecycle, and metrics.

The :class:`~repro.core.machine.Machine` installs an Observer when
``observe=True`` (or ``REPRO_OBS=1``); the engine, the conflict manager,
and the memory system each hold a slot that is ``None`` otherwise, so the
disabled mode adds no work anywhere. When installed, the engine routes
memory operations through the full protocol handlers (the
``REPRO_NO_FASTPATH`` path, proven bit-identical to the fast path by
``tests/test_fastpath_equivalence.py``) so every protocol event passes a
single choke point.

Abort attribution is assembled from three call sites, in order:

1. :meth:`conflict` / :meth:`nack` (protocol) — stage the *attacker core,
   line, and label* for the core that is about to lose;
2. :meth:`tx_rollback` (conflict manager, pre-rollback) — capture the
   victim's speculative read/write/labeled-set sizes while the bits are
   still set, and merge in the staged conflict info;
3. :meth:`tx_abort` (engine restart path) — finalize the
   :class:`~repro.obs.lifecycle.AbortRecord` with wasted and backoff
   cycles and close the transaction's trace span.
"""

from __future__ import annotations

from typing import Dict, Optional

from .hostprof import HostProfiler
from .lifecycle import AbortRecord, LifecycleTracker
from .metrics import MetricsRegistry
from .recorder import DEFAULT_LIMIT, TraceRecorder

#: Set on (anything but "", 0, false or no) to observe every run (CLI,
#: tests, benchmarks) without plumbing a flag through — same discipline as
#: REPRO_SANITIZE. Resolved into ``Machine.options.observe``.
OBS_ENV = "REPRO_OBS"


def _label_name(label) -> Optional[str]:
    return None if label is None else label.name


class Observer:
    """Collects structured telemetry for one machine run."""

    def __init__(self, machine, limit: int = DEFAULT_LIMIT):
        # The caches and directory entries the hooks read, not the
        # machine: the machine holds this observer, and a back-reference
        # would make every observed machine a reference cycle.
        self._caches = machine.msys.caches
        self._entries = machine.msys.directory._entries
        self.recorder = TraceRecorder(limit=limit)
        #: Host-side wall-clock phase accountant (see repro.obs.hostprof).
        self.hostprof = HostProfiler()
        self.lifecycle = LifecycleTracker()
        self.metrics = MetricsRegistry()
        self.commits = 0
        self.aborts = 0
        #: Staged conflict attribution per core about to abort:
        #: {"attacker": int|None, "line": int|None, "label": str|None,
        #:  "cause": str, "read_set": int, "write_set": int,
        #:  "labeled_set": int} — filled by conflict()/nack() and
        #: tx_rollback(), consumed by tx_abort().
        self._pending: Dict[int, dict] = {}

    # --- helpers --------------------------------------------------------------

    def _spec_sizes(self, core: int):
        """Speculative set sizes (lines) — call while the bits are set."""
        reads = writes = labeled = 0
        for entry in self._caches[core].spec_lines():
            if entry.spec_read:
                reads += 1
            if entry.spec_written:
                writes += 1
            if entry.spec_labeled:
                labeled += 1
        return reads, writes, labeled

    def _u_lines(self) -> int:
        """Lines with at least one U-state copy, machine-wide."""
        return sum(1 for ent in self._entries.values() if ent.u_sharers)

    def _sample_counters(self, ts: int) -> None:
        self.recorder.counter(ts, "u_lines", self._u_lines())
        total = self.commits + self.aborts
        if total:
            self.recorder.counter(ts, "abort_rate",
                                  round(self.aborts / total, 4))

    # --- engine hooks (transaction lifecycle) ---------------------------------

    def tx_begin(self, core: int, cycle: int, tx) -> None:
        self._pending.pop(core, None)
        self.lifecycle.begin(core, cycle, tx.ts)
        self.recorder.begin_span(core, cycle, "tx",
                                 args={"ts": tx.ts, "attempt": tx.attempts})

    def tx_retry(self, core: int, cycle: int, tx) -> None:
        self.lifecycle.retry(core, tx.attempts)
        self.recorder.begin_span(core, cycle, "tx",
                                 args={"ts": tx.ts, "attempt": tx.attempts})

    def tx_commit(self, core: int, cycle: int, tx) -> None:
        # Runs BEFORE HtmRuntime.commit: commit_all() clears the spec bits
        # this reads.
        reads, writes, labeled = self._spec_sizes(core)
        self.lifecycle.commit(core, cycle,
                              committed_cycles=tx.cycles_this_attempt,
                              read_set=reads, write_set=writes,
                              labeled_set=labeled)
        self.commits += 1
        self.recorder.end_span(core, cycle, args={
            "outcome": "commit", "attempt": tx.attempts,
            "read_set": reads, "write_set": writes, "labeled_set": labeled,
        })
        self._sample_counters(cycle)

    def tx_abort(self, core: int, cycle: int, tx, stall: int) -> None:
        # Runs on the engine's restart path, after the attempt's wasted
        # cycles are final and the backoff stall is known.
        info = self._pending.pop(core, {})
        cause = info.get("cause")
        if cause is None:
            cause = tx.abort_cause.value if tx.abort_cause else "other"
        record = AbortRecord(
            cycle=cycle, attempt=tx.attempts, cause=cause,
            attacker=info.get("attacker"), line=info.get("line"),
            label=info.get("label"),
            wasted_cycles=tx.cycles_this_attempt, backoff_cycles=stall,
            read_set=info.get("read_set", 0),
            write_set=info.get("write_set", 0),
            labeled_set=info.get("labeled_set", 0),
        )
        self.lifecycle.abort(core, record)
        self.aborts += 1
        self.recorder.end_span(core, cycle, args={
            "outcome": "abort", "attempt": tx.attempts, "cause": cause,
            "attacker": record.attacker, "line": record.line,
            "label": record.label,
        })
        if stall:
            self.recorder.complete(core, cycle, stall, "backoff",
                                   args={"attempt": tx.attempts,
                                         "cause": cause})
        self._sample_counters(cycle)

    def barrier(self, core: int, cycle: int) -> None:
        """``core`` arrived at a barrier."""
        self.recorder.instant(core, cycle, "barrier")

    # --- conflict-manager hooks -----------------------------------------------

    def conflict(self, victim_core: int, line_no: int, requester,
                 trigger, entry, cause) -> None:
        """A request from ``requester`` is about to abort ``victim_core``."""
        attacker = requester.core if requester.core >= 0 else None
        self._pending[victim_core] = {
            "attacker": attacker, "line": line_no,
            "label": _label_name(entry.label), "cause": cause.value,
        }
        if requester.now is not None:
            self.recorder.instant(victim_core, requester.now, "conflict",
                                  args={"line": line_no,
                                        "attacker": attacker,
                                        "trigger": trigger.name.lower(),
                                        "cause": cause.value})

    def tx_rollback(self, core: int, tx, cause) -> None:
        """Called by ConflictManager.abort before rollback_all clears the
        speculative bits; merges set sizes into the staged attribution."""
        reads, writes, labeled = self._spec_sizes(core)
        info = self._pending.setdefault(core, {})
        info.setdefault("cause", cause.value)
        info["read_set"] = reads
        info["write_set"] = writes
        info["labeled_set"] = labeled

    # --- protocol hooks -------------------------------------------------------

    def touch(self, line_no: int, label=None) -> None:
        self.metrics.touch(line_no, _label_name(label))

    def nack(self, requester, victim: int, line_no: int, entry,
             trigger) -> None:
        """``victim`` NACKed ``requester``'s request: the requester will
        abort, with the NACKing core as the attacker."""
        self.metrics.nack(line_no)
        if requester.core >= 0:
            self._pending[requester.core] = {
                "attacker": victim, "line": line_no,
                "label": _label_name(entry.label),
            }
        if requester.now is not None:
            self.recorder.instant(requester.core, requester.now, "nack",
                                  args={"line": line_no, "by": victim,
                                        "trigger": trigger.name.lower()})

    def reduction(self, core: int, line_no: int, label, forwarded: int,
                  nacked: int, latency: int, ts: Optional[int]) -> None:
        self.metrics.reduction(line_no, _label_name(label),
                               invalidated=forwarded)
        if ts is not None:
            self.recorder.instant(core, ts, "reduction",
                                  args={"line": line_no,
                                        "label": _label_name(label),
                                        "lines": forwarded,
                                        "nacked": nacked,
                                        "latency": latency})
            self._sample_counters(ts)

    def gather(self, core: int, line_no: int, label, sharers: int,
               donations: int, nacked: int, latency: int,
               ts: Optional[int]) -> None:
        self.metrics.gather(line_no, _label_name(label))
        if ts is not None:
            self.recorder.instant(core, ts, "gather",
                                  args={"line": line_no,
                                        "label": _label_name(label),
                                        "sharers": sharers,
                                        "donations": donations,
                                        "nacked": nacked,
                                        "latency": latency})
            self._sample_counters(ts)

    def invalidated(self, line_no: int, count: int = 1) -> None:
        self.metrics.invalidation(line_no, count)

    # --- exports --------------------------------------------------------------

    def hot_lines(self, k: int = 16):
        return self.metrics.top(k)

    def trace(self, pid: int = 0, point: Optional[str] = None) -> dict:
        from .perfetto import chrome_trace
        return chrome_trace(self, pid=pid, point=point)

    def payload(self, max_transactions: int = 5000) -> dict:
        """Plain-dict snapshot attached to ``ExperimentResult.info`` — must
        stay picklable (it crosses the sweep worker pool)."""
        self.recorder.close_open_spans()
        records = self.lifecycle.records
        return {
            "trace": {
                "events": list(self.recorder.events),
                "dropped": self.recorder.dropped,
                "counts": self.recorder.counts(),
                # Host wall-clock lane: varies run to run, unlike the
                # simulated-time events above.
                "host_events": self.hostprof.trace_events(),
            },
            "hostprof": self.hostprof.report(),
            "lifecycle": {
                "summary": self.lifecycle.summary(),
                "abort_attribution": self.lifecycle.attribution(),
                "transactions": [r.as_dict()
                                 for r in records[:max_transactions]],
                "transactions_truncated": max(
                    0, len(records) - max_transactions),
            },
            "metrics": {
                "hot_lines": self.metrics.top(),
                "per_label": self.metrics.per_label(),
            },
        }


__all__ = ["OBS_ENV", "Observer"]

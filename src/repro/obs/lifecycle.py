"""Per-transaction lifecycle records and abort attribution.

One :class:`TxRecord` per transaction (not per attempt): retries accumulate
:class:`AbortRecord` entries carrying the Fig. 18 cause *plus* what the
aggregate stats cannot answer — which core's request killed the attempt, on
which line, under which label, and how big the victim's read/write/labeled
sets were at that moment. :meth:`LifecycleTracker.attribution` folds the
abort events into an address/label-level table, extending the paper's
cause-level wasted-work breakdown to line granularity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(slots=True)
class AbortRecord:
    """One aborted attempt of a transaction."""

    cycle: int                      # victim-local cycle of the restart
    attempt: int                    # which attempt died (1-based)
    cause: str                      # WastedCause.value
    attacker: Optional[int] = None  # core whose request aborted us
    line: Optional[int] = None      # conflicting line number
    label: Optional[str] = None     # label of the conflicting line
    wasted_cycles: int = 0          # begin to restart, dooming op included
    backoff_cycles: int = 0         # randomized stall before the retry
    read_set: int = 0               # speculative set sizes at abort (lines)
    write_set: int = 0
    labeled_set: int = 0

    def as_dict(self) -> dict:
        return {
            "cycle": self.cycle, "attempt": self.attempt,
            "cause": self.cause, "attacker": self.attacker,
            "line": self.line, "label": self.label,
            "wasted_cycles": self.wasted_cycles,
            "backoff_cycles": self.backoff_cycles,
            "read_set": self.read_set, "write_set": self.write_set,
            "labeled_set": self.labeled_set,
        }


@dataclass(slots=True)
class TxRecord:
    """Lifecycle of one transaction, across all its attempts."""

    core: int
    ts: int                          # conflict-resolution timestamp
    begin_cycle: int
    outcome: str = "running"         # "committed" | "running"
    end_cycle: Optional[int] = None
    attempts: int = 1
    committed_cycles: int = 0        # cycles of the successful attempt
    wasted_cycles: int = 0           # cycles across all dead attempts
    backoff_cycles: int = 0
    read_set: int = 0                # speculative set sizes at commit (lines)
    write_set: int = 0
    labeled_set: int = 0
    aborts: List[AbortRecord] = field(default_factory=list)

    @property
    def retries(self) -> int:
        return self.attempts - 1

    def as_dict(self) -> dict:
        return {
            "core": self.core, "ts": self.ts,
            "begin_cycle": self.begin_cycle, "end_cycle": self.end_cycle,
            "outcome": self.outcome, "attempts": self.attempts,
            "committed_cycles": self.committed_cycles,
            "wasted_cycles": self.wasted_cycles,
            "backoff_cycles": self.backoff_cycles,
            "read_set": self.read_set, "write_set": self.write_set,
            "labeled_set": self.labeled_set,
            "aborts": [a.as_dict() for a in self.aborts],
        }


class LifecycleTracker:
    """Maintains open records per core; finished ones stay queryable."""

    def __init__(self):
        self.records: List[TxRecord] = []
        self._open: Dict[int, TxRecord] = {}

    # --- recording (driven by the Observer) ----------------------------------

    def begin(self, core: int, cycle: int, ts: int) -> TxRecord:
        rec = TxRecord(core=core, ts=ts, begin_cycle=cycle)
        self.records.append(rec)
        self._open[core] = rec
        return rec

    def retry(self, core: int, attempt: int) -> None:
        rec = self._open.get(core)
        if rec is not None:
            rec.attempts = attempt

    def abort(self, core: int, abort: AbortRecord) -> None:
        rec = self._open.get(core)
        if rec is None:
            return
        rec.aborts.append(abort)
        rec.wasted_cycles += abort.wasted_cycles
        rec.backoff_cycles += abort.backoff_cycles

    def commit(self, core: int, cycle: int, committed_cycles: int,
               read_set: int, write_set: int, labeled_set: int) -> None:
        rec = self._open.pop(core, None)
        if rec is None:
            return
        rec.outcome = "committed"
        rec.end_cycle = cycle
        rec.committed_cycles = committed_cycles
        rec.read_set = read_set
        rec.write_set = write_set
        rec.labeled_set = labeled_set

    # --- queries --------------------------------------------------------------

    def attribution(self) -> List[dict]:
        """Address/label-level abort attribution, most-aborting lines first.

        Rows aggregate abort events by (line, label, cause); ``attackers``
        maps attacking core -> abort count. ``line`` is None when the abort
        had no single conflicting line (e.g. a capacity eviction)."""
        rows: Dict[Tuple, dict] = {}
        for rec in self.records:
            for ab in rec.aborts:
                key = (ab.line, ab.label, ab.cause)
                row = rows.get(key)
                if row is None:
                    row = rows[key] = {
                        "line": ab.line, "label": ab.label,
                        "cause": ab.cause, "aborts": 0,
                        "wasted_cycles": 0, "attackers": Counter(),
                    }
                row["aborts"] += 1
                row["wasted_cycles"] += ab.wasted_cycles + ab.backoff_cycles
                if ab.attacker is not None:
                    row["attackers"][ab.attacker] += 1
        out = sorted(rows.values(),
                     key=lambda r: (-r["aborts"], -r["wasted_cycles"],
                                    r["line"] if r["line"] is not None else -1))
        for row in out:
            row["attackers"] = {str(core): n
                                for core, n in sorted(row["attackers"].items())}
        return out

    def summary(self) -> dict:
        committed = sum(1 for r in self.records if r.outcome == "committed")
        retries = [r.retries for r in self.records]
        hist: Counter = Counter(retries)
        return {
            "transactions": len(self.records),
            "committed": committed,
            "aborted_attempts": sum(len(r.aborts) for r in self.records),
            "total_retries": sum(retries),
            "max_retries": max(retries, default=0),
            "retries_histogram": {str(k): hist[k] for k in sorted(hist)},
            "wasted_cycles": sum(r.wasted_cycles for r in self.records),
            "backoff_cycles": sum(r.backoff_cycles for r in self.records),
            "max_read_set": max((r.read_set for r in self.records), default=0),
            "max_write_set": max((r.write_set for r in self.records),
                                 default=0),
            "max_labeled_set": max((r.labeled_set for r in self.records),
                                   default=0),
        }


__all__ = ["AbortRecord", "TxRecord", "LifecycleTracker"]

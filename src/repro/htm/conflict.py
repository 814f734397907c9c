"""Conflict detection and resolution (Sec. III-B3, Figs. 6 and 18).

The coherence protocol notifies this manager whenever a request hits a line
that some other core's transaction has speculatively read, written, or
labeled-accessed. The manager applies the configured resolution policy:

* ``timestamp`` (paper default): the earlier transaction wins. If the
  requester is older (or non-speculative — those carry no timestamp and
  cannot be NACKed), the victim aborts; otherwise the victim NACKs and the
  requester will abort.
* ``requester_wins``: the victim always aborts (an ablation; exhibits the
  classic friendly-fire pathologies the paper's baseline avoids).

Aborting a victim rolls its private cache back synchronously, so the
triggering request observes only non-speculative data. Wasted cycles are
attributed to a Fig. 18 category at abort time.
"""

from __future__ import annotations

from typing import List, Optional

from ..coherence.line import CacheLine
from ..coherence.messages import Requester
from ..coherence.protocol import ConflictManagerBase, Resolution, Trigger
from ..errors import ProtocolError
from ..sim.stats import Stats, WastedCause
from .transaction import Transaction

# Enum aliases (see coherence.protocol): member reads through an enum
# class take its slow ``__getattr__`` hook.
_T_READ, _T_WRITE, _T_LABELED = Trigger.READ, Trigger.WRITE, Trigger.LABELED
_T_REDUCTION_READ = Trigger.REDUCTION_READ
_T_REDUCTION_WRITE = Trigger.REDUCTION_WRITE
_T_GATHER, _T_EVICTION = Trigger.GATHER, Trigger.EVICTION
_W_OTHER = WastedCause.OTHER
_W_GATHER_AFTER_LABELED = WastedCause.GATHER_AFTER_LABELED
_W_READ_AFTER_WRITE = WastedCause.READ_AFTER_WRITE
_W_WRITE_AFTER_READ = WastedCause.WRITE_AFTER_READ
_ABORT_VICTIM, _NACK = Resolution.ABORT_VICTIM, Resolution.NACK


def victim_cause(trigger: Trigger, entry: CacheLine) -> WastedCause:
    """Fig. 18 attribution for a victim aborted by ``trigger``.

    The dominant baseline category is "Read after Write": the victim read
    (or labeled-updated) data that an incoming write-like request now
    invalidates. A downgrade by a reader that hits the victim's write set is
    "Write after Read"; split requests to speculatively-accessed lines are
    "Gather after Labeled access"; evictions and everything else are
    "Others".
    """
    if trigger is _T_GATHER:
        return _W_GATHER_AFTER_LABELED
    if trigger is _T_EVICTION:
        return _W_OTHER
    if (trigger is _T_WRITE or trigger is _T_LABELED
            or trigger is _T_REDUCTION_WRITE):
        return _W_READ_AFTER_WRITE
    if trigger is _T_READ or trigger is _T_REDUCTION_READ:
        if entry.spec_written or entry.spec_labeled:
            return _W_WRITE_AFTER_READ
        return _W_OTHER
    return _W_OTHER


class ConflictManager(ConflictManagerBase):
    """Timestamp-based conflict resolution bound to a machine's HTM state."""

    def __init__(self, caches, stats: Stats, policy: str = "timestamp"):
        self.caches = caches
        self.stats = stats
        self.policy = policy
        self.active: List[Optional[Transaction]] = [None] * len(caches)
        #: Optional Observer (set by the Machine facade; see repro.obs).
        self.obs = None

    # --- transaction registry (maintained by HtmRuntime) -------------------

    def set_active(self, core: int, tx: Optional[Transaction]) -> None:
        self.active[core] = tx

    def active_tx(self, core: int) -> Optional[Transaction]:
        return self.active[core]

    # --- ConflictManagerBase -------------------------------------------------

    def resolve(self, victim_core: int, line_no: int, requester: Requester,
                trigger: Trigger, victim_entry: CacheLine) -> Resolution:
        tx = self.active[victim_core]
        if tx is None:
            raise ProtocolError(
                f"core {victim_core} has speculative line {line_no} but no "
                f"active transaction"
            )
        must_abort = (
            requester.ts is None
            or self.policy == "requester_wins"
            or requester.ts < tx.ts
        )
        if must_abort:
            cause = victim_cause(trigger, victim_entry)
            if self.obs is not None:
                # Stage the attacker/line/label before the rollback below
                # wipes the victim's speculative state.
                self.obs.conflict(victim_core, line_no, requester, trigger,
                                  victim_entry, cause)
            self.abort(victim_core, cause)
            return _ABORT_VICTIM
        return _NACK

    def abort_requester(self, core: int, cause: WastedCause,
                        disable_labels: bool = False) -> None:
        tx = self.active[core]
        if tx is None:
            raise ProtocolError(f"abort_requester on core {core} with no tx")
        if disable_labels:
            tx.labels_disabled = True
        self.abort(core, cause)

    # --- abort machinery ------------------------------------------------------

    def abort(self, core: int, cause: WastedCause) -> None:
        """Roll back ``core``'s transaction and account the wasted work.
        Idempotent within one attempt."""
        tx = self.active[core]
        if tx is None:
            raise ProtocolError(f"abort on core {core} with no tx")
        if tx.aborted:
            return
        if self.obs is not None:
            # Speculative set sizes must be read before rollback clears them.
            self.obs.tx_rollback(core, tx, cause)
        self.caches[core].rollback_all()
        self.stats.reclassify_aborted(core, tx.cycles_this_attempt, cause)
        self.stats.aborts += 1
        tx.mark_aborted(cause)

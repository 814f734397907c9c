"""Transaction state.

Each transaction carries a unique timestamp used for conflict resolution
(Sec. III-B3): on a conflict the earlier (lower-timestamp) transaction wins.
A transaction keeps its timestamp across retries, which guarantees it
eventually becomes the oldest in the system and commits — the livelock-
freedom argument of LogTM-style conflict resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from ..sim.stats import WastedCause


@dataclass(slots=True)
class Transaction:
    """A core's transaction across its retries. It holds no cycle counts:
    the engine settles each attempt from ``start`` at commit or restart."""

    core: int
    ts: int
    attempts: int = 1
    aborted: bool = False
    abort_cause: Optional[WastedCause] = None
    #: Lines written through lazy_store (lazy conflict detection only);
    #: published at commit. Allocated on first write — eager-mode
    #: transactions (the common case) never pay for the set.
    lazy_written: Optional[Set[int]] = None
    #: Set when an unlabeled access hit the transaction's own speculatively-
    #: modified U-state data: on restart, labeled accesses execute as
    #: conventional ones (Sec. III-B4).
    labels_disabled: bool = False
    #: The core's clock when the current attempt began.
    start: int = 0

    def reset_for_retry(self) -> None:
        self.attempts += 1
        self.aborted = False
        self.abort_cause = None
        if self.lazy_written:
            self.lazy_written.clear()

"""HTM runtime: transaction begin/commit/abort bookkeeping.

The engine drives this; the coherence layer talks to the paired
:class:`~repro.htm.conflict.ConflictManager`. Timestamps are allocated from
a global counter at a transaction's *first* begin and kept across retries,
so older transactions eventually win every conflict (livelock freedom).
"""

from __future__ import annotations

from typing import Optional

from ..errors import TransactionError
from ..sim.stats import Stats
from .conflict import ConflictManager
from .transaction import Transaction


class HtmRuntime:
    def __init__(self, num_cores: int, conflicts: ConflictManager,
                 caches, stats: Stats):
        self.num_cores = num_cores
        self.conflicts = conflicts
        self.caches = caches
        self.stats = stats
        self._next_ts = 0
        # Direct alias of the conflict manager's active-transaction slots,
        # the one registry of active transactions: begin, commit and the
        # abort cycle read and write it as a plain list.
        self._active = conflicts.active

    def active(self, core: int) -> Optional[Transaction]:
        return self._active[core]

    def begin(self, core: int, ts: Optional[int] = None) -> Transaction:
        """Start a fresh transaction on ``core``.

        ``ts`` overrides the allocated timestamp — used by ordered
        speculation (``repro.runtime.ordered``), where program order *is*
        the conflict priority. Explicit timestamps must be negative so they
        never collide with (and always win against) allocated ones.
        """
        if self._active[core] is not None:
            raise TransactionError(
                f"core {core} already has an active transaction"
            )
        if ts is None:
            ts = self._next_ts
            self._next_ts += 1
        elif ts >= 0:
            raise TransactionError("explicit timestamps must be negative")
        tx = Transaction(core, ts)
        self._active[core] = tx
        return tx

    def begin_retry(self, core: int, tx: Transaction) -> Transaction:
        """Restart an aborted transaction, keeping its timestamp."""
        if not tx.aborted:
            raise TransactionError(f"retrying a live transaction on {core}")
        tx.reset_for_retry()
        self._active[core] = tx
        return tx

    def commit(self, core: int) -> None:
        tx = self._active[core]
        if tx is None:
            raise TransactionError(f"commit on core {core} with no tx")
        if tx.aborted:
            raise TransactionError(
                f"commit of an aborted transaction on core {core}"
            )
        self.caches[core].commit_all()
        self.stats.commits += 1
        self._active[core] = None

    def finish_abort(self, core: int) -> Transaction:
        """Acknowledge an abort: detach the transaction (already rolled back
        by the conflict manager) so the engine can back off and retry.

        An op whose own L1 insert evicted a speculative line aborted the
        transaction in the middle of the op, and then marked its line (a
        store also wrote it) after that rollback. The set is not empty
        then, and rolling it back again keeps the aborted attempt's
        effects out of the retry."""
        tx = self._active[core]
        if tx is None or not tx.aborted:
            raise TransactionError(f"finish_abort with no aborted tx on {core}")
        self._active[core] = None
        cache = self.caches[core]
        if cache._spec:
            cache.rollback_all()
        return tx

"""Per-core statistic columns for the vector backend's epoch path.

During an epoch the wave loop may execute thousands of operations without
ever touching the shared :class:`~repro.sim.stats.Stats` object: each
operation bumps a per-core slot in one of these columns instead. When the
run ends the columns are summed into the ordinary Stats fields — scalar
totals, plus a per-core cycle-breakdown merge for every core that ran an
epoch — so the oracle (``Stats.comparable()``) sees exactly the numbers
the interpreted engine would have produced.
"""

from __future__ import annotations


class EpochColumns:
    """Column-per-statistic, slot-per-core accumulators."""

    __slots__ = ("num_cores", "instructions", "labeled", "non_tx_cycles",
                 "tx_cycles", "commits", "by_label", "proto_ops",
                 "pred_hits", "pred_misses", "fence_causes")

    def __init__(self, num_cores: int):
        self.num_cores = num_cores
        self.instructions = [0] * num_cores
        self.labeled = [0] * num_cores
        self.non_tx_cycles = [0] * num_cores
        self.tx_cycles = [0] * num_cores
        self.commits = [0] * num_cores
        #: label name -> labeled-op count (order-insensitive Counter merge).
        self.by_label: dict = {}
        #: Host-side epoch diagnostics (scalars; flushed into host_vector_*).
        self.proto_ops = 0
        self.pred_hits = 0
        self.pred_misses = 0
        #: fence cause -> count, flushed into host_vector_fence_causes.
        #: When the observer is installed the engine stages causes in a
        #: per-epoch dict instead (so each epoch span can report its own
        #: causes) and merges them here at the epoch boundary.
        self.fence_causes: dict = {}

    def flush(self, stats) -> None:
        """Add every column into ``stats`` and reset."""
        n = self.num_cores
        stats.instructions += sum(self.instructions)
        stats.labeled_instructions += sum(self.labeled)
        stats.commits += sum(self.commits)

        breakdown = stats.breakdown
        for core, (non_tx, tx) in enumerate(zip(self.non_tx_cycles,
                                                self.tx_cycles)):
            if non_tx or tx:
                entry = breakdown[core]
                entry.non_tx += non_tx
                entry.tx_committed += tx

        if self.by_label:
            stats.labeled_by_label.update(self.by_label)
            self.by_label = {}

        stats.host_vector_proto_ops += self.proto_ops
        stats.host_vector_miss_predicted += self.pred_hits + self.pred_misses
        stats.host_vector_miss_mispredicts += self.pred_misses
        self.proto_ops = 0
        self.pred_hits = 0
        self.pred_misses = 0
        if self.fence_causes:
            stats.host_vector_fence_causes.update(self.fence_causes)
            self.fence_causes = {}

        self.instructions = [0] * n
        self.labeled = [0] * n
        self.non_tx_cycles = [0] * n
        self.tx_cycles = [0] * n
        self.commits = [0] * n

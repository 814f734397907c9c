"""Simulation statistics.

Collects everything the paper's evaluation reports:

* per-core cycle breakdown: non-transactional / transactional-committed /
  transactional-aborted (Fig. 17);
* wasted-cycle breakdown by conflict cause (Fig. 18);
* GET-request breakdown between private L2s and the shared L3:
  GETS / GETX / GETU (Fig. 19);
* commit/abort counts, reductions, gathers, splits;
* instruction counts, including labeled-instruction fractions (Sec. VII).
"""

from __future__ import annotations

import dataclasses
import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List


class WastedCause(enum.Enum):
    """Why an aborted transaction's work was wasted (Fig. 18 categories)."""

    READ_AFTER_WRITE = "Read after Write"
    WRITE_AFTER_READ = "Write after Write/Read"
    GATHER_AFTER_LABELED = "Gather after Labeled access"
    OTHER = "Others"

    # Members are singletons, so identity hashing is exact, and it keeps
    # the ``wasted_by_cause`` updates on the abort path out of the
    # Python-level ``Enum.__hash__``. A pickled Counter rehashes its keys
    # in the process that loads it.
    __hash__ = object.__hash__


@dataclass
class CoreCycleBreakdown:
    """Cycles spent by one core, split per Fig. 17."""

    non_tx: int = 0
    tx_committed: int = 0
    tx_aborted: int = 0

    @property
    def total(self) -> int:
        return self.non_tx + self.tx_committed + self.tx_aborted


@dataclass
class Stats:
    """Aggregated run statistics. One instance per simulation run."""

    num_cores: int = 0

    #: Simulated completion time of the parallel region (max core clock).
    parallel_cycles: int = 0

    # --- cycles -----------------------------------------------------------
    breakdown: List[CoreCycleBreakdown] = field(default_factory=list)
    wasted_by_cause: Counter = field(default_factory=Counter)
    shadow_thread_cycles: int = 0  # reduction/split handler work

    # --- transactions -----------------------------------------------------
    commits: int = 0
    aborts: int = 0
    nacks_sent: int = 0

    # --- coherence traffic -------------------------------------------------
    gets: int = 0   # GETS requests from private caches to L3/directory
    getx: int = 0   # GETX
    getu: int = 0   # GETU (CommTM only)
    invalidations: int = 0
    downgrades: int = 0
    forwards: int = 0          # U-state data forwards (reduction traffic)
    writebacks: int = 0
    l3_misses: int = 0
    noc_hops: int = 0

    # --- CommTM mechanisms --------------------------------------------------
    reductions: int = 0        # full reductions (lines merged counted below)
    reduction_lines: int = 0   # lines forwarded+merged across all reductions
    gathers: int = 0
    splits: int = 0
    u_evictions: int = 0

    # --- instructions -------------------------------------------------------
    instructions: int = 0
    labeled_instructions: int = 0  # labeled loads/stores + gathers
    #: Labeled operations per label name (profiling which commutative
    #: operations an application actually exercises — Table II's content).
    labeled_by_label: Counter = field(default_factory=Counter)
    #: Reductions per label name.
    reductions_by_label: Counter = field(default_factory=Counter)
    #: Gather requests per label name.
    gathers_by_label: Counter = field(default_factory=Counter)

    # --- host-side instrumentation ------------------------------------------
    # ``host_*`` fields describe the *simulator*, not the simulated machine:
    # they may legitimately differ between host-level optimizations that are
    # bit-identical in simulated behaviour, and are therefore excluded from
    # :meth:`comparable` (and from :meth:`summary`).

    #: Memory operations served as stable private-cache hits by the
    #: engine's memory-op handlers (see ``Engine._op_load`` and friends),
    #: or in the vector backend's epochs by ``MemorySystem.fast_load`` and
    #: friends.
    host_fastpath_hits: int = 0
    #: Hit probes that found no stable hit, so that the operation took
    #: the full protocol path. Operations that never probe (gathers on
    #: CommTM, lazy transactional stores) are not counted, and nothing is
    #: counted when the fast path is disabled (``REPRO_NO_FASTPATH``, obs
    #: mode), so ``hits + misses`` is the number of probes.
    host_fastpath_misses: int = 0
    #: Scheduling quanta executed by the run-ahead scheduler — each batch
    #: is one heap transaction covering ``host_runahead_ops /
    #: host_runahead_batches`` simulated steps on one core. Zero when
    #: ``REPRO_NO_RUNAHEAD=1`` selects the stepped reference scheduler.
    host_runahead_batches: int = 0
    #: Simulated steps executed inside run-ahead batches.
    host_runahead_ops: int = 0
    #: Top-K hottest lines from the obs layer's metrics registry (empty
    #: unless the run observed; see :mod:`repro.obs`).
    host_hot_lines: List[dict] = field(default_factory=list)
    #: Which engine backend produced this run ("interp" or "vector").
    #: ``host_`` prefix on purpose: backends are bit-identical in simulated
    #: behaviour, so the backend name must not enter :meth:`comparable`.
    host_backend: str = "interp"
    #: Vectorized epochs executed by the vector backend (0 under interp).
    host_vector_epochs: int = 0
    #: Simulated operations executed inside vectorized epochs.
    host_vector_epoch_ops: int = 0
    #: Whole transactions executed closed-form via the fused-plan path.
    host_vector_fused_txs: int = 0
    #: Full-protocol accesses (misses, upgrades, reductions, gathers)
    #: certified deterministic and executed inside an epoch instead of
    #: fencing it.
    host_vector_proto_ops: int = 0
    #: Reduction merges folded by the batched column kernel instead of the
    #: sequential per-line handler loop (identical merged words & cycles).
    host_vector_kernel_reductions: int = 0
    #: In-epoch protocol accesses whose latency the closed-form NoC/
    #: directory-table predictor computed before execution...
    host_vector_miss_predicted: int = 0
    #: ...and how many of those predictions disagreed with the protocol's
    #: actual charge (the protocol result is always authoritative; a
    #: mispredict is a model-coverage datum, not an error).
    host_vector_miss_mispredicts: int = 0
    #: True when the adaptive backend gate rebound the run to the
    #: interpreted run-ahead loop because its epochs fused too few
    #: transactions during the warmup window (host-only decision).
    host_vector_gated: bool = False
    #: Why epochs fenced: cause -> count (e.g. "barrier", "tx_restart",
    #: "miss_unsafe"). Host-side diagnosis of epoch engagement.
    host_vector_fence_causes: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:
        if self.num_cores and not self.breakdown:
            self.breakdown = [CoreCycleBreakdown() for _ in range(self.num_cores)]

    # --- recording helpers --------------------------------------------------

    def charge(self, core: int, cycles: int, in_tx: bool) -> None:
        """Charge cycles to a core. Transactional cycles start as committed;
        :meth:`reclassify_aborted` moves them to aborted on rollback."""
        entry = self.breakdown[core]
        if in_tx:
            entry.tx_committed += cycles
        else:
            entry.non_tx += cycles

    def reclassify_aborted(self, core: int, cycles: int, cause: WastedCause) -> None:
        """Move ``cycles`` of this core's transactional time to the aborted
        bucket, attributing them to ``cause``."""
        entry = self.breakdown[core]
        moved = min(cycles, entry.tx_committed)
        entry.tx_committed -= moved
        entry.tx_aborted += moved
        self.wasted_by_cause[cause] += moved

    # --- derived summaries ---------------------------------------------------

    @property
    def total_cycles(self) -> int:
        return sum(b.total for b in self.breakdown)

    @property
    def non_tx_cycles(self) -> int:
        return sum(b.non_tx for b in self.breakdown)

    @property
    def tx_committed_cycles(self) -> int:
        return sum(b.tx_committed for b in self.breakdown)

    @property
    def tx_aborted_cycles(self) -> int:
        return sum(b.tx_aborted for b in self.breakdown)

    @property
    def l3_get_requests(self) -> int:
        """Total GET requests between private L2s and the L3 (Fig. 19)."""
        return self.gets + self.getx + self.getu

    @property
    def labeled_fraction(self) -> float:
        """Fraction of labeled instructions over all instructions
        (Sec. VII reports this per application)."""
        if self.instructions == 0:
            return 0.0
        return self.labeled_instructions / self.instructions

    @property
    def abort_rate(self) -> float:
        attempts = self.commits + self.aborts
        return self.aborts / attempts if attempts else 0.0

    @property
    def fastpath_hit_rate(self):
        """Fraction of fast-path probes that hit (host-side
        instrumentation); operations that never probe do not count.
        ``None`` when no probe ran — fast path disabled via
        ``REPRO_NO_FASTPATH``, forced off by the obs layer, or no
        operation that probes — which is a different situation from
        "enabled but never hit" (0.0). Under the vector backend the
        counters cover only the strict (per-op) phases — epoch ops hit by
        construction and are not counted — so a ratio would be
        misleading: the string ``"n/a (vector)"`` is returned
        instead."""
        if self.host_backend == "vector":
            return "n/a (vector)"
        total = self.host_fastpath_hits + self.host_fastpath_misses
        return self.host_fastpath_hits / total if total else None

    @property
    def runahead_ops_per_batch(self):
        """Mean simulated steps per run-ahead scheduling quantum; ``None``
        under the stepped reference scheduler (``REPRO_NO_RUNAHEAD=1``).
        Under the vector backend the quanta interleave with vectorized
        epochs, so the mean no longer describes the run: the string
        ``"n/a (vector)"`` is returned instead."""
        if self.host_backend == "vector":
            return "n/a (vector)"
        if self.host_runahead_batches == 0:
            return None
        return self.host_runahead_ops / self.host_runahead_batches

    def comparable(self) -> Dict[str, object]:
        """Every *simulated* statistic as a plain dict, for equivalence
        assertions (e.g. the fast-path differential tests). Host-side
        ``host_*`` instrumentation fields are excluded; Counters are
        normalized to plain dicts with string keys and no zero entries."""
        out: Dict[str, object] = {}
        for f in dataclasses.fields(self):
            if f.name.startswith("host_"):
                continue
            value = getattr(self, f.name)
            if f.name == "breakdown":
                value = [(b.non_tx, b.tx_committed, b.tx_aborted)
                         for b in value]
            elif isinstance(value, Counter):
                value = {
                    (key.value if isinstance(key, enum.Enum) else key): count
                    for key, count in value.items() if count
                }
            out[f.name] = value
        return out

    def cycle_breakdown_totals(self) -> Dict[str, int]:
        return {
            "non_tx": self.non_tx_cycles,
            "tx_committed": self.tx_committed_cycles,
            "tx_aborted": self.tx_aborted_cycles,
        }

    def wasted_breakdown(self) -> Dict[str, int]:
        return {cause.value: self.wasted_by_cause.get(cause, 0)
                for cause in WastedCause}

    def get_breakdown(self) -> Dict[str, int]:
        return {"GETS": self.gets, "GETX": self.getx, "GETU": self.getu}

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of headline numbers, for reports and tests."""
        return {
            "cycles": self.parallel_cycles,
            "total_core_cycles": self.total_cycles,
            "commits": self.commits,
            "aborts": self.aborts,
            "abort_rate": self.abort_rate,
            "reductions": self.reductions,
            "gathers": self.gathers,
            "l3_gets": self.l3_get_requests,
            "labeled_fraction": self.labeled_fraction,
        }

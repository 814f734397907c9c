"""Per-core clocks and the min-clock scheduling order.

The engine is execution-driven: each core has a local cycle counter, and the
scheduler always advances the core whose clock is smallest. This yields a
deterministic fine-grained interleaving that approximates the paper's
cycle-level simulation at memory-operation granularity.

This class is the *single-step reference API*: one
``next_core()`` / step / ``reschedule()`` transaction per simulated
operation. The engine's default run-ahead scheduler operates on the same
heap (``_heap`` / ``_done``) in quanta — popping a core once and stepping it
until its clock passes the next stamp under the identical ``(stamp, core)``
tie-break — and ``REPRO_NO_RUNAHEAD=1`` falls back to driving this API
directly. The differential tests hold both to the same op-level
interleaving.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from ..errors import SimulationError
from .rng import randbelow


class CoreClocks:
    """Tracks each core's local cycle count and orders cores by time."""

    __slots__ = ("num_cores", "cycles", "_heap", "_done")

    def __init__(self, num_cores: int, jitter=None, max_jitter: int = 8):
        self.num_cores = num_cores
        self.cycles: List[int] = [0] * num_cores
        if jitter is not None and max_jitter > 0:
            # Small initial skew injects the paper's non-determinism without
            # changing total work.
            self.cycles = [randbelow(jitter, max_jitter)
                           for _ in range(num_cores)]
        self._heap: List[Tuple[int, int]] = [
            (self.cycles[c], c) for c in range(num_cores)
        ]
        heapq.heapify(self._heap)
        self._done = [False] * num_cores

    def advance(self, core: int, cycles: int) -> None:
        """Charge ``cycles`` to ``core``'s local clock."""
        if cycles < 0:
            raise SimulationError(f"negative cycle charge: {cycles}")
        self.cycles[core] += cycles

    def finish(self, core: int) -> None:
        """Mark ``core``'s thread as completed."""
        self._done[core] = True

    def is_finished(self, core: int) -> bool:
        return self._done[core]

    def all_finished(self) -> bool:
        return all(self._done)

    def reschedule(self, core: int) -> None:
        """Push the core back into the ready queue at its current time."""
        if not self._done[core]:
            heapq.heappush(self._heap, (self.cycles[core], core))

    def next_core(self) -> Optional[int]:
        """Pop the runnable core with the smallest clock, or None if all
        cores have finished."""
        while self._heap:
            stamp, core = heapq.heappop(self._heap)
            if self._done[core]:
                continue
            if stamp < self.cycles[core]:
                # Stale entry (core was charged since being queued); requeue
                # at its true time to preserve min-clock order.
                heapq.heappush(self._heap, (self.cycles[core], core))
                continue
            return core
        if self.all_finished():
            return None
        raise SimulationError("no runnable core but simulation not finished")

    @property
    def max_cycle(self) -> int:
        """The simulated completion time so far (max over core clocks)."""
        return max(self.cycles)

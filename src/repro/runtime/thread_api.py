"""Per-thread context handed to workload generator functions.

Provides thread identity, label lookup, memory allocation, a private RNG
stream, and the *op shuttles* — zero-allocation constructors for the ops a
body yields. Allocation is host-side bookkeeping (it models a per-thread
allocator and costs no simulated cycles by itself — initializing stores do).

Op shuttles
-----------
``ctx.load(addr)``, ``ctx.store(addr, v)``, ``ctx.labeled_load(addr, L)``,
``ctx.labeled_store(addr, L, v)``, ``ctx.load_gather(addr, L)`` and
``ctx.work(n)`` each mutate and return one cached op instance owned by this
context, instead of allocating a fresh dataclass per simulated operation.
This is safe under the engine's consume-before-resume contract (see
:mod:`repro.runtime.ops`): the engine fully services a yielded op before the
generator resumes, so by the time the body can call the shuttle again the
previous payload has been read. The contract's obligation on workload code
is to ``yield`` the shuttle call directly and never store its result — the
label-discipline lint (:mod:`repro.analysis.lint`) flags held shuttles.
"""

from __future__ import annotations

import random

from .ops import BARRIER, Barrier, LabeledLoad, LabeledStore, Load, LoadGather, Store, Work


class ThreadCtx:
    """What a workload body sees. One per thread (= per core)."""

    __slots__ = (
        "tid",
        "_machine",
        "_load",
        "_store",
        "_labeled_load",
        "_labeled_store",
        "_load_gather",
        "_work",
    )

    def __init__(self, tid: int, machine):
        self.tid = tid
        self._machine = machine
        # One shuttle per op kind; see the module docstring. Mutating these
        # is cheaper than allocating, and the engine never retains them.
        self._load = Load(0)
        self._store = Store(0, None)
        self._labeled_load = LabeledLoad(0, None)
        self._labeled_store = LabeledStore(0, None, None)
        self._load_gather = LoadGather(0, None)
        self._work = Work(0)

    # --- op shuttles --------------------------------------------------------

    def load(self, addr: int) -> Load:
        op = self._load
        op.addr = addr
        return op

    def store(self, addr: int, value) -> Store:
        op = self._store
        op.addr = addr
        op.value = value
        return op

    def labeled_load(self, addr: int, label) -> LabeledLoad:
        op = self._labeled_load
        op.addr = addr
        op.label = label
        return op

    def labeled_store(self, addr: int, label, value) -> LabeledStore:
        op = self._labeled_store
        op.addr = addr
        op.label = label
        op.value = value
        return op

    def load_gather(self, addr: int, label) -> LoadGather:
        op = self._load_gather
        op.addr = addr
        op.label = label
        return op

    def work(self, cycles: int) -> Work:
        op = self._work
        op.cycles = cycles
        return op

    def barrier(self) -> Barrier:
        return BARRIER

    # --- labels -------------------------------------------------------------

    def label(self, name: str):
        return self._machine.labels.get(name)

    # --- allocation ----------------------------------------------------------

    def alloc_words(self, nwords: int) -> int:
        """Allocate in the shared arena (object-size aligned)."""
        return self._machine.alloc.alloc_words(nwords)

    def alloc_line(self) -> int:
        return self._machine.alloc.alloc_line()

    def thread_alloc_words(self, nwords: int) -> int:
        """Allocate in this thread's private arena (nodes, buffers)."""
        return self._machine.alloc.thread_alloc_words(self.tid, nwords)

    # --- randomness ------------------------------------------------------------

    @property
    def rng(self) -> random.Random:
        """Deterministic per-thread stream."""
        return self._machine.rng.stream(f"thread-{self.tid}")

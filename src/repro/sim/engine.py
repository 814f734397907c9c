"""Execution-driven engine.

Drives one workload coroutine per core at memory-operation granularity.
The scheduler always advances the core with the smallest local clock, which
approximates cycle-level interleaving; every operation charges Table I
latencies computed by the memory system.

Transactions (``Atomic`` ops) are replayed on abort: the transaction's
generator is discarded, the core stalls for randomized backoff, and a fresh
generator is created — mirroring hardware restart exactly, because all
shared-state effects go through speculative stores that rollback undoes.

Dispatch is a type-keyed table (``op.__class__`` -> handler function,
called as ``handler(engine, runner, op)``) rather than an isinstance
ladder: every yielded op costs one dict lookup. The table holds the
engine's class functions, not methods bound to the engine, so the engine
holds no reference to itself and is freed as soon as its run returns.
Subclasses (e.g. ``OrderedAtomic``) resolve through the MRO once and are
memoized into the table. Hot per-core state (the clock array, the
active-transaction list, the cycle breakdown) is bound to locals on the
engine at construction so the per-op path does plain list indexing instead
of chained attribute loads.
All of this is pure host-side speed: simulated cycle counts are identical
to the straightforward implementation.

Scheduling runs in *run-ahead quanta*: after popping the minimum-clock core
from the ready heap, the engine keeps stepping that same core in a tight
inner loop until its clock passes the next heap stamp (same ``(stamp,
core)`` lexicographic tie-break the heap would apply), and only then
touches the heap again. One heap transaction per quantum instead of one per
op, and the popped core can never hit the stale-entry requeue path. The
interleaving is *identical* to one-pop-per-op scheduling — see
``_run_runahead`` for the invariant argument — and ``REPRO_NO_RUNAHEAD=1``
selects the stepped reference loop (``CoreClocks.next_core`` per op) for
differential testing, mirroring ``REPRO_NO_FASTPATH``.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..coherence.messages import Requester
from ..coherence.states import State
from ..errors import SimulationError, TransactionError
from ..mem.address import LINE_BYTES, WORD_BYTES
from ..htm.backoff import backoff_cycles
from ..runtime.ops import (
    MEMORY_OPS,
    Atomic,
    Barrier,
    LabeledLoad,
    LabeledStore,
    Load,
    LoadGather,
    Store,
    Work,
)
from ..runtime.thread_api import ThreadCtx
from .clock import CoreClocks

#: Sentinel distinguishing "generator finished" from any yielded op (a body
#: yielding ``None`` must still be rejected as an unknown operation).
_FINISHED = object()

#: Escape-hatch environment variable: set on, it forces every memory
#: operation down the full protocol path (differential testing of the
#: handlers' private-hit path). Resolved into ``Machine.options.fastpath``
#: when the machine is built.
NO_FASTPATH_ENV = "REPRO_NO_FASTPATH"

#: Escape-hatch environment variable: set on, it replaces the run-ahead
#: scheduler with the stepped reference loop (one ``CoreClocks.next_core()``
#: / step / ``reschedule()`` transaction per simulated operation). Same
#: differential-testing role as REPRO_NO_FASTPATH; resolved into
#: ``Machine.options.runahead`` when the machine is built.
NO_RUNAHEAD_ENV = "REPRO_NO_RUNAHEAD"

# State aliases, as in coherence.protocol: a member read through the enum
# class takes its slow ``__getattr__`` hook.
_M, _E, _S, _U = State.M, State.E, State.S, State.U


def _sanitized_handler(handler, sanitizer, cycles):
    """``handler`` followed by a sanitizer checkpoint on the op's line,
    located by the op class, its core and the cycle it started at."""
    checkpoint = sanitizer.checkpoint

    def sanitized(engine, runner, op):
        core = runner.core
        cycle = cycles[core]
        sanitizer.in_op = True
        try:
            handler(engine, runner, op)
        finally:
            sanitizer.in_op = False
        checkpoint(op.addr // LINE_BYTES, core, cycle, op.__class__)

    return sanitized


@dataclass(slots=True)
class Frame:
    """One level of a thread's generator stack."""

    gen: object
    atomic: Optional[Atomic] = None
    is_tx_root: bool = False


@dataclass(slots=True)
class ThreadRunner:
    core: int
    ctx: ThreadCtx
    frames: List[Frame] = field(default_factory=list)
    pending_value: object = None
    blocked: bool = False  # waiting at a barrier
    #: ``frames[-1].gen.send``, maintained at every frame push/pop: the
    #: step loops call it once per simulated operation, and the cached
    #: bound method replaces a four-hop attribute chain. None when the
    #: thread has finished (frames empty).
    send: object = None


class Engine:
    """Runs a set of thread bodies to completion on a machine."""

    def __init__(self, machine, bodies: List[Callable]):
        self.machine = machine
        self.config = machine.config
        self.stats = machine.stats
        self.htm = machine.htm
        self.msys = machine.msys
        if len(bodies) > self.config.num_cores:
            raise SimulationError(
                f"{len(bodies)} threads exceed {self.config.num_cores} cores"
            )
        self.clocks = CoreClocks(self.config.num_cores,
                                 jitter=machine.rng.jitter())
        self.runners: List[Optional[ThreadRunner]] = []
        for core in range(self.config.num_cores):
            if core < len(bodies):
                ctx = ThreadCtx(core, machine)
                runner = ThreadRunner(core=core, ctx=ctx)
                gen = bodies[core](ctx)
                runner.frames.append(Frame(gen=gen))
                runner.send = gen.send
                self.runners.append(runner)
            else:
                self.runners.append(None)
                self.clocks.finish(core)
        self._live_threads = len(bodies)
        self._barrier_waiting: List[int] = []

        # Hot-path bindings. ``conflicts.active`` and ``clocks.cycles`` are
        # mutated in place by their owners, so holding the list references
        # is safe.
        self._tx_active = self.htm.conflicts.active
        self._cycles = self.clocks.cycles
        self._breakdown = self.stats.breakdown
        self._commtm = self.config.commtm_enabled
        self._eager = self.config.conflict_detection != "lazy"
        self._tx_begin_cycles = self.config.tx_begin_cycles
        self._tx_commit_cycles = self.config.tx_commit_cycles
        # The obs layer's transaction-lifecycle and barrier hooks are
        # called only when an Observer is installed.
        obs = machine.obs
        self._obs = obs
        # Looked up once: every abort draws its backoff from this stream.
        self._backoff_rng = machine.rng.backoff()
        # Each memory-op handler serves a stable private-cache hit itself
        # (see the comment above _op_load). REPRO_NO_FASTPATH and an
        # installed Observer turn that off, so every op takes the full
        # protocol path: hits never bypass MemorySystem's public ops, where
        # the protocol-level obs hooks live. The two paths are bit-identical
        # (tests/test_fastpath_equivalence.py), so observing cannot change
        # simulated results.
        self._hits = machine.options.fastpath and obs is None
        msys = self.msys
        self._caches = msys.caches
        # A hit charges one of these two latencies. They are fixed for the
        # run, so the negative-charge check runs once, here.
        self._l1_lat = msys.l1_latency
        self._l12_lat = msys.l12_latency
        for cycles in (self._l1_lat, self._l12_lat):
            if cycles < 0:
                raise SimulationError(f"negative cycle charge: {cycles}")
        # The baseline HTM (commtm_enabled=False) executes labeled ops
        # conventionally, so its table routes them to the plain handlers.
        # Class functions, not bound methods: a table of methods bound to
        # this engine would make it a reference cycle.
        commtm = self._commtm
        cls = type(self)
        self._handlers = {
            Atomic: cls._op_atomic,
            Work: cls._op_work,
            Barrier: cls._op_barrier,
            Load: cls._op_load,
            Store: cls._op_store,
            LabeledLoad: cls._op_labeled_load if commtm else cls._op_load,
            LabeledStore: (cls._op_labeled_store if commtm
                           else cls._op_store),
            LoadGather: cls._op_load_gather if commtm else cls._op_load,
        }
        # When sanitizing, every memory-op handler is wrapped with one
        # dirty-line checkpoint. The table is built once per Engine, so the
        # unsanitized hot path keeps its direct bindings.
        self._sanitizer = machine.sanitizer
        if self._sanitizer is not None:
            self._sanitize_handlers()

    def _sanitize_handlers(self) -> None:
        """Wrap each memory-op handler with a sanitizer checkpoint on the
        op's line, taken once the op (fast path or full protocol path) is
        done. While the handler runs, ``sanitizer.in_op`` stops
        MemorySystem's public ops from taking a second checkpoint for the
        same op."""
        handlers = self._handlers
        sanitizer = self._sanitizer
        cycles = self._cycles
        for op_cls in MEMORY_OPS:
            handlers[op_cls] = _sanitized_handler(handlers[op_cls],
                                                  sanitizer, cycles)

    # ------------------------------------------------------------------

    def run(self) -> None:
        if self.machine.options.runahead:
            self._run_runahead()
        else:
            self._run_stepped()
        if not self.clocks.all_finished():
            raise SimulationError("no runnable core but simulation not finished")
        self.stats.parallel_cycles = self.clocks.max_cycle

    def _run_runahead(self, limit: int = sys.maxsize) -> bool:
        """Run until the ready heap drains (False) or about ``limit``
        simulated operations have run (True: work remains, the running
        core is back in the heap at its clock, and a later call continues
        exactly where this one stopped).

        Run-ahead (leapfrog) scheduler: pop the minimum core once, then
        keep stepping *that core* in a tight inner loop until its clock
        passes the next heap stamp. One heap transaction per quantum
        instead of one per op, and the running core never takes the
        stale-entry requeue path.

        Why the interleaving is bit-identical to one-pop-per-op: every
        unfinished, unblocked core other than the running one has exactly
        one heap entry at (a lower bound of) its current clock, so the
        one-pop loop would re-pop the running core immediately iff
        ``(cycles[core], core) <= heap[0]`` lexicographically. That is
        precisely the inner loop's continue condition. When ``heap[0]``
        is stale (its core was charged since being queued), the true
        stamp is *larger*, so breaking out is conservative: the outer
        loop re-pops, requeues the stale entry at its true time, and
        hands the quantum straight back. ``heap[0]`` is re-read every
        iteration because a step can push entries (barrier release
        reschedules the waiters). Stopping on the budget pushes the
        running core back, which restores that invariant, so a budgeted
        sequence of calls steps the same interleaving as one call."""
        clocks = self.clocks
        heap = clocks._heap
        done = clocks._done
        cycles = self._cycles
        runners = self.runners
        tx_active = self._tx_active
        handlers = self._handlers
        heappop = heapq.heappop
        # push + pop-min in one sift: the quantum hand-off and the
        # stale-entry requeue both replace a heappush/heappop pair.
        heappushpop = heapq.heappushpop
        finished = _FINISHED
        batches = 0
        ops = 0

        try:
            if not heap:
                return False
            stamp, core = heappop(heap)
            while True:
                if done[core]:
                    if not heap:
                        return False
                    stamp, core = heappop(heap)
                    continue
                c = cycles[core]
                if stamp < c:
                    # Stale entry (core was charged since being queued);
                    # requeue at its true time to preserve min-clock order.
                    if heap:
                        stamp, core = heappushpop(heap, (c, core))
                    else:
                        stamp = c
                    continue

                runner = runners[core]
                batches += 1
                while True:
                    ops += 1
                    tx = tx_active[core]
                    if tx is not None and tx.aborted:
                        self._restart_tx(runner, tx)
                    else:
                        value = runner.pending_value
                        runner.pending_value = None
                        try:
                            op = runner.send(value)
                        except StopIteration as stop:
                            self._finish_frame(runner, stop.value)
                            op = finished
                        if op is not finished:
                            try:
                                handler = handlers[op.__class__]
                            except KeyError:
                                handler = self._resolve_handler(op)
                            handler(self, runner, op)

                    if runner.blocked or done[core]:
                        break
                    if ops >= limit:
                        heapq.heappush(heap, (cycles[core], core))
                        return True
                    c = cycles[core]
                    if heap:
                        top = heap[0]
                        if c > top[0] or (c == top[0] and core > top[1]):
                            # Another core's turn (or a stale entry to
                            # clean up): hand off, taking the new minimum
                            # in the same heap transaction.
                            stamp, core = heappushpop(heap, (c, core))
                            break

                if runner.blocked or done[runner.core]:
                    # The core we were stepping left the ready set
                    # (barrier or finished) without handing off; pull the
                    # next one. (After a hand-off, ``core`` is already
                    # the freshly popped entry and the loop top vets it.)
                    if not heap:
                        return False
                    stamp, core = heappop(heap)
        finally:
            self.stats.host_runahead_batches += batches
            self.stats.host_runahead_ops += ops

    def _run_stepped(self) -> None:
        # Reference scheduler (REPRO_NO_RUNAHEAD=1): one CoreClocks
        # transaction — next_core() / step / reschedule() — per simulated
        # operation. The differential tests hold this loop and
        # _run_runahead to identical interleavings, cycle counts and stats.
        clocks = self.clocks
        runners = self.runners
        while True:
            core = clocks.next_core()
            if core is None:
                return
            runner = runners[core]
            self._step_core(runner)
            if not runner.blocked and not clocks.is_finished(core):
                clocks.reschedule(core)

    def _step_core(self, runner: ThreadRunner) -> None:
        """Advance one core by one simulated operation (or one abort
        restart). Shared by the stepped loop; the run-ahead loop inlines
        the same logic."""
        tx = self._tx_active[runner.core]
        if tx is not None and tx.aborted:
            self._restart_tx(runner, tx)
            return
        value = runner.pending_value
        runner.pending_value = None
        try:
            op = runner.send(value)
        except StopIteration as stop:
            self._finish_frame(runner, stop.value)
            return
        handler = self._handlers.get(op.__class__)
        if handler is None:
            handler = self._resolve_handler(op)
        handler(self, runner, op)

    # ------------------------------------------------------------------

    def _resolve_handler(self, op):
        """Memoize a subclassed op (e.g. OrderedAtomic) into the table."""
        for base in type(op).__mro__:
            handler = self._handlers.get(base)
            if handler is not None:
                self._handlers[op.__class__] = handler
                return handler
        raise SimulationError(f"unknown operation {op!r}")

    # ------------------------------------------------------------------

    def _op_atomic(self, runner: ThreadRunner, op) -> None:
        core = runner.core
        if self._tx_active[core] is None:
            tx = self.htm.begin(core, op.ts)  # OrderedAtomic: order == priority
            if self._obs is not None:
                self._obs.tx_begin(core, self._cycles[core], tx)
            # Inline _charge: a freshly begun transaction cannot be aborted.
            cycles = self._tx_begin_cycles
            self._breakdown[core].tx_committed += cycles
            tx.cycles_this_attempt += cycles
            self._cycles[core] += cycles
            # Inline op.make_generator (hot: once per transaction).
            gen = op.fn(runner.ctx, *op.args)
            runner.frames.append(Frame(gen, op, True))
        else:
            # Closed nesting by subsumption.
            gen = op.fn(runner.ctx, *op.args)
            runner.frames.append(Frame(gen, op))
        runner.send = gen.send

    def _op_work(self, runner: ThreadRunner, op) -> None:
        cycles = op.cycles
        if cycles < 0:
            raise SimulationError(f"negative Work: {cycles}")
        # Inline _charge: Work is one of the hottest ops (every think step).
        stats = self.stats
        stats.instructions += cycles
        core = runner.core
        tx = self._tx_active[core]
        entry = self._breakdown[core]
        if tx is None:
            entry.non_tx += cycles
        elif tx.aborted:
            entry.tx_aborted += cycles
            stats.wasted_by_cause[tx.abort_cause] += cycles
        else:
            entry.tx_committed += cycles
            tx.cycles_this_attempt += cycles
        self._cycles[core] += cycles

    def _op_barrier(self, runner: ThreadRunner, op) -> None:
        self._barrier_arrive(runner)

    # ------------------------------------------------------------------

    def _barrier_arrive(self, runner: ThreadRunner) -> None:
        core = runner.core
        if self._tx_active[core] is not None:
            raise TransactionError(
                f"Barrier inside a transaction on core {core}"
            )
        runner.blocked = True
        if self._obs is not None:
            self._obs.barrier(core, self._cycles[core])
        self._barrier_waiting.append(core)
        self._maybe_release_barrier(skip_reschedule=core)

    def _maybe_release_barrier(self, skip_reschedule: Optional[int] = None) -> None:
        if not self._barrier_waiting:
            return
        if len(self._barrier_waiting) < self._live_threads:
            return
        release_at = max(self._cycles[c] for c in self._barrier_waiting)
        waiting, self._barrier_waiting = self._barrier_waiting, []
        for core in waiting:
            stall = release_at - self._cycles[core]
            if stall > 0:
                # Barrier wait is non-transactional stall time.
                self.stats.charge(core, stall, in_tx=False)
                self.clocks.advance(core, stall)
            self.runners[core].blocked = False
            self.runners[core].pending_value = None
            if core != skip_reschedule:
                self.clocks.reschedule(core)

    # ------------------------------------------------------------------
    # Memory operations. One handler per op type (type-keyed dispatch).
    # Each serves a stable private-cache hit itself, with no call on an
    # L1 hit: a load on M/E/S, a store on M/E, a labeled access on M/E or
    # on U with the same label object, at a word-aligned address. Its
    # effects are the protocol's hit's, in the same order: LRU touch,
    # speculative mark, copy-on-write word write with the silent E->M
    # upgrade, hit counter, charge. The mark follows the touch because
    # inserting a line into the L1 (PrivateCache.touch) may evict a
    # speculative line and abort this core's transaction, and the mark
    # must land in the set that follows; an aborted hit delivers no value
    # (as in _after_memory_op). ``mark_*`` is called only when it would
    # change the line (a store's mark is complete once the line holds its
    # pre-write snapshot). Anything else (a miss, an unaligned address, a
    # U line with another label, a lazy transactional store) takes the
    # full protocol path and the shared _after_memory_op postlude.
    #
    # Labeled ops run conventionally on the baseline HTM (routed to
    # _op_load/_op_store when the table is built) and in a transaction
    # restarted with labels disabled (handed over here, per op).

    def _op_load(self, runner: ThreadRunner, op) -> None:
        core = runner.core
        tx = self._tx_active[core]
        stats = self.stats
        stats.instructions += 1
        addr = op.addr
        if self._hits:
            cache = self._caches[core]
            line = addr // LINE_BYTES
            entry = cache.peek_line(line)
            if (entry is not None and not addr % WORD_BYTES
                    and ((st := entry.state) is _M or st is _E or st is _S)):
                try:
                    cache.renew_l1(line)
                except KeyError:
                    cache.touch(line)
                    cycles = self._l12_lat
                else:
                    cache.renew_l2(line)
                    cycles = self._l1_lat
                if tx is not None and not entry.spec_read:
                    cache.mark_read(entry)
                stats.host_fastpath_hits += 1
                row = self._breakdown[core]
                if tx is None:
                    row.non_tx += cycles
                elif tx.aborted:
                    row.tx_aborted += cycles
                    stats.wasted_by_cause[tx.abort_cause] += cycles
                else:
                    row.tx_committed += cycles
                    tx.cycles_this_attempt += cycles
                self._cycles[core] += cycles
                if tx is None or not tx.aborted:
                    runner.pending_value = entry.words[
                        addr % LINE_BYTES // WORD_BYTES]
                return
            stats.host_fastpath_misses += 1
        res = self.msys.load(
            core, addr,
            Requester(core, tx.ts if tx is not None else None,
                      self._cycles[core]))
        self._after_memory_op(runner, core, res)

    def _op_store(self, runner: ThreadRunner, op) -> None:
        core = runner.core
        tx = self._tx_active[core]
        stats = self.stats
        stats.instructions += 1
        addr = op.addr
        if tx is not None and not self._eager:
            # Lazy conflict detection: a transactional store buffers in
            # the local copy, and its line is recorded for commit-time
            # publication.
            res = self.msys.lazy_store(core, addr, op.value,
                                       Requester(core, tx.ts,
                                                 self._cycles[core]))
            if not res.abort_requester:
                if tx.lazy_written is None:
                    tx.lazy_written = set()
                tx.lazy_written.add(addr // LINE_BYTES)
            self._after_memory_op(runner, core, res)
            return
        if self._hits:
            cache = self._caches[core]
            line = addr // LINE_BYTES
            entry = cache.peek_line(line)
            if (entry is not None and not addr % WORD_BYTES
                    and ((st := entry.state) is _M or st is _E)):
                try:
                    cache.renew_l1(line)
                except KeyError:
                    cache.touch(line)
                    cycles = self._l12_lat
                else:
                    cache.renew_l2(line)
                    cycles = self._l1_lat
                if tx is not None and (not entry.spec_written
                                       or entry.clean_words is None):
                    cache.mark_store(entry, False)
                entry.words = words = list(entry.words)
                words[addr % LINE_BYTES // WORD_BYTES] = op.value
                entry.dirty = True
                if st is _E:
                    entry.state = _M
                stats.host_fastpath_hits += 1
                row = self._breakdown[core]
                if tx is None:
                    row.non_tx += cycles
                elif tx.aborted:
                    row.tx_aborted += cycles
                    stats.wasted_by_cause[tx.abort_cause] += cycles
                else:
                    row.tx_committed += cycles
                    tx.cycles_this_attempt += cycles
                self._cycles[core] += cycles
                return
            stats.host_fastpath_misses += 1
        res = self.msys.store(
            core, addr, op.value,
            Requester(core, tx.ts if tx is not None else None,
                      self._cycles[core]))
        self._after_memory_op(runner, core, res)

    def _op_labeled_load(self, runner: ThreadRunner, op) -> None:
        core = runner.core
        tx = self._tx_active[core]
        if tx is not None and tx.labels_disabled:
            self._op_load(runner, op)
            return
        stats = self.stats
        stats.instructions += 1
        stats.labeled_instructions += 1
        label = op.label
        stats.labeled_by_label[label.name] += 1
        addr = op.addr
        if self._hits:
            cache = self._caches[core]
            line = addr // LINE_BYTES
            entry = cache.peek_line(line)
            if (entry is not None and not addr % WORD_BYTES
                    and ((st := entry.state) is _M or st is _E
                         or (st is _U and entry.label is label))):
                try:
                    cache.renew_l1(line)
                except KeyError:
                    cache.touch(line)
                    cycles = self._l12_lat
                else:
                    cache.renew_l2(line)
                    cycles = self._l1_lat
                if tx is not None and not entry.spec_labeled:
                    cache.mark_labeled(entry)
                stats.host_fastpath_hits += 1
                row = self._breakdown[core]
                if tx is None:
                    row.non_tx += cycles
                elif tx.aborted:
                    row.tx_aborted += cycles
                    stats.wasted_by_cause[tx.abort_cause] += cycles
                else:
                    row.tx_committed += cycles
                    tx.cycles_this_attempt += cycles
                self._cycles[core] += cycles
                if tx is None or not tx.aborted:
                    runner.pending_value = entry.words[
                        addr % LINE_BYTES // WORD_BYTES]
                return
            stats.host_fastpath_misses += 1
        requester = Requester(core, tx.ts if tx is not None else None,
                              self._cycles[core])
        res = self.msys.labeled_load(core, addr, label, requester)
        self._after_memory_op(runner, core, res)

    def _op_labeled_store(self, runner: ThreadRunner, op) -> None:
        core = runner.core
        tx = self._tx_active[core]
        if tx is not None and tx.labels_disabled:
            self._op_store(runner, op)
            return
        stats = self.stats
        stats.instructions += 1
        stats.labeled_instructions += 1
        label = op.label
        stats.labeled_by_label[label.name] += 1
        addr = op.addr
        if self._hits:
            cache = self._caches[core]
            line = addr // LINE_BYTES
            entry = cache.peek_line(line)
            if (entry is not None and not addr % WORD_BYTES
                    and ((st := entry.state) is _M or st is _E
                         or (st is _U and entry.label is label))):
                try:
                    cache.renew_l1(line)
                except KeyError:
                    cache.touch(line)
                    cycles = self._l12_lat
                else:
                    cache.renew_l2(line)
                    cycles = self._l1_lat
                if tx is not None and (not entry.spec_labeled
                                       or entry.clean_words is None):
                    cache.mark_store(entry, True)
                entry.words = words = list(entry.words)
                words[addr % LINE_BYTES // WORD_BYTES] = op.value
                entry.dirty = True
                if st is _E:
                    entry.state = _M
                stats.host_fastpath_hits += 1
                row = self._breakdown[core]
                if tx is None:
                    row.non_tx += cycles
                elif tx.aborted:
                    row.tx_aborted += cycles
                    stats.wasted_by_cause[tx.abort_cause] += cycles
                else:
                    row.tx_committed += cycles
                    tx.cycles_this_attempt += cycles
                self._cycles[core] += cycles
                return
            stats.host_fastpath_misses += 1
        requester = Requester(core, tx.ts if tx is not None else None,
                              self._cycles[core])
        res = self.msys.labeled_store(core, addr, label, op.value,
                                      requester)
        self._after_memory_op(runner, core, res)

    def _op_load_gather(self, runner: ThreadRunner, op) -> None:
        # No private-hit path: a gather always asks the directory for the
        # line's other U sharers.
        core = runner.core
        tx = self._tx_active[core]
        if tx is not None and tx.labels_disabled:
            self._op_load(runner, op)
            return
        stats = self.stats
        stats.instructions += 1
        stats.labeled_instructions += 1
        stats.labeled_by_label[op.label.name] += 1
        requester = Requester(core, tx.ts if tx is not None else None,
                              self._cycles[core])
        res = self.msys.load_gather(core, op.addr, op.label, requester)
        self._after_memory_op(runner, core, res)

    def _after_memory_op(self, runner: ThreadRunner, core: int, res) -> None:
        # Inline _charge: every op that leaves the private caches ends here.
        cycles = res.cycles
        if cycles < 0:
            raise SimulationError(f"negative cycle charge: {cycles}")
        tx = self._tx_active[core]
        entry = self._breakdown[core]
        if tx is None:
            entry.non_tx += cycles
        elif tx.aborted:
            # The op that doomed the tx: its cycles are wasted directly.
            entry.tx_aborted += cycles
            self.stats.wasted_by_cause[tx.abort_cause] += cycles
        else:
            entry.tx_committed += cycles
            tx.cycles_this_attempt += cycles
        self._cycles[core] += cycles

        if res.abort_requester:
            if tx is None:
                raise SimulationError(
                    "non-transactional request was asked to abort"
                )
            if not tx.aborted:
                self.htm.conflicts.abort(core, res.abort_cause)
            return  # restart handled on the next step
        if tx is not None and tx.aborted:
            return  # aborted as a victim mid-operation (self-abort path)
        runner.pending_value = res.value

    # ------------------------------------------------------------------

    def _finish_frame(self, runner: ThreadRunner, value) -> None:
        core = runner.core
        frames = runner.frames
        frame = frames.pop()
        runner.send = frames[-1].gen.send if frames else None
        if frame.is_tx_root:
            tx = self._tx_active[core]
            if tx is None:
                raise TransactionError(
                    f"transaction frame on core {core} without a tx"
                )
            if tx.aborted:
                # Aborted between its last operation and commit.
                frames.append(frame)
                self._restart_tx(runner, tx)
                return
            if tx.lazy_written:
                # Lazy conflict detection: publish the write set, aborting
                # conflicting transactions (commits always win).
                requester = Requester(core, tx.ts, self._cycles[core])
                for line_no in sorted(tx.lazy_written):
                    pres = self.msys.publish_line(core, line_no, requester)
                    self._charge(core, pres.cycles)
                if tx.aborted:
                    # A publication cannot abort the committer; guard.
                    raise TransactionError("committer aborted mid-publish")
            # Commit clears the speculative sets instantly at the protocol
            # level; the commit latency is charged afterwards so it does not
            # extend the conflict window (mirrors hardware, where the
            # post-commit pipeline drain is not speculative).
            # The obs hook must precede commit: it reads the speculative
            # set sizes that commit_all() is about to clear.
            if self._obs is not None:
                self._obs.tx_commit(core, self._cycles[core], tx)
            self.htm.commit(core)
            # Inline stats.charge(in_tx=True) + clocks.advance: the commit
            # latency lands in the committed bucket after the tx detaches.
            cycles = self._tx_commit_cycles
            self._breakdown[core].tx_committed += cycles
            self._cycles[core] += cycles
        if not runner.frames:
            self.clocks.finish(core)
            self._live_threads -= 1
            # A finished thread no longer participates in barriers.
            self._maybe_release_barrier()
            return
        runner.pending_value = value

    def _restart_tx(self, runner: ThreadRunner, tx) -> None:
        core = runner.core
        self.htm.finish_abort(core)
        frames = runner.frames
        while frames and not frames[-1].is_tx_root:
            frames.pop()
        if not frames:
            raise TransactionError(
                f"aborted tx on core {core} has no transaction frame"
            )
        tx_frame = frames[-1]  # the retry reuses the root frame

        config = self.config
        if tx.attempts >= config.max_restarts:
            raise SimulationError(
                f"transaction on core {core} aborted {tx.attempts} times; "
                f"livelock guard tripped"
            )

        stall = backoff_cycles(self._backoff_rng, tx.attempts,
                               config.backoff_base, config.backoff_max)
        obs = self._obs
        cycles = self._cycles
        if obs is not None:
            obs.tx_abort(core, cycles[core], tx, stall)
        # Backoff stall is abort-induced: account it as wasted. (Inline
        # clocks.advance: a backoff is never negative.)
        entry = self._breakdown[core]
        entry.tx_aborted += stall
        self.stats.wasted_by_cause[tx.abort_cause] += stall
        cycles[core] += stall

        self.htm.begin_retry(core, tx)
        if obs is not None:
            obs.tx_retry(core, cycles[core], tx)
        # Inline _charge, as _op_atomic does: a retry that has just begun
        # cannot be aborted.
        begin = self._tx_begin_cycles
        entry.tx_committed += begin
        tx.cycles_this_attempt += begin
        cycles[core] += begin
        # Inline Atomic.make_generator, as _op_atomic does.
        atomic = tx_frame.atomic
        gen = atomic.fn(runner.ctx, *atomic.args)
        tx_frame.gen = gen
        runner.send = gen.send
        runner.pending_value = None

    # ------------------------------------------------------------------

    def _charge(self, core: int, cycles: int) -> None:
        if cycles < 0:
            raise SimulationError(f"negative cycle charge: {cycles}")
        tx = self._tx_active[core]
        entry = self._breakdown[core]
        if tx is None:
            entry.non_tx += cycles
        elif tx.aborted:
            # The op that doomed the tx: its cycles are wasted directly.
            entry.tx_aborted += cycles
            self.stats.wasted_by_cause[tx.abort_cause] += cycles
        else:
            entry.tx_committed += cycles
            tx.cycles_this_attempt += cycles
        self._cycles[core] += cycles

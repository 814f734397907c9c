"""VectorEngine: epochs of think time and fused counter adds, with the
interpreted run-ahead loop for everything else.

The interpreted engine advances one core by one operation per scheduler
step. This engine alternates between two phases:

**Fence-bounded epochs** (:meth:`VectorEngine._run_epoch`). Every live,
unblocked core outside a transaction pulls its next operation, and the
engine classifies it. Two kinds of operation are *local* and enter a
private min-key heap: think time (a ``Work`` of at least one cycle) and a
*fused add*, an ``Atomic`` of a bound ``SharedCounter.add`` whose line
this core holds in its L1 in M, E or the add's U, which the epoch applies
in closed form instead of as a begin, a labeled load, a labeled store and
a commit. Every other operation, any operation of a core whose
transaction is active, and thread completion become a *fence* at their
start time. The epoch then pops the heap and executes every record keyed
strictly before the earliest fence; after each execution the core pulls
and classifies its next operation, re-entering the heap (so one core
chains through a whole local region) or lowering the fence. Each record
advances its core's clock and adds its counts to ``Stats``; a fused add,
a whole transaction, also adds its duration to the committed cycles.

*Why the interleaving is bit-identical to strict min-clock order.* Local
operations change only their own core's private cache (plus additive
counters), so they commute with each other, and only fences order them
against other cores. Think time is keyed at its start. A fused add is
keyed at its commit step, ``start + tx_begin_cycles + 2 * l1_latency``:
until then its transaction holds the line speculatively, so another
core's access anywhere in ``[start, commit]`` must meet the interpreted
transaction. When a record pops, every fence earlier than its key is
known: a fence found later comes from a record popped at or after that
key, and lies at that record's end, strictly after its key for think
time (``Work(0)`` is never local) and at or after it for an add. A
record at or past the fence is held (strict ``key < fence``, because the
strict scheduler's ``(stamp, core)`` tie-break could order the fenced
event first), and the strict phase runs it interpreted. Keys are start
plus a constant per kind, and think time draws nothing, so fused adds
draw their timestamps in start order, the interpreter's; a fused add
commits at once, so it is never a live transaction that conflict
resolution could compare.

**Adaptive backend gate + fenced replay** (:meth:`VectorEngine._run_vector`).
An epoch op costs more host time than the same op in the run-ahead loop;
epochs win only where they fuse adds. So the gate counts fused adds
against epoch ops and attempts during a warmup whose attempts are capped
at a fixed op count, and a run whose epochs do not fuse rebinds to one
uninterrupted strict (run-ahead) pass. When several cores fence in one
attempt (a burst of misses), the strict phase gets at least one op per
fenced event so the whole wave replays as one sorted batch. Every fence
increments a cause histogram (``Stats.host_vector_fence_causes``): the
fenced op's class name, ``in_tx`` or ``thread_finish``.

**Strict phases** are ``Engine._run_runahead`` itself, given an
operation budget so the engine can re-attempt an epoch. The budget
starts small and doubles every time an epoch attempt fails, so irregular
regions (conflicts, barriers, reductions) degrade gracefully toward plain
run-ahead execution instead of thrashing on failed epoch attempts. At
each epoch exit :meth:`VectorEngine._requeue` hands every operation the
epoch pulled but did not execute back to its thread through a one-shot
``runner.send``, and rebuilds the ready heap at exact clocks, so the
loop needs no knowledge of epochs.

Epochs batch per-op work, so anything that must see every operation —
the coherence sanitizer, the observer (``REPRO_OBS``), the
``REPRO_NO_FASTPATH`` / ``REPRO_NO_RUNAHEAD`` reference modes, lazy
conflict detection — forces the whole run down the interpreted engine,
with a logged notice (never a silently unchecked epoch).
"""

from __future__ import annotations

import heapq
import sys
from typing import List, Optional

from ...coherence.states import State
from ...datatypes.counter import SharedCounter
from ...params import LINE_BYTES, WORD_BYTES
from ...runtime.ops import Atomic, Work
from ..engine import _FINISHED, NO_FASTPATH_ENV, NO_RUNAHEAD_ENV, Engine
from . import log

_M = State.M
_E = State.E
_U = State.U

#: The one transaction an epoch fuses: a bound ``SharedCounter.add``.
_COUNTER_ADD = SharedCounter.add

# Strict-phase op budget between epoch attempts: doubles while epoch
# attempts keep yielding nothing (irregular region), shrinks back toward
# the minimum when epochs are productive. Small minimum on purpose: an
# epoch usually ends at one fenced event (a single miss or barrier
# arrival), so a large strict quantum would overshoot it and interpret
# work the next epoch could have batched.
_MIN_BURST = 8
_MAX_BURST = 4096

# Adaptive backend gate. An epoch beats the run-ahead loop only where it
# fuses counter adds into closed-form steps; an epoch that fuses nothing
# costs more per op than the run-ahead loop (DESIGN.md §6.3 has the
# measurements). So the gate asks whether the epochs fuse, and rebinds
# the run to one uninterrupted strict (run-ahead) pass when no add has
# fused by the _GATE_EARLY_ATTEMPTS-th epoch attempt, or when fewer than
# one add per _GATE_OPS_PER_FUSED epoch ops has fused by the
# _GATE_WARMUP_EPOCHS-th. Until it decides, each attempt runs at most
# _WARMUP_OP_CAP ops, so that a run one epoch would cover (a single
# thread) is decided too.
_GATE_EARLY_ATTEMPTS = 4
_GATE_WARMUP_EPOCHS = 32
_GATE_OPS_PER_FUSED = 16
_WARMUP_OP_CAP = 512


def _one_shot(runner, op, value):
    """A ``send`` for ``runner`` whose first call returns ``op`` — or,
    for ``_FINISHED``, raises the StopIteration that carried ``value`` —
    without resuming the generator, and puts the generator's own
    ``send`` back. It ignores the value it is sent: the epoch sent the
    pending value when it pulled ``op``, and none has arisen since."""
    resume = runner.send
    if op is _FINISHED:
        def send(_):
            runner.send = resume
            raise StopIteration(value)
    else:
        def send(_):
            runner.send = resume
            return op
    return send


class VectorEngine(Engine):
    """Engine backend ``"vector"``: fence-bounded epochs + strict fallback."""

    def __init__(self, machine, bodies):
        super().__init__(machine, bodies)
        #: A fused add's commit step, from its start, and its duration.
        self._fused_commit = self._tx_begin_cycles + 2 * self._l1_lat
        self._fused_dur = self._fused_commit + self._tx_commit_cycles
        #: Per core, the op an epoch pulled from the thread but has not
        #: executed (``_FINISHED`` for a caught StopIteration, whose value
        #: is in ``_pulled_value``). Empty between epochs: ``_requeue``
        #: hands every held op back to its thread.
        n = self.config.num_cores
        self._pulled: List[object] = [None] * n
        self._pulled_value: List[object] = [None] * n

    # ------------------------------------------------------------------

    def _epochs_disabled_reason(self) -> Optional[str]:
        options = self.machine.options
        if self._sanitizer is not None:
            return "coherence sanitizer installed (REPRO_SANITIZE)"
        if self._obs is not None:
            return "observer installed (REPRO_OBS)"
        if not options.fastpath:
            return f"{NO_FASTPATH_ENV} set"
        if not options.runahead:
            return f"{NO_RUNAHEAD_ENV} set"
        if not self._eager:
            return "lazy conflict detection"
        return None

    def run(self) -> None:
        reason = self._epochs_disabled_reason()
        if reason is not None:
            # Epochs batch per-op work; per-op layers (sanitizer,
            # observer, the reference escape hatches) must see
            # every operation, so the whole run goes through the
            # interpreted engine rather than producing unchecked epochs.
            log.info("vector backend: %s; running per-op via the "
                     "interpreted engine", reason)
            super().run()
            return
        self._run_vector()
        self._close_run()

    def _gate_test(self, attempts: int) -> Optional[str]:
        """The adaptive gate's verdict after ``attempts`` epoch attempts
        (one of its two checkpoints): the test that fired, or None to
        keep the epochs."""
        stats = self.stats
        fused = stats.host_vector_fused_txs
        if attempts == _GATE_EARLY_ATTEMPTS:
            return None if fused else "no fused transaction"
        if fused * _GATE_OPS_PER_FUSED < stats.host_vector_epoch_ops:
            return (f"fewer than 1 fused transaction per "
                    f"{_GATE_OPS_PER_FUSED} epoch ops")
        return None

    def _run_vector(self) -> None:
        burst = _MIN_BURST
        attempts = 0
        cap = _WARMUP_OP_CAP
        while True:
            n, fences = self._run_epoch(cap)
            self._requeue()
            attempts += 1
            if (attempts == _GATE_EARLY_ATTEMPTS
                    or attempts == _GATE_WARMUP_EPOCHS):
                # Host-only decision: the strict phases are the
                # interpreted run-ahead loop, so simulated results are
                # bit-identical either way.
                test = self._gate_test(attempts)
                if test is not None:
                    stats = self.stats
                    stats.host_vector_gated = True
                    log.info("vector backend: gate fired after %d epoch "
                             "attempts (%s: %d fused in %d epoch ops); "
                             "rebinding to the run-ahead loop", attempts,
                             test, stats.host_vector_fused_txs,
                             stats.host_vector_epoch_ops)
                    self._run_runahead()
                    return
                if attempts == _GATE_WARMUP_EPOCHS:
                    cap = sys.maxsize  # the epochs stay: uncapped
            if n == cap:
                # Stopped by the cap, not by a fence: there is no
                # fenced event for the strict phase to run first.
                continue
            if n == 0:
                burst = min(burst * 2, _MAX_BURST)
            elif n >= burst:
                burst = _MIN_BURST
            else:
                burst = max(_MIN_BURST, burst // 2)
            # Epoch-parallel fenced replay: when several cores fenced in
            # this attempt (e.g. a wave of misses after a barrier
            # release), give the strict phase at
            # least one op per fenced event so the whole wave replays as
            # one sorted batch instead of one epoch attempt per event.
            if not self._run_runahead(max(burst, fences)):
                return

    def _requeue(self) -> None:
        """End an epoch attempt: hand every op it pulled but did not
        execute back to its thread, through a one-shot ``runner.send``
        that returns the op (or raises the caught StopIteration) without
        resuming the generator, and rebuild the ready heap with exactly
        one entry per runnable core at its clock. The heap is then in the
        state ``Engine._run_runahead`` keeps it in, so the strict phase is
        that loop, unchanged."""
        pulled = self._pulled
        pulled_value = self._pulled_value
        done = self.clocks._done
        cycles = self._cycles
        heap = []
        for runner in self.runners:
            if runner is None:
                continue
            core = runner.core
            op = pulled[core]
            if op is not None:
                pulled[core] = None
                runner.send = _one_shot(runner, op, pulled_value[core])
            if not (done[core] or runner.blocked):
                heap.append((cycles[core], core))
        heapq.heapify(heap)
        self.clocks._heap = heap

    # ------------------------------------------------------------------
    # Epoch phase
    # ------------------------------------------------------------------

    def _run_epoch(self, cap: int):
        """Attempt one epoch of at most ``cap`` operations; returns
        ``(ops, fences)`` — the number of operations executed (0 when
        nothing classified local) and the number of fence events
        observed. Operations pulled but not executed stay in
        ``_pulled`` until :meth:`_requeue` hands them back.

        Heap items are ``[key, core, start, record]``; a record is
        ``(duration, op, add)``, where ``add`` is None for think time
        and ``(line entry, word index, delta, label name)`` for a fused
        add. Each core has at most one item, so ``(key, core)`` orders
        them: the strict scheduler's order, with a fused add at its
        commit step (see the module docstring)."""
        done = self.clocks._done
        runners = self.runners
        stats = self.stats
        fc = stats.host_vector_fence_causes
        fences = 0

        heap: List[list] = []
        fence = None  # earliest start among held non-local events
        admit = self._admit
        for runner in runners:
            if runner is None or done[runner.core] or runner.blocked:
                continue
            ft = admit(runner, heap, fc)
            if ft is not None:
                fences += 1
                if fence is None or ft < fence:
                    fence = ft
        if not heap:
            return 0, fences

        cycles = self._cycles
        classify = self._classify
        pulled = self._pulled
        breakdown = self._breakdown
        by_label = stats.labeled_by_label
        caches = self._caches
        htm = self.htm
        commit_off = self._fused_commit

        epoch_ops = 0
        fused = 0
        think = 0
        heappop = heapq.heappop
        heappush = heapq.heappush

        #: An item provably <= everything in the heap: a core chaining
        #: through a local region stays the global minimum most of the
        #: time, and skipping the heappush/heappop pair for those pops
        #: is the single largest host saving in this loop.
        pending = None
        while True:
            if pending is not None:
                item = pending
                pending = None
            elif heap:
                item = heappop(heap)
            else:
                break
            if (fence is not None and item[0] >= fence) or epoch_ops >= cap:
                # The minimum held key reached the fence: everything
                # still on the heap is keyed at or past it too. Hold the
                # lot (ops stay in _pulled) and let the strict phase
                # run the fenced event first. The op cap stops the same
                # way: what ran is every local op keyed before the
                # held ones, and they commute, so the strict phase
                # continues exactly.
                break
            _, core, t, rec = item
            dur, op, add = rec
            if add is None:
                think += dur
            else:
                # The add's begin, labeled load, labeled store and
                # commit in closed form: one LRU touch, the word's
                # copy-on-write update with the silent E->M upgrade,
                # one timestamp draw.
                entry, word, delta, name = add
                caches[core].touch(entry.line)
                entry.words = words = list(entry.words)
                words[word] += delta
                entry.dirty = True
                if entry.state is _E:
                    entry.state = _M
                htm._next_ts += 1
                breakdown[core].tx_committed += dur
                by_label[name] += 2
                fused += 1
            nt = t + dur
            cycles[core] = nt
            pulled[core] = None
            epoch_ops += 1

            # --- pull and classify this core's next op ------------------
            # A non-local pull fences this core at its new time nt, no
            # earlier than the key just executed.
            runner = runners[core]
            try:
                nop = runner.send(None)
            except StopIteration as stop:
                pulled[core] = _FINISHED
                self._pulled_value[core] = stop.value
                fc["thread_finish"] += 1
                fences += 1
                if fence is None or nt < fence:
                    fence = nt
                continue
            pulled[core] = nop
            if add is not None and nop is op and nop.args is op.args:
                # Hoisted Atomic re-yielded unchanged (e.g. counter's
                # add_one): nothing has run on this core since the fused
                # add touched its line, so its validated target is still
                # exact. Never done for Work — its shuttle mutates in
                # place between yields.
                nrec = rec
            else:
                nrec = classify(core, nop)
                if nrec is None:
                    fc[nop.__class__.__name__] += 1
                    fences += 1
                    if fence is None or nt < fence:
                        fence = nt
                    continue
            key = nt if nrec[2] is None else nt + commit_off
            item[0] = key
            item[2] = nt
            item[3] = nrec
            if heap and (heap[0][0] < key
                         or (heap[0][0] == key and heap[0][1] < core)):
                heappush(heap, item)
            else:
                pending = item

        if epoch_ops:
            stats.instructions += think + 2 * fused
            stats.labeled_instructions += 2 * fused
            stats.commits += fused
            stats.host_vector_epochs += 1
            stats.host_vector_epoch_ops += epoch_ops
            stats.host_vector_fused_txs += fused
        return epoch_ops, fences

    def _admit(self, runner, heap, fc) -> Optional[int]:
        """Pull and classify one unblocked, unfinished core's next op at
        the start of an epoch: a local op is pushed onto ``heap`` and
        None is returned; anything else bumps its cause in ``fc`` and
        returns the core's clock, for the caller to fence at. A core
        whose transaction is active fences without pulling."""
        core = runner.core
        t = self._cycles[core]
        if self._tx_active[core] is not None:
            fc["in_tx"] += 1
            return t
        value = runner.pending_value
        runner.pending_value = None
        try:
            op = runner.send(value)
        except StopIteration as stop:
            self._pulled[core] = _FINISHED
            self._pulled_value[core] = stop.value
            fc["thread_finish"] += 1
            return t
        self._pulled[core] = op
        rec = self._classify(core, op)
        if rec is None:
            fc[op.__class__.__name__] += 1
            return t
        heapq.heappush(heap, [t if rec[2] is None else t + self._fused_commit,
                              core, t, rec])
        return None

    # ------------------------------------------------------------------

    def _classify(self, core: int, op) -> Optional[tuple]:
        """Classify one pulled op of a core outside a transaction: a
        record ``(duration, op, add)`` (see :meth:`_run_epoch`) with the
        *exact* latency the op will charge, or None to fence.

        Think time is local when it lasts at least a cycle: ``Work(0)``
        could tie with a fence at its own start. A fused add needs the
        CommTM system and its counter's line in this core's L1 (the
        interpreted add charges two L1 hits, and no insert means no
        eviction) in M, E or U under the counter's label: then the
        interpreted begin, labeled load, labeled store and commit touch
        nothing but this line, which holds no speculative state outside
        a transaction."""
        cls = op.__class__
        if cls is Work:
            dur = op.cycles
            return (dur, op, None) if dur >= 1 else None
        if cls is not Atomic or not self._commtm:
            return None
        fn = op.fn
        if getattr(fn, "__func__", None) is not _COUNTER_ADD:
            return None
        counter = fn.__self__
        addr = counter.addr
        label = counter.label
        line = addr // LINE_BYTES
        cache = self._caches[core]
        entry = cache.peek_line(line)
        if entry is None or line not in cache._l1:
            return None
        st = entry.state
        if not (st is _M or st is _E or (st is _U and entry.label is label)):
            return None
        delta = op.args[0] if op.args else 1
        return (self._fused_dur, op,
                (entry, addr % LINE_BYTES // WORD_BYTES, delta, label.name))

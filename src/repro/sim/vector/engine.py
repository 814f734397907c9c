"""VectorEngine: epoch-batched execution with per-op interpreted fallback.

The interpreted engine advances one core by one operation per scheduler
step, paying the full dispatch/handler/heap machinery each time even when
the operation is a guaranteed private-cache hit. This engine alternates
between two phases:

**Fence-bounded epochs** (:meth:`VectorEngine._run_epoch`). Every live,
unblocked core's pulled operation is classified: *local* operations —
think time, a private-hit load/store, a labeled update on this core's own
M/E/U line, a whole transaction fusible through :mod:`.kernels` — enter a
private min-start heap; everything else (an access the handlers would
send to the protocol — a miss, an S-upgrade, a reduction, a gather —
or thread completion) becomes a *fence* at its start time. The epoch
then pops the heap and executes every local operation starting
strictly before the earliest fence; after each execution the core pulls
and classifies its next operation, re-entering the heap (so one core
chains through a whole local region) or lowering the fence. A private
hit runs the engine's own memory-op handler, as in the strict phases; the
other operations count into per-core columns
(:class:`~repro.sim.vector.columns.EpochColumns`) that are summed into
the ordinary ``Stats`` fields when the run completes.

*Why the interleaving is bit-identical to strict min-clock order*: local
operations touch only their own core's private cache (plus additive
global counters), so local operations commute with each other — only
their multiset matters, and that is exactly the set the strict scheduler
would execute before reaching the earliest fenced event. A fence
discovered mid-epoch sits at ``t + d`` of an operation just executed
with duration ``d >= 1`` — strictly after every operation executed so
far (heap pops are monotone in start time) — so it never invalidates
completed work; a tie between a local operation and a fence is never
executed (strict ``t < fence``), because the strict scheduler's
``(stamp, core)`` tie-break could order the fenced event first.
Durations are exact by construction: a classified operation's latency
depends only on this core's cache state, which no other core can change
during an epoch. Zero-duration operations (``Work(0)``) are never
classified local — their ``t + d`` would not move past a tie — and fall
to the strict phase instead.

**Adaptive backend gate + fenced replay** (:meth:`VectorEngine._run_vector`).
An epoch op costs more host time than the same op in the run-ahead
loop; epochs win only where they fuse whole transactions. So the gate
counts fused transactions against epoch ops and attempts during a
warmup whose attempts are capped at a fixed op count, and a run whose
epochs do not fuse rebinds to one uninterrupted strict (run-ahead)
pass. When several cores fence in one attempt (a burst of misses), the
strict phase gets at least one op per fenced event so the whole wave
replays as one sorted batch. Every fence increments a cause histogram
(``Stats.host_vector_fence_causes``).

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
from ...errors import SimulationError
from ...runtime.ops import (
    Atomic,
    Barrier,
    Load,
    LabeledLoad,
    LabeledStore,
    LoadGather,
    Store,
    Work,
)
from ..engine import _FINISHED, NO_FASTPATH_ENV, NO_RUNAHEAD_ENV, Engine, Frame
from . import log
from .columns import EpochColumns
from .kernels import lower_atomic

_M = State.M
_E = State.E
_S = State.S
_U = State.U

# Operation kinds a classified record can carry. Conventional routes of
# LabeledLoad/LabeledStore/LoadGather (baseline HTM, labels disabled) also
# classify as K_LOAD/K_STORE — no labeled counts, mirroring the engine.
# K_BEGIN/K_COMMIT bracket *interpreted* transactions run inside an epoch:
# begin draws its timestamp in heap-pop (= strict) order, commit is
# core-local under eager conflict detection.
K_WORK = 0
K_FUSED = 1
K_LOAD = 2
K_STORE = 3
K_LLOAD = 4
K_LSTORE = 5
K_BEGIN = 6
K_COMMIT = 7
#: An aborted transaction's restart (backoff draw + stall + re-begin),
#: executed at the core's heap-pop time — exactly the point the strict
#: scheduler would call ``_restart_tx`` — so the rng draw order matches.
K_RESTART = 8
#: A barrier arrival. Arrivals execute at heap-pop time (= strict arrival
#: order); the non-last arrivers block and leave the epoch, and the last
#: arrival's release — which can only fire when every other live core is
#: already waiting, i.e. with an empty epoch heap — re-admits the whole
#: wave into the *same* epoch at the release time.
K_BARRIER = 9

# Strict-phase op budget between epoch attempts: doubles while epoch
# attempts keep yielding nothing (irregular region), shrinks back toward
# the minimum when epochs are productive. Small minimum on purpose: an
# epoch usually ends at one fenced event (a single miss or barrier
# arrival), so a large strict quantum would overshoot it and interpret
# work the next epoch could have batched.
_MIN_BURST = 8
_MAX_BURST = 4096

# Adaptive backend gate. An epoch beats the run-ahead loop only where it
# fuses whole commutative transactions into closed-form steps; an epoch
# that fuses nothing costs more per op than the run-ahead loop (DESIGN.md
# §6.3 has the measurements). So the gate asks whether the epochs fuse,
# and rebinds the run to one uninterrupted strict (run-ahead) pass when
# no transaction has fused by the _GATE_EARLY_ATTEMPTS-th epoch attempt,
# or when fewer than one transaction per _GATE_OPS_PER_FUSED epoch ops
# has fused by the _GATE_WARMUP_EPOCHS-th. Until it decides, each attempt
# runs at most _WARMUP_OP_CAP ops, so that a run one epoch would cover (a
# single thread) is decided too.
_GATE_EARLY_ATTEMPTS = 4
_GATE_WARMUP_EPOCHS = 32
_GATE_OPS_PER_FUSED = 16
_WARMUP_OP_CAP = 512


def _hits(entry, kind, op) -> bool:
    """Whether the private copy ``entry`` (None: no copy) serves ``op``,
    an access of ``kind``, as a stable hit: the state test of the
    engine's handlers (``Engine._op_load`` and friends)."""
    if entry is None:
        return False
    st = entry.state
    if st is _M or st is _E:
        return True
    if kind == K_LOAD:
        return st is _S
    if kind == K_STORE:
        return False
    return st is _U and entry.label is op.label


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
    """Engine backend ``"vector"``: wavefront epochs + strict fallback."""

    def __init__(self, machine, bodies):
        super().__init__(machine, bodies)
        self._fused_base = self._tx_begin_cycles + self._tx_commit_cycles
        #: Commits may execute inside epochs only with a nonzero latency:
        #: a zero-duration event could tie with a fenced one at the same
        #: cycle, where the strict tie-break might order the fence first.
        self._commit_local = self._tx_commit_cycles >= 1
        self._cols = EpochColumns(self.config.num_cores)
        #: Why the most recent _classify call declined (fence-cause
        #: histogram; see Stats.host_vector_fence_causes).
        self._decline = "unclassified"
        #: Restarts may run in-epoch only when they cannot take zero
        #: cycles (backoff_cycles returns >= 1 whenever base > 0): a
        #: zero-duration event could tie with a fence at its own start.
        self._restart_local = (self.config.backoff_base > 0
                               or self._tx_begin_cycles >= 1)
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
        if not self.clocks.all_finished():
            raise SimulationError("no runnable core but simulation not finished")
        self.stats.parallel_cycles = self.clocks.max_cycle

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
                    break
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
                break
        # One deferred flush: nothing reads the columns' Stats fields
        # mid-run, so per-epoch flushes would only add overhead to short
        # epochs.
        self._cols.flush(self.stats)

    def _requeue(self) -> None:
        """End an epoch attempt: hand every op it pulled but did not
        execute back to its thread, through a one-shot ``runner.send``
        that returns the op (or raises the caught StopIteration) without
        resuming the generator, and rebuild the ready heap with exactly
        one entry per runnable core at its clock. The heap is then in the
        state ``Engine._run_runahead`` keeps it in, so the strict phase is
        that loop, unchanged: a restart replaces ``runner.send`` and so
        discards an op held from the doomed attempt, and no blocked core
        (an in-epoch barrier arrival) or duplicate entry (an in-epoch
        barrier release) is left to skip."""
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

        Cores whose next event is *not* local — a protocol access
        (miss, upgrade, reduction, gather), thread completion — do not
        park the whole epoch: they become *fences* at their event's
        start time. The epoch executes, in min-start order off a
        private heap, every
        local operation starting strictly before the earliest fence —
        exactly the set the strict scheduler would run before reaching
        the fenced event. A core whose operation executes immediately
        pulls and classifies its next one, so a core chains through
        whole local regions in one epoch. A fence discovered mid-epoch
        is always at ``t + d`` of an op just executed, hence *strictly
        after* every op executed so far (durations are >= 1), so it
        never invalidates anything already done; ties between a local
        op and a fence never execute (strict ``t < fence``), because
        the strict scheduler could order the fenced event first."""
        tx_active = self._tx_active
        done = self.clocks._done
        cycles = self._cycles
        finished = _FINISHED
        classify = self._classify
        pulled = self._pulled
        pulled_value = self._pulled_value
        fc = self._cols.fence_causes
        fences = 0

        heap: List[list] = []  # [start, core, rec] — min-start order
        fence = None  # earliest start among held non-local events
        admit = self._admit
        for runner in self.runners:
            if runner is None:
                continue
            core = runner.core
            if done[core] or runner.blocked:
                continue
            ft = admit(runner, heap, fc)
            if ft is not None:
                fences += 1
                if fence is None or ft < fence:
                    fence = ft
        if not heap:
            return 0, fences

        cols = self._cols
        instr_col = cols.instructions
        labeled_col = cols.labeled
        non_tx_col = cols.non_tx_cycles
        tx_col = cols.tx_cycles
        commits_col = cols.commits
        by_label = cols.by_label
        breakdown = self._breakdown
        htm = self.htm
        handlers = self._handlers
        caches = self._caches

        epoch_ops = 0
        fused_txs = 0
        heappop = heapq.heappop
        heappush = heapq.heappush

        #: A record provably <= everything in the heap: a core chaining
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
            t = item[0]
            if (fence is not None and t >= fence) or epoch_ops >= cap:
                # The minimum held start reached the fence: everything
                # still on the heap starts at or past it too. Hold the
                # lot (ops stay in _pulled) and let the strict phase
                # run the fenced event first. The op cap stops
                # the same way: pops are monotone in (start, core), the
                # strict scheduler's order, so stopping before any pop
                # leaves a state the strict phase continues exactly.
                break
            rec = item[2]
            runner, core, dur, kind, op, data, tx = rec

            # --- execute the held op ------------------------------------
            if kind == K_WORK:
                instr_col[core] += dur
                if tx is None:
                    non_tx_col[core] += dur
                else:
                    breakdown[core].tx_committed += dur
                    tx.cycles_this_attempt += dur
            elif kind == K_FUSED:
                entry, idx0, deltas, label, ret = data
                caches[core].touch(entry.line)
                entry.words = words = list(entry.words)
                j = idx0
                for d in deltas:
                    words[j] += d
                    j += 1
                entry.dirty = True
                if entry.state is _E:
                    entry.state = _M
                htm._next_ts += 1
                n2 = 2 * len(deltas)
                instr_col[core] += n2
                labeled_col[core] += n2
                name = label.name
                by_label[name] = by_label.get(name, 0) + n2
                commits_col[core] += 1
                tx_col[core] += dur
                fused_txs += 1
                runner.pending_value = ret
            elif kind == K_BEGIN:
                # Clone of _op_atomic's outermost branch (obs is off
                # whenever epochs run). The timestamp draw happens
                # here, in heap-pop order — the strict scheduler's order.
                tx = htm.begin(core, op.ts)
                breakdown[core].tx_committed += dur
                tx.cycles_this_attempt += dur
                gen = op.fn(runner.ctx, *op.args)
                runner.frames.append(Frame(gen, op, True))
                runner.send = gen.send
            elif kind == K_COMMIT:
                if tx.aborted or tx.lazy_written:  # defensive: hold it
                    fc["commit_revoked"] = fc.get("commit_revoked", 0) + 1
                    fences += 1
                    break
                # Clone of _finish_frame's commit path (obs off; eager
                # detection, so no lazy publication).
                frames = runner.frames
                frames.pop()
                runner.send = frames[-1].gen.send
                htm.commit(core)
                breakdown[core].tx_committed += dur
                runner.pending_value = data  # the frame's StopIteration value
                tx = None
            elif kind == K_RESTART:
                # The strict path's own _restart_tx (finish_abort, frame
                # unwind, livelock guard, backoff draw + stall charged
                # as wasted, begin_retry + begin charge, fresh generator)
                # — bit-identical by construction; it advances the clock
                # itself, so the duration is read back off it. An op
                # handed back from the doomed attempt goes with the
                # one-shot send it replaces (replay re-creates it).
                self._restart_tx(runner, tx)
                dur = cycles[core] - t
                tx = tx_active[core]
            elif kind == K_BARRIER:
                # Arrival at heap-pop time = the strict scheduler's
                # arrival order. Non-last arrivers block and simply leave
                # the epoch (no record, no fence — a blocked core cannot
                # act until released).
                pulled[core] = None
                self._barrier_arrive(runner)
                epoch_ops += 1
                if runner.blocked:
                    continue
                # Last arriver: the release fired. It can only fire when
                # every other live core is already waiting, so the heap
                # is empty; every waiter's stall was charged non-tx and
                # its clock advanced to the release time by
                # _maybe_release_barrier. Re-admit the whole wave into
                # this same epoch.
                nt = cycles[core]
                if heap:  # defensive: fall back to fencing the release
                    fences += 1
                    if fence is None or nt < fence:
                        fence = nt
                    break
                admit = self._admit
                for r2 in self.runners:
                    if r2 is None:
                        continue
                    c2 = r2.core
                    if done[c2] or r2.blocked:
                        continue
                    ft = admit(r2, heap, fc)
                    if ft is not None:
                        fences += 1
                        if fence is None or ft < fence:
                            fence = ft
                continue
            else:
                # A classified private hit, served by the engine's own
                # handler as in the strict phases: it counts the op,
                # charges it, advances the clock and delivers a load's
                # value. Only this core changes its cache during an
                # epoch, so the hit its classification found still holds.
                handlers[op.__class__](self, runner, op)
                dur = cycles[core] - t
            nt = t + dur
            cycles[core] = nt
            pulled[core] = None
            epoch_ops += 1

            # --- pull and classify this core's next op ------------------
            # A non-local pull fences this core at its new time
            # t + dur > t, strictly after everything already executed.
            value = runner.pending_value
            runner.pending_value = None
            nop = None
            while True:
                try:
                    nop = runner.send(value)
                except StopIteration as stop:
                    frames = runner.frames
                    if len(frames) > 1 and not frames[-1].is_tx_root:
                        # Plain nested generator: free, invisible pop.
                        frames.pop()
                        runner.send = frames[-1].gen.send
                        value = stop.value
                        continue
                    pulled[core] = finished
                    pulled_value[core] = stop.value
                    if (self._commit_local and len(frames) > 1
                            and tx is not None
                            and not tx.aborted and not tx.lazy_written):
                        # Tx commit: core-local event at nt lasting
                        # tx_commit_cycles — re-enters the heap so the
                        # fence check orders it like any other op.
                        item[0] = nt
                        item[2] = [runner, core, self._tx_commit_cycles,
                                   K_COMMIT, None, stop.value, tx]
                        heappush(heap, item)
                    else:
                        fc["thread_finish"] = fc.get("thread_finish", 0) + 1
                        fences += 1
                        if fence is None or nt < fence:
                            fence = nt
                break
            if nop is None:
                continue
            pulled[core] = nop
            if kind == K_FUSED and nop is op and nop.args is op.args:
                # Hoisted Atomic re-yielded unchanged (e.g. counter's
                # add_one): nothing has run on this core since the fused
                # op touched its line, so the plan and its validated
                # target are still exact, skip re-lowering. Never done
                # for Work/memory ops — their shuttles mutate in place
                # between yields.
                nrec = rec
            else:
                nrec = classify(runner, nop, tx)
                if nrec is None:
                    cause = self._decline
                    fc[cause] = fc.get(cause, 0) + 1
                    fences += 1
                    if fence is None or nt < fence:
                        fence = nt
                    continue
            item[0] = nt
            item[2] = nrec
            if heap and (heap[0][0] < nt
                         or (heap[0][0] == nt and heap[0][1] < core)):
                heappush(heap, item)
            else:
                pending = item

        if epoch_ops:
            stats = self.stats
            stats.host_vector_epochs += 1
            stats.host_vector_epoch_ops += epoch_ops
            stats.host_vector_fused_txs += fused_txs
        return epoch_ops, fences

    def _admit(self, runner, heap, fc) -> Optional[int]:
        """Pull and classify one unblocked, unfinished core's next event.

        Epoch-local events (including a pending restart or an inline
        commit) are pushed onto ``heap`` and None is returned; anything
        else bumps its cause in ``fc`` and returns the event's start time
        so the caller can fence at it. Shared between the epoch's opening
        scan and the in-epoch barrier release, which re-admits the whole
        released wave mid-epoch."""
        core = runner.core
        tx = self._tx_active[core]
        t = self._cycles[core]
        if tx is not None and tx.aborted:
            if self._restart_local:
                # The restart executes at this core's heap-pop time —
                # exactly where the strict scheduler would call
                # _restart_tx — so the backoff rng draw happens in
                # strict order and the retried transaction re-enters
                # the epoch instead of fencing it.
                heapq.heappush(heap, [t, core,
                                      [runner, core, 0, K_RESTART, None,
                                       None, tx]])
                return None
            fc["tx_restart"] = fc.get("tx_restart", 0) + 1
            return t
        value = runner.pending_value
        runner.pending_value = None
        while True:
            try:
                op = runner.send(value)
            except StopIteration as stop:
                frames = runner.frames
                if len(frames) > 1 and not frames[-1].is_tx_root:
                    # Plain nested generator: popping it is free and
                    # invisible to every other core.
                    frames.pop()
                    runner.send = frames[-1].gen.send
                    value = stop.value
                    continue
                op = _FINISHED
                self._pulled_value[core] = stop.value
            break
        self._pulled[core] = op
        if op is _FINISHED:
            # A pending frame-finish: an inline-committable tx root
            # becomes a K_COMMIT record (the commit is a core-local
            # event lasting tx_commit_cycles); thread completion and
            # anything irregular stay strict-phase work.
            frames = runner.frames
            if (self._commit_local and len(frames) > 1
                    and frames[-1].is_tx_root
                    and tx is not None and not tx.aborted
                    and not tx.lazy_written):
                heapq.heappush(heap, [t, core,
                                      [runner, core, self._tx_commit_cycles,
                                       K_COMMIT, None,
                                       self._pulled_value[core], tx]])
                return None
            fc["thread_finish"] = fc.get("thread_finish", 0) + 1
            return t
        rec = self._classify(runner, op, tx)
        if rec is None:
            cause = self._decline
            fc[cause] = fc.get(cause, 0) + 1
            return t
        heapq.heappush(heap, [t, core, rec])
        return None

    # ------------------------------------------------------------------

    def _classify(self, runner, op, tx) -> Optional[list]:
        """Classify one held op as epoch-local, returning a record
        ``[runner, core, duration, kind, op, data, tx]`` with the *exact*
        latency the op will charge, or None to park the epoch (with the
        cause in ``self._decline`` for the fence histogram).

        This is a non-mutating mirror of the engine's routing rules and
        of its handlers' hit test (:func:`_hits`): only ops the handlers
        would certainly serve as private hits (and that cannot insert
        into the L1 while a transaction is active, so the LRU touch cannot
        self-abort) classify as local. Latency is precomputed from L1
        residency, which only this core can change before execution.
        Accesses the handlers would send to the protocol — misses,
        S-upgrades, reductions, gathers — decline: they fence the epoch
        and run in the strict phase."""
        core = runner.core
        cls = op.__class__
        if cls is Work:
            dur = op.cycles
            if dur < 1:  # Work(0) could tie with a held op at exactly G
                self._decline = "zero_work"
                return None
            return [runner, core, dur, K_WORK, op, None, tx]

        if cls is Atomic:
            if tx is not None:
                self._decline = "nested_atomic"
                return None  # closed nesting pushes a zero-cost frame
            if self._commtm:
                plan = lower_atomic(op)
                if plan is not None:
                    deltas = plan.deltas
                    n = len(deltas)
                    entry = self._validate_fused(core, plan, n)
                    if entry is not None:
                        dur = self._fused_base + 2 * n * self._l1_lat
                        data = (entry, plan.idx0, deltas, plan.label,
                                plan.value)
                        return [runner, core, dur, K_FUSED, op, data, None]
            # Not fusible (no lowering, or the target line is not a
            # private hit yet): run the transaction *interpreted inside
            # the epoch*. The begin itself is local — it charges
            # tx_begin_cycles and draws its timestamp in heap-pop order,
            # which is exactly the strict scheduler's draw order.
            dur = self._tx_begin_cycles
            if dur < 1:
                self._decline = "zero_begin"
                return None
            return [runner, core, dur, K_BEGIN, op, None, None]

        labeled = (self._commtm
                   and not (tx is not None and tx.labels_disabled))
        if cls is Load:
            kind = K_LOAD
        elif cls is Store:
            kind = K_STORE
        elif cls is LabeledLoad:
            kind = K_LLOAD if labeled else K_LOAD
        elif cls is LabeledStore:
            kind = K_LSTORE if labeled else K_STORE
        elif cls is LoadGather:
            if labeled:
                # Gathers always take the full protocol path.
                self._decline = "gather"
                return None
            kind = K_LOAD
        elif cls is Barrier:
            if tx is not None:
                # The strict path must raise TransactionError for this.
                self._decline = "barrier"
                return None
            # Arrival blocks (or, for the last arriver, releases the
            # whole wave) at heap-pop time; the stall is resolved and
            # charged by _maybe_release_barrier itself.
            return [runner, core, 0, K_BARRIER, op, None, None]
        else:
            self._decline = "unhandled_op"
            return None  # OrderedAtomic, unknown ops

        addr = op.addr
        if addr % 8:
            self._decline = "misaligned"
            return None  # misaligned: slow path raises
        cache = self._caches[core]
        entry = cache.peek_line(addr // 64)
        if _hits(entry, kind, op):
            if entry.line in cache._l1:
                dur = self._l1_lat
            elif tx is not None:
                # The touch would insert into the L1 and could evict a
                # speculative line, aborting this core's own transaction —
                # only the full path may take that step.
                self._decline = "tx_l1_insert"
                return None
            else:
                dur = self._l12_lat
            return [runner, core, dur, kind, op, None, tx]
        # A miss, an S-upgrade, or a non-commutative access to an own U
        # line: the protocol's work.
        self._decline = "miss"
        return None

    def _validate_fused(self, core: int, plan, n: int):
        """Check a FusedPlan against this core's cache: line present and
        L1-resident (the fused charge is all L1 hits, and no insertion
        means no eviction), stable state, no speculative residue, and the
        word run in bounds. Returns the CacheLine or None."""
        cache = self._caches[core]
        entry = cache.peek_line(plan.line)
        if entry is None or plan.line not in cache._l1:
            return None
        st = entry.state
        if not (st is _M or st is _E
                or (st is _U and entry.label is plan.label)):
            return None
        if (entry.clean_words is not None or entry.spec_read
                or entry.spec_written or entry.spec_labeled):
            return None
        if plan.idx0 < 0 or plan.idx0 + n > len(entry.words):
            return None
        return entry

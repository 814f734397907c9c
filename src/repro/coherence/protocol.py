"""The CommTM memory system: MESI + U-state request handling.

This module implements Sec. III-B of the paper: how conventional loads and
stores, labeled loads and stores, gather requests, and evictions move lines
between M/E/S/U/I, when reductions fire, and how conflicts are raised to the
HTM layer.

Every public operation is logically atomic (the engine interleaves cores at
operation granularity) and returns an :class:`AccessResult` whose ``cycles``
field charges the issuing core with Table I latencies:

* L1 hit: L1 latency.
* Private (L2) hit: L1 + L2.
* Directory transaction: + NoC round trip to the line's L3 bank + L3 bank
  latency (+ main-memory latency on an L3 miss).
* Invalidation fan-out: + the worst-case round trip to a victim (parallel).
* Forwarded data (downgrades, reductions, gathers): + the forward hop, and
  reductions additionally charge the user handler's cost serially (the
  shadow thread merges one line at a time).

Conflicts are delegated to a *conflict manager* (the HTM layer) through a
narrow interface: :meth:`ConflictManagerBase.resolve` decides, per victim,
whether the victim's transaction aborts (and rolls it back synchronously) or
NACKs the request (in which case the requester's transaction must abort).
"""

from __future__ import annotations

import enum
import weakref
from typing import AbstractSet, Dict, List, Optional

from ..errors import ProtocolError, ReductionError
from ..mem.address import line_of, check_word_aligned
from ..mem.memory import MainMemory
from ..params import LINE_BYTES, SystemConfig, WORD_BYTES, WORDS_PER_LINE
from ..sim.stats import Stats, WastedCause
from ..core.labels import HandlerContext, Label, LabelRegistry
from .cache import PrivateCache
from .directory import Directory, DirEntry
from .line import CacheLine
from .messages import AccessKind, AccessResult, Requester, SYSTEM
from .noc import Mesh
from .states import State

# Hot-path aliases: the handlers below read enum members through these
# module globals, never as ``State.M`` and the like, and test membership
# with the precomputed ``readable``/``writable`` flags. Enum classes
# define ``__getattr__``, so a member read through the class takes the
# slow attribute hook: about 130 ns on CPython 3.11, against 11 ns for a
# global. The fast-path handlers also inline mem.address's line and word
# arithmetic.
_M, _E, _S, _U, _I = State.M, State.E, State.S, State.U, State.I
_K_LOAD, _K_STORE = AccessKind.LOAD, AccessKind.STORE
_K_LABELED_LOAD = AccessKind.LABELED_LOAD
_K_LABELED_STORE = AccessKind.LABELED_STORE
_K_GATHER = AccessKind.GATHER
_W_OTHER = WastedCause.OTHER
_W_GATHER_AFTER_LABELED = WastedCause.GATHER_AFTER_LABELED
_W_READ_AFTER_WRITE = WastedCause.READ_AFTER_WRITE
_W_WRITE_AFTER_READ = WastedCause.WRITE_AFTER_READ


class Trigger(enum.Enum):
    """What kind of action is hitting a victim's speculative line.

    Used by the conflict manager to attribute wasted cycles (Fig. 18).
    """

    READ = "read"            # GETS downgrade / read invalidation
    WRITE = "write"          # GETX invalidation
    LABELED = "labeled"      # GETU invalidation of S sharers or M owner
    REDUCTION_READ = "reduction_read"    # reduction triggered by a load
    REDUCTION_WRITE = "reduction_write"  # reduction triggered by a store
    GATHER = "gather"        # split request
    EVICTION = "eviction"    # capacity / inclusion invalidation


class Resolution(enum.Enum):
    ABORT_VICTIM = "abort_victim"
    NACK = "nack"


# Member aliases, as above.
_T_READ, _T_WRITE, _T_LABELED = Trigger.READ, Trigger.WRITE, Trigger.LABELED
_T_REDUCTION_READ = Trigger.REDUCTION_READ
_T_REDUCTION_WRITE = Trigger.REDUCTION_WRITE
_T_GATHER, _T_EVICTION = Trigger.GATHER, Trigger.EVICTION
_NACK = Resolution.NACK
#: What _resolve_victims returns when no victim NACKed: the set is
#: allocated at the first NACK.
_NO_NACKERS: AbstractSet[int] = frozenset()


class ConflictManagerBase:
    """Interface the HTM layer implements (see ``repro.htm.conflict``).

    The default implementation here lets the memory system run stand-alone
    (no transactions): every conflict aborts the victim, which trivially
    succeeds because there are no victims without transactions.
    """

    def resolve(self, victim_core: int, line_no: int, requester: Requester,
                trigger: Trigger, victim_entry: CacheLine) -> Resolution:
        raise NotImplementedError

    def abort_requester(self, core: int, cause: WastedCause,
                        disable_labels: bool = False) -> None:
        """Abort (roll back) the requesting core's transaction immediately.
        Used for the unlabeled-access-to-own-speculative-U case (which also
        disables labeled accesses for the retry, per Sec. III-B4) and for
        capacity evictions of speculative lines."""
        raise NotImplementedError


class NoTransactions(ConflictManagerBase):
    """Conflict manager for non-transactional use of the memory system."""

    def resolve(self, victim_core, line_no, requester, trigger, victim_entry):
        raise ProtocolError(
            "speculative line encountered but no HTM layer is attached"
        )

    def abort_requester(self, core, cause, disable_labels=False):
        raise ProtocolError("no HTM layer attached")


def _private_eviction_hook(owner, core: int):
    """``core``'s private-cache eviction hook; ``owner`` is a weak proxy
    of the memory system (see ``MemorySystem.__init__``)."""
    return lambda victim: owner._on_private_eviction(core, victim)


class MemorySystem:
    """Private caches + directory + protocol logic for one machine."""

    def __init__(self, config: SystemConfig, memory: MainMemory,
                 labels: LabelRegistry, stats: Stats, rng):
        self.config = config
        self.memory = memory
        self.labels = labels
        self.stats = stats
        self.rng = rng
        self.mesh = mesh = Mesh(config.noc)
        # The parts' hooks reach this memory system through a weak proxy:
        # a part never holds a strong reference to its owner, so a built
        # machine has no reference cycle, and reference counting frees it
        # as soon as its last user drops it.
        owner = weakref.proxy(self)
        self.caches: List[PrivateCache] = []
        for core in range(config.num_cores):
            cache = PrivateCache(core, config.l1, config.l2)
            cache.eviction_hook = _private_eviction_hook(owner, core)
            self.caches.append(cache)
        self.directory = Directory(
            memory, num_lines=config.l3.num_lines, stats=stats
        )
        self.directory.eviction_hook = (
            lambda victim: owner._on_l3_eviction(victim))
        self.conflicts: ConflictManagerBase = NoTransactions()
        #: Optional CoherenceSanitizer (set by the Machine facade when
        #: sanitizing; see repro.analysis.sanitizer). None keeps every
        #: operation on its original path.
        self.sanitizer = None
        #: Optional Observer (set by the Machine facade; see repro.obs).
        #: When installed, the engine routes every memory operation through
        #: the full handlers below, so these hooks see all protocol events.
        self.obs = None
        self._in_handler = False
        #: Per-line end-of-service time at the home directory bank: a
        #: directory transaction reserves its line, so contended lines
        #: serialize (the effect that makes conventional HTMs flat-line on
        #: contended counters, and that U-state local hits bypass).
        self._line_busy: Dict[int, int] = {}
        # NoC geometry: every charge depends only on a pair of tiles (the
        # mesh's tables), so cores and banks map onto tiles once, here. The
        # core map holds the valid ids only: an out-of-range core (SYSTEM's
        # -1 included) raises KeyError instead of wrapping to a tile.
        per_tile = config.cores_per_tile
        self._tile_of_core = {core: core // per_tile
                              for core in range(config.num_cores)}
        self._l3_banks = config.l3_banks
        self._tile_of_bank = tuple(bank % config.noc.num_tiles
                                   for bank in range(config.l3_banks))
        # Directory round trip and its hop count, per (core, home bank):
        # one row per tile, shared by reference by every core on it.
        rt_rows = [tuple(2 * row[b] for b in self._tile_of_bank)
                   for row in mesh.latency_table]
        hops2_rows = [tuple(2 * row[b] for b in self._tile_of_bank)
                      for row in mesh.hop_table]
        self._dir_rt = [rt_rows[t] for t in self._tile_of_core.values()]
        self._dir_hops2 = [hops2_rows[t] for t in self._tile_of_core.values()]
        #: What a private hit charges: the L1's latency, or L1 + L2's
        #: when the L1 does not hold the line (also the first charge of
        #: every miss). The engine's handlers read them for their hits.
        self.l1_latency = config.l1.latency
        self.l12_latency = config.l1.latency + config.l2.latency
        #: The shadow thread's cost of merging or splitting one line.
        self._handler_cycles = (config.reduction_cycles_per_word
                                * WORDS_PER_LINE)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_conflict_manager(self, manager: ConflictManagerBase) -> None:
        self.conflicts = manager
        owner = weakref.proxy(self)
        hook = (lambda core, reason:
                owner.conflicts.abort_requester(core, _W_OTHER))
        for cache in self.caches:
            cache.spec_eviction_hook = hook

    # ------------------------------------------------------------------
    # Latency helpers. The private lookup latency is read inline: the
    # L1's, or L1 + L2's (always on a miss), by the LRU touch's outcome.
    # ------------------------------------------------------------------

    def _charge_dir_access(self, core: int, line_no: int,
                           res: AccessResult) -> DirEntry:
        """Charge a directory transaction and return the entry."""
        directory = self.directory
        was_miss = line_no not in directory._entries
        ent = directory.entry(line_no)
        bank = line_no % self._l3_banks
        res.cycles += self._dir_rt[core][bank] + self.config.l3.latency
        self.stats.noc_hops += self._dir_hops2[core][bank]
        if was_miss:
            res.cycles += self.config.mem_latency
        res.dir_line = line_no
        return ent

    # NoC charges: reads of the mesh's latency and hop tables.

    def _fanout_cycles(self, line_no: int, victims) -> int:
        """Invalidations fan out in parallel from the line's bank: the
        round trip to the farthest victim (0 for none)."""
        row = self.mesh.latency_table[
            self._tile_of_bank[line_no % self._l3_banks]]
        tile = self._tile_of_core
        farthest = 0
        for victim in victims:
            latency = row[tile[victim]]
            if latency > farthest:
                farthest = latency
        return 2 * farthest

    def _forward_latency(self, src_core: int, dst_core: int) -> int:
        """Latency of one cache-to-cache data forward; records traffic."""
        tile = self._tile_of_core
        src, dst = tile[src_core], tile[dst_core]
        stats = self.stats
        stats.forwards += 1
        stats.noc_hops += self.mesh.hop_table[src][dst]
        return self.mesh.latency_table[src][dst]

    # ------------------------------------------------------------------
    # Handler context (reduction / splitter memory access)
    # ------------------------------------------------------------------

    def handler_context(self, core: int, res: AccessResult) -> HandlerContext:
        """Build the restricted memory interface for user handlers.

        Handler accesses are non-speculative, charged to the shadow thread
        (and to the blocked request's latency), and must not touch lines in
        U state (Sec. III-B4's no-nested-reductions rule).
        """

        def check_not_reducible(addr: int) -> None:
            line_no = line_of(addr)
            own = self.caches[core].lookup(line_no)
            if own is not None and own.state is _U:
                raise ReductionError(
                    f"handler accessed local U-state line {line_no}"
                )
            ent = self.directory.peek(line_no)
            if ent is not None and ent.u_sharers:
                raise ReductionError(
                    f"handler access to line {line_no} would trigger a "
                    f"nested reduction"
                )

        def read(addr: int) -> object:
            check_not_reducible(addr)
            inner = self._load(core, addr, SYSTEM)
            res.cycles += inner.cycles
            self.stats.shadow_thread_cycles += inner.cycles
            return inner.value

        def write(addr: int, value: object) -> None:
            check_not_reducible(addr)
            inner = self._store(core, addr, value, SYSTEM)
            res.cycles += inner.cycles
            self.stats.shadow_thread_cycles += inner.cycles

        return HandlerContext(read, write)

    # ------------------------------------------------------------------
    # Conflict helpers
    # ------------------------------------------------------------------

    def _resolve_victims(self, line_no: int, victims, requester: Requester,
                         trigger: Trigger,
                         res: AccessResult) -> AbstractSet[int]:
        """Run conflict resolution against each speculative victim.

        Returns the set of victims that NACKed (and therefore keep their
        copies). Victims that abort are rolled back synchronously by the
        conflict manager, leaving their lines non-speculative.
        """
        nackers = _NO_NACKERS
        caches = self.caches
        for victim in victims:
            # PrivateCache.lookup and CacheLine.speculative, inlined: this
            # runs once per sharer.
            entry = caches[victim].peek_line(line_no)
            if entry is None or entry.state is _I or not (
                    entry.spec_read or entry.spec_written
                    or entry.spec_labeled):
                continue
            if victim == requester.core:
                continue
            outcome = self.conflicts.resolve(
                victim, line_no, requester, trigger, entry
            )
            if outcome is _NACK:
                self.stats.nacks_sent += 1
                if nackers is _NO_NACKERS:
                    nackers = {victim}
                else:
                    nackers.add(victim)
                if self.obs is not None:
                    self.obs.nack(requester, victim, line_no, entry, trigger)
            elif res.aborted_victims is None:
                res.aborted_victims = [victim]
            else:
                res.aborted_victims.append(victim)
        return nackers

    @staticmethod
    def _requester_cause(kind: AccessKind) -> WastedCause:
        """Fig. 18 attribution for a requester aborted by a NACK."""
        if kind is _K_GATHER:
            return _W_GATHER_AFTER_LABELED
        if kind is _K_LOAD or kind is _K_LABELED_LOAD:
            return _W_READ_AFTER_WRITE
        return _W_WRITE_AFTER_READ

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def _finish(self, requester: Requester, res: AccessResult,
                op: str) -> AccessResult:
        """Occupancy postlude + sanitizer checkpoint for public op ``op``.

        Directory transactions on the same line serialize: an op that
        transacted with a line's home directory stalls until the line's
        previous transaction finishes, and holds the line for its own
        duration. Private-cache hits never stall (the heart of CommTM's
        concurrency benefit), nor do flush and verification accesses,
        whose requester carries no ``now``.
        """
        line = res.dir_line
        start = requester.now
        if line is not None and start is not None:
            line_busy = self._line_busy
            busy_until = line_busy.get(line, 0)
            stall = busy_until - start
            if stall > 0:
                res.cycles += stall
            end = start + res.cycles - res.overlap_cycles
            line_busy[line] = end if end > busy_until else busy_until
        if self.sanitizer is not None:
            self.sanitizer.protocol_checkpoint(requester.core, requester.now,
                                               op)
        return res

    def _touch_metrics(self, addr: int, requester: Requester,
                       label: Optional[Label] = None) -> None:
        """Hot-line touch accounting for the obs layer. ``requester.now``
        is None only for flush/verification accesses, which are not part
        of the simulated run and must not skew the metrics."""
        if requester.now is not None:
            self.obs.touch(line_of(addr), label)

    # The public ops call check_word_aligned only to raise (as MainMemory
    # does): the test is inline.

    def load(self, core: int, addr: int, requester: Requester) -> AccessResult:
        if addr < 0 or addr % WORD_BYTES:
            check_word_aligned(addr)
        if self.obs is not None:
            self._touch_metrics(addr, requester)
        return self._finish(requester, self._load(core, addr, requester),
                            "load")

    def store(self, core: int, addr: int, value: object,
              requester: Requester) -> AccessResult:
        if addr < 0 or addr % WORD_BYTES:
            check_word_aligned(addr)
        if self.obs is not None:
            self._touch_metrics(addr, requester)
        return self._finish(
            requester, self._store(core, addr, value, requester), "store")

    def labeled_load(self, core: int, addr: int, label: Label,
                     requester: Requester) -> AccessResult:
        if addr < 0 or addr % WORD_BYTES:
            check_word_aligned(addr)
        if self.obs is not None:
            self._touch_metrics(addr, requester, label)
        return self._finish(
            requester,
            self._labeled_access(core, addr, label, requester,
                                 value=None, is_store=False),
            "labeled_load")

    def labeled_store(self, core: int, addr: int, label: Label,
                      value: object, requester: Requester) -> AccessResult:
        if addr < 0 or addr % WORD_BYTES:
            check_word_aligned(addr)
        if self.obs is not None:
            self._touch_metrics(addr, requester, label)
        return self._finish(
            requester,
            self._labeled_access(core, addr, label, requester,
                                 value=value, is_store=True),
            "labeled_store")

    def load_gather(self, core: int, addr: int, label: Label,
                    requester: Requester) -> AccessResult:
        if addr < 0 or addr % WORD_BYTES:
            check_word_aligned(addr)
        if self.obs is not None:
            self._touch_metrics(addr, requester, label)
        return self._finish(
            requester, self._gather(core, addr, label, requester),
            "load_gather")

    # ------------------------------------------------------------------
    # Lazy conflict detection (Sec. III-D generalization)
    # ------------------------------------------------------------------

    def lazy_store(self, core: int, addr: int, value: object,
                   requester: Requester) -> AccessResult:
        """Buffer a speculative store without acquiring ownership.

        TCC/Bulk-style lazy mode: the line is fetched with read permission
        (no invalidations, no conflicts) and the store lands only in the
        local speculative copy. :meth:`publish_line` makes it visible at
        commit. Exclusive (M/E) hits behave as in eager mode — there is
        nothing to defer when no other copy exists.
        """
        if addr < 0 or addr % WORD_BYTES:
            check_word_aligned(addr)
        if requester.ts is None:
            raise ProtocolError("lazy_store outside a transaction")
        if self.obs is not None:
            self._touch_metrics(addr, requester)
        line_no = line_of(addr)
        cache = self.caches[core]
        entry = cache.lookup(line_no)
        if entry is not None and entry.state is _U:
            # Same rules as eager mode for reducible data.
            return self._finish(
                requester, self._store(core, addr, value, requester),
                "lazy_store")
        if entry is None or not entry.state.readable:
            res = self._load(core, addr, requester)
            if res.abort_requester:
                return self._finish(requester, res, "lazy_store")
            entry = cache.lookup(line_no)
        else:
            res = AccessResult()
            res.cycles += (self.l1_latency if cache.touch(line_no)
                           else self.l12_latency)
        # The buffered write touches neither the result nor the line's
        # occupancy, so the postlude may follow it.
        self._write_word(cache, entry, addr, value, requester,
                         labeled=False)
        return self._finish(requester, res, "lazy_store")

    def publish_line(self, core: int, line_no: int,
                     requester: Requester) -> AccessResult:
        """Commit-time publication of one speculatively-written line.

        Acquires ownership, invalidating every other copy; transactions
        holding the line in their read/write sets are aborted (commits
        always win in lazy mode — there is no NACK at commit)."""
        res = AccessResult()
        cache = self.caches[core]
        entry = cache.lookup(line_no)
        if entry is None:
            raise ProtocolError(
                f"publish of line {line_no} not present at core {core}"
            )
        if entry.state.writable:
            res.cycles += (self.l1_latency if cache.touch(line_no)
                           else self.l12_latency)
            return res
        if entry.state is not _S:
            raise ProtocolError(
                f"publish of line {line_no} in state {entry.state}"
            )
        ent = self._charge_dir_access(core, line_no, res)
        self.stats.getx += 1
        committer = Requester(core, None, requester.now)
        victims = [s for s in ent.sharers if s != core]
        self._resolve_victims(line_no, victims, committer, _T_WRITE, res)
        res.cycles += self._fanout_cycles(line_no, victims)
        for victim in victims:
            self.caches[victim].drop(line_no)
            self.directory.drop_sharer(ent, victim)
            self.stats.invalidations += 1
        if self.obs is not None and victims:
            self.obs.invalidated(line_no, len(victims))
        ent.sharers.discard(core)
        ent.owner = core
        ent.check()
        entry.state = _M
        entry.dirty = True
        return self._finish(requester, res, "publish_line")

    # ------------------------------------------------------------------
    # Conventional load
    # ------------------------------------------------------------------

    def _load(self, core: int, addr: int, requester: Requester) -> AccessResult:
        res = AccessResult()
        line_no = addr // LINE_BYTES
        cache = self.caches[core]
        entry = cache.lookup(line_no)

        if entry is not None and (
                (st := entry.state) is _M or st is _E or st is _S):
            res.cycles += (self.l1_latency if cache.touch(line_no)
                           else self.l12_latency)
            if requester.ts is not None:
                cache.mark_read(entry)
            res.value = entry.words[addr % LINE_BYTES // WORD_BYTES]
            return res

        if entry is not None and entry.state is _U:
            return self._noncommutative_own_u(core, addr, entry, requester,
                                              is_store=False, value=None)

        # Miss: GETS.
        res.cycles += self.l12_latency
        ent = self._charge_dir_access(core, line_no, res)
        self.stats.gets += 1

        if ent.owner is not None and ent.owner != core:
            done = self._downgrade_owner_for_read(core, line_no, ent,
                                                  requester, res)
            if not done:
                return res  # NACKed; requester aborts
            entry = cache.lookup(line_no)
            res.value = entry.words[addr % LINE_BYTES // WORD_BYTES]
            return res
        elif ent.u_sharers:
            ok = self._reduce_at(core, line_no, ent, requester, res,
                                 trigger=_T_REDUCTION_READ,
                                 kind=_K_LOAD)
            if not ok:
                return res
            entry = self.caches[core].lookup(line_no)
            cache.touch(line_no)
            if requester.ts is not None:
                cache.mark_read(entry)
            res.value = entry.words[addr % LINE_BYTES // WORD_BYTES]
            return res

        # DirEntry.unshared, inlined: no U sharers on this branch.
        state = _E if ent.owner is None and not ent.sharers else _S
        new = CacheLine(line_no, state, None, list(ent.words))
        cache.install(new)
        if state is _E:
            ent.owner = core
        else:
            ent.sharers.add(core)
        ent.check()
        if requester.ts is not None:
            cache.mark_read(new)
        res.value = new.words[addr % LINE_BYTES // WORD_BYTES]
        if state is _S:
            # Read sharing pipelines at the directory: a GETS served from
            # the L3 stalls behind pending ownership changes but does not
            # reserve the line itself.
            res.overlap_cycles = res.cycles
        return res

    def _downgrade_owner_for_read(self, core: int, line_no: int,
                                  ent: DirEntry, requester: Requester,
                                  res: AccessResult) -> bool:
        """Downgrade the M/E owner to S and forward its data. Returns False
        if the owner NACKed (requester must abort)."""
        owner = ent.owner
        owner_entry = self.caches[owner].lookup(line_no)
        if owner_entry is None:
            raise ProtocolError(f"directory owner {owner} lost line {line_no}")
        if owner_entry.spec_written or owner_entry.spec_labeled:
            nackers = self._resolve_victims(line_no, [owner], requester,
                                            _T_READ, res)
            if nackers:
                res.abort_requester = True
                res.abort_cause = _W_READ_AFTER_WRITE  # a NACKed load
                return False
        res.cycles += self._fanout_cycles(line_no, [owner])
        res.cycles += self._forward_latency(owner, core)
        self.stats.downgrades += 1
        data = list(owner_entry.words)
        owner_entry.state = _S
        if owner_entry.dirty:
            ent.words = list(data)
            ent.dirty = True
            owner_entry.dirty = False
            self.stats.writebacks += 1
        ent.owner = None
        ent.sharers.update({owner, core})
        ent.check()
        new = CacheLine(line_no, _S, None, data)
        cache = self.caches[core]
        cache.install(new)
        if requester.ts is not None:
            cache.mark_read(new)
        return True

    # ------------------------------------------------------------------
    # Conventional store
    # ------------------------------------------------------------------

    def _store(self, core: int, addr: int, value: object,
               requester: Requester) -> AccessResult:
        res = AccessResult()
        line_no = addr // LINE_BYTES
        cache = self.caches[core]
        entry = cache.lookup(line_no)

        if entry is not None and ((st := entry.state) is _M or st is _E):
            res.cycles += (self.l1_latency if cache.touch(line_no)
                           else self.l12_latency)
            self._write_word(cache, entry, addr, value, requester,
                             labeled=False)
            if entry.state is _E:
                entry.state = _M  # silent upgrade
            return res

        if entry is not None and entry.state is _U:
            return self._noncommutative_own_u(core, addr, entry, requester,
                                              is_store=True, value=value)

        # Miss or S-upgrade: GETX.
        res.cycles += self.l12_latency
        ent = self._charge_dir_access(core, line_no, res)
        self.stats.getx += 1

        if ent.u_sharers:
            ok = self._reduce_at(core, line_no, ent, requester, res,
                                 trigger=_T_REDUCTION_WRITE,
                                 kind=_K_STORE)
            if not ok:
                return res
            merged = self.caches[core].lookup(line_no)
            cache.touch(line_no)
            self._write_word(cache, merged, addr, value, requester,
                             labeled=False)
            return res

        # Invalidate the owner and/or S sharers. (No comprehension on this
        # path: see DESIGN.md §6, item 7.)
        data: Optional[List[object]] = None
        sharers = ent.sharers
        victims = list(sharers)
        if core in sharers:
            victims.remove(core)
        if ent.owner is not None and ent.owner != core:
            victims.insert(0, ent.owner)
        nackers = self._resolve_victims(line_no, victims, requester,
                                        _T_WRITE, res)
        if nackers:
            res.abort_requester = True
            res.abort_cause = _W_WRITE_AFTER_READ  # a NACKed store
            return res
        res.cycles += self._fanout_cycles(line_no, victims)
        for victim in victims:
            vcache = self.caches[victim]
            ventry = vcache.peek_line(line_no)  # lookup, inlined
            if ventry is None or ventry.state is _I:
                raise ProtocolError(
                    f"directory sharer {victim} lost line {line_no}"
                )
            if ventry.state.writable:
                res.cycles += self._forward_latency(victim, core)
                data = list(ventry.words)
                if ventry.dirty:
                    ent.words = list(data)
                    ent.dirty = True
                    self.stats.writebacks += 1
            vcache.drop(line_no)
            self.directory.drop_sharer(ent, victim)
            self.stats.invalidations += 1
        if self.obs is not None and victims:
            self.obs.invalidated(line_no, len(victims))

        if entry is not None and entry.state is _S:
            # Upgrade in place.
            data = entry.words
            new = entry
            new.state = _M
            cache.touch(line_no)
        else:
            if data is None:
                data = list(ent.words)
            new = CacheLine(line_no, _M, None, list(data))
            cache.install(new)
        ent.sharers.discard(core)
        ent.owner = core
        ent.check()
        self._write_word(cache, new, addr, value, requester,
                         labeled=False)
        return res

    def _write_word(self, cache: PrivateCache, entry: CacheLine, addr: int,
                    value: object, requester: Requester,
                    labeled: bool) -> None:
        if requester.ts is not None:
            cache.mark_store(entry, labeled)
        entry.words = words = list(entry.words)
        words[addr % LINE_BYTES // WORD_BYTES] = value
        entry.dirty = True
        if entry.state is _E:
            entry.state = _M

    # ------------------------------------------------------------------
    # Labeled accesses (GETU; Sec. III-B3 cases 1-5)
    # ------------------------------------------------------------------

    def _labeled_access(self, core: int, addr: int, label: Label,
                        requester: Requester, value: object,
                        is_store: bool) -> AccessResult:
        res = AccessResult()
        line_no = addr // LINE_BYTES
        cache = self.caches[core]
        entry = cache.lookup(line_no)

        if entry is not None:
            st = entry.state
            if (st is _M or st is _E
                    or (st is _U and entry.label is label)):
                # M/E satisfy all requests (Fig. 3): the core holds the full
                # value, which is a valid sole partial value. U with a
                # matching label is the commutative hit.
                res.cycles += (self.l1_latency if cache.touch(line_no)
                               else self.l12_latency)
                if is_store:
                    self._write_word(cache, entry, addr, value, requester,
                                     labeled=True)
                else:
                    if requester.ts is not None:
                        cache.mark_labeled(entry)
                    res.value = entry.words[addr % LINE_BYTES // WORD_BYTES]
                return res
            if st is _U:
                # Different label: non-commutative; reduce then re-enter U
                # with the new label (GETU case 3 with own stale copy).
                return self._noncommutative_own_u(
                    core, addr, entry, requester,
                    is_store=is_store, value=value, into_label=label)

        # Miss (I or S): GETU.
        res.cycles += self.l12_latency
        ent = self._charge_dir_access(core, line_no, res)
        self.stats.getu += 1
        trigger = _T_LABELED

        if ent.u_sharers and ent.u_label is label:
            # Case 4: same label -> grant U, no data, identity init.
            new = CacheLine(line_no, _U, label, label.identity_line())
            cache.install(new)
            ent.u_sharers.add(core)
            ent.check()
        elif ent.u_sharers:
            # Case 3: different label -> reduce at requester, enter U with
            # the new label holding the full value.
            ok = self._reduce_at(core, line_no, ent, requester, res,
                                 trigger=_T_REDUCTION_WRITE if is_store
                                 else _T_REDUCTION_READ,
                                 kind=_K_LABELED_STORE if is_store
                                 else _K_LABELED_LOAD,
                                 into_label=label)
            if not ok:
                return res
        elif ent.owner is not None and ent.owner != core:
            # Case 5: downgrade owner M -> U (it keeps its data); requester
            # initializes with identity.
            owner = ent.owner
            owner_entry = self.caches[owner].lookup(line_no)
            if owner_entry is None:
                raise ProtocolError(
                    f"directory owner {owner} lost line {line_no}"
                )
            if owner_entry.speculative:
                nackers = self._resolve_victims(line_no, [owner], requester,
                                                trigger, res)
                if nackers:
                    res.abort_requester = True
                    res.abort_cause = (_W_WRITE_AFTER_READ if is_store
                                       else _W_READ_AFTER_WRITE)
                    return res
            res.cycles += self._fanout_cycles(line_no, [owner])
            self.stats.downgrades += 1
            owner_entry.state = _U
            owner_entry.label = label
            ent.owner = None
            ent.u_sharers.update({owner, core})
            ent.u_label = label
            ent.check()
            new = CacheLine(line_no, _U, label, label.identity_line())
            cache.install(new)
        else:
            # Cases 1-2: no private copies (after invalidating S sharers):
            # the requester receives the actual data.
            sharers = ent.sharers
            victims = list(sharers)
            if core in sharers:
                victims.remove(core)
            nackers = self._resolve_victims(line_no, victims, requester,
                                            trigger, res)
            if nackers:
                res.abort_requester = True
                res.abort_cause = (_W_WRITE_AFTER_READ if is_store
                                   else _W_READ_AFTER_WRITE)
                return res
            res.cycles += self._fanout_cycles(line_no, victims)
            for victim in victims:
                self.caches[victim].drop(line_no)
                self.directory.drop_sharer(ent, victim)
                self.stats.invalidations += 1
            if self.obs is not None and victims:
                self.obs.invalidated(line_no, len(victims))
            if entry is not None and entry.state is _S:
                cache.drop(line_no)
                self.directory.drop_sharer(ent, core)
            new = CacheLine(line_no, _U, label, list(ent.words))
            cache.install(new)
            ent.u_sharers.add(core)
            ent.u_label = label
            ent.check()

        final = cache.lookup(line_no)
        if final is None:
            raise ProtocolError(f"labeled access lost line {line_no}")
        if is_store:
            self._write_word(cache, final, addr, value, requester,
                             labeled=True)
        else:
            if requester.ts is not None:
                cache.mark_labeled(final)
            res.value = final.words[addr % LINE_BYTES // WORD_BYTES]
        return res

    # ------------------------------------------------------------------
    # Non-commutative access to a line this core holds in U
    # ------------------------------------------------------------------

    def _noncommutative_own_u(self, core: int, addr: int, entry: CacheLine,
                              requester: Requester, is_store: bool,
                              value: object,
                              into_label: Optional[Label] = None) -> AccessResult:
        """Handle an unlabeled (or differently-labeled) access to a line the
        issuing core itself holds in U (Sec. III-B4 last paragraph).

        If our own transaction speculatively modified the U line, we abort
        it and perform the reduction on non-speculative state; on restart
        the transaction's labeled accesses execute as conventional ones.
        """
        res = AccessResult()
        line_no = line_of(addr)
        cache = self.caches[core]
        res.cycles += (self.l1_latency if cache.touch(line_no)
                       else self.l12_latency)

        if requester.ts is not None and entry.spec_modified:
            # Abort self; the conflict manager rolls the cache back, which
            # restores this entry's non-speculative value. The retry runs
            # labeled accesses as conventional ones (Sec. III-B4).
            self.conflicts.abort_requester(core, _W_OTHER,
                                           disable_labels=True)
            res.abort_requester = True
            res.abort_cause = _W_OTHER
            requester = SYSTEM  # the rest of the reduction is non-speculative

        ent = self._charge_dir_access(core, line_no, res)
        if core not in ent.u_sharers:
            raise ProtocolError(
                f"core {core} holds U line {line_no} unknown to directory"
            )

        if len(ent.u_sharers) == 1:
            # Sole sharer: our copy is the full value; convert in place.
            ent.u_sharers.clear()
            ent.u_label = None
            if into_label is not None:
                entry.state = _U
                entry.label = into_label
                ent.u_sharers.add(core)
                ent.u_label = into_label
            else:
                entry.state = _M
                entry.label = None
                ent.owner = core
            ent.check()
            self.stats.getx += 1  # upgrade request between L2 and L3
        else:
            kind = _K_STORE if is_store else _K_LOAD
            trigger = (_T_REDUCTION_WRITE if is_store
                       else _T_REDUCTION_READ)
            if is_store:
                self.stats.getx += 1
            else:
                self.stats.gets += 1
            ok = self._reduce_at(core, line_no, ent, requester, res,
                                 trigger=trigger, kind=kind,
                                 into_label=into_label)
            if not ok:
                return res

        final = cache.lookup(line_no)
        if res.abort_requester:
            return res
        if is_store:
            self._write_word(cache, final, addr, value, requester,
                             labeled=into_label is not None)
        else:
            if requester.ts is not None:
                if into_label is not None:
                    cache.mark_labeled(final)
                else:
                    cache.mark_read(final)
            res.value = final.words[addr % LINE_BYTES // WORD_BYTES]
        return res

    # ------------------------------------------------------------------
    # Reductions (Sec. III-B4, Fig. 7)
    # ------------------------------------------------------------------

    def _reduce_at(self, core: int, line_no: int, ent: DirEntry,
                   requester: Requester, res: AccessResult, trigger: Trigger,
                   kind: AccessKind,
                   into_label: Optional[Label] = None) -> bool:
        """Collapse all U-state copies of ``line_no`` at ``core``.

        On success the requester holds the merged line in M (or in U with
        ``into_label``) and the directory reflects it; returns True.

        If any sharer NACKs (its transaction is older), the requester still
        merges the data it received, retains it in U, and must abort
        (returns False with ``res.abort_requester`` set) — the NACKed
        reduction of Fig. 6b.
        """
        if self._in_handler:
            raise ReductionError("nested reduction triggered by a handler")
        label = ent.u_label
        if label is None:
            raise ProtocolError(f"reduction on line {line_no} with no label")
        cache = self.caches[core]
        own = cache.lookup(line_no)
        hctx = self.handler_context(core, res)
        cycles_before = res.cycles
        lines_before = self.stats.reduction_lines

        sharers = sorted(ent.u_sharers - {core})
        nackers = self._resolve_victims(line_no, sharers, requester,
                                        trigger, res)
        res.cycles += self._fanout_cycles(line_no, sharers)

        merged: Optional[List[object]] = None
        if own is not None:
            merged = list(own.words)
        self.stats.reductions += 1
        self.stats.reductions_by_label[label.name] += 1

        # Sharers forward their lines in parallel (the dedicated virtual
        # network); the shadow thread merges them one at a time.
        max_forward = 0
        self._in_handler = True
        try:
            for sharer in sharers:
                if sharer in nackers:
                    continue
                ventry = self.caches[sharer].lookup(line_no)
                if ventry is None:
                    raise ProtocolError(
                        f"U sharer {sharer} lost line {line_no}"
                    )
                max_forward = max(max_forward,
                                  self._forward_latency(sharer, core))
                self.stats.reduction_lines += 1
                data = list(ventry.words)
                if merged is None:
                    merged = data
                else:
                    merged = label.reduce(hctx, merged, data)
                    res.cycles += self._handler_cycles
                    self.stats.shadow_thread_cycles += self._handler_cycles
                self.caches[sharer].drop(line_no)
                self.directory.drop_sharer(ent, sharer)
                self.stats.invalidations += 1
        finally:
            self._in_handler = False
        res.cycles += max_forward
        if self.obs is not None:
            # Forwarded lines were also invalidated at their sharers
            # (NACKers kept theirs and are excluded from both counts).
            self.obs.reduction(core, line_no, label,
                               forwarded=self.stats.reduction_lines
                               - lines_before,
                               nacked=len(nackers),
                               latency=res.cycles - cycles_before,
                               ts=requester.now)

        if merged is None:
            if nackers:
                # Every sharer NACKed and we held no copy: nothing was
                # forwarded; just abort and retry.
                res.abort_requester = True
                res.abort_cause = self._requester_cause(kind)
                return False
            raise ProtocolError(f"reduction of line {line_no} had no data")

        if nackers:
            # NACKed reduction: keep the partial merge in U and abort.
            self._install_reduced(core, line_no, ent, merged, own,
                                  as_state=_U, label=label)
            res.abort_requester = True
            res.abort_cause = self._requester_cause(kind)
            return False

        if into_label is not None:
            self._install_reduced(core, line_no, ent, merged, own,
                                  as_state=_U, label=into_label)
        else:
            self._install_reduced(core, line_no, ent, merged, own,
                                  as_state=_M, label=None)
        return True

    def _install_reduced(self, core: int, line_no: int, ent: DirEntry,
                         merged: List[object], own: Optional[CacheLine],
                         as_state: State, label: Optional[Label]) -> None:
        """Install the merged value at the requester and fix the directory.

        Merged data is non-speculative by construction (reductions operate
        on non-speculative values), so it must survive a later abort of the
        requester's transaction: we update both the speculative words and
        the clean snapshot. If the requester's own line was speculatively
        modified, its speculative delta is preserved on top.
        """
        cache = self.caches[core]
        if own is not None and own.clean_words is not None:
            # own.words (speculative) already participated in the merge; the
            # clean copy must absorb the same forwarded data. Recompute:
            # merged = reduce(own.spec, forwards); clean' = reduce(own.clean,
            # forwards). We reconstruct forwards-merge by re-reducing clean
            # with (merged "minus" own.spec) — not expressible for general
            # labels, so instead we merged forwards separately below.
            raise ProtocolError(
                "speculatively-modified own U line reached _install_reduced; "
                "the caller must abort the requester first"
            )
        entry = CacheLine(line_no, as_state, label, list(merged), None, True)
        cache.install(entry)
        ent.u_sharers.discard(core)
        if as_state is _M:
            ent.owner = core
            if not ent.u_sharers:
                ent.u_label = None
        else:
            ent.u_sharers.add(core)
            ent.u_label = label
        ent.check()

    # ------------------------------------------------------------------
    # Gather requests (Sec. IV, Fig. 8)
    # ------------------------------------------------------------------

    def _gather(self, core: int, addr: int, label: Label,
                requester: Requester) -> AccessResult:
        """load_gather: redistribute partial updates without leaving U."""
        if not self.config.gather_enabled:
            # Ablation: gathers behave as plain labeled loads.
            return self._labeled_access(core, addr, label, requester,
                                        value=None, is_store=False)
        res = AccessResult()
        line_no = line_of(addr)
        cache = self.caches[core]
        entry = cache.lookup(line_no)

        if entry is None or entry.state is not _U or entry.label is not label:
            # The paper issues gathers from U; acquire U first.
            inner = self._labeled_access(core, addr, label, requester,
                                         value=None, is_store=False)
            res.cycles += inner.cycles
            if inner.abort_requester:
                inner.cycles = res.cycles
                return inner
            entry = cache.lookup(line_no)
            if entry is None or entry.state is not _U:
                # Landed in M/E: the core already sees the full value.
                res.value = inner.value
                return res

        ent = self._charge_dir_access(core, line_no, res)
        others = sorted(ent.u_sharers - {core})
        if not others:
            res.cycles += (self.l1_latency if cache.touch(line_no)
                           else self.l12_latency)
            if requester.ts is not None:
                cache.mark_labeled(entry)
            res.value = entry.words[addr % LINE_BYTES // WORD_BYTES]
            return res

        self.stats.gathers += 1
        self.stats.gathers_by_label[label.name] += 1
        cycles_before = res.cycles
        num_sharers = len(ent.u_sharers)
        nackers = self._resolve_victims(line_no, others, requester,
                                        _T_GATHER, res)
        res.cycles += self._fanout_cycles(line_no, others)
        # The directory's involvement ends here: it forwarded the gather to
        # the sharers (the line stays in U at everyone). Splits, donations
        # and merges flow core-to-core and do not occupy the home line.
        cycles_at_dir_release = res.cycles

        hctx = self.handler_context(core, res)
        donations: List[List[object]] = []
        # Splitters run concurrently on each sharer's shadow thread and the
        # donations are forwarded in parallel; the requester's serial work
        # is merging them (charged by _merge_nonspec).
        max_split_path = 0
        self._in_handler = True
        try:
            for sharer in others:
                if sharer in nackers:
                    continue
                ventry = self.caches[sharer].lookup(line_no)
                if ventry is None:
                    raise ProtocolError(
                        f"U sharer {sharer} lost line {line_no}"
                    )
                # The splitter runs on the *sharer's* shadow thread.
                sharer_ctx = self.handler_context(sharer, res)
                kept, donated = label.split(sharer_ctx, list(ventry.words),
                                            num_sharers)
                cost = self._handler_cycles
                self.stats.shadow_thread_cycles += cost
                self.stats.splits += 1
                # The split is non-speculative: it rewrites the sharer's
                # clean value. Aborted victims were already rolled back;
                # surviving sharers must not have speculative state here.
                if ventry.spec_modified:
                    raise ProtocolError(
                        f"split on speculatively-modified line at {sharer}"
                    )
                ventry.words = list(kept)
                ventry.dirty = True
                path = cost + self._forward_latency(sharer, core)
                max_split_path = max(max_split_path, path)
                if not label.is_identity_line(donated):
                    donations.append(donated)
        finally:
            self._in_handler = False
        res.cycles += max_split_path

        # Merge donations into the requester's line non-speculatively: they
        # must survive an abort of the requester's transaction.
        self._merge_nonspec(core, entry, label, donations, hctx, res)
        if self.obs is not None:
            self.obs.gather(core, line_no, label, sharers=len(others),
                            donations=len(donations), nacked=len(nackers),
                            latency=res.cycles - cycles_before,
                            ts=requester.now)

        if nackers:
            res.abort_requester = True
            res.abort_cause = _W_GATHER_AFTER_LABELED
            res.overlap_cycles = res.cycles - cycles_at_dir_release
            return res

        res.cycles += (self.l1_latency if cache.touch(line_no)
                       else self.l12_latency)
        if requester.ts is not None:
            cache.mark_labeled(entry)
        res.value = entry.words[addr % LINE_BYTES // WORD_BYTES]
        res.overlap_cycles = res.cycles - cycles_at_dir_release
        return res

    def _merge_nonspec(self, core: int, entry: CacheLine, label: Label,
                       donations: List[List[object]], hctx: HandlerContext,
                       res: AccessResult) -> None:
        """Reduce forwarded partial lines into both the speculative and the
        non-speculative copy of ``entry`` (donated data is non-speculative
        and must survive a rollback)."""
        if not donations:
            return
        self._in_handler = True
        try:
            cost = self._handler_cycles
            for donated in donations:
                res.cycles += cost
                self.stats.shadow_thread_cycles += cost
                entry.words = label.reduce(hctx, list(entry.words), donated)
                if entry.clean_words is not None:
                    entry.clean_words = label.reduce(
                        hctx, list(entry.clean_words), donated
                    )
                entry.dirty = True
        finally:
            self._in_handler = False

    # ------------------------------------------------------------------
    # Evictions (Sec. III-B5)
    # ------------------------------------------------------------------

    def _on_private_eviction(self, core: int, victim: CacheLine) -> None:
        """A private cache evicted ``victim`` for capacity. Runs off the
        critical path (no cycles charged to the core)."""
        line_no = victim.line
        ent = self.directory.peek(line_no)
        if ent is None:
            # Inclusion guarantees an L3 entry for every private copy.
            raise ProtocolError(
                f"private eviction of line {line_no} absent from the L3"
            )
        if victim.state.writable:
            if ent.owner != core:
                raise ProtocolError(
                    f"evicting owner line {line_no} not owned by {core}"
                )
            ent.owner = None
            if victim.dirty:
                ent.words = victim.nonspec_words()
                ent.dirty = True
                self.stats.writebacks += 1
        elif victim.state is _S:
            self.directory.drop_sharer(ent, core)  # no silent drops
        elif victim.state is _U:
            self._evict_u_line(core, victim, ent)
        ent.check()

    def _evict_u_line(self, core: int, victim: CacheLine,
                      ent: DirEntry) -> None:
        """U-state eviction: sole sharer -> dirty writeback; otherwise the
        directory forwards the data to a random sharer, which reduces it
        locally (aborting that sharer's transaction if it touched the
        line)."""
        line_no = victim.line
        self.stats.u_evictions += 1
        self.directory.drop_sharer(ent, core)
        others = sorted(ent.u_sharers)
        if not others:
            ent.words = victim.nonspec_words()
            ent.dirty = True
            self.stats.writebacks += 1
            return
        label = ent.u_label
        target = others[self.rng.eviction().randrange(len(others))]
        tentry = self.caches[target].lookup(line_no)
        if tentry is None:
            raise ProtocolError(f"U sharer {target} lost line {line_no}")
        if tentry.speculative:
            # "If the chosen core is performing a transaction that touches
            # this data, for simplicity, the transaction is aborted."
            self.conflicts.resolve(target, line_no, SYSTEM,
                                   _T_EVICTION, tentry)
        dummy = AccessResult()
        hctx = self.handler_context(target, dummy)
        self._in_handler = True
        try:
            tentry.words = label.reduce(hctx, list(tentry.words),
                                        victim.nonspec_words())
        finally:
            self._in_handler = False
        tentry.dirty = True
        self.stats.forwards += 1
        self.stats.reduction_lines += 1

    def _on_l3_eviction(self, ent: DirEntry) -> None:
        """Inclusive L3 eviction: invalidate every private copy; U lines are
        reduced at one sharing core first. Aborts every transaction that
        accessed the line."""
        line_no = ent.line
        if ent.u_sharers:
            label = ent.u_label
            sharers = sorted(ent.u_sharers)
            home = sharers[0]
            merged: Optional[List[object]] = None
            for sharer in sharers:
                sentry = self.caches[sharer].lookup(line_no)
                if sentry is None:
                    raise ProtocolError(
                        f"U sharer {sharer} lost line {line_no}"
                    )
                if sentry.speculative:
                    self.conflicts.resolve(sharer, line_no, SYSTEM,
                                           _T_EVICTION, sentry)
                data = sentry.nonspec_words()
                if merged is None:
                    merged = data
                else:
                    dummy = AccessResult()
                    hctx = self.handler_context(home, dummy)
                    self._in_handler = True
                    try:
                        merged = label.reduce(hctx, merged, data)
                    finally:
                        self._in_handler = False
                self.caches[sharer].drop(line_no)
                self.directory.drop_sharer(ent, sharer)
            ent.words = merged
            ent.dirty = True
            self.stats.reductions += 1
            return
        if ent.owner is not None:
            owner = ent.owner
            oentry = self.caches[owner].lookup(line_no)
            if oentry is not None:
                if oentry.speculative:
                    self.conflicts.resolve(owner, line_no, SYSTEM,
                                           _T_EVICTION, oentry)
                if oentry.dirty:
                    ent.words = oentry.nonspec_words()
                    ent.dirty = True
                self.caches[owner].drop(line_no)
            ent.owner = None
        for sharer in list(ent.sharers):
            sentry = self.caches[sharer].lookup(line_no)
            if sentry is not None and sentry.speculative:
                self.conflicts.resolve(sharer, line_no, SYSTEM,
                                       _T_EVICTION, sentry)
            self.caches[sharer].drop(line_no)
            ent.sharers.discard(sharer)
        ent.check()

    # ------------------------------------------------------------------
    # Debug / test helpers
    # ------------------------------------------------------------------

    def peek_word(self, addr: int) -> object:
        """The globally-reduced (true) value at ``addr``, computed without
        protocol actions. For assertions and tests only."""
        line_no = addr // LINE_BYTES
        idx = addr % LINE_BYTES // WORD_BYTES
        ent = self.directory.peek(line_no)
        if ent is None:
            return self.memory.read_word(addr)
        if ent.owner is not None:
            oentry = self.caches[ent.owner].lookup(line_no)
            if oentry is not None:
                return oentry.nonspec_words()[idx]
        if ent.u_sharers:
            label = ent.u_label
            merged = None
            dummy = HandlerContext(lambda a: 0, lambda a, v: None)
            for sharer in sorted(ent.u_sharers):
                sentry = self.caches[sharer].lookup(line_no)
                data = sentry.nonspec_words()
                merged = data if merged is None else label.reduce(
                    dummy, merged, data
                )
            return merged[idx]
        return ent.words[idx]

    def state_of(self, core: int, addr: int) -> State:
        entry = self.caches[core].lookup(line_of(addr))
        return entry.state if entry is not None else _I

    # ------------------------------------------------------------------
    # Snapshot/restore (model-checker hooks)
    # ------------------------------------------------------------------

    def snapshot_state(self):
        """Capture the complete coherence state — every private cache,
        the L3/directory, line occupancy, and memory.  Stats, hooks
        (sanitizer/obs/conflicts), and the label registry are
        deliberately excluded: they are run infrastructure, not protocol
        state, and the model checker compares snapshots for equality.

        The returned value is immutable from the caller's perspective and
        can be passed to :meth:`restore_state` any number of times."""
        return (tuple(cache.snapshot() for cache in self.caches),
                self.directory.snapshot(),
                tuple(sorted(self._line_busy.items())),
                self.memory.snapshot())

    def restore_state(self, snap) -> None:
        """Reset caches, directory, occupancy, and memory to a
        :meth:`snapshot_state` capture."""
        cache_snaps, dir_snap, busy, mem_snap = snap
        for cache, csnap in zip(self.caches, cache_snaps):
            cache.restore(csnap)
        self.directory.restore(dir_snap)
        self._line_busy.clear()
        self._line_busy.update(busy)
        self.memory.restore(mem_snap)

"""Private cache model (per-core L1 + L2).

Data lives in one unified structure sized to the (inclusive) private L2;
a separate LRU *L1 tracker* decides whether an access hits at L1 latency
and models the paper's rule that evicting speculatively-accessed data from
the L1 aborts the transaction. This keeps the protocol single-copy while
preserving both the latency split and the capacity-abort behaviour.

Capacity is modelled as a global LRU over lines (associativity conflicts are
negligible for the evaluated footprints; the geometry's total line count is
respected exactly).

The cache also keeps the current transaction's *speculative set*: every
line the transaction has marked (read, written or labeled-accessed),
recorded once, at its first mark. Commit and abort walk that set, not
every line held — the model of the hardware's flash-clear of the status
bits (Sec. III-B1). The ``mark_*`` methods are the only place a spec bit
is set, so no line can be marked without being recorded.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional

from ..errors import ProtocolError
from ..params import CacheGeometry
from .line import CacheLine
from .states import State

# Hot-path aliases (lookup runs once per memory operation; see the enum
# aliases in coherence.protocol).
_I, _U = State.I, State.U


class PrivateCache:
    """One core's private cache hierarchy."""

    __slots__ = ("core", "l1_geom", "l2_geom", "_lines", "_l1",
                 "_l1_capacity", "_l2_capacity", "peek_line", "renew_l1",
                 "renew_l2", "eviction_hook", "spec_eviction_hook", "_spec")

    def __init__(self, core: int, l1_geom: CacheGeometry,
                 l2_geom: CacheGeometry):
        self.core = core
        self.l1_geom = l1_geom
        self.l2_geom = l2_geom
        # num_lines is a derived property; snapshot it so the per-access
        # capacity checks don't recompute the division.
        self._l1_capacity = l1_geom.num_lines
        self._l2_capacity = l2_geom.num_lines
        self._lines: "OrderedDict[int, CacheLine]" = OrderedDict()
        self._l1: "OrderedDict[int, None]" = OrderedDict()
        #: Bound raw accessor for the hot reads of a private copy (the
        #: engine's hit test, the protocol's victim reads): returns the
        #: entry or None *without* filtering state I (their own state
        #: checks exclude I) and without touching LRU.
        self.peek_line = self._lines.get
        #: Bound LRU hooks for the engine's private-hit path, which makes
        #: no call on an L1 hit: ``renew_l1(line)`` moves a line the L1
        #: holds to its MRU end and raises KeyError for any other line;
        #: ``renew_l2(line)`` does the same in the private store. An L1
        #: hit is both; anything else takes :meth:`touch`, which inserts
        #: the line into the L1 and may evict.
        self.renew_l1 = self._l1.move_to_end
        self.renew_l2 = self._lines.move_to_end
        #: Set by the memory system: called with the victim CacheLine when
        #: capacity forces an eviction.
        self.eviction_hook: Optional[Callable[[CacheLine], None]] = None
        #: Called with (core, reason) when evicting a speculatively-accessed
        #: line forces the current transaction to abort.
        self.spec_eviction_hook: Optional[Callable[[int, str], None]] = None
        #: The speculative set, allocated at the first mark: most caches
        #: of a large machine never run a transaction.
        self._spec: Optional[List[CacheLine]] = None

    # --- lookup -------------------------------------------------------------

    def lookup(self, line: int) -> Optional[CacheLine]:
        """Return the line if present (any state but I), else None.
        Does not touch LRU order."""
        entry = self._lines.get(line)
        if entry is not None and entry.state is _I:
            return None
        return entry

    def touch(self, line: int) -> bool:
        """Record an access for LRU purposes. Returns True if the access
        hits in the L1 (latency modelling)."""
        lines = self._lines
        if line in lines:
            lines.move_to_end(line)
        l1 = self._l1
        if line in l1:
            l1.move_to_end(line)
            return True
        # New keys are appended in MRU position; capacity can only be
        # exceeded on insertion, so the common hit path above skips the
        # capacity check entirely.
        l1[line] = None
        if 0 < self._l1_capacity < len(l1):
            self._enforce_l1_capacity()
        return False

    def _enforce_l1_capacity(self) -> None:
        capacity = self._l1_capacity
        if capacity <= 0:
            return
        while len(self._l1) > capacity:
            victim, _ = self._l1.popitem(last=False)
            entry = self._lines.get(victim)
            if entry is not None and entry.speculative:
                # Evicting speculatively-accessed data from the L1 aborts
                # the transaction (Sec. III-B1). Data itself stays in the
                # private L2 (our unified store).
                if self.spec_eviction_hook is not None:
                    self.spec_eviction_hook(self.core, "l1-capacity")

    # --- installation & eviction ---------------------------------------------

    def install(self, entry: CacheLine) -> None:
        """Insert or replace a line, evicting LRU victims if over capacity."""
        lines = self._lines
        line = entry.line
        lines[line] = entry
        lines.move_to_end(line)
        self.touch(line)
        # Capacity can only be exceeded here; test it before calling out.
        if 0 < self._l2_capacity < len(lines):
            self._enforce_l2_capacity()

    def _enforce_l2_capacity(self) -> None:
        capacity = self._l2_capacity
        while len(self._lines) > capacity:
            victim_no = next(iter(self._lines))
            victim = self._lines[victim_no]
            if victim.speculative and self.spec_eviction_hook is not None:
                self.spec_eviction_hook(self.core, "l2-capacity")
                # The abort's rollback cleared spec bits; fall through.
            self.drop(victim_no)
            if self.eviction_hook is not None and victim.state is not _I:
                self.eviction_hook(victim)

    def drop(self, line: int) -> None:
        """Remove a line without protocol actions (invalidation)."""
        self._lines.pop(line, None)
        self._l1.pop(line, None)

    # --- speculative set management -------------------------------------------
    #
    # Callers mark a line after their LRU touch: a touch can evict a
    # speculative L1 line, which aborts the transaction and rolls the set
    # back, and the mark must land in the set that follows.

    def _record(self, entry: CacheLine) -> None:
        spec = self._spec
        if spec is None:
            self._spec = [entry]
        else:
            spec.append(entry)

    def mark_read(self, entry: CacheLine) -> None:
        """Add ``entry`` to the transaction's read set."""
        if not entry.spec_read:
            if not (entry.spec_written or entry.spec_labeled):
                self._record(entry)
            entry.spec_read = True

    def mark_labeled(self, entry: CacheLine) -> None:
        """Add ``entry`` to the transaction's labeled set (a labeled load
        or gather)."""
        if not entry.spec_labeled:
            if not (entry.spec_read or entry.spec_written):
                self._record(entry)
            entry.spec_labeled = True

    def mark_store(self, entry: CacheLine, labeled: bool) -> None:
        """A speculative store to ``entry``, labeled or not: save the
        non-speculative value at the transaction's first write (lazy
        versioning, Fig. 5), then add the line to the labeled or the
        write set. The caller writes the words."""
        entry.snapshot_before_write()
        if not (entry.spec_read or entry.spec_written or entry.spec_labeled):
            self._record(entry)
        if labeled:
            entry.spec_labeled = True
        else:
            entry.spec_written = True

    def spec_lines(self) -> List[CacheLine]:
        """The marked lines the cache still holds. A marked line that was
        dropped or replaced stays in the set until commit or abort, which
        clear it harmlessly."""
        spec = self._spec
        if not spec:
            return []
        lines = self._lines
        return [e for e in spec if lines.get(e.line) is e]

    def rollback_all(self) -> None:
        """Abort path: restore the non-speculative value of every marked
        line and clear the marks."""
        spec = self._spec
        if spec:
            for entry in spec:
                entry.rollback()
            spec.clear()

    def commit_all(self) -> None:
        """Commit path: make every marked line non-speculative."""
        spec = self._spec
        if spec:
            for entry in spec:
                entry.commit()
            spec.clear()

    # --- snapshot/restore (model-checker hooks) ----------------------------

    def snapshot(self):
        """Capture lines (cloned, LRU order preserved) and the L1 tracker."""
        return (tuple((no, cl.clone()) for no, cl in self._lines.items()),
                tuple(self._l1))

    def restore(self, snap) -> None:
        """Reset to a :meth:`snapshot` capture.  Lines are re-cloned so
        the same snapshot can be restored from repeatedly; the
        speculative set is rebuilt from the restored lines' marks."""
        lines, l1 = snap
        self._lines.clear()
        for no, cl in lines:
            self._lines[no] = cl.clone()
        self._spec = [cl for cl in self._lines.values() if cl.speculative]
        self._l1.clear()
        for no in l1:
            self._l1[no] = None

    # --- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._lines)

    def states(self) -> dict:
        return {no: e.state for no, e in self._lines.items()}

    def assert_invariants(self) -> None:
        for no, entry in self._lines.items():
            if entry.line != no:
                raise ProtocolError(f"line number mismatch at {no}")
            if entry.state is _U and entry.label is None:
                raise ProtocolError(f"unlabeled U line {no}")

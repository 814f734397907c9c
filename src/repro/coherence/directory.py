"""Shared L3 with in-cache, full-map directory.

The L3 is inclusive: every line cached privately has an L3 entry whose
directory state tracks the private copies. For a line with U-state sharers
the L3 data may be stale — the protocol invariant (Sec. III-B3) is that
reducing the private U copies yields the true value; the L3 copy only
becomes current again after a reduction or the last sharer's writeback.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set

from ..errors import ProtocolError
from ..mem.memory import MainMemory
from .states import State

_M, _S, _U, _I = State.M, State.S, State.U, State.I  # enum aliases


@dataclass(slots=True)
class DirEntry:
    """Directory state for one line."""

    line: int
    words: List[object] = field(default_factory=list)
    owner: Optional[int] = None          # core with M/E, or None
    sharers: Set[int] = field(default_factory=set)   # cores with S
    u_sharers: Set[int] = field(default_factory=set)  # cores with U
    u_label: Optional[object] = None     # Label of the U sharers
    dirty: bool = False                  # L3 words differ from memory

    def check(self) -> None:
        populated = ((self.owner is not None) + bool(self.sharers)
                     + bool(self.u_sharers))
        if populated > 1:
            raise ProtocolError(
                f"line {self.line}: incompatible sharer sets "
                f"(owner={self.owner}, S={self.sharers}, U={self.u_sharers})"
            )
        if self.u_sharers and self.u_label is None:
            raise ProtocolError(f"line {self.line}: U sharers without label")
        if not self.u_sharers:
            # Label is meaningless with no U sharers.
            self.u_label = None

    def clone(self) -> "DirEntry":
        """Copy for snapshot/restore; the label is shared by reference."""
        return DirEntry(line=self.line, words=list(self.words),
                        owner=self.owner, sharers=set(self.sharers),
                        u_sharers=set(self.u_sharers),
                        u_label=self.u_label, dirty=self.dirty)

    @property
    def unshared(self) -> bool:
        return self.owner is None and not self.sharers and not self.u_sharers

    def private_state_of(self, core: int) -> State:
        if core == self.owner:
            return _M  # directory view: exclusive (E or M at the core)
        if core in self.sharers:
            return _S
        if core in self.u_sharers:
            return _U
        return _I


class Directory:
    """The shared L3 cache + full-map directory."""

    def __init__(self, memory: MainMemory, num_lines: int, stats=None):
        self.memory = memory
        self.num_lines = num_lines  # 0 disables capacity modelling
        self.stats = stats
        #: The L3's lines in LRU order. The protocol's miss path tests an
        #: access for an L3 miss as ``line not in directory._entries``.
        self._entries: "OrderedDict[int, DirEntry]" = OrderedDict()
        #: Set by the memory system: called with the victim DirEntry when L3
        #: capacity forces an eviction (must invalidate private copies).
        self.eviction_hook: Optional[Callable[[DirEntry], None]] = None

    def entry(self, line: int) -> DirEntry:
        """Return the entry for ``line``, filling from memory on L3 miss.
        Records the miss in stats."""
        ent = self._entries.get(line)
        if ent is not None:
            self._entries.move_to_end(line)
            return ent
        if self.stats is not None:
            self.stats.l3_misses += 1
        ent = DirEntry(line, self.memory.read_line(line))
        self._entries[line] = ent
        self._enforce_capacity()
        return ent

    def peek(self, line: int) -> Optional[DirEntry]:
        """Entry if cached in L3, without allocation or LRU update."""
        return self._entries.get(line)

    def _enforce_capacity(self) -> None:
        if self.num_lines <= 0:
            return
        while len(self._entries) > self.num_lines:
            victim_no = next(iter(self._entries))
            victim = self._entries[victim_no]
            if self.eviction_hook is not None:
                # The hook invalidates/reduces private copies and writes the
                # final data into victim.words.
                self.eviction_hook(victim)
            if not victim.unshared:
                raise ProtocolError(
                    f"L3 evicting line {victim_no} with live private copies"
                )
            self._entries.pop(victim_no, None)
            if victim.dirty:
                self.memory.write_line(victim_no, victim.words)
                if self.stats is not None:
                    self.stats.writebacks += 1

    def drop_sharer(self, ent: DirEntry, core: int) -> None:
        """Remove ``core`` from every sharer set of ``ent``."""
        if ent.owner == core:
            ent.owner = None
        ent.sharers.discard(core)
        ent.u_sharers.discard(core)
        ent.check()

    def cached_lines(self) -> int:
        return len(self._entries)

    # --- snapshot/restore (model-checker hooks) ----------------------------

    def snapshot(self):
        """Immutable-enough capture of the L3 + directory state.  Entry
        order is preserved so a restored directory makes the same LRU
        eviction decisions."""
        return tuple((no, ent.clone()) for no, ent in self._entries.items())

    def restore(self, snap) -> None:
        """Reset to a state captured by :meth:`snapshot`.  The snapshot
        is not consumed — entries are re-cloned so it can be restored
        from any number of times."""
        self._entries.clear()
        for no, ent in snap:
            self._entries[no] = ent.clone()

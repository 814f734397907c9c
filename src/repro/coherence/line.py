"""Per-line private-cache metadata.

Value management follows Fig. 5: the current (possibly speculative) words
model the L1 copy; ``clean_words`` models the non-speculative L2 copy that
rollback restores. Speculation status bits record whether the current
transaction read, wrote, or labeled-accessed the line — together these form
the transaction's read, write, and labeled sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import ProtocolError
from .states import State

_U = State.U  # enum alias: __post_init__ runs for every installed line


@dataclass(slots=True)
class CacheLine:
    """One line in a private cache."""

    line: int                      # line number
    state: State = State.I
    label: Optional[object] = None  # Label instance when state is U
    words: List[object] = field(default_factory=list)
    #: Non-speculative copy (the L2 value). ``None`` means the current
    #: words are non-speculative.
    clean_words: Optional[List[object]] = None
    dirty: bool = False            # differs from the L3 copy
    spec_read: bool = False
    spec_written: bool = False
    spec_labeled: bool = False

    def __post_init__(self) -> None:
        if self.state is _U and self.label is None:
            raise ProtocolError(f"U-state line {self.line} without a label")

    # --- speculation -------------------------------------------------------

    @property
    def speculative(self) -> bool:
        return self.spec_read or self.spec_written or self.spec_labeled

    @property
    def spec_modified(self) -> bool:
        """Was the line's data speculatively changed (vs merely read)?"""
        return self.clean_words is not None

    def snapshot_before_write(self) -> None:
        """Save the non-speculative value before the first speculative
        write by the current transaction (lazy versioning: forward the old
        value to the L2)."""
        if self.clean_words is None:
            self.clean_words = list(self.words)

    def rollback(self) -> None:
        """Discard speculative updates and status bits (abort)."""
        if self.clean_words is not None:
            self.words = self.clean_words
            self.clean_words = None
        self.spec_read = self.spec_written = self.spec_labeled = False

    def commit(self) -> None:
        """Make speculative updates non-speculative (commit)."""
        self.clean_words = None
        self.spec_read = self.spec_written = self.spec_labeled = False

    def nonspec_words(self) -> List[object]:
        """The line's non-speculative value (what rollback would leave)."""
        if self.clean_words is not None:
            return list(self.clean_words)
        return list(self.words)

    def clone(self) -> "CacheLine":
        """Deep-enough copy for snapshot/restore: word lists are copied,
        the label is shared by reference (labels are immutable and the
        invariant sweep compares them by identity)."""
        return CacheLine(
            line=self.line, state=self.state, label=self.label,
            words=list(self.words),
            clean_words=None if self.clean_words is None
            else list(self.clean_words),
            dirty=self.dirty, spec_read=self.spec_read,
            spec_written=self.spec_written, spec_labeled=self.spec_labeled)

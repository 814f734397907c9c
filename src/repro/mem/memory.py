"""Main-memory backing store.

Memory is a sparse map from line number to a list of 8 word values. Words
hold arbitrary (treated-as-immutable) Python values; numeric workloads store
ints, descriptor-based structures (linked lists, top-K heaps) store small
tuples. Unwritten words read as 0, like zero-filled pages.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .address import (LINE_BYTES, WORD_BYTES, WORDS_PER_LINE,
                      check_word_aligned)


class MainMemory:
    """Sparse word-granularity memory."""

    def __init__(self):
        self._lines: Dict[int, List[object]] = {}

    def _line(self, line: int) -> List[object]:
        data = self._lines.get(line)
        if data is None:
            data = [0] * WORDS_PER_LINE
            self._lines[line] = data
        return data

    # The two word accessors inline line_of and word_index, and call
    # check_word_aligned only to raise: workload set-up and verification
    # call them once per word.

    def read_word(self, addr: int) -> object:
        if addr < 0 or addr % WORD_BYTES:
            check_word_aligned(addr)
        data = self._lines.get(addr // LINE_BYTES)
        if data is None:
            return 0
        return data[addr % LINE_BYTES // WORD_BYTES]

    def write_word(self, addr: int, value: object) -> None:
        if addr < 0 or addr % WORD_BYTES:
            check_word_aligned(addr)
        self._line(addr // LINE_BYTES)[addr % LINE_BYTES // WORD_BYTES] = value

    def write_words(self, addr: int, values: Sequence[object]) -> None:
        """Write ``values`` to consecutive words from ``addr``, a line's
        worth at a time: bulk set-up without a call per word."""
        if addr < 0 or addr % WORD_BYTES:
            check_word_aligned(addr)
        line, idx = divmod(addr // WORD_BYTES, WORDS_PER_LINE)
        pos, end = 0, len(values)
        while pos < end:
            take = min(WORDS_PER_LINE - idx, end - pos)
            self._line(line)[idx:idx + take] = values[pos:pos + take]
            pos += take
            line += 1
            idx = 0

    def read_line(self, line: int) -> List[object]:
        """Return a copy of the line's 8 words."""
        data = self._lines.get(line)
        if data is None:
            return [0] * WORDS_PER_LINE
        return list(data)

    def write_line(self, line: int, words) -> None:
        words = list(words)
        if len(words) != WORDS_PER_LINE:
            raise ValueError(f"line must have {WORDS_PER_LINE} words")
        self._lines[line] = words

    def touched_lines(self) -> int:
        """Number of lines ever written (for tests/inspection)."""
        return len(self._lines)

    # --- snapshot/restore (model-checker hooks) ----------------------------

    def snapshot(self):
        return tuple((no, tuple(words)) for no, words in self._lines.items())

    def restore(self, snap) -> None:
        self._lines.clear()
        for no, words in snap:
            self._lines[no] = list(words)

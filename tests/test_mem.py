"""Memory substrate: addressing, backing store, allocator."""

import pytest

from repro.errors import MemoryError_
from repro.mem import (
    Allocator,
    MainMemory,
    LINE_BYTES,
    WORD_BYTES,
    WORDS_PER_LINE,
    aligned,
    line_base,
    line_of,
    word_addr,
    word_index,
)
from repro.mem.address import check_word_aligned


class TestAddressing:
    def test_line_of(self):
        assert line_of(0) == 0
        assert line_of(63) == 0
        assert line_of(64) == 1
        assert line_of(128) == 2

    def test_word_index(self):
        assert word_index(0) == 0
        assert word_index(8) == 1
        assert word_index(56) == 7
        assert word_index(64) == 0

    def test_word_addr_roundtrip(self):
        for line in (0, 5, 1000):
            for idx in range(WORDS_PER_LINE):
                addr = word_addr(line, idx)
                assert line_of(addr) == line
                assert word_index(addr) == idx

    def test_word_addr_out_of_range(self):
        with pytest.raises(MemoryError_):
            word_addr(0, 8)

    def test_line_base(self):
        assert line_base(3) == 3 * LINE_BYTES

    def test_aligned(self):
        assert aligned(0)
        assert aligned(8)
        assert not aligned(4)
        assert aligned(64, LINE_BYTES)
        assert not aligned(32, LINE_BYTES)

    def test_check_word_aligned_rejects(self):
        with pytest.raises(MemoryError_):
            check_word_aligned(3)
        with pytest.raises(MemoryError_):
            check_word_aligned(-8)
        check_word_aligned(16)  # no raise


class TestMainMemory:
    def test_unwritten_reads_zero(self):
        mem = MainMemory()
        assert mem.read_word(0) == 0
        assert mem.read_word(8 * 1000) == 0

    def test_write_read_word(self):
        mem = MainMemory()
        mem.write_word(16, 42)
        assert mem.read_word(16) == 42
        assert mem.read_word(24) == 0  # neighbours untouched

    def test_words_hold_arbitrary_values(self):
        mem = MainMemory()
        mem.write_word(0, (1, 2))
        mem.write_word(8, None)
        assert mem.read_word(0) == (1, 2)
        assert mem.read_word(8) is None

    def test_read_line_is_copy(self):
        mem = MainMemory()
        mem.write_word(0, 5)
        line = mem.read_line(0)
        line[0] = 99
        assert mem.read_word(0) == 5

    def test_write_line(self):
        mem = MainMemory()
        mem.write_line(2, list(range(8)))
        assert mem.read_word(2 * LINE_BYTES + 8) == 1

    def test_write_line_wrong_size(self):
        mem = MainMemory()
        with pytest.raises(ValueError):
            mem.write_line(0, [1, 2, 3])

    def test_misaligned_access_rejected(self):
        mem = MainMemory()
        with pytest.raises(MemoryError_):
            mem.read_word(5)
        with pytest.raises(MemoryError_):
            mem.write_word(5, 1)
        # Aligned but negative: rejected too.
        with pytest.raises(MemoryError_):
            mem.read_word(-8)
        with pytest.raises(MemoryError_):
            mem.write_word(-8, 1)
        for addr in (5, -8):
            with pytest.raises(MemoryError_):
                mem.write_words(addr, [1])

    def test_write_words_spans_lines(self):
        mem = MainMemory()
        mem.write_word(8, "kept")
        values = list(range(1, 12))
        mem.write_words(40, values)  # words 5..15: two lines, mid-line
        assert mem.read_line(0) == [0, "kept", 0, 0, 0, 1, 2, 3]
        assert mem.read_line(1) == [4, 5, 6, 7, 8, 9, 10, 11]
        assert mem.touched_lines() == 2

    def test_touched_lines(self):
        mem = MainMemory()
        assert mem.touched_lines() == 0
        mem.write_word(0, 1)
        mem.write_word(8, 1)  # same line
        mem.write_word(64, 1)
        assert mem.touched_lines() == 2


class TestAllocator:
    def test_word_alignment(self):
        alloc = Allocator()
        a = alloc.alloc(8)
        assert a % WORD_BYTES == 0

    def test_line_allocation_is_line_aligned(self):
        alloc = Allocator()
        alloc.alloc(8)
        a = alloc.alloc_line()
        assert a % LINE_BYTES == 0

    def test_object_size_alignment(self):
        alloc = Allocator()
        alloc.alloc(8)
        a = alloc.alloc_words(2)  # 16-byte object -> 16-byte aligned
        assert a % 16 == 0

    def test_allocations_do_not_overlap(self):
        alloc = Allocator()
        spans = []
        for nwords in (1, 2, 3, 8, 1):
            a = alloc.alloc_words(nwords)
            spans.append((a, a + nwords * WORD_BYTES))
        spans.sort()
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_invalid_size(self):
        with pytest.raises(MemoryError_):
            Allocator().alloc(0)

    def test_thread_arenas_disjoint(self):
        alloc = Allocator()
        a0 = alloc.thread_alloc(0, 8)
        a1 = alloc.thread_alloc(1, 8)
        assert abs(a0 - a1) >= 0x0100_0000

    def test_thread_arena_exhaustion(self):
        alloc = Allocator(thread_arena_bytes=64)
        alloc.thread_alloc(0, 64)
        with pytest.raises(MemoryError_):
            alloc.thread_alloc(0, 8)

    def test_shared_arena_exhaustion(self):
        alloc = Allocator(base=0x1000, thread_arena_base=0x2000)
        with pytest.raises(MemoryError_):
            alloc.alloc(0x2000)

    def test_thread_alloc_words_alignment(self):
        alloc = Allocator()
        a = alloc.thread_alloc_words(3, 2)
        assert a % 16 == 0

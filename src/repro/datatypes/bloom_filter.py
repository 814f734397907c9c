"""Concurrent Bloom filter: commutative bitwise-OR inserts.

Set-union via OR is strictly commutative (Coup's motivating class of
updates) and the transactional wrapper lets a membership test and its
dependent logic stay atomic — e.g. insert-if-absent patterns. Inserts use
labeled OR updates and never conflict; membership tests are conventional
reads that trigger OR-reductions.

False positives behave exactly as in any Bloom filter; there are no false
negatives (asserted by the tests).
"""

from __future__ import annotations

from ..core.labels import Label, wordwise_label
from ..params import LINE_BYTES, WORD_BYTES, WORDS_PER_LINE

BITS_PER_WORD = 64


def or_label(name: str = "OR") -> Label:
    """Bitwise OR: identity 0, merge a | b."""
    label = wordwise_label(name, identity=0,
                           reduce_word=lambda a, b: a | b)
    # OR is associative and commutative on ints, so the batched column
    # kernel applies.
    label.vector_reduce = "or"
    return label


class BloomFilter:
    """A fixed-size Bloom filter with ``num_hashes`` probes per key."""

    def __init__(self, machine, num_bits: int = 1024, num_hashes: int = 3,
                 label: Label = None):
        if num_bits <= 0 or num_bits % BITS_PER_WORD:
            raise ValueError("num_bits must be a positive multiple of 64")
        if num_hashes <= 0:
            raise ValueError("need at least one hash")
        if label is None:
            if "OR" in machine.labels:
                label = machine.labels.get("OR")
            else:
                label = machine.register_label(or_label())
        self.label = label
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        num_words = num_bits // BITS_PER_WORD
        num_lines = -(-num_words // WORDS_PER_LINE)
        self._base = machine.alloc.alloc(num_lines * LINE_BYTES,
                                         align=LINE_BYTES)

    def _probes(self, key):
        from .hash_table import stable_hash

        h1 = stable_hash(key)
        h2 = stable_hash((key, "salt")) | 1
        for i in range(self.num_hashes):
            bit = (h1 + i * h2) % self.num_bits
            yield (self._base + (bit // BITS_PER_WORD) * WORD_BYTES,
                   1 << (bit % BITS_PER_WORD))

    # --- transactional operations -------------------------------------------

    def insert(self, ctx, key):
        """Set the key's bits (commutative OR updates)."""
        for addr, mask in self._probes(key):
            value = yield ctx.labeled_load(addr, self.label)
            if not value & mask:
                yield ctx.labeled_store(addr, self.label, value | mask)

    def contains(self, ctx, key):
        """Membership test (conventional reads; reduces OR partials).
        May return a false positive, never a false negative."""
        for addr, mask in self._probes(key):
            value = yield ctx.load(addr)
            if not value & mask:
                return False
        return True

    # --- host-side helpers -----------------------------------------------------

    def popcount(self, machine) -> int:
        """Total bits set (run flush_reducible() first)."""
        total = 0
        for w in range(self.num_bits // BITS_PER_WORD):
            total += bin(machine.read_word(
                self._base + w * WORD_BYTES)).count("1")
        return total


def law_suites():
    """Contract suite: OR over sparse 64-bit masks (strictly commutative)."""
    from .contracts import LawSuite, wordwise_gen

    def gen_word(rng):
        mask = 0
        for _ in range(rng.randint(0, 4)):
            mask |= 1 << rng.randrange(BITS_PER_WORD)
        return mask

    return [LawSuite(name="bloom_filter/OR", make_label=or_label,
                     gen=wordwise_gen(gen_word))]

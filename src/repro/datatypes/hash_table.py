"""Resizable hash table with a conditionally-commutative space counter.

genome and vacation (Table II) are compiled with resizable hash tables, per
Blundell et al. [8]: every insertion decrements a *remaining-space* bounded
counter, and when it hits zero the table is resized. The decrement is the
conditionally-commutative hot spot — with a conventional HTM it serializes
every insertion; with CommTM + gather requests insertions scale.

Layout:

* ``meta_addr`` word: ``(buckets_base, num_buckets, capacity)`` tuple.
* bucket words: each holds an immutable tuple of ``(key, value)`` pairs
  (a collapsed chain; conflicts on a bucket are conflicts on its word,
  which matches the contention behaviour of per-bucket list heads).
* ``remaining``: a :class:`~repro.datatypes.bounded_counter.BoundedCounter`.
"""

from __future__ import annotations

from ..core.labels import Label
from ..params import WORD_BYTES
from .bounded_counter import BoundedCounter

#: Free slots granted per bucket; the table resizes when load factor
#: reaches this bound.
SLOTS_PER_BUCKET = 4


def stable_hash(key) -> int:
    """Deterministic hash (Python's str hash is salted per process)."""
    if isinstance(key, int):
        return (key * 2654435761) & 0xFFFFFFFF
    h = 2166136261
    for ch in str(key):
        h = ((h ^ ord(ch)) * 16777619) & 0xFFFFFFFF
    return h


class ResizableHashTable:
    """An open-chaining hash table that doubles when full."""

    def __init__(self, machine, num_buckets: int = 16,
                 label: Label = None, use_gather: bool = True):
        if num_buckets <= 0:
            raise ValueError("need at least one bucket")
        self._machine = machine
        #: key -> stable_hash(key) for the non-integer keys this table has
        #: placed. Owned by the table, so it dies with its machine.
        self._hashes: dict = {}
        capacity = num_buckets * SLOTS_PER_BUCKET
        self.remaining = BoundedCounter(machine, label=label,
                                        initial=capacity,
                                        use_gather=use_gather)
        self.meta_addr = machine.alloc.alloc_line()
        base = self._alloc_buckets(num_buckets)
        machine.seed_word(self.meta_addr, (base, num_buckets, capacity))

    def _alloc_buckets(self, num_buckets: int) -> int:
        base = self._machine.alloc.alloc_words(num_buckets)
        return base

    def _bucket_addr(self, base: int, num_buckets: int, key) -> int:
        """The bucket word of ``key`` in the table at ``base``.

        ``stable_hash`` walks the ``str()`` of a non-integer key one
        character at a time, and a run places the same few keys again and
        again, so each such key is hashed once per table. Integer keys,
        whose hash is one multiply, bypass the memo. Keys that compare
        equal share an entry, so a table that mixed, say, ``1.0`` and
        ``True`` as keys would place both where the first went; no
        workload mixes key types."""
        if key.__class__ is int:
            h = stable_hash(key)
        else:
            hashes = self._hashes
            h = hashes.get(key)
            if h is None:
                h = hashes[key] = stable_hash(key)
        return base + (h % num_buckets) * WORD_BYTES

    # --- transactional operations -------------------------------------------

    def insert(self, ctx, key, value):
        """Insert (key, value); resizes the table when full."""
        ok = yield from self.remaining.decrement(ctx)
        if not ok:
            yield from self._resize(ctx)
            ok = yield from self.remaining.decrement(ctx)
            if not ok:
                raise RuntimeError("hash table still full after resize")
        base, num_buckets, _capacity = yield ctx.load(self.meta_addr)
        bucket = self._bucket_addr(base, num_buckets, key)
        chain = yield ctx.load(bucket)
        chain = chain if chain != 0 else ()
        yield ctx.work(1 + len(chain))  # chain walk
        yield ctx.store(bucket, chain + ((key, value),))

    def lookup(self, ctx, key):
        """Return the first value stored under ``key``, or None."""
        base, num_buckets, _capacity = yield ctx.load(self.meta_addr)
        bucket = self._bucket_addr(base, num_buckets, key)
        chain = yield ctx.load(bucket)
        chain = chain if chain != 0 else ()
        yield ctx.work(1 + len(chain))
        for k, v in chain:
            if k == key:
                return v
        return None

    def remove(self, ctx, key):
        """Remove one entry under ``key``; returns True if found."""
        base, num_buckets, _capacity = yield ctx.load(self.meta_addr)
        bucket = self._bucket_addr(base, num_buckets, key)
        chain = yield ctx.load(bucket)
        chain = chain if chain != 0 else ()
        yield ctx.work(1 + len(chain))
        for i, (k, _v) in enumerate(chain):
            if k == key:
                yield ctx.store(bucket, chain[:i] + chain[i + 1:])
                yield from self.remaining.increment(ctx)
                return True
        return False

    # --- resize ------------------------------------------------------------

    def _resize(self, ctx):
        """Double the table within the current transaction.

        Non-commutative by nature: reads every bucket and rewrites the
        metadata, conflicting with all concurrent operations — which is why
        it must be rare, and why the remaining-space counter exists.
        """
        base, num_buckets, capacity = yield ctx.load(self.meta_addr)
        new_num = num_buckets * 2
        new_base = self._alloc_buckets(new_num)
        for i in range(new_num):
            yield ctx.store(new_base + i * WORD_BYTES, ())
        for i in range(num_buckets):
            chain = yield ctx.load(base + i * WORD_BYTES)
            chain = chain if chain != 0 else ()
            for k, v in chain:
                dst = self._bucket_addr(new_base, new_num, k)
                old = yield ctx.load(dst)
                old = old if old != 0 else ()
                yield ctx.store(dst, old + ((k, v),))
        new_capacity = new_num * SLOTS_PER_BUCKET
        yield ctx.store(self.meta_addr, (new_base, new_num, new_capacity))
        # The new table has (new_capacity - capacity) additional free slots.
        yield from self.remaining.increment(ctx, new_capacity - capacity)

    # --- setup helpers --------------------------------------------------------

    def distribute_remaining(self, num_threads: int) -> None:
        """Pre-distribute the remaining-space counter across running cores.

        Steady-state start for scaled-down runs (see
        ``Machine.seed_reducible``): long runs spread the counter mass over
        the threads' U-state lines through gathers; short runs must not
        start with the whole mass concentrated at one core.
        """
        machine = self._machine
        if not machine.config.commtm_enabled or num_threads <= 1:
            return
        total = machine.memory.read_word(self.remaining.addr)
        share, extra = divmod(total, num_threads)
        machine.seed_reducible(
            self.remaining.addr, self.remaining.label,
            {core: share + (1 if core < extra else 0)
             for core in range(num_threads)},
        )

    # --- host-side verification helpers ---------------------------------------

    def snapshot(self) -> dict:
        """Read the table contents directly (post-run verification)."""
        machine = self._machine
        base, num_buckets, _capacity = machine.read_word(self.meta_addr)
        out = {}
        for i in range(num_buckets):
            chain = machine.read_word(base + i * WORD_BYTES)
            if chain == 0:
                continue
            for k, v in chain:
                out.setdefault(k, v)
        return out


def law_suites():
    """Contract suite: ADD over remaining-space counter mass.

    The resizable table's hot spot is the remaining-space bounded counter;
    its gathers split capacities in the hundreds across up to 128 sharers,
    a larger domain than the generic counter suite exercises.
    """
    from ..core.labels import add_label
    from .contracts import LawSuite, wordwise_gen

    return [LawSuite(
        name="hash_table/ADD",
        make_label=add_label,
        gen=wordwise_gen(lambda rng: rng.randint(0, 4096)),
    )]

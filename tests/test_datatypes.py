"""Commutative data types driven through the engine."""

import pytest

from repro import Atomic, Machine, Work
from repro.datatypes import (
    BoundedCounter,
    ConcurrentLinkedList,
    OrderedPutCell,
    ResizableHashTable,
    SharedCounter,
    SharedMax,
    SharedMin,
    TopKSet,
)
from repro.datatypes.hash_table import stable_hash
from repro.mem.address import WORD_BYTES
from repro.params import small_config


def make(**kw):
    return Machine(small_config(num_cores=4, **kw))


class TestSharedCounter:
    def test_concurrent_adds(self):
        machine = make()
        counter = SharedCounter(machine, initial=5)

        def body(ctx):
            for _ in range(10):
                yield Atomic(counter.add, 2)

        machine.run_spmd(body, 4)
        machine.flush_reducible()
        assert machine.read_word(counter.addr) == 5 + 80

    def test_read_triggers_reduction(self):
        machine = make()
        counter = SharedCounter(machine)
        values = []

        def adder(ctx):
            for _ in range(5):
                yield Atomic(counter.add, 1)

        def reader(ctx):
            yield Work(2000)
            values.append((yield Atomic(counter.read)))

        machine.run([adder, adder, reader])
        assert values and 0 <= values[0] <= 10

    def test_counters_share_label(self):
        machine = make()
        a = SharedCounter(machine)
        b = SharedCounter(machine)
        assert a.label is b.label


class TestBoundedCounter:
    def _run_mix(self, use_gather):
        machine = make()
        counter = BoundedCounter(machine, initial=8, use_gather=use_gather)
        outcomes = []

        def body(ctx):
            for i in range(12):
                if i % 3 == 0:
                    ok = yield Atomic(counter.increment, 1)
                else:
                    ok = yield Atomic(counter.decrement)
                outcomes.append(ok)

        machine.run_spmd(body, 4)
        machine.flush_reducible()
        value = machine.read_word(counter.addr)
        incs = 4 * 4
        decs = sum(1 for i, ok in enumerate(outcomes) if ok) - 0
        return machine, counter, outcomes, value

    def test_never_negative_with_gather(self):
        machine, counter, outcomes, value = self._run_mix(True)
        assert value >= 0

    def test_never_negative_without_gather(self):
        machine, counter, outcomes, value = self._run_mix(False)
        assert value >= 0

    def test_value_consistent_with_outcomes(self):
        machine = make()
        counter = BoundedCounter(machine, initial=3)
        succeeded = []

        def body(ctx):
            for _ in range(10):
                ok = yield Atomic(counter.decrement)
                succeeded.append(ok)

        machine.run_spmd(body, 4)
        machine.flush_reducible()
        value = machine.read_word(counter.addr)
        assert value == 3 - sum(succeeded)
        assert value >= 0

    def test_rejects_negative_initial(self):
        with pytest.raises(ValueError):
            BoundedCounter(make(), initial=-1)


class TestLinkedList:
    def test_enqueue_dequeue_conservation(self):
        machine = make()
        lst = ConcurrentLinkedList(machine)
        popped = []

        def body(ctx):
            for i in range(8):
                yield Atomic(lst.enqueue, (ctx.tid, i))
            for _ in range(4):
                v = yield Atomic(lst.dequeue)
                if v is not None:
                    popped.append(v)

        machine.run_spmd(body, 4)
        machine.flush_reducible()
        remaining = self._walk(machine, lst)
        assert len(popped) + len(remaining) == 32
        assert set(popped) | set(remaining) == {
            (t, i) for t in range(4) for i in range(8)
        }
        assert len(set(popped)) == len(popped)  # no double-pops

    def test_dequeue_empty_returns_none(self):
        machine = make()
        lst = ConcurrentLinkedList(machine)
        results = []

        def body(ctx):
            results.append((yield Atomic(lst.dequeue)))

        machine.run([body])
        assert results == [None]

    def _walk(self, machine, lst):
        desc = machine.read_word(lst.desc_addr)
        out = []
        if desc == 0:
            return out
        node, _tail = desc
        while node != 0:
            out.append(machine.read_word(node))
            node = machine.read_word(node + WORD_BYTES)
        return out


class TestOrderedPut:
    def test_keeps_minimum_key(self):
        machine = make()
        cell = OrderedPutCell(machine)
        keys = [[9, 4, 7], [3, 8, 5], [6, 2, 10], [11, 12, 13]]

        def body(ctx):
            for k in keys[ctx.tid]:
                yield Atomic(cell.put, k, f"v{k}")

        machine.run_spmd(body, 4)
        machine.flush_reducible()
        assert machine.read_word(cell.addr) == (2, "v2")


class TestMinMax:
    def test_shared_min(self):
        machine = make()
        cell = SharedMin(machine)

        def body(ctx):
            for v in (ctx.tid * 10 + 5, ctx.tid * 10 + 3):
                yield Atomic(cell.update, v)

        machine.run_spmd(body, 4)
        machine.flush_reducible()
        assert machine.read_word(cell.addr) == 3

    def test_shared_max(self):
        machine = make()
        cell = SharedMax(machine)

        def body(ctx):
            yield Atomic(cell.update, ctx.tid * 7)

        machine.run_spmd(body, 4)
        machine.flush_reducible()
        assert machine.read_word(cell.addr) == 21


class TestTopK:
    def test_keeps_k_largest(self):
        machine = make()
        topk = TopKSet(machine, k=5)
        values = list(range(40))

        def body(ctx):
            for v in values[ctx.tid::4]:
                yield Atomic(topk.insert, v)

        machine.run_spmd(body, 4)
        machine.flush_reducible()
        final = machine.read_word(topk.addr)
        assert tuple(final) == (35, 36, 37, 38, 39)

    def test_fewer_than_k(self):
        machine = make()
        topk = TopKSet(machine, k=10)

        def body(ctx):
            yield Atomic(topk.insert, ctx.tid)

        machine.run_spmd(body, 3)
        machine.flush_reducible()
        assert tuple(machine.read_word(topk.addr)) == (0, 1, 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopKSet(make(), k=0)


class TestHashTable:
    def test_insert_lookup(self):
        machine = make()
        table = ResizableHashTable(machine, num_buckets=4)
        found = []

        def body(ctx):
            for i in range(6):
                key = ctx.tid * 100 + i
                yield Atomic(table.insert, key, key * 2)
            for i in range(6):
                key = ctx.tid * 100 + i
                v = yield Atomic(table.lookup, key)
                found.append(v == key * 2)

        machine.run_spmd(body, 4)
        machine.flush_reducible()
        assert all(found)
        assert len(table.snapshot()) == 24

    def test_resize_preserves_contents(self):
        machine = make()
        table = ResizableHashTable(machine, num_buckets=2)  # capacity 8

        def body(ctx):
            for i in range(10):  # forces at least one resize
                yield Atomic(table.insert, ctx.tid * 100 + i, i)

        machine.run_spmd(body, 2)
        machine.flush_reducible()
        snapshot = table.snapshot()
        assert len(snapshot) == 20
        base, num_buckets, _cap = machine.read_word(table.meta_addr)
        assert num_buckets > 2

    def test_remove_restores_capacity(self):
        machine = make()
        table = ResizableHashTable(machine, num_buckets=4)

        def body(ctx):
            yield Atomic(table.insert, ctx.tid, ctx.tid)
            ok = yield Atomic(table.remove, ctx.tid)
            assert ok

        machine.run_spmd(body, 4)
        machine.flush_reducible()
        assert table.snapshot() == {}
        remaining = machine.read_word(table.remaining.addr)
        assert remaining == 16  # back to full capacity

    def test_remove_missing_key(self):
        machine = make()
        table = ResizableHashTable(machine, num_buckets=4)
        results = []

        def body(ctx):
            results.append((yield Atomic(table.remove, 999)))

        machine.run([body])
        assert results == [False]

    @pytest.mark.parametrize("commtm", [True, False],
                             ids=["commtm", "baseline"])
    @pytest.mark.parametrize("app", ["genome", "vacation"])
    def test_memoized_bucket_is_the_stable_hash_bucket(self, app, commtm,
                                                       monkeypatch):
        """Every key a genome or a vacation run places (its string
        segments, its integer ids and its tuple bookings, host-side set-up
        included) lands in the bucket ``stable_hash`` picks, and the
        table's memo holds exactly ``stable_hash`` of each non-integer
        key."""
        from repro.harness.runner import run_workload

        from .test_golden_stats import WORKLOADS

        placed = []
        memoized = ResizableHashTable._bucket_addr

        def recording(table, base, num_buckets, key):
            addr = memoized(table, base, num_buckets, key)
            placed.append((table, base, num_buckets, key, addr))
            return addr

        monkeypatch.setattr(ResizableHashTable, "_bucket_addr", recording)
        build, params = WORKLOADS[app]
        run_workload(build, 8, num_cores=16, commtm=commtm, seed=1,
                     **params)
        keys = {key for _t, _b, _n, key, _a in placed}
        assert len(placed) > len(keys) > 0  # keys recur: the memo pays
        assert any(not isinstance(key, int) for key in keys)
        for table, base, num_buckets, key, addr in placed:
            assert addr == base + (stable_hash(key) % num_buckets) * WORD_BYTES
            if not isinstance(key, int):
                assert table._hashes[key] == stable_hash(key)
        for table in {id(t): t for t, *_ in placed}.values():
            assert all(h == stable_hash(k) for k, h in table._hashes.items())

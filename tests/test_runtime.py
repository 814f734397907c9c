"""Runtime vocabulary and thread context."""

import pytest

from repro import Machine
from repro.core.labels import add_label
from repro.params import small_config
from repro.runtime import ops as ops_module
from repro.runtime.ops import (
    Atomic,
    Barrier,
    LabeledLoad,
    LabeledStore,
    Load,
    LoadGather,
    MEMORY_OPS,
    Store,
    Work,
)
from repro.runtime.thread_api import ThreadCtx


class TestOps:
    def test_ops_are_mutable_and_slotted(self):
        # The shuttle API reuses op instances by mutating their fields
        # (consume-before-resume contract), so ops must be writable —
        # but still slotted: no stray attributes, no per-op __dict__.
        op = Load(addr=8)
        op.addr = 16
        assert op.addr == 16
        with pytest.raises(AttributeError):
            op.extra = 1

    def test_work_and_barrier_are_interned(self):
        # One Work per thread context, whatever the cycle count (the
        # ctx.work shuttle), and one Barrier for the whole module.
        ctx = ThreadCtx(0, Machine(small_config(num_cores=4)))
        assert ctx.work(40) is ctx.work(41)
        assert ctx.work(40).cycles == 40
        assert ctx.barrier() is ctx.barrier() is ops_module.BARRIER
        assert isinstance(ops_module.BARRIER, Barrier)

    def test_memory_ops_tuple(self):
        assert Load in MEMORY_OPS
        assert Store in MEMORY_OPS
        assert LoadGather in MEMORY_OPS
        assert Work not in MEMORY_OPS
        assert Barrier not in MEMORY_OPS

    def test_atomic_repr(self):
        def my_txn(ctx):
            yield Work(1)

        op = Atomic(my_txn, 1, 2)
        assert "my_txn" in repr(op)
        assert op.args == (1, 2)

    def test_atomic_make_generator(self):
        seen = []

        def txn(ctx, x):
            seen.append((ctx, x))
            yield Work(1)

        gen = Atomic(txn, 42).make_generator("CTX")
        next(gen)
        assert seen == [("CTX", 42)]

    def test_labeled_ops_hold_label(self):
        label = add_label()
        assert LabeledLoad(0, label).label is label
        assert LabeledStore(0, label, 5).value == 5
        assert LoadGather(8, label).addr == 8


class TestThreadCtx:
    def make_ctx(self, tid=0):
        machine = Machine(small_config(num_cores=4))
        machine.register_label(add_label())
        return machine, ThreadCtx(tid, machine)

    def test_tid_and_num_threads(self):
        machine, ctx = self.make_ctx(2)
        assert ctx.tid == 2
        # A thread count read off the machine would be its core count,
        # not the run's thread count, so the context offers none.
        assert not hasattr(ctx, "num_threads")

    def test_label_lookup(self):
        machine, ctx = self.make_ctx()
        assert ctx.label("ADD") is machine.labels.get("ADD")

    def test_alloc_routes_to_machine(self):
        machine, ctx = self.make_ctx()
        a = ctx.alloc_words(2)
        b = ctx.alloc_line()
        assert b % 64 == 0
        assert a != b

    def test_thread_alloc_private(self):
        machine, ctx0 = self.make_ctx(0)
        ctx1 = ThreadCtx(1, machine)
        a = ctx0.thread_alloc_words(2)
        b = ctx1.thread_alloc_words(2)
        assert abs(a - b) >= 0x0100_0000

    def test_rng_deterministic_per_thread(self):
        machine, ctx = self.make_ctx(3)
        machine2 = Machine(small_config(num_cores=4))
        ctx2 = ThreadCtx(3, machine2)
        assert ctx.rng.random() == ctx2.rng.random()

    def test_rng_differs_across_threads(self):
        machine, ctx0 = self.make_ctx(0)
        ctx1 = ThreadCtx(1, machine)
        assert ctx0.rng.random() != ctx1.rng.random()

    def test_op_shuttles_reuse_one_instance(self):
        machine, ctx = self.make_ctx()
        first = ctx.load(8)
        second = ctx.load(64)
        assert first is second  # mutate-and-return, no per-op allocation
        assert second.addr == 64
        assert ctx.store(8, "v") is ctx.store(16, "w")
        assert ctx.work(40) is ctx.work(120)
        assert ctx.work(120).cycles == 120

    def test_labeled_shuttles_carry_full_payload(self):
        machine, ctx = self.make_ctx()
        label = machine.labels.get("ADD")
        op = ctx.labeled_store(24, label, 7)
        assert (op.addr, op.label, op.value) == (24, label, 7)
        assert isinstance(op, LabeledStore)
        gather = ctx.load_gather(24, label)
        assert isinstance(gather, LoadGather)
        assert gather.label is label
        assert isinstance(ctx.labeled_load(8, label), LabeledLoad)

    def test_shuttles_are_private_per_ctx(self):
        machine, ctx0 = self.make_ctx(0)
        ctx1 = ThreadCtx(1, machine)
        assert ctx0.load(8) is not ctx1.load(8)
        assert ctx0.barrier() is ctx1.barrier()  # payload-free: interned

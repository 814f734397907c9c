"""Linked-list microbenchmark (Sec. VI, Fig. 12).

Threads enqueue and dequeue elements from a singly-linked list used as an
unordered structure. Two mixes, as in the paper: 100% enqueues (Fig. 12a)
and 50% enqueues / 50% dequeues randomly interleaved (Fig. 12b).

In the baseline HTM the descriptor accesses become conventional loads and
stores (head and tail in one word models the paper's separate-cache-line
allocation: there is no false sharing, just true descriptor contention).
"""

from __future__ import annotations

from ...datatypes.linked_list import ConcurrentLinkedList
from ...mem.address import WORD_BYTES
from ...runtime.ops import Atomic
from .common import BuiltWorkload, split_ops

DEFAULT_OPS = 20_000

#: Non-transactional per-iteration loop work (see refcount.THINK_CYCLES).
THINK_CYCLES = 40

#: A list node: its value word, then its next pointer.
_NODE_BYTES = 2 * WORD_BYTES


def build(machine, num_threads: int, total_ops: int = DEFAULT_OPS,
          enqueue_fraction: float = 1.0, use_gather: bool = True,
          think_cycles: int = THINK_CYCLES,
          prefill: int = 0) -> BuiltWorkload:
    if not 0.0 <= enqueue_fraction <= 1.0:
        raise ValueError("enqueue_fraction must be in [0, 1]")
    lst = ConcurrentLinkedList(machine, use_gather=use_gather)
    per_thread = split_ops(total_ops, num_threads)
    log = {"enqueued": [], "dequeued": [], "empty_dequeues": 0}
    if prefill:
        log["enqueued"].extend(_prefill(machine, lst, prefill, num_threads))
    elif machine.config.commtm_enabled and num_threads > 1:
        # Steady-state start: U pre-granted with empty partial lists (see
        # counter.build for rationale).
        machine.seed_reducible(lst.desc_addr, lst.label,
                               {core: 0 for core in range(num_threads)})

    def make_body(tid: int, ops: int):
        def body(ctx):
            rng = ctx.rng
            for i in range(ops):
                if think_cycles:
                    yield ctx.work(think_cycles)
                if enqueue_fraction >= 1.0 or rng.random() < enqueue_fraction:
                    value = (tid << 32) | i
                    yield Atomic(lst.enqueue, value)
                    log["enqueued"].append(value)
                else:
                    value = yield Atomic(lst.dequeue)
                    if value is None:
                        log["empty_dequeues"] += 1
                    else:
                        log["dequeued"].append(value)
        return body

    def verify(m):
        m.flush_reducible()
        remaining = _walk(m, lst.desc_addr)
        enq = set(log["enqueued"])
        deq = set(log["dequeued"])
        if len(deq) != len(log["dequeued"]):
            raise AssertionError("an element was dequeued twice")
        if not deq <= enq:
            raise AssertionError("dequeued an element never enqueued")
        if set(remaining) != enq - deq:
            raise AssertionError(
                f"list contents wrong: {len(remaining)} remaining, "
                f"expected {len(enq) - len(deq)}"
            )

    def _walk(m, desc_addr):
        desc = m.read_word(desc_addr)
        items = []
        if desc == 0:
            return items
        node, tail = desc
        while node != 0:
            items.append(m.read_word(node))
            node = m.read_word(node + WORD_BYTES)
        return items

    return BuiltWorkload(
        name="linked_list" if enqueue_fraction >= 1.0 else "linked_list_mixed",
        bodies=[make_body(t, n) for t, n in enumerate(per_thread)],
        verify=verify,
        info={"total_ops": total_ops,
              "enqueue_fraction": enqueue_fraction,
              "log": log},
    )


def _prefill(machine, lst, count: int, num_threads: int):
    """Seed the list with ``count`` elements before the parallel region.

    With CommTM enabled the elements are distributed as per-core partial
    lists in U state (the steady-state shape after warmup — see
    Machine.seed_reducible); the baseline gets one chain in memory.
    """
    values = [(0xFFFF << 32) | i for i in range(count)]
    # One allocation for every node: a node is two words, which
    # alloc_words(2) aligns to their 16 bytes, so one call per node would
    # return these same addresses and leave the allocator where this one
    # does.
    base = machine.alloc.alloc(count * _NODE_BYTES, align=_NODE_BYTES)
    nodes = range(base, base + count * _NODE_BYTES, _NODE_BYTES)
    # Per-core chains interleave the nodes, core c holding nodes c, c + n,
    # c + 2n, ... for n threads; the baseline chains them all in order.
    distributed = machine.config.commtm_enabled and num_threads > 1
    stride = num_threads if distributed else 1
    words = []
    for i, value in enumerate(values):
        succ = i + stride
        words.append(value)
        words.append(nodes[succ] if succ < count else 0)  # next pointer
    machine.memory.write_words(base, words)

    if distributed:
        descs = {}
        for core in range(num_threads):
            chain = nodes[core::num_threads]
            if chain:
                descs[core] = (chain[0], chain[-1])
        machine.seed_reducible(lst.desc_addr, lst.label, descs)
    else:
        machine.seed_word(lst.desc_addr, (nodes[0], nodes[-1]))
    return values

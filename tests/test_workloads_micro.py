"""Microbenchmark builders (Sec. VI): construction, execution, and the
built-in verifiers, on both systems."""

import pytest

from repro.harness import run_workload
from repro.workloads.micro import (
    counter,
    linked_list,
    ordered_put,
    refcount,
    topk,
    split_ops,
)


class TestSplitOps:
    def test_even_division(self):
        assert split_ops(12, 4) == [3, 3, 3, 3]

    def test_remainder_to_first(self):
        assert split_ops(10, 4) == [3, 3, 2, 2]

    def test_total_preserved(self):
        for total in (1, 7, 100):
            for threads in (1, 3, 8):
                assert sum(split_ops(total, threads)) == total

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            split_ops(10, 0)


MICROS = [
    ("counter", counter.build, {}),
    ("refcount", refcount.build, {}),
    ("list_enq", linked_list.build, {"enqueue_fraction": 1.0}),
    ("list_mix", linked_list.build,
     {"enqueue_fraction": 0.5, "prefill": 64}),
    ("oput", ordered_put.build, {}),
    ("topk", topk.build, {"k": 8}),
]


@pytest.mark.parametrize("name,build,kw", MICROS,
                         ids=[m[0] for m in MICROS])
@pytest.mark.parametrize("commtm", [True, False], ids=["commtm", "baseline"])
def test_micro_runs_and_verifies(name, build, kw, commtm):
    result = run_workload(build, 4, num_cores=16, commtm=commtm,
                          total_ops=120, **kw)
    assert result.cycles > 0
    assert result.stats.commits > 0


def test_counter_expected_total_in_info():
    result = run_workload(counter.build, 2, num_cores=16, total_ops=50)
    assert result.info["total_ops"] == 50


def test_counter_commtm_avoids_aborts():
    commtm = run_workload(counter.build, 8, num_cores=16, total_ops=400)
    base = run_workload(counter.build, 8, num_cores=16, total_ops=400,
                        commtm=False)
    assert commtm.stats.aborts == 0
    assert base.stats.aborts > 0
    assert commtm.cycles < base.cycles


def test_refcount_gather_beats_no_gather_at_scale():
    with_g = run_workload(refcount.build, 16, num_cores=16, total_ops=2000)
    without = run_workload(refcount.build, 16, num_cores=16, total_ops=2000,
                           use_gather=False)
    assert with_g.cycles < without.cycles
    assert with_g.stats.gathers > 0
    assert without.stats.gathers == 0
    assert without.stats.reductions > with_g.stats.reductions


def test_single_thread_no_gathers_no_conflicts():
    result = run_workload(refcount.build, 1, num_cores=16, total_ops=100)
    assert result.stats.aborts == 0
    assert result.stats.gathers == 0


def test_linked_list_baseline_prefill_in_memory():
    result = run_workload(linked_list.build, 2, num_cores=16, commtm=False,
                          total_ops=60, enqueue_fraction=0.5, prefill=16)
    assert result.cycles > 0


def _prefill_node_by_node(machine, lst, count, num_threads):
    """Reference for ``linked_list._prefill``: each node allocated with
    its own ``alloc_words(2)`` and each word seeded on its own, as the
    prefill was first written."""
    from repro.mem.address import WORD_BYTES

    values = [(0xFFFF << 32) | i for i in range(count)]
    nodes = []
    for value in values:
        node = machine.alloc.alloc_words(2)
        machine.seed_word(node, value)
        machine.seed_word(node + WORD_BYTES, 0)
        nodes.append(node)
    if machine.config.commtm_enabled and num_threads > 1:
        descs = {}
        for core in range(num_threads):
            chain = nodes[core::num_threads]
            if not chain:
                continue
            for a, b in zip(chain, chain[1:]):
                machine.seed_word(a + WORD_BYTES, b)
            descs[core] = (chain[0], chain[-1])
        machine.seed_reducible(lst.desc_addr, lst.label, descs)
    else:
        for a, b in zip(nodes, nodes[1:]):
            machine.seed_word(a + WORD_BYTES, b)
        machine.seed_word(lst.desc_addr, (nodes[0], nodes[-1]))
    return values


def _prefilled_state(prefill, commtm, threads, count):
    """Everything a prefill can touch: the memory image in line order, the
    allocator, the directory and every cache."""
    from repro import Machine
    from repro.datatypes import ConcurrentLinkedList
    from repro.params import SystemConfig

    machine = Machine(SystemConfig(num_cores=128, commtm_enabled=commtm,
                                   seed=1),
                      sanitize=False, observe=False, backend="interp")
    lst = ConcurrentLinkedList(machine, use_gather=True)
    # Start the nodes mid-line, on a line that already holds data.
    machine.seed_word(machine.alloc.alloc(24), 7)
    values = prefill(machine, lst, count, threads)
    label = lambda obj: None if obj is None else obj.name  # noqa: E731
    entries = [(no, e.words, e.owner, e.sharers, e.u_sharers,
                label(e.u_label), e.dirty)
               for no, e in machine.msys.directory._entries.items()]
    caches = [[(no, cl.state, cl.words, label(cl.label), cl.dirty)
               for no, cl in cache._lines.items()]
              for cache in machine.msys.caches]
    return (values, list(machine.memory._lines.items()),
            vars(machine.alloc), entries, caches)


@pytest.mark.parametrize("threads", [1, 8, 32, 128])
@pytest.mark.parametrize("commtm", [True, False], ids=["commtm", "baseline"])
def test_linked_list_prefill_matches_node_by_node(commtm, threads):
    """One allocation and one bulk write leave the machine exactly as a
    node-by-node prefill does: fig. 12b's 5,120 nodes, plus a count that
    leaves some cores without a node."""
    for count in (5_120, threads // 2 + 1):
        fast = _prefilled_state(linked_list._prefill, commtm, threads, count)
        slow = _prefilled_state(_prefill_node_by_node, commtm, threads,
                                count)
        assert fast == slow, (count, threads)


def test_topk_labeled_instructions_counted():
    result = run_workload(topk.build, 4, num_cores=16, total_ops=100, k=8)
    assert result.stats.labeled_instructions > 0
    base = run_workload(topk.build, 4, num_cores=16, total_ops=100, k=8,
                        commtm=False)
    assert base.stats.labeled_instructions == 0


def test_oput_baseline_partially_scales():
    """Only smaller keys cause conflicting writes in the baseline, so its
    abort rate must be well below the counter benchmark's."""
    oput = run_workload(ordered_put.build, 8, num_cores=16, total_ops=400,
                        commtm=False)
    cnt = run_workload(counter.build, 8, num_cores=16, total_ops=400,
                       commtm=False)
    assert oput.stats.abort_rate < cnt.stats.abort_rate

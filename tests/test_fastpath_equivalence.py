"""Differential tests for the coherence protocol's private-hit fast path.

The fast path (``MemorySystem.fast_load`` and friends, probed first by
each of the engine's memory-op handlers, ``Engine._op_load`` and
friends) is a host-side optimization only: for every workload it must
produce *bit-identical* simulated behaviour — cycles, aborts, traffic,
breakdowns — to the full protocol path that ``REPRO_NO_FASTPATH=1``
forces. These tests run every micro workload both ways and compare
``Stats.comparable()``, which covers every simulated statistic and
excludes only the ``host_*`` instrumentation counters.
"""

import pytest

from repro.analysis.sanitizer import SANITIZE_ENV
from repro.core.machine import Machine, resolve_options
from repro.datatypes import SharedCounter
from repro.harness.runner import run_workload
from repro.obs import OBS_ENV
from repro.params import SystemConfig
from repro.runtime.ops import MEMORY_OPS, Atomic
from repro.sim.engine import NO_FASTPATH_ENV, Engine
from repro.sim.stats import WastedCause
from repro.workloads.micro import (counter, linked_list, ordered_put,
                                   refcount, topk)

MICROS = {
    "counter": counter.build,
    "topk": topk.build,
    "ordered_put": ordered_put.build,
    "linked_list": linked_list.build,
    "refcount": refcount.build,
}


def _set_fastpath(no_fastpath, monkeypatch):
    if no_fastpath:
        monkeypatch.setenv(NO_FASTPATH_ENV, "1")
    else:
        monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)


def _run(build, *, commtm, seed, no_fastpath, monkeypatch, sanitize=False,
         base_config=None):
    _set_fastpath(no_fastpath, monkeypatch)
    if sanitize:
        monkeypatch.setenv(SANITIZE_ENV, "1")
    else:
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
    # Pinned to the interpreted engine: this file differentially tests
    # *its* fast path, and asserts its host counters, which the vector
    # backend reports as "n/a (vector)". The vector backend has its own
    # oracle in tests/test_vector_equivalence.py. Obs is pinned off too:
    # an ambient REPRO_OBS=1 (the CI obs x vector leg exports it
    # suite-wide) deliberately disables the interpreted fast path, which
    # would contradict the hit-count assertions below.
    monkeypatch.delenv(OBS_ENV, raising=False)
    return run_workload(build, 4, num_cores=16, commtm=commtm, seed=seed,
                        base_config=base_config, total_ops=240,
                        backend="interp")


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(MICROS))
def test_fastpath_is_bit_identical(name, commtm, seed, monkeypatch):
    build = MICROS[name]
    fast = _run(build, commtm=commtm, seed=seed, no_fastpath=False,
                monkeypatch=monkeypatch)
    slow = _run(build, commtm=commtm, seed=seed, no_fastpath=True,
                monkeypatch=monkeypatch)

    assert fast.cycles == slow.cycles
    assert fast.stats.parallel_cycles == slow.stats.parallel_cycles
    assert fast.stats.aborts == slow.stats.aborts
    assert fast.stats.commits == slow.stats.commits
    # The full simulated surface: per-core breakdowns, wasted-cycle causes,
    # coherence traffic, CommTM mechanism counts, instruction counts.
    assert fast.stats.comparable() == slow.stats.comparable()

    # The escape hatch really forces the slow path: zero hits, zero
    # *attempts* — the hit rate reads None ("disabled"), not 0.0.
    assert slow.stats.host_fastpath_hits == 0
    assert slow.stats.host_fastpath_misses == 0
    assert slow.stats.fastpath_hit_rate is None
    # ...and the fast path really fires (every micro has private hits).
    assert fast.stats.host_fastpath_hits > 0
    assert 0.0 < fast.stats.fastpath_hit_rate <= 1.0


@pytest.mark.parametrize("no_fastpath", [False, True],
                         ids=["fastpath", "no-fastpath"])
@pytest.mark.parametrize("name", sorted(MICROS))
def test_sanitized_runs_are_clean_and_equivalent(name, no_fastpath,
                                                 monkeypatch):
    """REPRO_SANITIZE=1 finds no violation on any micro, on either path,
    and observes without disturbing: the simulated statistics are
    bit-identical to the unsanitized run."""
    build = MICROS[name]
    plain = _run(build, commtm=True, seed=1, no_fastpath=no_fastpath,
                 monkeypatch=monkeypatch)
    # A violation anywhere in the run raises SanitizerError and fails here.
    checked = _run(build, commtm=True, seed=1, no_fastpath=no_fastpath,
                   monkeypatch=monkeypatch, sanitize=True)
    assert checked.cycles == plain.cycles
    assert checked.stats.comparable() == plain.stats.comparable()
    for off in ("1", "true", "yes", " 1 "):
        monkeypatch.setenv(NO_FASTPATH_ENV, off)
        assert not resolve_options().fastpath
    for on in ("", "0", "false", " FALSE ", "no", " No "):
        monkeypatch.setenv(NO_FASTPATH_ENV, on)
        assert resolve_options().fastpath
    monkeypatch.delenv(NO_FASTPATH_ENV)
    assert resolve_options().fastpath


def test_counter_commtm_is_hit_dominated(monkeypatch):
    # The labeled counter is the fast path's best case: after warmup every
    # access is a U-state hit with a matching label.
    res = _run(MICROS["counter"], commtm=True, seed=1, no_fastpath=False,
               monkeypatch=monkeypatch)
    assert res.stats.fastpath_hit_rate > 0.9


def test_handler_table_is_fixed_for_the_run(monkeypatch):
    """The handler table is built once per engine: a run whose probes
    mostly miss (the contended baseline counter) still probes every op,
    and no memory-op entry is rebound mid-run."""
    _set_fastpath(False, monkeypatch)
    machine = Machine(SystemConfig(num_cores=16, commtm_enabled=False,
                                   seed=1),
                      backend="interp", sanitize=False, observe=False)
    built = MICROS["counter"](machine, 4, total_ops=600)
    engine = Engine(machine, built.bodies)
    before = {cls: engine._handlers[cls] for cls in MEMORY_OPS}
    engine.run()
    for cls in MEMORY_OPS:
        assert engine._handlers[cls] is before[cls], cls.__name__
    assert machine.stats.fastpath_hit_rate < 0.5


@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(MICROS))
def test_fastpath_is_bit_identical_under_lazy_detection(name, commtm,
                                                        monkeypatch):
    """Lazy transactional stores buffer, so they never probe; every other
    op still does."""
    lazy = SystemConfig(num_cores=16, conflict_detection="lazy")
    fast = _run(MICROS[name], commtm=commtm, seed=1, no_fastpath=False,
                monkeypatch=monkeypatch, base_config=lazy)
    slow = _run(MICROS[name], commtm=commtm, seed=1, no_fastpath=True,
                monkeypatch=monkeypatch, base_config=lazy)
    assert fast.cycles == slow.cycles
    assert fast.stats.comparable() == slow.stats.comparable()
    assert fast.stats.host_fastpath_hits > 0


def _labels_disabled_retry(no_fastpath, monkeypatch):
    """Each of four threads takes the counter line in U with a labeled add
    and meets the others at a barrier, then runs LabeledLoad; LabeledStore(+1);
    Load in one transaction. The Load is a non-commutative access to the
    core's own speculatively modified U line, so the transaction aborts
    itself and retries with labels disabled (Sec. III-B4): the retry's
    labeled ops take the conventional route.

    Returns the run's cycles, comparable stats, the causes of its
    labels-disabling aborts and the final counter value, then its
    fast-path hit count."""
    _set_fastpath(no_fastpath, monkeypatch)
    machine = Machine(SystemConfig(num_cores=16, seed=1), backend="interp",
                      sanitize=False, observe=False)
    shared = SharedCounter(machine)
    addr, label = shared.addr, shared.label

    def add_then_read(ctx):
        value = yield ctx.labeled_load(addr, label)
        yield ctx.labeled_store(addr, label, value + 1)
        yield ctx.load(addr)

    def body(ctx):
        yield from shared.add(ctx, 1)
        yield ctx.barrier()
        yield Atomic(add_then_read)

    disabling = []
    abort_requester = machine.conflicts.abort_requester

    def record(core, cause, disable_labels=False):
        if disable_labels:
            disabling.append(cause)
        abort_requester(core, cause, disable_labels)

    machine.conflicts.abort_requester = record
    result = machine.run_spmd(body, 4)
    comparable = machine.stats.comparable()
    machine.flush_reducible()
    observed = (result.cycles, comparable, disabling,
                machine.read_word(addr))
    return observed, machine.stats.host_fastpath_hits


def test_labels_disabled_retry_is_bit_identical(monkeypatch):
    fast, fast_hits = _labels_disabled_retry(False, monkeypatch)
    slow, slow_hits = _labels_disabled_retry(True, monkeypatch)
    _cycles, _comparable, disabling, value = fast
    assert disabling and set(disabling) == {WastedCause.OTHER}
    assert value == 8
    assert fast == slow
    assert fast_hits > 0 and slow_hits == 0

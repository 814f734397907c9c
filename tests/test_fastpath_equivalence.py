"""Differential tests for the engine's private-hit path.

Each of the engine's memory-op handlers (``Engine._op_load`` and
friends) serves a stable private-cache hit itself, with no call into the
coherence protocol. That is a host-side optimization only: for every
workload it must produce *bit-identical* simulated behaviour — cycles,
aborts, traffic, breakdowns — to the full protocol path that
``REPRO_NO_FASTPATH=1`` forces. These tests run all ten workloads both
ways, on both systems, with Table I caches and with caches of a few
lines (where hits miss the L1, and evictions and writebacks surround
them), and compare ``Stats.comparable()``, which covers every simulated
statistic and excludes only the ``host_*`` instrumentation counters. A
named case pins the hit whose L1 insert evicts a speculative line and
aborts its own transaction, and another holds both paths to the
serializable outcome that follows from it: a store hit that aborts this
way still writes its line, and the retry must not commit that store.
"""

import pytest

from repro.analysis.sanitizer import SANITIZE_ENV
from repro.core.machine import Machine, resolve_options
from repro.datatypes import SharedCounter
from repro.errors import SimulationError
from repro.harness.runner import run_workload
from repro.obs import OBS_ENV
from repro.params import LINE_BYTES, CacheGeometry, SystemConfig
from repro.runtime.ops import MEMORY_OPS, Atomic
from repro.sim.engine import NO_FASTPATH_ENV, Engine
from repro.sim.stats import WastedCause
from repro.workloads.micro import counter

from .test_sanitizer_incremental import TINY, WORKLOADS

MICROS = ("counter", "linked_list", "ordered_put", "refcount", "topk")


def _set_fastpath(no_fastpath, monkeypatch):
    if no_fastpath:
        monkeypatch.setenv(NO_FASTPATH_ENV, "1")
    else:
        monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)


def _run(name, *, commtm, seed, no_fastpath, monkeypatch, sanitize=False,
         base_config=None):
    build, params = WORKLOADS[name]
    _set_fastpath(no_fastpath, monkeypatch)
    if sanitize:
        monkeypatch.setenv(SANITIZE_ENV, "1")
    else:
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
    # Pinned to the interpreted engine: this file differentially tests
    # *its* fast path, and asserts its host counters, which under the
    # vector backend count only its strict phases. The vector backend
    # has its own oracle in tests/test_vector_equivalence.py. Obs is
    # pinned off too: an ambient REPRO_OBS=1 (the CI obs x vector leg
    # exports it suite-wide) deliberately disables the interpreted fast
    # path, which would contradict the hit-count assertions below.
    monkeypatch.delenv(OBS_ENV, raising=False)
    return run_workload(build, 4, num_cores=16, commtm=commtm, seed=seed,
                        base_config=base_config, backend="interp", **params)


def _assert_bit_identical(name, commtm, seed, monkeypatch, base_config=None):
    fast = _run(name, commtm=commtm, seed=seed, no_fastpath=False,
                monkeypatch=monkeypatch, base_config=base_config)
    slow = _run(name, commtm=commtm, seed=seed, no_fastpath=True,
                monkeypatch=monkeypatch, base_config=base_config)

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
    # ...and the fast path really fires (every workload has private hits).
    assert fast.stats.host_fastpath_hits > 0
    assert 0.0 < fast.stats.fastpath_hit_rate <= 1.0


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fastpath_is_bit_identical(name, commtm, seed, monkeypatch):
    _assert_bit_identical(name, commtm, seed, monkeypatch)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fastpath_is_bit_identical_with_tiny_caches(name, commtm, seed,
                                                    monkeypatch):
    """Caches of a few lines: hits on lines the L1 does not hold, which
    the handlers hand to ``PrivateCache.touch``, between L2 and L3
    evictions and writebacks."""
    tiny = SystemConfig(num_cores=16, **TINY[name])
    _assert_bit_identical(name, commtm, seed, monkeypatch, tiny)


@pytest.mark.parametrize("no_fastpath", [False, True],
                         ids=["fastpath", "no-fastpath"])
@pytest.mark.parametrize("name", sorted(MICROS))
def test_sanitized_runs_are_clean_and_equivalent(name, no_fastpath,
                                                 monkeypatch):
    """REPRO_SANITIZE=1 finds no violation on any micro, on either path,
    and observes without disturbing: the simulated statistics are
    bit-identical to the unsanitized run."""
    plain = _run(name, commtm=True, seed=1, no_fastpath=no_fastpath,
                 monkeypatch=monkeypatch)
    # A violation anywhere in the run raises SanitizerError and fails here.
    checked = _run(name, commtm=True, seed=1, no_fastpath=no_fastpath,
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
    res = _run("counter", commtm=True, seed=1, no_fastpath=False,
               monkeypatch=monkeypatch)
    assert res.stats.fastpath_hit_rate > 0.9


def test_hit_rate_counts_only_probes(monkeypatch):
    """Gathers never probe the fast path, so they are not its misses:
    refcount CommTM's probes all hit, and its ten gathers leave the rate
    at 1.0."""
    res = _run("refcount", commtm=True, seed=1, no_fastpath=False,
               monkeypatch=monkeypatch)
    assert res.stats.gathers == 10
    assert res.stats.host_fastpath_hits > 0
    assert res.stats.host_fastpath_misses == 0
    assert res.stats.fastpath_hit_rate == 1.0


def test_handler_table_is_fixed_for_the_run(monkeypatch):
    """The handler table is built once per engine: a run whose probes
    mostly miss (the contended baseline counter) still probes every op,
    and no memory-op entry is rebound mid-run."""
    _set_fastpath(False, monkeypatch)
    machine = Machine(SystemConfig(num_cores=16, commtm_enabled=False,
                                   seed=1),
                      backend="interp", sanitize=False, observe=False)
    built = counter.build(machine, 4, total_ops=600)
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
    fast = _run(name, commtm=commtm, seed=1, no_fastpath=False,
                monkeypatch=monkeypatch, base_config=lazy)
    slow = _run(name, commtm=commtm, seed=1, no_fastpath=True,
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


#: The three lines of _l1_eviction_abort, one word each.
LINE_A, LINE_B, LINE_C = (0x8000 + i * LINE_BYTES for i in range(3))


def _two_line_l1_machine(no_fastpath, monkeypatch, observe=False):
    """A 16-core machine whose L1 holds two lines and L2 sixteen, on the
    handler path or, with ``no_fastpath``, the reference path (which an
    installed Observer also takes)."""
    _set_fastpath(no_fastpath, monkeypatch)
    config = SystemConfig(
        num_cores=16, seed=1,
        l1=CacheGeometry(size_bytes=2 * LINE_BYTES, ways=1, latency=1),
        l2=CacheGeometry(size_bytes=16 * LINE_BYTES, ways=1, latency=6))
    return Machine(config, backend="interp", sanitize=False, observe=observe)


def _l1_eviction_abort(machine):
    """On ``machine`` (a _two_line_l1_machine), one core with a two-line
    L1. Outside a transaction it loads lines C, A and B, so the L1
    holds A and B and the private L2 holds C too.
    Its transaction loads A and B (L1 hits, marked read), then C: a
    private hit the L1 does not hold, whose LRU touch evicts A, a
    speculative line, and so aborts its own transaction (Sec. III-B1).
    The retry loads A only, and commits.

    Returns the run's cycles, comparable stats, the causes of the
    requester aborts, the loads each attempt saw delivered and the lines
    each attempt began with marked (the aborting hit marks its line after
    the abort, as the protocol's own hit does), then the run's hit and
    miss counts."""
    for value, addr in enumerate((LINE_A, LINE_B, LINE_C), start=1):
        machine.seed_word(addr, value)
    seen, marked = [], []
    cache = machine.msys.caches[0]

    def loads(ctx):
        marked.append(sorted(entry.line for entry in cache.spec_lines()))
        seen.append([])
        seen[-1].append((yield ctx.load(LINE_A)))
        if len(seen) == 1:
            seen[-1].append((yield ctx.load(LINE_B)))
            seen[-1].append((yield ctx.load(LINE_C)))

    def body(ctx):
        for addr in (LINE_C, LINE_A, LINE_B):
            yield ctx.load(addr)
        yield Atomic(loads)

    causes = []
    abort_requester = machine.conflicts.abort_requester

    def record(core, cause, disable_labels=False):
        causes.append(cause)
        abort_requester(core, cause, disable_labels)

    machine.conflicts.abort_requester = record
    result = machine.run([body])
    stats = machine.stats
    observed = (result.cycles, stats.comparable(), causes, seen, marked)
    return observed, (stats.host_fastpath_hits, stats.host_fastpath_misses)


def test_hit_that_evicts_a_speculative_line_aborts_its_transaction(
        monkeypatch):
    fast, fast_counts = _l1_eviction_abort(
        _two_line_l1_machine(False, monkeypatch))
    slow, slow_counts = _l1_eviction_abort(
        _two_line_l1_machine(True, monkeypatch))
    _cycles, comparable, causes, seen, _marked = fast
    # One abort, by the L1 capacity eviction, before C's value reached
    # the first attempt; the retry committed.
    assert causes == [WastedCause.OTHER]
    assert comparable["aborts"] == comparable["commits"] == 1
    assert seen == [[1, 2], [1]]
    # The hit path served C's load: three cold misses outside the
    # transaction, then hits only (A, B, C, then A again).
    assert fast_counts == (4, 3)
    assert slow_counts == (0, 0)
    assert fast == slow


def test_negative_hit_latency_is_refused_when_the_engine_is_built():
    machine = Machine(SystemConfig(num_cores=16), backend="interp",
                      sanitize=False, observe=False)
    machine.msys.l12_latency = -1
    with pytest.raises(SimulationError, match="negative cycle charge: -1"):
        Engine(machine, [])


def _aborted_store(no_fastpath, monkeypatch):
    """One core with a two-line L1 stores 1 to line C, then loads A and
    B, so the L1 holds A and B and the private L2 holds C in M. Its
    transaction's first attempt loads A and B, then stores 99 to C: a
    private hit the L1 does not hold, whose insert evicts A, a
    speculative line, and so aborts the attempt. The retry loads A only,
    and commits.

    Returns the run's aborts and commits, then C's final value."""
    machine = _two_line_l1_machine(no_fastpath, monkeypatch)
    attempts = []

    def tx(ctx):
        attempts.append(None)
        yield ctx.load(LINE_A)
        if len(attempts) == 1:
            yield ctx.load(LINE_B)
            yield ctx.store(LINE_C, 99)

    def body(ctx):
        yield ctx.store(LINE_C, 1)
        yield ctx.load(LINE_A)
        yield ctx.load(LINE_B)
        yield Atomic(tx)

    machine.run([body])
    stats = machine.stats
    return stats.aborts, stats.commits, machine.read_word(LINE_C)


@pytest.mark.parametrize("no_fastpath", [False, True],
                         ids=["handlers", "reference"])
def test_store_of_an_aborted_attempt_is_not_committed(no_fastpath,
                                                      monkeypatch):
    # The aborting store hit marks and writes C after the abort's
    # rollback; the retry starts only once that is rolled back too, so
    # its commit publishes nothing of the aborted attempt.
    aborts, commits, value = _aborted_store(no_fastpath, monkeypatch)
    assert (aborts, commits) == (1, 1)
    assert value == 1

"""Differential-oracle parity tests for the vector engine backend.

The vector backend (``repro.sim.vector``) advances the simulation in
fence-bounded epochs of think time and fused ``SharedCounter.add``
transactions off a min-key heap, interleaved with strict per-op phases
(the interpreted run-ahead loop) for everything else. It is a host-side
optimization only: every simulated quantity must be *bit-identical* to
the interpreted engine. These tests run all ten workloads — the five
micros and the five ported applications (kmeans, vacation, ssca2,
genome, boruvka) — under both systems (CommTM and the baseline HTM),
plus a randomized op mix and another core's access inside a fused add's
window, and compare per-thread cycles, ``parallel_cycles``, and the full
``Stats.comparable()`` dict — the same differential oracle the run-ahead
scheduler is held to in tests/test_runahead_equivalence.py.

Composition is covered too. The coherence sanitizer and the observer
are per-op layers: ``REPRO_SANITIZE=1`` or ``REPRO_OBS=1`` plus
``backend="vector"`` forces delegation to the interpreted path with a
logged notice (bit-identical, zero epochs), so an observed run has one
engine and one obs payload on either backend.
"""

import copy
import logging

import pytest

from repro import Machine
from repro.analysis.sanitizer import SANITIZE_ENV
from repro.datatypes import SharedCounter
from repro.harness.runner import run_workload
from repro.obs import OBS_ENV
from repro.params import LINE_BYTES, CacheGeometry, SystemConfig, small_config
from repro.runtime.ops import BARRIER, Atomic
from repro.sim.engine import NO_FASTPATH_ENV, NO_RUNAHEAD_ENV
from repro.sim.vector import BACKEND_ENV
from repro.workloads.micro.common import BuiltWorkload

from .test_golden_stats import MICROS, WORKLOADS

#: The five ported applications at the golden pins' inputs: big enough
#: that every fence class fires (misses, barriers, restarts, gathers,
#: resizes, thread finish), small enough to run the full 10-workload x
#: 2-system matrix in tier 1. ``total_ops=None`` opts the apps out of the
#: micro-only default in ``_run``.
APPS = {name: WORKLOADS[name]
        for name in ("boruvka", "genome", "kmeans", "ssca2", "vacation")}


def _run(build, *, backend, commtm, seed, monkeypatch, sanitize=False,
         observe=False, **params):
    # Parity must not depend on ambient escape hatches.
    for env in (NO_RUNAHEAD_ENV, NO_FASTPATH_ENV, BACKEND_ENV):
        monkeypatch.delenv(env, raising=False)
    if sanitize:
        monkeypatch.setenv(SANITIZE_ENV, "1")
    else:
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
    if observe:
        monkeypatch.setenv(OBS_ENV, "1")
    else:
        monkeypatch.delenv(OBS_ENV, raising=False)
    params.setdefault("total_ops", 240)
    # total_ops=None opts a build without that parameter (kmeans, the
    # random mix) out of the micro default.
    params = {k: v for k, v in params.items() if v is not None}
    return run_workload(build, 4, num_cores=16, commtm=commtm, seed=seed,
                        backend=backend, **params)


def _assert_parity(interp, vector):
    assert interp.cycles == vector.cycles
    assert interp.stats.parallel_cycles == vector.stats.parallel_cycles
    assert interp.stats.aborts == vector.stats.aborts
    assert interp.stats.commits == vector.stats.commits
    assert interp.stats.comparable() == vector.stats.comparable()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(MICROS))
def test_vector_is_bit_identical(name, commtm, seed, monkeypatch):
    build = MICROS[name]
    interp = _run(build, backend="interp", commtm=commtm, seed=seed,
                  monkeypatch=monkeypatch)
    vector = _run(build, backend="vector", commtm=commtm, seed=seed,
                  monkeypatch=monkeypatch)
    _assert_parity(interp, vector)

    # The backends really ran where they claim: never an epoch on the
    # interpreted side, and on the vector side epochs that fuse adds
    # where every op is a counter add on a line seeded in U. The other
    # micros run transactions that do not fuse, or baseline counter
    # adds, which epochs fence.
    assert interp.stats.host_backend == "interp"
    assert interp.stats.host_vector_epochs == 0
    assert vector.stats.host_backend == "vector"
    if name == "counter" and commtm:
        assert vector.stats.host_vector_epochs > 0
        assert vector.stats.host_vector_fused_txs > 0


@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(APPS))
def test_vector_is_bit_identical_on_apps(name, commtm, monkeypatch):
    """The full application matrix under both systems. kmeans mixes
    commutative transactions with reduction resets, barriers, and
    first-touch misses — the densest fence profile in the repo; genome and
    vacation bring hash-table gathers and resizes, ssca2 and boruvka bring
    irregular graph footprints with MIN-labeled reductions. None of them
    fuses, but each starts in an epoch of think time."""
    build, params = APPS[name]
    interp = _run(build, backend="interp", commtm=commtm, seed=1,
                  monkeypatch=monkeypatch, total_ops=None, **params)
    vector = _run(build, backend="vector", commtm=commtm, seed=1,
                  monkeypatch=monkeypatch, total_ops=None, **params)
    _assert_parity(interp, vector)
    assert vector.stats.host_vector_epochs > 0


def test_kmeans_seed8_parity(monkeypatch):
    """The seed at which CommTM kmeans once diverged, when its epochs
    fused transactions whose first access was a miss."""
    build, params = APPS["kmeans"]
    interp = _run(build, backend="interp", commtm=True, seed=8,
                  monkeypatch=monkeypatch, total_ops=None, **params)
    vector = _run(build, backend="vector", commtm=True, seed=8,
                  monkeypatch=monkeypatch, total_ops=None, **params)
    _assert_parity(interp, vector)


def _machine(config, backend, monkeypatch):
    """A machine on ``backend`` that no ambient run option reaches."""
    for env in (NO_RUNAHEAD_ENV, NO_FASTPATH_ENV, BACKEND_ENV,
                SANITIZE_ENV, OBS_ENV):
        monkeypatch.delenv(env, raising=False)
    return Machine(config, backend=backend)


def _adds_between_own_evictions(backend, monkeypatch):
    """One core with a two-line L1 adds to a shared counter, loads two
    other lines and adds again, which brings the counter's line back
    into the L1. Then six times over it adds, fusibly, and loads the two
    lines from its L2, so the second load's L1 insert evicts the
    counter's line. Returns the result."""
    config = SystemConfig(
        num_cores=16, commtm_enabled=True, seed=1,
        l1=CacheGeometry(size_bytes=2 * LINE_BYTES, ways=1, latency=1))
    machine = _machine(config, backend, monkeypatch)
    counter = SharedCounter(machine)
    a, b = machine.alloc.alloc_line(), machine.alloc.alloc_line()
    add = Atomic(counter.add, 1)

    def body(ctx):
        yield add
        yield ctx.load(a)
        yield ctx.load(b)
        yield add
        for _ in range(6):
            yield add
            yield ctx.load(a)
            yield ctx.load(b)

    return machine.run([body])


def test_fused_add_after_its_line_left_the_l1(monkeypatch):
    """A fused transaction charges L1 hits only: once the core's own
    load evicted the line from the L1, the next add must not fuse, and
    the hoisted add it yields again must not reuse the validation of
    the add before that load."""
    interp = _adds_between_own_evictions("interp", monkeypatch)
    vector = _adds_between_own_evictions("vector", monkeypatch)
    _assert_parity(interp, vector)


#: Another core's access to the counter's word: it serializes with a
#: live add transaction (a plain load or store reduces the U line, a
#: gather splits it), so it must meet the interpreted transaction.
ACCESSES = {
    "load": lambda ctx, counter: ctx.load(counter.addr),
    "store": lambda ctx, counter: ctx.store(counter.addr, 7),
    "gather": lambda ctx, counter: ctx.load_gather(counter.addr,
                                                   counter.label),
}


def _access_during_fused_adds(backend, access, at, monkeypatch):
    """Core 0 adds 1 to a shared counter 40 times, each add a fusible
    transaction of 22 cycles whose commit step is 20 cycles after its
    start; core 1 thinks for ``at`` cycles, accesses the counter with
    ``access`` and thinks for 5 more. Both cores start with the
    counter's line in U. Returns the result."""
    machine = _machine(small_config(num_cores=4, seed=1), backend,
                       monkeypatch)
    counter = SharedCounter(machine)
    machine.seed_reducible(counter.addr, counter.label, {0: 0, 1: 0})
    add = Atomic(counter.add, 1)

    def adder(ctx):
        for _ in range(40):
            yield add

    def accessor(ctx):
        yield ctx.work(at)
        yield ACCESSES[access](ctx, counter)
        yield ctx.work(5)

    return machine.run([adder, accessor])


@pytest.mark.parametrize("at", [8, 34])
@pytest.mark.parametrize("access", sorted(ACCESSES))
def test_fused_transaction_window_is_not_crossed(access, at, monkeypatch):
    """Core 1's access at cycle 8 falls inside core 0's first add, and at
    cycle 34 inside its second, which the interpreter serves in the
    middle of that transaction. An add applied whole at its start would
    run past that fence (for the load at cycle 8: 947 cycles against
    the interpreter's 969); keyed at its commit step, the add is held,
    and the strict phase runs it interpreted. At cycle 34 the first add,
    whose commit step is at most cycle 27 (20 plus the start jitter),
    still fuses."""
    interp = _access_during_fused_adds("interp", access, at, monkeypatch)
    vector = _access_during_fused_adds("vector", access, at, monkeypatch)
    _assert_parity(interp, vector)
    if at > 27:
        assert vector.stats.host_vector_fused_txs > 0


def _random_mix(machine, num_threads: int, iters: int = 60) -> BuiltWorkload:
    """Deterministic per-thread random mixes of conventional loads (of
    four shared lines and of the counter's word), gathers of the
    counter, private stores, variable think time, commutative
    transactions, and barriers — irregular core clocks stress epoch
    classification, fence placement, fused-add windows and strict-phase
    hand-off edges."""
    shared_counter = SharedCounter(machine)
    lines = [machine.alloc.alloc_line() for _ in range(4)]
    for addr in lines:
        machine.seed_word(addr, 0)

    def make_body(tid: int):
        def body(ctx):
            rng = ctx.rng
            scratch = ctx.thread_alloc_words(1)
            add_one = Atomic(shared_counter.add, 1)
            for i in range(iters):
                r = rng.random()
                if r < 0.3:
                    yield ctx.load(lines[rng.randrange(len(lines))])
                elif r < 0.35:
                    yield ctx.load(shared_counter.addr)
                elif r < 0.4:
                    yield ctx.load_gather(shared_counter.addr,
                                          shared_counter.label)
                elif r < 0.6:
                    yield ctx.store(scratch, i)
                elif r < 0.85:
                    yield ctx.work(1 + rng.randrange(50))
                else:
                    yield add_one
                if i % 20 == 10:
                    yield BARRIER
        return body

    return BuiltWorkload(
        name="random_mix",
        bodies=[make_body(t) for t in range(num_threads)],
        verify=None,
        info={},
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
def test_random_mix_parity(commtm, seed, monkeypatch):
    interp = _run(_random_mix, backend="interp", commtm=commtm, seed=seed,
                  monkeypatch=monkeypatch, total_ops=None)
    vector = _run(_random_mix, backend="vector", commtm=commtm, seed=seed,
                  monkeypatch=monkeypatch, total_ops=None)
    _assert_parity(interp, vector)


def simulated_payload(result) -> dict:
    """A run's obs payload without its host wall-clock sections (the
    hostprof report and its trace lane), which differ from run to run;
    deep-copied, so comparing never mutates ``result.info``."""
    payload = copy.deepcopy(result.info["obs"])
    del payload["hostprof"]
    del payload["trace"]["host_events"]
    return payload


#: Per-op layer -> (``_run`` flag, the name the delegation notice gives).
LAYERS = {
    "sanitizer": ("sanitize", "coherence sanitizer"),
    "observer": ("observe", "observer"),
}


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_vector_composes_with_layer(layer, monkeypatch, caplog):
    """The sanitizer and the observer are per-op layers: combined with
    the vector backend the whole run must delegate to the interpreted
    path (zero epochs), say so in the log, and stay bit-identical. An
    observed run's obs payload is the interpreted run's, too."""
    flag, name = LAYERS[layer]
    interp = _run(MICROS["counter"], backend="interp", commtm=True, seed=1,
                  monkeypatch=monkeypatch, **{flag: True})
    with caplog.at_level(logging.INFO, logger="repro.sim.vector"):
        vector = _run(MICROS["counter"], backend="vector", commtm=True,
                      seed=1, monkeypatch=monkeypatch, **{flag: True})
    _assert_parity(interp, vector)
    assert vector.stats.host_backend == "vector"
    assert vector.stats.host_vector_epochs == 0
    assert any(name in r.message and "interpreted engine" in r.message
               for r in caplog.records)
    if layer == "observer":
        assert simulated_payload(vector) == simulated_payload(interp)


@pytest.mark.parametrize("env", [NO_FASTPATH_ENV, NO_RUNAHEAD_ENV])
def test_vector_respects_reference_escape_hatches(env, monkeypatch):
    """The reference escape hatches exist to pin down the simplest
    possible execution; the vector backend must honor them by running
    per-op (zero epochs) and stay bit-identical doing so."""
    interp = _run(MICROS["topk"], backend="interp", commtm=True, seed=1,
                  monkeypatch=monkeypatch)
    monkeypatch.setenv(env, "1")
    vector = run_workload(MICROS["topk"], 4, num_cores=16, commtm=True,
                          seed=1, backend="vector", total_ops=240)
    _assert_parity(interp, vector)
    assert vector.stats.host_vector_epochs == 0

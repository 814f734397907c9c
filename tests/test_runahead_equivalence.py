"""Differential tests for the run-ahead (leapfrog) scheduler.

The run-ahead loop in ``Engine._run_runahead`` is a host-side
optimization only: it batches consecutive steps of the minimum-clock core
into one scheduling quantum, but must reproduce the *exact* ``(stamp,
core)`` pop order of the single-step reference loop that
``REPRO_NO_RUNAHEAD=1`` forces. These tests run every micro workload both
ways and compare ``Stats.comparable()`` (every simulated statistic,
``host_*`` counters excluded) — and, for a sharper check, record the
full op-level interleaving trace of both schedulers and require it to be
identical element by element.

The loop is the strict phase of both backends: the vector engine runs it
between epoch attempts with an op budget (``_run_runahead(limit=k)``).
The budget tests hold a run cut into budgeted calls to the same result
as one unbudgeted call.
"""

import pytest

from repro import Machine
from repro.analysis.sanitizer import SANITIZE_ENV
from repro.core.machine import resolve_options
from repro.harness.runner import run_workload
from repro.obs import OBS_ENV
from repro.params import small_config
from repro.runtime.ops import BARRIER, Atomic
from repro.sim.engine import Engine, NO_FASTPATH_ENV, NO_RUNAHEAD_ENV
from repro.workloads.micro.common import BuiltWorkload

from .test_golden_stats import MICROS


def _run(build, *, commtm, seed, runahead, monkeypatch, sanitize=False,
         observe=False, **params):
    if runahead:
        monkeypatch.delenv(NO_RUNAHEAD_ENV, raising=False)
    else:
        monkeypatch.setenv(NO_RUNAHEAD_ENV, "1")
    if sanitize:
        monkeypatch.setenv(SANITIZE_ENV, "1")
    else:
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
    if observe:
        monkeypatch.setenv(OBS_ENV, "1")
    else:
        monkeypatch.delenv(OBS_ENV, raising=False)
    params.setdefault("total_ops", 240)
    # Pinned to the interpreted engine: this file differentially tests
    # *its* run-ahead scheduler, and asserts its host batching counters,
    # which under the vector backend count only its strict phases. The
    # vector backend has its own oracle in tests/test_vector_equivalence.py.
    return run_workload(build, 4, num_cores=16, commtm=commtm, seed=seed,
                        backend="interp", **params)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(MICROS))
def test_runahead_is_bit_identical(name, commtm, seed, monkeypatch):
    build = MICROS[name]
    ahead = _run(build, commtm=commtm, seed=seed, runahead=True,
                 monkeypatch=monkeypatch)
    stepped = _run(build, commtm=commtm, seed=seed, runahead=False,
                   monkeypatch=monkeypatch)

    assert ahead.cycles == stepped.cycles
    assert ahead.stats.parallel_cycles == stepped.stats.parallel_cycles
    assert ahead.stats.aborts == stepped.stats.aborts
    assert ahead.stats.commits == stepped.stats.commits
    assert ahead.stats.comparable() == stepped.stats.comparable()

    # The escape hatch really selects the reference loop (no quanta), and
    # the run-ahead loop really batches (>= 1 op per quantum).
    assert stepped.stats.host_runahead_batches == 0
    assert stepped.stats.runahead_ops_per_batch is None
    assert ahead.stats.host_runahead_batches > 0
    assert ahead.stats.runahead_ops_per_batch >= 1.0


@pytest.mark.parametrize("mode", ["obs", "sanitize"])
@pytest.mark.parametrize("name", ["counter", "topk"])
def test_runahead_composes_with_obs_and_sanitize(name, mode, monkeypatch):
    """Run-ahead stays bit-identical when the observability layer or the
    coherence sanitizer rebuilds the handler table around it."""
    build = MICROS[name]
    kwargs = {"sanitize": mode == "sanitize", "observe": mode == "obs"}
    ahead = _run(build, commtm=True, seed=1, runahead=True,
                 monkeypatch=monkeypatch, **kwargs)
    stepped = _run(build, commtm=True, seed=1, runahead=False,
                   monkeypatch=monkeypatch, **kwargs)
    assert ahead.cycles == stepped.cycles
    assert ahead.stats.comparable() == stepped.stats.comparable()
    assert ahead.stats.host_runahead_batches > 0


def test_env_parsing(monkeypatch):
    for off in ("1", "true", "yes", " 1 "):
        monkeypatch.setenv(NO_RUNAHEAD_ENV, off)
        assert not resolve_options().runahead
    for on in ("", "0", "false", " FALSE ", "no", " No "):
        monkeypatch.setenv(NO_RUNAHEAD_ENV, on)
        assert resolve_options().runahead
    monkeypatch.delenv(NO_RUNAHEAD_ENV)
    assert resolve_options().runahead


def test_options_are_fixed_when_the_machine_is_built(monkeypatch):
    """The escape hatches are read once, by ``Machine()``: exporting them
    between construction and ``run()`` changes nothing."""
    monkeypatch.delenv(NO_RUNAHEAD_ENV, raising=False)
    monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)
    # Pinned: the host counters below are the interpreted engine's, and
    # an Observer or sanitizer would turn the fast path off.
    machine = Machine(small_config(num_cores=16, seed=1), backend="interp",
                      sanitize=False, observe=False)
    assert machine.options.runahead and machine.options.fastpath
    built = MICROS["counter"](machine, 4, total_ops=240)
    monkeypatch.setenv(NO_RUNAHEAD_ENV, "1")
    monkeypatch.setenv(NO_FASTPATH_ENV, "1")
    machine.run(built.bodies)
    assert machine.stats.host_runahead_batches > 0
    assert machine.stats.host_fastpath_hits > 0


# ---------------------------------------------------------------------------
# Op-level interleaving traces
# ---------------------------------------------------------------------------

def _random_mix(machine, num_threads: int, iters: int = 60) -> BuiltWorkload:
    """A scheduling-order stress: per-thread deterministic random mixes of
    conventional loads, private stores, variable think time, commutative
    transactions, and barriers — far more irregular core clocks than any
    micro, so quantum hand-off edges get exercised hard."""
    from repro.datatypes.counter import SharedCounter

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
                if r < 0.4:
                    yield ctx.load(lines[rng.randrange(len(lines))])
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


def _traced_engine(machine, bodies):
    """An Engine whose every op dispatch is recorded as
    ``(core, op class, addr)`` — the full interleaving, not just totals."""
    engine = Engine(machine, bodies)
    trace = []
    append = trace.append

    def wrap(handler):
        def wrapped(engine, runner, op):
            append((runner.core, op.__class__.__name__,
                    getattr(op, "addr", None)))
            return handler(engine, runner, op)
        return wrapped

    for op_cls, handler in list(engine._handlers.items()):
        engine._handlers[op_cls] = wrap(handler)
    return engine, trace


def _interleaving(build, *, commtm, seed, runahead, monkeypatch):
    if runahead:
        monkeypatch.delenv(NO_RUNAHEAD_ENV, raising=False)
    else:
        monkeypatch.setenv(NO_RUNAHEAD_ENV, "1")
    machine = Machine(small_config(num_cores=8, seed=seed,
                                   commtm_enabled=commtm))
    built = build(machine, 4)
    engine, trace = _traced_engine(machine, built.bodies)
    engine.run()
    return trace, machine.stats


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
def test_random_mix_interleaving_identical(commtm, seed, monkeypatch):
    ahead, stats_a = _interleaving(_random_mix, commtm=commtm, seed=seed,
                                   runahead=True, monkeypatch=monkeypatch)
    stepped, stats_s = _interleaving(_random_mix, commtm=commtm, seed=seed,
                                     runahead=False, monkeypatch=monkeypatch)
    assert len(ahead) == len(stepped)
    assert ahead == stepped
    assert stats_a.parallel_cycles == stats_s.parallel_cycles
    assert stats_a.comparable() == stats_s.comparable()


@pytest.mark.parametrize("name", ["counter", "refcount"])
def test_micro_interleaving_identical(name, monkeypatch):
    def build(machine, num_threads):
        return MICROS[name](machine, num_threads, total_ops=120)

    ahead, stats_a = _interleaving(build, commtm=True, seed=1,
                                   runahead=True, monkeypatch=monkeypatch)
    stepped, stats_s = _interleaving(build, commtm=True, seed=1,
                                     runahead=False, monkeypatch=monkeypatch)
    assert ahead == stepped
    assert stats_a.comparable() == stats_s.comparable()


# ---------------------------------------------------------------------------
# Op budget (the vector backend's strict phases)
# ---------------------------------------------------------------------------

#: name -> (build, threads, params): a multi-core barrier workload; a
#: single thread, whose one quantum never ends (the heap is empty while
#: it runs); a transactional micro.
BUDGET_WORKLOADS = {
    "barrier_mix": (_random_mix, 4, {}),
    "single_thread": (MICROS["refcount"], 1, dict(total_ops=60)),
    "counter": (MICROS["counter"], 4, dict(total_ops=120)),
}


def _budgeted_run(name, limit):
    """Drive ``_run_runahead(limit=limit)`` until it reports no work left
    (``limit=None``: one unbudgeted call). Returns the engine."""
    build, threads, params = BUDGET_WORKLOADS[name]
    machine = Machine(small_config(num_cores=8, seed=1, commtm_enabled=True))
    built = build(machine, threads, **params)
    engine = Engine(machine, built.bodies)
    if limit is None:
        assert engine._run_runahead() is False
    else:
        while engine._run_runahead(limit=limit):
            pass
    assert engine.clocks.all_finished()
    return engine


@pytest.mark.parametrize("limit", [1, 7, 64])
@pytest.mark.parametrize("name", sorted(BUDGET_WORKLOADS))
def test_budgeted_runahead_is_bit_identical(name, limit):
    whole = _budgeted_run(name, None)
    cut = _budgeted_run(name, limit)
    assert cut.clocks.max_cycle == whole.clocks.max_cycle
    assert cut.clocks.cycles == whole.clocks.cycles
    assert cut.stats.comparable() == whole.stats.comparable()
    assert cut.stats.host_runahead_ops == whole.stats.host_runahead_ops

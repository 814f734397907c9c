"""The sanitizer's dirty-line checkpoints are as strong as full sweeps.

After every memory op the runtime sanitizer checks only the lines whose
copies or directory entry may have changed (see
``repro.analysis.sanitizer``). That is sound exactly when the dirty set
is complete. These tests hold it to account:

* a shadow oracle diffs the whole machine's per-line coherence
  projection between consecutive checkpoints and asserts that every
  changed line was checked, and that a full sweep is clean — over all
  ten workloads under both systems, under lazy detection, and with tiny
  caches that force writebacks, L3 evictions and U evictions;
* seeded mutations that drop the eviction-victim marks or the
  ``Directory.entry`` marks make the oracle fail;
* four protocol faults injected during a run raise ``SanitizerError`` at
  the same checkpoint where a full-sweep-per-op reference first fails,
  and the error names the op, core and cycle that exposed the fault;
* with sanitizing off nothing is wrapped.
"""

import pytest

from repro.analysis.invariants import check_invariants
from repro.analysis.sanitizer import SANITIZE_ENV, CoherenceSanitizer, install
from repro.coherence.cache import PrivateCache
from repro.coherence.line import CacheLine
from repro.coherence.directory import Directory
from repro.coherence.protocol import MemorySystem
from repro.coherence.states import State
from repro.core.labels import min_label
from repro.core.machine import Machine
from repro.datatypes import SharedCounter
from repro.errors import SanitizerError
from repro.harness.runner import run_built
from repro.mem.address import line_base, line_of
from repro.params import WORDS_PER_LINE, CacheGeometry, SystemConfig
from repro.runtime.ops import (Atomic, LabeledLoad, LabeledStore, Load,
                               LoadGather, Store)
from repro.sim.clock import CoreClocks
from repro.sim.engine import NO_FASTPATH_ENV, Engine
from repro.sim.rng import RngStreams
from repro.workloads.apps import boruvka, genome, kmeans, ssca2, vacation
from repro.workloads.micro import (counter, linked_list, ordered_put,
                                   refcount, topk)

#: All ten workloads at the scale of tests/test_vector_equivalence.py.
WORKLOADS = {
    "counter": (counter.build, dict(total_ops=240)),
    "topk": (topk.build, dict(total_ops=240)),
    "ordered_put": (ordered_put.build, dict(total_ops=240)),
    "linked_list": (linked_list.build, dict(total_ops=240)),
    "refcount": (refcount.build, dict(total_ops=240)),
    "boruvka": (boruvka.build, dict(num_nodes=48)),
    "genome": (genome.build, dict(num_segments=160, gene_length=256,
                                  initial_buckets=16)),
    "kmeans": (kmeans.build, dict(num_points=64, clusters=4, iterations=2)),
    "ssca2": (ssca2.build, dict(scale=5, edge_factor=3)),
    "vacation": (vacation.build, dict(num_tasks=96, relations=32)),
}


def _tiny_caches(l1_lines, l2_lines):
    return dict(l1=CacheGeometry(size_bytes=l1_lines * 64, ways=1, latency=1),
                l2=CacheGeometry(size_bytes=l2_lines * 64, ways=1, latency=6),
                l3=CacheGeometry(size_bytes=32 * 64, ways=1, latency=9))


#: Per workload: private caches of a few lines and a 32-line L3.
#: boruvka, genome and vacation transactions need 16 L1 lines; with fewer
#: they livelock on capacity aborts.
TINY = {name: _tiny_caches(16, 16)
        if name in ("boruvka", "genome", "vacation") else _tiny_caches(4, 8)
        for name in WORKLOADS}


def projection(msys):
    """Every line's coherence projection — what the eleven checks read:
    each valid copy's state class (E and M are one class) and label per
    core, and the directory entry's owner, sharer sets and ``u_label``.
    A line is absent from a map when it has no copy or no entry.
    ``msys`` is a memory system or a sanitizer, which holds the same
    caches and directory."""
    copies = [{no: (State.M if cl.state is State.E else cl.state,
                    id(cl.label))
               for no, cl in cache._lines.items() if cl.state is not State.I}
              for cache in msys.caches]
    entries = {no: (ent.owner, frozenset(ent.sharers),
                    frozenset(ent.u_sharers), id(ent.u_label))
               for no, ent in msys.directory._entries.items()}
    return copies, entries


def changed_lines(before, after):
    lines = set()
    for old, new in zip(before[0], after[0]):
        lines.update(no for no, _ in old.items() ^ new.items())
    lines.update(no for no, _ in before[1].items() ^ after[1].items())
    return lines


class ShadowSanitizer(CoherenceSanitizer):
    """Test-only oracle: after every checkpoint, the lines whose
    projection changed since the previous checkpoint must all have been
    checked, and a full sweep must be clean. The checks read nothing but
    the projection, so a checkpoint that changed no line keeps the last
    sweep's verdict."""

    def __init__(self, msys):
        super().__init__(msys)
        self.prev = projection(self)
        self.missed = set()
        self.checkpoints = 0

    def check_dirty(self, core, cycle, op):
        checked = set(self.dirty)
        super().check_dirty(core, cycle, op)
        now = projection(self)
        changed = changed_lines(self.prev, now)
        self.missed |= changed - checked
        if changed:
            assert check_invariants(self) == []
        self.prev = now
        self.checkpoints += 1

    def check(self, where=None):
        super().check(where)
        self.prev = projection(self)


def _machine(commtm=True, sanitize=False, **config):
    return Machine(SystemConfig(num_cores=16, commtm_enabled=commtm, seed=1,
                                **config),
                   sanitize=sanitize, observe=False, backend="interp")


def _idle(ctx):
    yield from ()


def _shadow_run(name, commtm, **config):
    build, params = WORKLOADS[name]
    machine = _machine(commtm, **config)
    shadow = install(machine, ShadowSanitizer)
    result = run_built(machine, build(machine, 4, **params))
    assert shadow.checkpoints > 0
    return machine, shadow, result


@pytest.mark.parametrize("commtm", [True, False], ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_dirty_set_is_complete_under_lazy_detection(name, commtm):
    _, shadow, _ = _shadow_run(name, commtm, conflict_detection="lazy")
    assert shadow.missed == set()


def test_dirty_set_is_complete_with_tiny_caches():
    writebacks = l3_evictions = u_evictions = 0
    for name in sorted(WORKLOADS):
        for commtm in (True, False):
            machine, shadow, _ = _shadow_run(name, commtm, **TINY[name])
            assert shadow.missed == set(), (name, commtm)
            stats = machine.stats
            writebacks += stats.writebacks
            u_evictions += stats.u_evictions
            # Entries are added only on an L3 miss and removed only by
            # an eviction.
            l3_evictions += (stats.l3_misses
                             - machine.msys.directory.cached_lines())
    assert writebacks > 0
    assert l3_evictions > 0
    assert u_evictions > 0


#: Seeded mutations of the marking, each on a run where the dropped
#: class of marks is the only one covering some change: L3 victims leave
#: through no ``entry``/``peek`` call, and CommTM reductions and handler
#: accesses change lines other than the op's own.
DROPPED_MARKS = {
    "eviction-victims": ("linked_list", False, TINY["linked_list"]),
    "directory-entry": ("refcount", True, {}),
}


@pytest.mark.parametrize("marks", sorted(DROPPED_MARKS))
def test_oracle_catches_dropped_marks(marks):
    name, commtm, config = DROPPED_MARKS[marks]
    build, params = WORKLOADS[name]
    machine = _machine(commtm, **config)
    msys = machine.msys
    hooks = [cache.eviction_hook for cache in msys.caches]
    l3_hook = msys.directory.eviction_hook
    shadow = install(machine, ShadowSanitizer)
    if marks == "eviction-victims":
        for cache, hook in zip(msys.caches, hooks):
            cache.eviction_hook = hook
        msys.directory.eviction_hook = l3_hook
    else:
        del msys.directory.entry  # back to the unmarked class method
    run_built(machine, build(machine, 4, **params))
    assert shadow.missed


# ---------------------------------------------------------------------------
# Faults injected during a run
# ---------------------------------------------------------------------------

class FullSweepSanitizer(CoherenceSanitizer):
    """Reference: a full sweep at every checkpoint the real sanitizer
    takes (test-only; the runtime has no such mode)."""

    def check_dirty(self, core, cycle, op):
        self.dirty.clear()
        self.checks_run += 1
        findings = check_invariants(self, pass_name="sanitizer")
        if findings:
            self._raise(findings[0], f"after {op} on core {core}")


def _fault_workload(machine):
    """Labeled adds (U grants and joins), stores and loads of a shared
    line (invalidations and read downgrades), and plain reads of the
    counter (reductions into M), on four threads."""
    total = SharedCounter(machine)
    shared = machine.alloc.alloc_line()
    machine.seed_word(shared, 0)

    def make_body(tid):
        def body(ctx):
            for i in range(6):
                yield Atomic(total.add, 1)
                yield ctx.work(3 + tid)
                if (i + tid) % 2:
                    yield ctx.store(shared, tid)
                else:
                    yield ctx.load(shared)
                if i % 3 == tid % 3:
                    yield ctx.load(total.addr)
        return body

    return [make_body(t) for t in range(4)]


def _failing_checkpoint(cls):
    machine = _machine()
    sanitizer = install(machine, cls)
    with pytest.raises(SanitizerError) as info:
        machine.run(_fault_workload(machine))
    return sanitizer.checks_run, str(info.value)


def _forge_m_after_downgrade(fired):
    orig = MemorySystem._downgrade_owner_for_read

    def forged(self, core, line_no, ent, requester, res):
        ok = orig(self, core, line_no, ent, requester, res)
        for cache in self.caches:
            cl = cache.peek_line(line_no)
            if cl is not None and cl.state is State.S \
                    and cache.core != core:
                cl.state = State.M
                fired.append((requester.core, requester.now))
                break
        return ok

    return MemorySystem, "_downgrade_owner_for_read", forged


def _drop_invalidations(fired):
    def dropped(self, line):
        fired.append(None)  # drop() does not see the requesting op

    return PrivateCache, "drop", dropped


def _wrong_reduction_target(fired):
    orig = MemorySystem._install_reduced

    def wrong_target(self, core, line_no, ent, merged, own, as_state,
                     label):
        orig(self, core, line_no, ent, merged, own, as_state, label)
        if as_state is State.M:
            ent.owner = (core + 1) % len(self.caches)
            fired.append(None)

    return MemorySystem, "_install_reduced", wrong_target


def _u_grant_under_other_label(fired):
    orig = MemorySystem._labeled_access
    other = min_label()

    def mislabeled(self, core, addr, label, requester, value, is_store):
        res = orig(self, core, addr, label, requester, value, is_store)
        cl = self.caches[core].peek_line(line_of(addr))
        ent = self.directory._entries.get(line_of(addr))
        if cl is not None and cl.state is State.U and ent is not None \
                and len(ent.u_sharers) > 1 and not fired:
            cl.label = other
            fired.append((requester.core, requester.now))
        return res

    return MemorySystem, "_labeled_access", mislabeled


FAULTS = {
    "forged-m-grant": _forge_m_after_downgrade,
    "dropped-invalidation": _drop_invalidations,
    "wrong-u-reduction-target": _wrong_reduction_target,
    "u-grant-under-other-label": _u_grant_under_other_label,
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_injected_fault_trips_at_the_reference_checkpoint(fault,
                                                          monkeypatch):
    fired = []
    monkeypatch.setattr(*FAULTS[fault](fired))
    reference_at, _ = _failing_checkpoint(FullSweepSanitizer)
    fired.clear()
    at, message = _failing_checkpoint(CoherenceSanitizer)
    assert fired, "the mutation never fired"
    assert at == reference_at
    assert "after " in message and " on core " in message
    if fired[0] is not None:
        # The op that ran the faulty transition is the one named.
        core, cycle = fired[0]
        assert f"on core {core} at cycle {cycle}" in message


def test_forged_violation_names_core_cycle_and_op():
    """A copy forged between two ops trips at the next op's checkpoint
    when that op touches the forged line, and the error names that op."""
    machine = _machine(sanitize=True)
    line_no = line_of(machine.alloc.alloc_line())

    def writer(ctx):
        yield ctx.store(line_base(line_no), 1)
        yield ctx.work(50)

    def forger(ctx):
        yield ctx.work(20)
        # Forge a second M copy of the writer's line on core 1, then
        # touch the line: the load's checkpoint exposes the forgery.
        forged = machine.msys.caches[0].peek_line(line_no).clone()
        machine.msys.caches[1]._lines[line_no] = forged
        yield ctx.load(line_base(line_no))

    with pytest.raises(SanitizerError) as info:
        machine.run([writer, forger])
    message = str(info.value)
    assert "[sanitizer:multiple-owners]" in message
    # Core 1 ran the load at its initial clock skew plus 20 cycles.
    skew = CoreClocks(16, jitter=RngStreams(1).jitter()).cycles[1]
    assert message.endswith(f"(after Load on core 1 at cycle {skew + 20})")


def test_run_boundary_sweeps_are_labeled():
    def stray_copy(machine):
        # A copy the directory knows nothing about.
        line_no = line_of(machine.alloc.alloc_line())
        machine.msys.caches[3]._lines[line_no] = CacheLine(
            line=line_no, state=State.M, words=[0] * WORDS_PER_LINE)

    machine = _machine(sanitize=True)
    stray_copy(machine)
    with pytest.raises(SanitizerError, match=r"\(run start sweep\)$"):
        machine.run([_idle])

    machine = _machine(sanitize=True)

    def forge_last(ctx):
        yield ctx.work(1)
        stray_copy(machine)

    with pytest.raises(SanitizerError, match=r"\(run end sweep\)$"):
        machine.run([forge_last])


def test_one_checkpoint_per_memory_op():
    """A fast-path miss goes through MemorySystem's public op; it still
    takes exactly one checkpoint (the engine handler's)."""
    machine = _machine(sanitize=True)
    line = machine.alloc.alloc_line()

    def body(ctx):
        yield ctx.load(line)        # miss: full protocol path
        yield ctx.load(line)        # private hit: fast path
        yield ctx.store(line, 2)    # hit on E: fast path
        yield ctx.work(5)           # not a memory op

    machine.run([body])
    # Three memory ops plus the run-start and run-end sweeps.
    assert machine.sanitizer.checks_run == 3 + 2


# ---------------------------------------------------------------------------
# Nothing runs when sanitizing is off
# ---------------------------------------------------------------------------

def _captured(wrapper, name):
    """The variable ``name`` that the closure ``wrapper`` captured."""
    cells = dict(zip(wrapper.__code__.co_freevars, wrapper.__closure__))
    return cells[name].cell_contents


def _protocol_hook(hook):
    """Is ``hook`` one of the protocol's own eviction hooks? They are
    closures defined in repro.coherence.protocol that reach the memory
    system through a weak proxy, so no bound method can stand for them."""
    return hook.__module__ == MemorySystem.__module__


def test_sanitize_off_installs_nothing(monkeypatch):
    for env in (SANITIZE_ENV, NO_FASTPATH_ENV):
        monkeypatch.delenv(env, raising=False)
    machine = _machine(sanitize=None)
    msys = machine.msys
    engine = Engine(machine, [_idle])
    assert machine.sanitizer is None and msys.sanitizer is None
    assert engine._sanitizer is None
    # The table holds the engine's own handler functions, unwrapped.
    assert engine._handlers[Load] is Engine._op_load
    assert engine._handlers[Store] is Engine._op_store
    assert engine._handlers[LabeledLoad] is Engine._op_labeled_load
    assert engine._handlers[LabeledStore] is Engine._op_labeled_store
    assert engine._handlers[LoadGather] is Engine._op_load_gather
    # The baseline HTM routes labeled ops to the conventional handlers
    # when the table is built.
    baseline = Engine(_machine(commtm=False, sanitize=None), [_idle])
    assert baseline._handlers[LabeledLoad] is Engine._op_load
    assert baseline._handlers[LoadGather] is Engine._op_load
    assert baseline._handlers[LabeledStore] is Engine._op_store
    directory = msys.directory
    assert "entry" not in vars(directory) and "peek" not in vars(directory)
    assert directory.entry.__func__ is Directory.entry
    assert directory.peek.__func__ is Directory.peek
    # The protocol's own eviction hooks, installed unwrapped.
    assert _protocol_hook(directory.eviction_hook)
    assert all(_protocol_hook(cache.eviction_hook) for cache in msys.caches)


def test_sanitize_on_wraps_every_hook():
    machine = _machine(sanitize=True)
    msys = machine.msys
    engine = Engine(machine, [_idle])
    # Each hook is wrapped exactly once, around the unsanitized original.
    for op_cls in (Load, Store, LabeledLoad, LabeledStore, LoadGather):
        handler = engine._handlers[op_cls]
        assert handler.__qualname__.startswith("_sanitized_handler")
        assert _captured(handler, "handler").__qualname__.startswith(
            "Engine._op_")
    directory = msys.directory
    for name in ("entry", "peek"):
        wrapper = vars(directory)[name]
        assert wrapper.__qualname__.startswith("_marks_line")
        assert _captured(wrapper, "lookup") is getattr(Directory, name)
    for hook in (directory.eviction_hook,
                 *(cache.eviction_hook for cache in msys.caches)):
        assert hook.__qualname__.startswith("_marks_victim")
        assert _protocol_hook(_captured(hook, "hook"))

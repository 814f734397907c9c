"""Runtime sanitizer composed with the vector backend.

The invariant suite has one definition (`repro.analysis.invariants`)
and three consumers: the runtime sanitizer, the exhaustive model
checker, and — covered here — post-run sweeps over machines the vector
backend actually drove. Three compositions matter:

* sanitizer *installed* + ``backend="vector"``: per-op layers force the
  whole run through the interpreted path (zero epochs), bit-identical,
  with the sanitizer genuinely checking along the way;
* a genuine vector run (epochs engaged, fenced replay exercised): the
  final coherence state must pass the shared invariant suite;
* the adaptive gate (``_strict_drain`` rebind to the run-ahead loop):
  same obligation on the gated path, plus parity with the interpreted
  engine.
"""

from repro.analysis.invariants import check_invariants
from repro.analysis.sanitizer import SANITIZE_ENV, CoherenceSanitizer
from repro.core.machine import Machine
from repro.datatypes import SharedCounter
from repro.params import SystemConfig
from repro.runtime.ops import BARRIER, Atomic


def _config(seed=1):
    return SystemConfig(num_cores=16, commtm_enabled=True, seed=seed)


def _counter_run(backend, sanitize=False, adds=12, threads=8):
    machine = Machine(_config(), backend=backend, sanitize=sanitize)
    counter = SharedCounter(machine)

    def body(ctx):
        for _ in range(adds):
            yield Atomic(counter.add, 1)
            yield ctx.work(7)

    result = machine.run_spmd(body, threads)
    machine.flush_reducible()
    return machine, counter, result


def _fence_storm_run(backend, threads=8, iters=24):
    """Every op is a shared-line coherence miss or a barrier — near-zero
    epoch-eligible cycles, so the adaptive gate rebinds the run to the
    strict (run-ahead) loop via ``_strict_drain``."""
    machine = Machine(_config(), backend=backend)
    lines = [machine.alloc.alloc_line() for _ in range(2)]
    for addr in lines:
        machine.seed_word(addr, 0)

    def make_body(tid):
        def body(ctx):
            for i in range(iters):
                if (i + tid) % 2:
                    yield ctx.load(lines[i % len(lines)])
                else:
                    yield ctx.store(lines[(i + 1) % len(lines)], tid)
                if i % 8 == 4:
                    yield BARRIER
        return body

    result = machine.run([make_body(t) for t in range(threads)])
    return machine, result, lines


def _sweep(machine):
    """Post-run pass over the final coherence state through both
    consumers of the shared invariant definition."""
    findings = check_invariants(machine.msys)
    assert findings == [], [f.format() for f in findings]
    CoherenceSanitizer(machine.msys).check()  # raises on any violation


class TestSanitizerInstalled:
    def test_vector_delegates_per_op_and_checks(self):
        machine, counter, result = _counter_run("vector", sanitize=True)
        # Per-op layer => whole run through the interpreted path.
        assert result.stats.host_backend == "vector"
        assert result.stats.host_vector_epochs == 0
        assert machine.sanitizer.checks_run > 0
        assert machine.sanitizer.violations == 0
        assert machine.read_word(counter.addr) == 96

    def test_bit_identical_to_interp_with_sanitizer(self):
        interp_m, interp_c, interp = _counter_run("interp", sanitize=True)
        vector_m, vector_c, vector = _counter_run("vector", sanitize=True)
        assert interp_m.read_word(interp_c.addr) \
            == vector_m.read_word(vector_c.addr)
        assert interp.stats.comparable() == vector.stats.comparable()


class TestPostRunSweep:
    def test_genuine_vector_run_passes_invariants(self):
        machine, counter, result = _counter_run("vector")
        assert result.stats.host_vector_epochs > 0  # epochs really ran
        assert machine.read_word(counter.addr) == 96
        _sweep(machine)

    def test_fenced_replay_passes_invariants(self):
        # Epochs *and* fences: misses and barriers punctuate the run, so
        # the epoch-parallel fenced replay path executes between bursts.
        machine, result, _ = _fence_storm_run("vector", threads=4,
                                              iters=16)
        _sweep(machine)

    def test_interp_reference_passes_invariants(self):
        # The sweep itself is meaningful on the reference engine too —
        # guards against the sweep passing vacuously.
        machine, counter, _ = _counter_run("interp")
        _sweep(machine)


class TestAdaptiveGate:
    def test_fence_storm_trips_the_gate(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        machine, result, _ = _fence_storm_run("vector")
        assert result.stats.host_vector_gated, \
            "fence storm did not trip the adaptive gate"
        _sweep(machine)

    def test_gated_run_is_bit_identical(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        interp_m, interp, interp_lines = _fence_storm_run("interp")
        vector_m, vector, vector_lines = _fence_storm_run("vector")
        assert vector.stats.host_vector_gated
        assert interp.stats.comparable() == vector.stats.comparable()
        assert interp.stats.parallel_cycles == vector.stats.parallel_cycles
        # Same final memory image on the storm's shared lines.
        assert interp_lines == vector_lines
        assert [interp_m.read_word(a) for a in interp_lines] \
            == [vector_m.read_word(a) for a in vector_lines]

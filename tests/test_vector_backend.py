"""Backend selection, dispatch, gate and boundary tests for sim/vector.

Parity of simulated results is proven in tests/test_vector_equivalence.py;
this file covers the *plumbing*: how a backend is chosen (argument > env >
default), how the harness carries the backend through point specs and
cache fingerprints, the host-side reporting surfaces (rates that are
numbers on both backends, host counters kept out of
``Stats.comparable()``), which runs the adaptive gate hands to the
run-ahead loop, and the boundary between the backend and the shared
modules.
"""

import ast
from pathlib import Path

import pytest

from repro import Machine
from repro.analysis.sanitizer import SANITIZE_ENV
from repro.core.machine import resolve_backend
from repro.datatypes import SharedCounter
from repro.errors import ConfigError
from repro.harness.parallel import make_spec
from repro.harness.runner import run_workload
from repro.obs import OBS_ENV
from repro.obs.report import _rate
from repro.params import SystemConfig, small_config
from repro.runtime.ops import Atomic
from repro.sim.engine import NO_FASTPATH_ENV, NO_RUNAHEAD_ENV, Engine
from repro.sim.stats import Stats
from repro.sim.vector import BACKEND_ENV, BACKENDS
from repro.sim.vector import engine as vector_engine
from repro.workloads.apps import boruvka, kmeans, vacation
from repro.workloads.micro import counter, linked_list, refcount


@pytest.fixture(autouse=True)
def _clean_backend_env(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)


# ---------------------------------------------------------------------------
# resolve_backend precedence
# ---------------------------------------------------------------------------

def test_default_is_interp():
    assert resolve_backend() == "interp"
    assert Machine(small_config()).options.backend == "interp"


def test_explicit_argument_selects_vector():
    assert resolve_backend("vector") == "vector"
    assert Machine(small_config(), backend="vector").options.backend == "vector"


def test_env_selects_vector(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "vector")
    assert resolve_backend() == "vector"
    assert Machine(small_config()).options.backend == "vector"


def test_explicit_argument_beats_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "vector")
    assert resolve_backend("interp") == "interp"
    assert Machine(small_config(), backend="interp").options.backend == "interp"


def test_names_are_normalized():
    assert resolve_backend("  INTERP ") == "interp"


@pytest.mark.parametrize("bogus", ["jit", "numpy", "fast"])
def test_unknown_backend_raises_config_error(bogus, monkeypatch):
    with pytest.raises(ConfigError):
        resolve_backend(bogus)
    monkeypatch.setenv(BACKEND_ENV, bogus)
    with pytest.raises(ConfigError):
        Machine(small_config())


# ---------------------------------------------------------------------------
# Engine dispatch
# ---------------------------------------------------------------------------

def test_machine_run_dispatches_vector_engine(monkeypatch):
    from repro.sim.vector.engine import VectorEngine
    seen = []
    orig = VectorEngine.run

    def spy(self):
        seen.append(type(self))
        return orig(self)

    monkeypatch.setattr(VectorEngine, "run", spy)
    res = run_workload(counter.build, 2, num_cores=16, commtm=True, seed=1,
                       backend="vector", total_ops=40)
    assert seen == [VectorEngine]
    assert res.stats.host_backend == "vector"


def test_interp_run_never_touches_vector_engine():
    res = run_workload(counter.build, 2, num_cores=16, commtm=True, seed=1,
                       backend="interp", total_ops=40)
    assert res.stats.host_backend == "interp"
    assert res.stats.host_vector_epochs == 0
    assert res.stats.host_vector_epoch_ops == 0
    assert res.stats.host_vector_fused_txs == 0


def test_vector_engine_is_an_engine():
    # The strict phases are the interpreted scheduler itself; keeping
    # the subclass relationship means the handler table, and the
    # sanitizer's wrapping of it, apply unmodified.
    from repro.sim.vector.engine import VectorEngine
    assert issubclass(VectorEngine, Engine)


# ---------------------------------------------------------------------------
# Harness plumbing: specs, fingerprints, workers
# ---------------------------------------------------------------------------

def test_backend_is_part_of_spec_canonical_form():
    interp = make_spec(counter.build, 2, backend="interp", total_ops=40)
    vector = make_spec(counter.build, 2, backend="vector", total_ops=40)
    assert interp.backend == "interp"
    assert vector.backend == "vector"
    assert "backend=interp" in interp.canonical()
    assert "backend=vector" in vector.canonical()
    # Cached results are keyed on the canonical form: the two backends
    # must never share a cache slot.
    assert interp.canonical() != vector.canonical()


def test_make_spec_resolves_env_backend(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "vector")
    spec = make_spec(counter.build, 2, total_ops=40)
    # Resolved at spec creation, not left to the worker's environment.
    assert spec.backend == "vector"
    assert "backend=vector" in spec.canonical()


def test_make_spec_defaults_to_interp():
    spec = make_spec(counter.build, 2, total_ops=40)
    assert spec.backend == "interp"


# ---------------------------------------------------------------------------
# Host-side reporting under the vector backend
# ---------------------------------------------------------------------------

def test_host_counters_stay_out_of_comparable():
    stats = Stats(num_cores=2)
    comparable = stats.comparable()
    for key in ("host_backend", "host_vector_epochs",
                "host_vector_epoch_ops", "host_vector_fused_txs"):
        assert key not in comparable


def test_rates_numeric_under_vector_backend():
    # An epoch runs no memory op, so the hit counters count exactly the
    # probes of the strict phases, whose quanta the run-ahead counters
    # count: both rates stay plain numbers.
    stats = Stats(num_cores=2)
    stats.host_backend = "vector"
    stats.host_fastpath_hits = 3
    stats.host_fastpath_misses = 1
    stats.host_runahead_batches = 2
    stats.host_runahead_ops = 10
    assert stats.fastpath_hit_rate == 0.75
    assert stats.runahead_ops_per_batch == 5.0


def test_rates_still_numeric_under_interp():
    stats = Stats(num_cores=2)
    stats.host_fastpath_hits = 3
    stats.host_fastpath_misses = 1
    stats.host_runahead_batches = 2
    stats.host_runahead_ops = 10
    assert stats.fastpath_hit_rate == 0.75
    assert stats.runahead_ops_per_batch == 5.0


def test_report_rate_helper_passes_through_non_numeric():
    assert _rate(None, 4, none="disabled") == "disabled"
    assert _rate(None, 3) is None
    assert _rate(0.123456, 4) == 0.1235


def test_backend_names_are_closed():
    assert BACKENDS == ("interp", "vector")


# ---------------------------------------------------------------------------
# Adaptive gate: epochs stay only while they fuse counter adds
# ---------------------------------------------------------------------------

@pytest.fixture
def _hermetic(monkeypatch):
    # Gate decisions are host-side and depend on which runs engage
    # epochs at all; the per-op layers force the interpreted engine.
    for env in (SANITIZE_ENV, OBS_ENV, NO_FASTPATH_ENV, NO_RUNAHEAD_ENV):
        monkeypatch.delenv(env, raising=False)


_VACATION = dict(num_tasks=96, relations=32)
_BORUVKA = dict(num_nodes=48)
_KMEANS = dict(num_points=512, clusters=8, iterations=3)


@pytest.mark.parametrize("build,commtm,threads,params", [
    (vacation.build, True, 1, _VACATION),
    (vacation.build, True, 8, _VACATION),
    (boruvka.build, True, 1, _BORUVKA),
    (boruvka.build, True, 8, _BORUVKA),
    (kmeans.build, True, 1, _KMEANS),
    (kmeans.build, True, 8, _KMEANS),
    (linked_list.build, True, 8, dict(total_ops=400)),
    (refcount.build, False, 8, dict(total_ops=1000)),
], ids=["vacation-commtm-1", "vacation-commtm-8", "boruvka-commtm-1",
        "boruvka-commtm-8", "kmeans-commtm-1", "kmeans-commtm-8",
        "linked_list-commtm-8", "refcount-baseline-8"])
def test_gate_rebinds_points_that_fuse_nothing(build, commtm, threads,
                                               params, _hermetic):
    stats = run_workload(build, threads, commtm=commtm, seed=1,
                         backend="vector", **params).stats
    assert stats.host_vector_fused_txs == 0
    assert stats.host_vector_gated
    # The first checkpoint fires, after at most that many capped attempts.
    assert stats.host_vector_epochs <= vector_engine._GATE_EARLY_ATTEMPTS
    assert stats.host_vector_epoch_ops <= (vector_engine._GATE_EARLY_ATTEMPTS
                                           * vector_engine._WARMUP_OP_CAP)


#: ``fused`` is each point's ``host_vector_fused_txs`` with uncapped,
#: ungated epochs (seed 1, 128 cores); the warmup may cost 2% of it.
@pytest.mark.parametrize("build,threads,params,fused", [
    (counter.build, 8, dict(total_ops=10_000), 10_000),
    (counter.build, 128, dict(total_ops=10_000), 9_984),
], ids=["counter-commtm-8", "counter-commtm-128"])
def test_gate_keeps_points_that_fuse(build, threads, params, fused,
                                     _hermetic):
    stats = run_workload(build, threads, commtm=True, seed=1,
                         backend="vector", **params).stats
    assert not stats.host_vector_gated
    assert stats.host_vector_fused_txs >= 0.98 * fused


def _sparse_fusion_run(backend, ops_per_add, adds, threads=8):
    """Every thread interleaves one fusible counter add with
    ``ops_per_add - 1`` think-time ops, all of them epoch-local: the
    counter starts in U at every running core, as ``counter.build``
    seeds it, so no add misses."""
    machine = Machine(SystemConfig(num_cores=16, commtm_enabled=True,
                                   seed=1), backend=backend)
    shared = SharedCounter(machine)
    machine.seed_reducible(shared.addr, shared.label,
                           {core: 0 for core in range(threads)})

    def body(ctx):
        for _ in range(adds):
            yield Atomic(shared.add, 1)
            for _ in range(ops_per_add - 1):
                yield ctx.work(3)

    result = machine.run_spmd(body, threads)
    return result.stats


@pytest.mark.parametrize("ops_per_add,gated", [(24, True), (8, False)])
def test_gate_weighs_fused_transactions_per_epoch_op(ops_per_add, gated,
                                                     _hermetic):
    # Same epoch-op count either way, enough to reach the warmup's end;
    # fusion survives the first checkpoint, so the ratio decides.
    adds = 19_200 // 8 // ops_per_add
    vector = _sparse_fusion_run("vector", ops_per_add, adds)
    assert vector.host_vector_fused_txs > 0
    assert vector.host_vector_gated is gated
    if gated:
        assert vector.host_vector_epoch_ops <= (
            vector_engine._GATE_WARMUP_EPOCHS * vector_engine._WARMUP_OP_CAP)
    interp = _sparse_fusion_run("interp", ops_per_add, adds)
    assert interp.parallel_cycles == vector.parallel_cycles
    assert interp.comparable() == vector.comparable()


# ---------------------------------------------------------------------------
# Boundary: shared modules hold no code that only this backend calls
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The modules outside sim/vector that import it: backend selection and
#: the harness's ``--backend`` option. Retiring the backend deletes both
#: imports.
VECTOR_IMPORTERS = {"core/machine.py", "harness/__main__.py"}

#: Names of the backend's deleted copies of the private-hit path and the
#: reduction merge, of the per-label settings that opted into the
#: latter, and of its miss-latency certifier, the engine's wrapper of it
#: and the count of its predictions. Spelled in two parts, so that a
#: search of the tree for the names finds only live uses.
GONE = ("fast_" + "load", "fast_" + "store", "fast_" + "labeled",
        "reduction_" + "kernel", "reduce_" + "lines",
        "vector_" + "reduce", "interpreted_" + "only",
        "certify_" + "access", "_certify_" + "proto",
        "host_vector_miss_" + "predicted")


def _shared_modules():
    """(path relative to ``repro/``, path) of every module outside
    sim/vector."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if not rel.startswith("sim/vector/"):
            yield rel, path


def _imported_modules(rel, path):
    """The dotted names a module imports, relative imports resolved."""
    package = ["repro", *rel.split("/")[:-1]]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) + 1 - node.level] if node.level \
                else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_only_the_backend_seams_import_it():
    importers = {rel for rel, path in _shared_modules()
                 if any(f"{name}.".startswith("repro.sim.vector.")
                        for name in _imported_modules(rel, path))}
    assert importers == VECTOR_IMPORTERS


def test_no_shared_module_names_the_deleted_vector_only_code():
    named = [f"{rel}: {name}" for rel, path in _shared_modules()
             for name in GONE if name in path.read_text()]
    assert named == []

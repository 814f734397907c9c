"""Backend selection, dispatch, gate and kernel tests for sim/vector.

Parity of simulated results is proven in tests/test_vector_equivalence.py;
this file covers the *plumbing*: how a backend is chosen (argument > env >
default), how the harness carries the backend through point specs and
cache fingerprints, how the host-side reporting surfaces change under the
vector backend ("n/a (vector)" rates, host counters kept out of
``Stats.comparable()``), which runs the adaptive gate hands to the
run-ahead loop, and the pure-Python reduction kernel and column flush.
"""

import random

import pytest

from repro import Machine
from repro.analysis.sanitizer import SANITIZE_ENV
from repro.core.labels import (add_label, max_label, min_label, oput_label,
                               wordwise_label)
from repro.datatypes import SharedCounter
from repro.datatypes.bloom_filter import or_label
from repro.errors import ConfigError
from repro.harness.parallel import make_spec
from repro.harness.runner import run_workload
from repro.obs import OBS_ENV
from repro.obs.report import _rate
from repro.params import SystemConfig, small_config
from repro.runtime.ops import Atomic
from repro.sim.engine import NO_FASTPATH_ENV, NO_RUNAHEAD_ENV, Engine
from repro.sim.stats import Stats
from repro.sim.vector import BACKEND_ENV, BACKENDS, resolve_backend
from repro.sim.vector import engine as vector_engine
from repro.sim.vector.columns import EpochColumns
from repro.sim.vector.kernels import reduce_lines
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
    assert Machine(small_config()).backend == "interp"


def test_explicit_argument_selects_vector():
    assert resolve_backend("vector") == "vector"
    assert Machine(small_config(), backend="vector").backend == "vector"


def test_env_selects_vector(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "vector")
    assert resolve_backend() == "vector"
    assert Machine(small_config()).backend == "vector"


def test_explicit_argument_beats_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "vector")
    assert resolve_backend("interp") == "interp"
    assert Machine(small_config(), backend="interp").backend == "interp"


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
    # The strict phases are a clone of the interpreted scheduler; keeping
    # the subclass relationship means handler-table surgery (obs,
    # sanitizer, fast-path gate) applies unmodified.
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


def test_rates_report_na_under_vector_backend():
    stats = Stats(num_cores=2)
    stats.host_backend = "vector"
    stats.host_fastpath_hits = 10
    stats.host_runahead_batches = 3
    stats.host_runahead_ops = 30
    assert stats.fastpath_hit_rate == "n/a (vector)"
    assert stats.runahead_ops_per_batch == "n/a (vector)"


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
    assert _rate("n/a (vector)", 4) == "n/a (vector)"
    assert _rate(0.123456, 4) == 0.1235


def test_backend_names_are_closed():
    assert BACKENDS == ("interp", "vector")


# ---------------------------------------------------------------------------
# Adaptive gate: epochs stay only while they fuse transactions
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
    (linked_list.build, True, 8, dict(total_ops=400)),
    (refcount.build, False, 8, dict(total_ops=1000)),
], ids=["vacation-commtm-1", "vacation-commtm-8", "boruvka-commtm-1",
        "boruvka-commtm-8", "linked_list-commtm-8", "refcount-baseline-8"])
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
    (kmeans.build, 1, _KMEANS, 1_536),
    (kmeans.build, 8, _KMEANS, 1_536),
], ids=["counter-commtm-8", "counter-commtm-128", "kmeans-commtm-1",
        "kmeans-commtm-8"])
def test_gate_keeps_points_that_fuse(build, threads, params, fused,
                                     _hermetic):
    stats = run_workload(build, threads, commtm=True, seed=1,
                         backend="vector", **params).stats
    assert not stats.host_vector_gated
    assert stats.host_vector_fused_txs >= 0.98 * fused


def _sparse_fusion_run(backend, ops_per_add, adds, threads=8):
    """Every thread interleaves one fusible counter add with
    ``ops_per_add - 1`` think-time ops, all of them epoch-local."""
    machine = Machine(SystemConfig(num_cores=16, commtm_enabled=True,
                                   seed=1), backend=backend)
    shared = SharedCounter(machine)

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
# Pure-Python reduction kernel and column flush
# ---------------------------------------------------------------------------

_KERNEL_LABELS = {"add": add_label, "min": min_label, "max": max_label,
                  "or": or_label}


def _sequential_fold(label, rows):
    """The protocol's fallback: one merge per row through the label."""
    out = list(rows[0])
    for row in rows[1:]:
        out = label.reduce(None, out, row)
    return out


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tag", sorted(_KERNEL_LABELS))
def test_reduce_lines_matches_sequential_fold(tag, seed):
    label = _KERNEL_LABELS[tag]()
    assert label.vector_reduce == tag
    rng = random.Random(seed)
    # Up to +-2**80: Python ints fold exactly past any fixed width.
    for bits in (8, 48, 64, 80):
        for nrows in (2, 3, rng.randint(4, 127), 128):
            rows = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(8)]
                    for _ in range(nrows)]
            assert reduce_lines(label, rows) == _sequential_fold(label, rows)


@pytest.mark.parametrize("tag", sorted(_KERNEL_LABELS))
def test_reduce_lines_declines(tag):
    label = _KERNEL_LABELS[tag]()
    row = list(range(1, 9))
    assert reduce_lines(label, []) is None
    assert reduce_lines(label, [row]) is None
    for odd in (None, (1, 2), 1.5):
        assert reduce_lines(label, [row, row[:3] + [odd] + row[4:]]) is None
    assert reduce_lines(label, [row, row, row]) is not None


def test_reduce_lines_declines_labels_without_a_supported_tag():
    rows = [list(range(8)), list(range(8))]
    untagged = wordwise_label("PLAIN", 0, lambda a, b: a + b)
    assert reduce_lines(untagged, rows) is None
    assert reduce_lines(oput_label(), rows) is None
    unknown = add_label("XOR")
    unknown.vector_reduce = "xor"
    assert reduce_lines(unknown, rows) is None


def test_epoch_columns_flush_adds_per_core_sums_and_resets():
    rng = random.Random(7)
    n = 16
    cols = EpochColumns(n)
    for name in ("instructions", "labeled", "non_tx_cycles", "tx_cycles",
                 "commits"):
        column = [rng.randint(0, 1 << 40) for _ in range(n)]
        column[3] = 0  # idle cores stay untouched in the breakdown
        setattr(cols, name, column)
    cols.non_tx_cycles[5] = 0  # only in-transaction cycles on core 5
    expected = {name: list(getattr(cols, name))
                for name in ("instructions", "labeled", "non_tx_cycles",
                             "tx_cycles", "commits")}
    cols.by_label = {"ADD": 11, "MIN": 4}
    cols.proto_ops, cols.pred_hits, cols.pred_misses = 9, 6, 2
    cols.fence_causes = {"barrier": 3}

    stats = Stats(num_cores=n)
    cols.flush(stats)

    assert stats.instructions == sum(expected["instructions"])
    assert stats.labeled_instructions == sum(expected["labeled"])
    assert stats.commits == sum(expected["commits"])
    assert [b.non_tx for b in stats.breakdown] == expected["non_tx_cycles"]
    assert [b.tx_committed for b in stats.breakdown] == expected["tx_cycles"]
    assert dict(stats.labeled_by_label) == {"ADD": 11, "MIN": 4}
    assert stats.host_vector_proto_ops == 9
    assert stats.host_vector_miss_predicted == 8
    assert stats.host_vector_miss_mispredicts == 2
    assert dict(stats.host_vector_fence_causes) == {"barrier": 3}

    for name in expected:
        assert getattr(cols, name) == [0] * n
    assert cols.by_label == {} and cols.fence_causes == {}
    assert (cols.proto_ops, cols.pred_hits, cols.pred_misses) == (0, 0, 0)
    before = stats.comparable()
    cols.flush(stats)  # a second flush adds nothing
    assert stats.comparable() == before

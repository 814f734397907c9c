"""Obs-payload parity: the vector backend under ``REPRO_OBS=1``.

Observation is a per-op layer, like the coherence sanitizer: with an
Observer installed the vector backend runs no epochs and delegates the
whole run to the interpreted engine, so observed runs have one engine and
one obs path on either backend. These tests hold that contract across all
ten workloads on both systems: an observed vector-backend run is
bit-identical in simulated results *and* produces the identical
observability payload — trace events, transaction lifecycle records,
abort attribution, hot-line metrics — as the observed interpreted run.
Only the host wall-clock sections (the hostprof report and its trace
lane) vary from run to run; they are left out of the comparison.
"""

import copy

import pytest

from repro.obs import TRACE_SCHEMA
from repro.obs.perfetto import merge_traces

from .test_obs import validate_chrome_trace
from .test_vector_equivalence import (APPS, MICROS, _assert_parity, _run,
                                      simulated_payload)


def _run_pair(build, *, commtm, seed, monkeypatch, **params):
    interp = _run(build, backend="interp", commtm=commtm, seed=seed,
                  monkeypatch=monkeypatch, observe=True, **params)
    vector = _run(build, backend="vector", commtm=commtm, seed=seed,
                  monkeypatch=monkeypatch, observe=True, **params)
    return interp, vector


def _assert_obs_parity(interp, vector):
    _assert_parity(interp, vector)
    assert simulated_payload(interp) == simulated_payload(vector)
    # The observed vector-backend run delegated: no epoch ran.
    assert vector.stats.host_backend == "vector"
    assert vector.stats.host_vector_epochs == 0


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(MICROS))
def test_observed_vector_micro_payloads_match(name, commtm, seed,
                                              monkeypatch):
    interp, vector = _run_pair(MICROS[name], commtm=commtm, seed=seed,
                               monkeypatch=monkeypatch)
    _assert_obs_parity(interp, vector)


@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(APPS))
def test_observed_vector_app_payloads_match(name, commtm, monkeypatch):
    build, params = APPS[name]
    interp, vector = _run_pair(build, commtm=commtm, seed=1,
                               monkeypatch=monkeypatch, total_ops=None,
                               **params)
    _assert_obs_parity(interp, vector)


def _lane_names(trace: dict) -> set:
    return {e["args"]["name"] for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"}


@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
def test_observed_vector_trace_is_schema_valid(commtm, monkeypatch):
    """A merged trace — core lanes plus the host wall-clock lane — passes
    the structural validation the interpreted export does."""
    _, vector = _run_pair(MICROS["counter"], commtm=commtm, seed=1,
                          monkeypatch=monkeypatch)
    merged = merge_traces([("vector-point", vector.info["obs"]["trace"])])
    assert merged["schema"] == TRACE_SCHEMA
    validate_chrome_trace(merged)
    names = _lane_names(merged)
    assert "core 0" in names
    assert "host (wall µs)" in names


def test_merge_traces_reads_v1_payloads(monkeypatch):
    """Backward compatibility: a /1-era payload (no host_events key)
    still merges cleanly, as core lanes only."""
    interp, _ = _run_pair(MICROS["counter"], commtm=True, seed=1,
                          monkeypatch=monkeypatch)
    legacy = copy.deepcopy(interp.info["obs"]["trace"])
    del legacy["host_events"]
    merged = merge_traces([("legacy-point", legacy)])
    validate_chrome_trace(merged)
    assert all(name.startswith("core ") for name in _lane_names(merged))


def test_obs_off_vector_engine_installs_nothing(monkeypatch):
    """With no Observer installed the vector engine holds none and keeps
    its epochs."""
    from repro.analysis.sanitizer import SANITIZE_ENV
    from repro.core.machine import Machine
    from repro.params import small_config
    from repro.obs import OBS_ENV
    from repro.sim.engine import NO_FASTPATH_ENV, NO_RUNAHEAD_ENV
    from repro.sim.vector.engine import VectorEngine

    for env in (OBS_ENV, SANITIZE_ENV, NO_FASTPATH_ENV, NO_RUNAHEAD_ENV):
        monkeypatch.delenv(env, raising=False)
    machine = Machine(small_config(num_cores=8, seed=1, commtm_enabled=True))
    built = MICROS["counter"](machine, 4, total_ops=120)
    engine = VectorEngine(machine, built.bodies)
    assert machine.obs is None
    assert engine._obs is None
    assert engine._epochs_disabled_reason() is None
    engine.run()
    assert machine.stats.host_vector_epochs > 0

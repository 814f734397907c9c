"""A finished machine is freed by reference counting alone.

The harness builds a fresh machine per point: 128 private caches, a
full-map directory, an engine and a workload's state. If any part holds
a strong reference back to its owner, the machine is a reference cycle
that only the cyclic collector's rare full collection frees, and dead
machines pile up in memory until it runs. So no part does: the eviction
hooks reach the memory system through a weak proxy, the engine's
dispatch table holds class functions rather than bound methods, and the
sanitizer and observer hold the caches and directory they read rather
than their owner (DESIGN.md §6).

The guard runs the ten workloads at ``tests/test_golden_stats.py``'s
sizes, on both systems, plain, sanitized and observed, on both backends,
with the cyclic collector disabled, and asserts for every point that a
weak reference to the finished machine is dead as soon as the harness
has taken the result, and that a collection afterwards finds nothing.
"""

import gc
import weakref

import pytest

from repro.analysis.sanitizer import SANITIZE_ENV
from repro.core.machine import Machine
from repro.harness.runner import run_built
from repro.obs import OBS_ENV
from repro.params import SystemConfig
from repro.sim.engine import NO_FASTPATH_ENV, NO_RUNAHEAD_ENV
from repro.sim.vector import BACKEND_ENV

from .test_golden_stats import SYSTEMS, WORKLOADS

#: mode -> (sanitize, observe)
MODES = {"plain": (False, False), "sanitized": (True, False),
         "observed": (False, True)}


def _finished_machine(build, params, commtm, backend, sanitize, observe):
    """Run one point as the harness does and return the result and a weak
    reference to its machine, which nothing else refers to any more."""
    machine = Machine(SystemConfig(num_cores=128, commtm_enabled=commtm,
                                   seed=1),
                      sanitize=sanitize, observe=observe, backend=backend)
    result = run_built(machine, build(machine, 8, **params))
    return result, weakref.ref(machine)


@pytest.mark.parametrize("backend", ["interp", "vector"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_finished_machine_is_freed_without_the_collector(mode, backend,
                                                          monkeypatch):
    # The explicit arguments pin backend, sanitizer and observer; the
    # escape hatches come from the environment, so clear them (and the
    # rest) to run the same points on every CI leg.
    for env in (BACKEND_ENV, SANITIZE_ENV, OBS_ENV, NO_FASTPATH_ENV,
                NO_RUNAHEAD_ENV):
        monkeypatch.delenv(env, raising=False)
    sanitize, observe = MODES[mode]
    gc.collect()
    gc.disable()
    try:
        for name in sorted(WORKLOADS):
            build, params = WORKLOADS[name]
            for system in sorted(SYSTEMS):
                result, machine = _finished_machine(
                    build, params, SYSTEMS[system], backend, sanitize,
                    observe)
                assert result.cycles > 0
                assert machine() is None, (
                    f"{name} {system}: a finished machine outlived its "
                    f"run; a part holds a strong reference to its owner")
        leftover = gc.collect()
    finally:
        gc.enable()
    assert leftover == 0, f"{leftover} objects were left in reference cycles"

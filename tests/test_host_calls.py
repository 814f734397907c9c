"""Host cost budgets: Python-level calls per simulated operation.

Each point runs on the Table I chip and counts the interpreter's "call"
events (``sys.setprofile``; a generator's resumption counts as one) over
``Machine.run``, per step the engine took (``Stats.host_runahead_ops``),
to two decimals. The budgets are the counts after the miss and restart
paths were made call-lean, the engine's handlers began serving private
hits themselves and the cycle breakdown moved to transaction boundaries
(DESIGN.md §6, items 7, 8 and 9). The code before the first counted
6.22, 36.09 and 13.41 calls per op on the three points, before the
second 6.15, 27.06 and 10.51, and before the third 3.15, 24.06 and 9.14
(an abort no longer calls ``Stats.reclassify_aborted``), so this test
fails on all three. A change that puts a call back on these paths fails
here instead of slowing every hit and abort storm.

The per-op paths hold no comprehension, which CPython 3.12 inlines
(PEP 709) and 3.10 and 3.11 call. The budgets are the counts on
CPython 3.10.13, 3.11.7 and 3.12.1, which agree exactly.
"""

import sys

import pytest

from repro.analysis.sanitizer import SANITIZE_ENV
from repro.core.machine import Machine
from repro.obs import OBS_ENV
from repro.params import SystemConfig
from repro.runtime.ops import Atomic
from repro.sim.engine import NO_FASTPATH_ENV, NO_RUNAHEAD_ENV
from repro.sim.vector import BACKEND_ENV

LINE = 0x4000


def _loads(ctx):
    for _ in range(2000):
        yield ctx.load(LINE)


def _stores(ctx):
    for i in range(2000):
        yield ctx.store(LINE, i)


def _increment(ctx):
    value = yield ctx.load(LINE)
    yield ctx.store(LINE, value + 1)


def _increments(ctx):
    for _ in range(1000):
        yield Atomic(_increment)


#: point -> (thread bodies, budget in calls per op)
POINTS = {
    # One core, 2,000 loads to one line: private hits.
    "private_hit": ([_loads], 3.15),
    # Two cores, 2,000 stores each to one line: every store is a GETX
    # that invalidates the other core's copy.
    "contended_getx": ([_stores, _stores], 24.06),
    # Two cores, 1,000 transactional increments each of one line: the
    # younger transaction is NACKed, aborts and retries after backoff.
    "nack_abort_retry": ([_increments, _increments], 9.04),
}


def _calls_per_op(bodies):
    machine = Machine(SystemConfig())
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        machine.run(bodies)
    finally:
        sys.setprofile(previous)
    return calls / machine.stats.host_runahead_ops


@pytest.mark.parametrize("point", sorted(POINTS))
def test_calls_per_op_within_budget(point, monkeypatch):
    # Count the plain interpreted engine (private-hit fast path and
    # run-ahead on) on every CI leg: clear the run options.
    for env in (BACKEND_ENV, SANITIZE_ENV, OBS_ENV, NO_FASTPATH_ENV,
                NO_RUNAHEAD_ENV):
        monkeypatch.delenv(env, raising=False)
    bodies, budget = POINTS[point]
    assert round(_calls_per_op(bodies), 2) <= budget

"""Vector backend: the epoch engine, selectable per Machine.

The interpreted engine (``repro.sim.engine``) advances one core by one
operation per scheduler step. This package provides an alternative
backend — ``Machine(..., backend="vector")``, env ``REPRO_BACKEND=vector``,
harness ``--backend vector`` — that advances the simulation in *epochs*:
two kinds of operation run in an epoch, think time and a fused
``SharedCounter.add`` on a line the core holds in its L1, a conservative
time window of them at once, adding their counts to the ordinary
:class:`Stats` fields directly. Every other operation, and every
operation of a core inside a transaction, fences the epoch and runs
per-op in the strict phase, the interpreted engine's run-ahead loop, so
protocol semantics stay centralized and ``Stats.comparable()`` is the
parity oracle (see tests/test_vector_equivalence.py). Epochs pay off
only while they fuse adds; an adaptive gate hands every other run to the
run-ahead loop (see :mod:`.engine`).

This module names the backends; ``repro.core.machine.resolve_backend``
picks one: an explicit ``backend=`` argument beats ``REPRO_BACKEND``,
which beats the default.
"""

from __future__ import annotations

import logging

log = logging.getLogger("repro.sim.vector")

#: Environment variable selecting the engine backend when ``Machine`` is
#: constructed without an explicit ``backend=`` argument.
BACKEND_ENV = "REPRO_BACKEND"

#: The default, pure-Python per-op engine (``repro.sim.engine.Engine``).
INTERP = "interp"
#: The epoch engine (``repro.sim.vector.engine.VectorEngine``).
VECTOR = "vector"

BACKENDS = (INTERP, VECTOR)


"""Vector backend: the epoch engine, selectable per Machine.

The interpreted engine (``repro.sim.engine``) advances one core by one
operation per scheduler step. This package provides an alternative
backend — ``Machine(..., backend="vector")``, env ``REPRO_BACKEND=vector``,
harness ``--backend vector`` — that advances the simulation in *epochs*:
whenever every live core's next operation is provably local (private-hit
loads/stores, labeled updates on uncontended U lines, think time, or a
whole transaction fusible through the lowering registry in
:mod:`.kernels`), the engine executes a conservative time window of those
operations in bulk: private hits through the engine's own memory-op
handlers, the rest into per-core columns (:mod:`.columns`) that are
summed into the ordinary :class:`Stats` fields when the run ends.
Every access the handlers send to the protocol — a miss, an S-upgrade,
a reduction, a gather — fences the epoch and runs per-op in the strict
phase, through the existing handlers in ``coherence/protocol.py``, so
protocol semantics stay centralized and ``Stats.comparable()`` is the
parity oracle (see tests/test_vector_equivalence.py). Epochs pay off
only while they fuse transactions; an adaptive gate hands every other
run to the run-ahead loop (see :mod:`.engine`).

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


"""Vector backend: the epoch engine, selectable per Machine.

The interpreted engine (``repro.sim.engine``) advances one core by one
operation per scheduler step. This package provides an alternative
backend — ``Machine(..., backend="vector")``, env ``REPRO_BACKEND=vector``,
harness ``--backend vector`` — that advances the simulation in *epochs*:
whenever every live core's next operation is provably local (private-hit
loads/stores, labeled updates on uncontended U lines, think time, or a
whole transaction fusible through the lowering registry in
:mod:`.kernels`), the engine executes a conservative time window of those
operations in bulk, accumulating statistics into per-core columns
(:mod:`.columns`) that are summed into the ordinary :class:`Stats` fields
when the run ends. Anything else — misses, conflicts, NACKs, gathers,
reductions, barriers, commits of non-fused transactions — falls back
per-op to the existing handlers in ``coherence/protocol.py``, so protocol
semantics stay centralized and ``Stats.comparable()`` is the parity
oracle (see tests/test_vector_equivalence.py). Epochs pay off only while
they fuse transactions; an adaptive gate hands every other run to the
run-ahead loop (see :mod:`.engine`).

This module owns backend *selection*. ``resolve_backend`` implements the
precedence rules: an explicit ``backend=`` argument beats
``REPRO_BACKEND``, which beats the default.
"""

from __future__ import annotations

import logging
import os
from typing import Optional

from ...errors import ConfigError

log = logging.getLogger("repro.sim.vector")

#: Environment variable selecting the engine backend when ``Machine`` is
#: constructed without an explicit ``backend=`` argument.
BACKEND_ENV = "REPRO_BACKEND"

#: The default, pure-Python per-op engine (``repro.sim.engine.Engine``).
INTERP = "interp"
#: The epoch engine (``repro.sim.vector.engine.VectorEngine``).
VECTOR = "vector"

BACKENDS = (INTERP, VECTOR)


def resolve_backend(explicit: Optional[str] = None) -> str:
    """Resolve the effective backend name (``"interp"`` or ``"vector"``).

    ``explicit`` (the ``Machine(backend=...)`` / CLI argument) takes
    precedence over :data:`BACKEND_ENV`; both beat the interpreted
    default. Unknown names raise :class:`ConfigError`.
    """
    if explicit is not None:
        name = str(explicit).strip().lower()
    else:
        name = os.environ.get(BACKEND_ENV, "").strip().lower() or INTERP
    if name not in BACKENDS:
        raise ConfigError(
            f"unknown engine backend {name!r}; choose one of {BACKENDS}"
        )
    return name

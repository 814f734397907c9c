"""Exhaustive explicit-state model checking of the MESI+U protocol.

Public surface:

* :func:`~repro.analysis.modelcheck.checker.run_modelcheck` — explore
  every registered label's bounded config and discharge the invariant,
  commutativity and quiescence obligations;
* :func:`~repro.analysis.modelcheck.checker.replay` — re-execute a
  counterexample trace and reproduce its findings;
* ``python -m repro.analysis modelcheck`` — the CLI front end.
"""

from .checker import (DEFAULT_CORES, DEFAULT_DEPTH, DEFAULT_LINES,
                      Explorer, LabelReport, ModelCheckReport,
                      registered_labels, replay, run_modelcheck)

__all__ = [
    "DEFAULT_CORES", "DEFAULT_DEPTH", "DEFAULT_LINES",
    "Explorer", "LabelReport", "ModelCheckReport",
    "registered_labels", "replay", "run_modelcheck",
]

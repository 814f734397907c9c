"""Static and runtime checking for the CommTM reproduction.

Three passes over the things the paper assumes but hardware never checks:

* :mod:`.laws` — seeded property-based verification that every label's
  reduction algebra holds (commutativity, associativity, identity,
  splitter conservation);
* :mod:`.lint` — AST-level label-discipline lint over datatype and
  workload code (mixed labeled/unlabeled access, gathers without
  splitters, unregistered labels, virtualization aliasing);
* :mod:`.sanitizer` — opt-in runtime coherence-invariant checker
  (``--sanitize`` / ``REPRO_SANITIZE=1``) validating the directory and
  cache states after every protocol step.

Run all static passes via ``python -m repro.analysis``.
"""

from .findings import ERROR, WARNING, Finding, errors_in, format_findings
from .laws import check_laws, check_suite
from .lint import check_paths, check_registry, check_source
from .sanitizer import SANITIZE_ENV, CoherenceSanitizer

__all__ = [
    "ERROR",
    "WARNING",
    "Finding",
    "errors_in",
    "format_findings",
    "check_laws",
    "check_suite",
    "check_paths",
    "check_registry",
    "check_source",
    "SANITIZE_ENV",
    "CoherenceSanitizer",
]

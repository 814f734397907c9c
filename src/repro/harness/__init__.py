"""Experiment harness: run workloads across configurations, aggregate with
confidence intervals, and print the paper's tables and figure series.

``python -m repro.harness <experiment>`` regenerates any figure by name;
``--jobs N`` fans sweep points over worker processes and the on-disk
result cache makes re-renders nearly free (see ``repro.harness.parallel``
and ``repro.harness.cache``).
"""

from .artifacts import (ResultSink, install_sink, clear_sink, notify,
                        write_outputs, write_report, write_trace)
from .cache import ResultCache, default_cache_dir, fingerprint
from .confidence import CiResult, confidence_interval, run_until_confident
from .parallel import (PointSpec, build_path, make_spec, resolve_build,
                       resolve_jobs, run_point, run_points)
from .runner import ExperimentResult, run_built, run_workload, speedup_curve

__all__ = [
    "ResultSink",
    "install_sink",
    "clear_sink",
    "notify",
    "write_outputs",
    "write_report",
    "write_trace",
    "CiResult",
    "confidence_interval",
    "run_until_confident",
    "ExperimentResult",
    "run_built",
    "run_workload",
    "speedup_curve",
    "PointSpec",
    "build_path",
    "make_spec",
    "resolve_build",
    "resolve_jobs",
    "run_point",
    "run_points",
    "ResultCache",
    "default_cache_dir",
    "fingerprint",
]

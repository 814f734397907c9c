"""Structured observability: traces, lifecycles, metrics, reports.

The paper's evaluation is built from cross-cutting telemetry — cycle
breakdowns (Fig. 17), wasted-work attribution (Fig. 18), traffic splits
(Fig. 19), reduction/gather frequencies — and this package makes all of it
*queryable* instead of aggregate-only:

* :class:`~repro.obs.recorder.TraceRecorder` — typed span/instant/counter
  events (transaction attempts with abort cause, attacker core, line and
  label; reductions and gathers with line counts and latency; barrier
  arrivals; NACKs and backoff intervals), exported as Chrome/Perfetto trace-event JSON by
  :func:`~repro.obs.perfetto.chrome_trace` — open any run in
  ``ui.perfetto.dev``, one lane per core plus counter tracks.
* :class:`~repro.obs.lifecycle.LifecycleTracker` — one record per
  transaction (read/write/labeled-set sizes, cycles, retries, outcome),
  summarized into an address/label-level abort-attribution table that
  extends Fig. 18 from cause granularity to line granularity.
* :class:`~repro.obs.metrics.MetricsRegistry` — per-line / per-label
  hot-line counters in the protocol (touches, reductions triggered,
  invalidations caused), surfaced via ``Stats.host_hot_lines``.
* :mod:`~repro.obs.report` — the versioned run report written by
  ``python -m repro.harness --report-json``: per-point stats, abort
  attribution, hot lines, trace-event counts and host phases, plus the
  harness's own phases. The Perfetto trace (``--trace-out``) is the only
  other artifact.
* :func:`~repro.obs.timeline.render_timeline` — the recorder's events as
  ASCII per-core lanes, the form of the paper's Fig. 1.
* :class:`~repro.obs.hostprof.HostProfiler` — a zero-dependency *host*
  wall-clock phase accountant (machine and workload build, simulate,
  verify; harness cache and dispatch phases), emitted as a run-report
  section and an optional Perfetto host-time lane.

Enablement follows the sanitizer's discipline exactly: ``observe=True`` on
:class:`~repro.core.machine.Machine` or ``REPRO_OBS=1`` in the environment,
resolved once into ``Machine.options`` when the machine is built (the
harness flags ``--trace-out``/``--report-json`` set it for you). The flag
is deliberately *not* a ``SystemConfig`` field — it cannot change
simulated results, so it must not perturb the result cache's config
fingerprints. When off, nothing is installed: the engine's handler
table, the protocol's hook slots and every hot path are byte-for-byte the
code that runs without this package, so disabled-mode cycles and
``Stats.comparable()`` are bit-identical and throughput is unchanged.
When on, the engine routes memory operations through the full protocol
path (the same switch ``REPRO_NO_FASTPATH=1`` flips, proven
bit-identical by ``tests/test_fastpath_equivalence.py``) so every event is
seen at a single choke point. Observation is a per-op layer, like the
sanitizer: on either backend an observed run is the interpreted engine's
— the vector backend delegates it with a logged notice — so simulated
results are bit-identical and only host-side wall-clock pays.
"""

from .hostprof import HARNESS_PROF, HostProfiler
from .lifecycle import AbortRecord, LifecycleTracker, TxRecord
from .metrics import LineMetrics, MetricsRegistry
from .observer import OBS_ENV, Observer
from .perfetto import TRACE_SCHEMA, chrome_trace, merge_traces
from .recorder import TraceRecorder
from .report import REPORT_SCHEMA, per_label_table, point_report
from .timeline import render_timeline

__all__ = [
    "OBS_ENV",
    "Observer",
    "TraceRecorder",
    "TxRecord",
    "AbortRecord",
    "LifecycleTracker",
    "LineMetrics",
    "MetricsRegistry",
    "TRACE_SCHEMA",
    "REPORT_SCHEMA",
    "HARNESS_PROF",
    "HostProfiler",
    "chrome_trace",
    "merge_traces",
    "per_label_table",
    "point_report",
    "render_timeline",
]

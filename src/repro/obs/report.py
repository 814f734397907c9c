"""Machine-readable run reports.

``python -m repro.harness <exp> --report-json out.json`` writes one
versioned JSON document per run, the run's one document beside its
Perfetto trace: experiment identity, the harness's host phase accounting
(result-cache traffic, whole-experiment dispatch), then one entry per
simulated sweep point (:func:`point_report`) carrying the headline stats,
the per-label table (labeled instructions, reductions, gathers — the
sweep-output form of ``tests/test_per_label_stats.py``'s in-process
counters), and — when the point ran with observability — the transaction
lifecycle summary, the address/label-level abort-attribution table, the
top-K hottest lines, the per-label touches, the trace-event counts and
the point's host phase accounting. CI uploads these as artifacts; any
consumer can dispatch on the ``schema`` field.
"""

from __future__ import annotations

from typing import Dict, List

from .hostprof import HARNESS_PROF

#: Version tag of the run report. /2: a top-level ``harness`` section and
#: per-point ``trace_event_counts``; the standalone metrics and hostprof
#: documents are gone.
REPORT_SCHEMA = "repro-obs-report/2"


def per_label_table(stats) -> Dict[str, dict]:
    """Label-level activity from :class:`~repro.sim.stats.Stats` Counters.

    Works on any run (the Counters are simulated statistics, present with
    or without the obs layer installed)."""
    names = (set(stats.labeled_by_label) | set(stats.reductions_by_label)
             | set(stats.gathers_by_label))
    return {
        name: {
            "labeled_instructions": int(stats.labeled_by_label.get(name, 0)),
            "reductions": int(stats.reductions_by_label.get(name, 0)),
            "gathers": int(stats.gathers_by_label.get(name, 0)),
        }
        for name in sorted(names)
    }


def _rate(value, digits: int, none=None):
    """Round a host rate for the report (``None`` -> ``none``)."""
    if value is None:
        return none
    return round(value, digits)


def point_report(result) -> dict:
    """One sweep point (an ``ExperimentResult``) as a plain JSON dict."""
    stats = result.stats
    out = {
        "name": result.name,
        "num_threads": result.num_threads,
        "commtm": bool(result.commtm),
        "cycles": result.cycles,
        "stats": {k: v for k, v in stats.summary().items()},
        "cycle_breakdown": stats.cycle_breakdown_totals(),
        "wasted_by_cause": stats.wasted_breakdown(),
        "get_breakdown": stats.get_breakdown(),
        "per_label": per_label_table(stats),
        # Host-simulator internals (excluded from Stats.comparable()):
        # fastpath_hit_rate is None when no fast path was attempted, which
        # the report spells "disabled" to keep the JSON self-describing.
        "host": {
            "backend": stats.host_backend,
            "fastpath_hit_rate": _rate(stats.fastpath_hit_rate, 4,
                                       none="disabled"),
            "runahead_batches": stats.host_runahead_batches,
            "runahead_ops_per_batch": _rate(stats.runahead_ops_per_batch, 3),
        },
    }
    obs = result.info.get("obs") if isinstance(result.info, dict) else None
    if obs is not None:
        out["lifecycle"] = obs["lifecycle"]["summary"]
        out["abort_attribution"] = obs["lifecycle"]["abort_attribution"]
        out["hot_lines"] = obs["metrics"]["hot_lines"]
        out["obs_per_label_touches"] = obs["metrics"]["per_label"]
        out["trace_event_counts"] = obs["trace"]["counts"]
        out["hostprof"] = obs["hostprof"]
    return out


def run_report(experiment: str, results: List, *, threads=None,
               scale=None) -> dict:
    """The full ``--report-json`` document for one harness invocation."""
    return {
        "schema": REPORT_SCHEMA,
        "experiment": experiment,
        "threads": list(threads) if threads is not None else None,
        "scale": scale,
        "harness": HARNESS_PROF.report(),
        "points": [point_report(r) for r in results],
    }


__all__ = ["REPORT_SCHEMA", "per_label_table", "point_report", "run_report"]

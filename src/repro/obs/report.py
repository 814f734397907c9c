"""Machine-readable run reports.

``python -m repro.harness <exp> --report-json out.json`` writes one
versioned JSON document per run: experiment identity, then one entry per
simulated sweep point (:func:`point_report`) carrying the headline stats,
the per-label table (labeled instructions, reductions, gathers — the
sweep-output form of ``tests/test_per_label_stats.py``'s in-process
counters), and — when the point ran with observability — the transaction
lifecycle summary, the address/label-level abort-attribution table, and
the top-K hottest lines. CI uploads these as artifacts; any consumer can
dispatch on the ``schema`` field.
"""

from __future__ import annotations

from typing import Dict, List

#: Version tags for the run report and the standalone metrics document.
REPORT_SCHEMA = "repro-obs-report/1"
METRICS_SCHEMA = "repro-obs-metrics/1"


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
    """Round a host rate for the report, passing through the non-numeric
    forms (``None`` -> ``none``, "n/a (vector)" unchanged)."""
    if value is None:
        return none
    if isinstance(value, str):
        return value
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
        # Under the vector backend both rate properties return the string
        # "n/a (vector)", which passes through unrounded.
        "host": {
            "backend": stats.host_backend,
            "fastpath_hit_rate": _rate(stats.fastpath_hit_rate, 4,
                                       none="disabled"),
            "fastpath_gated": stats.host_fastpath_gated,
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
        # Host-side self-profile (repro-obs-hostprof/1): absent on
        # payloads written before the hostprof section existed.
        if "hostprof" in obs:
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
        "points": [point_report(r) for r in results],
    }


def metrics_report(experiment: str, results: List) -> dict:
    """The ``--metrics-out`` document: hot-line metrics per sweep point."""
    points = []
    for result in results:
        obs = (result.info.get("obs")
               if isinstance(result.info, dict) else None)
        points.append({
            "name": result.name,
            "num_threads": result.num_threads,
            "commtm": bool(result.commtm),
            "hot_lines": obs["metrics"]["hot_lines"] if obs else [],
            "per_label": obs["metrics"]["per_label"] if obs else {},
            "trace_event_counts": (obs["trace"]["counts"] if obs else {}),
        })
    return {
        "schema": METRICS_SCHEMA,
        "experiment": experiment,
        "points": points,
    }


__all__ = ["METRICS_SCHEMA", "REPORT_SCHEMA", "metrics_report",
           "per_label_table", "point_report", "run_report"]

"""One measured pass, in its own process.

The driver spawns this once per (workload, kind) and times it from spawn
to exit. It writes one JSON report to ``--out``:

* ``warm``: import the simulator and exit (fills the bytecode cache);
* ``setup``: import, then construct every point listed in ``--specs``
  (the points the run's first pass simulated) without running them;
* ``pass``: regenerate the workload once (backend from ``REPRO_BACKEND``,
  ``--jobs`` workers), optionally traced; the first pass of a run also
  lists its points for the setup children;
* ``paper``: the full-size figures scored against the paper.
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path


def _counts(stats_list, cache) -> dict:
    """Program counts summed over the pass's simulated points."""
    total = {}
    for stats in stats_list:
        fields = {
            "points": 1,
            "instructions": stats.instructions,
            "cycles": stats.parallel_cycles,
            "runahead_ops": stats.host_runahead_ops,
            "runahead_batches": stats.host_runahead_batches,
            "l3_gets": stats.l3_get_requests,
            "getu": stats.getu,
            "invalidations": stats.invalidations,
            "forwards": stats.forwards,
            "noc_hops": stats.noc_hops,
            "fastpath_hits": stats.host_fastpath_hits,
            "fastpath_misses": stats.host_fastpath_misses,
            "commits": stats.commits,
            "aborts": stats.aborts,
            "nacks": stats.nacks_sent,
            "tx_aborted_cycles": stats.tx_aborted_cycles,
            "core_cycles": stats.total_cycles,
            "reductions": stats.reductions,
            "gathers": stats.gathers,
            "splits": stats.splits,
            "shadow_cycles": stats.shadow_thread_cycles,
            "vector_epochs": stats.host_vector_epochs,
            "vector_epoch_ops": stats.host_vector_epoch_ops,
            "vector_fused_txs": stats.host_vector_fused_txs,
            "vector_gated": int(stats.host_vector_gated),
            "vector_proto_ops": stats.host_vector_proto_ops,
            "vector_mispredicts": stats.host_vector_miss_mispredicts,
        }
        for name, value in fields.items():
            total[name] = total.get(name, 0) + value
    total["cache_hits"] = cache.hits
    return total


def main(args) -> int:
    sampler = recorder = None
    if args.trace:
        from . import tracing
        recorder = tracing.SpanRecorder()
        sampler = tracing.Sampler(recorder)
        sampler.start()
        # Interpreter start-up precedes the sampler: charge it to bench.
        sampler.seconds[tracing.BENCH] += time.time() - args.spawned
    from . import workloads
    ready_s = time.time() - args.spawned

    out_path = Path(args.out)
    specs_path = Path(args.specs)
    report = {}
    if args.kind == "setup":
        specs = [workloads.spec_from_json(s)
                 for s in json.loads(specs_path.read_text())]
        report["setup_s"] = ready_s + workloads.setup(specs)
    elif args.kind in ("pass", "paper"):
        if recorder is not None:
            tracing.install_spans(recorder)
        ctx = workloads.PassContext(
            seed=args.seed, quick=args.quick, jobs=args.jobs,
            cache=workloads.PassCache(out_path.parent / "cache"))
        if args.kind == "paper":
            outcome = workloads.Outcome()
            workloads.paper_pass(ctx, outcome)
            outcome.absorb(ctx.cache)
        else:
            outcome = workloads.run_pass(args.workload, ctx)
        report.update(points=outcome.points, checks=outcome.checks,
                      failed=outcome.failed, failures=outcome.failures,
                      digests=outcome.digests, known=outcome.known,
                      xfail=outcome.xfail, extra=outcome.extra,
                      counts=_counts(outcome.stats, ctx.cache))
        if not specs_path.exists():
            report["specs"] = [workloads.spec_to_json(s)
                               for s in outcome.specs]
    if sampler is not None:
        sampler.stop()
        report["samples"] = dict(sampler.seconds)
        report["samples_by_span"] = dict(sampler.by_span)
        report["spans"] = [list(span) for span in recorder.spans]
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out_path.write_text(json.dumps(report))
    return 0

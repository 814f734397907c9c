"""CLI: regenerate any of the paper's experiments by name.

Usage::

    python -m repro.harness --list
    python -m repro.harness fig09
    python -m repro.harness fig16-kmeans --threads 1,8,32 --scale 0.5
    python -m repro.harness ablation-gather
    python -m repro.harness fig09 --jobs 4          # parallel sweep
    python -m repro.harness fig09 --no-cache        # force re-simulation
    python -m repro.harness fig09 --profile         # where does time go?
    python -m repro.harness fig09 --trace-out t.json \\
        --report-json r.json                        # structured artifacts

Each experiment runs at its own thread ladder (the paper's 1/8/32/128 for
Figs. 9-16, 8/32/128 for Figs. 17-19, one or a few thread counts for the
tables, ablations and sensitivity sweeps); ``--threads`` replaces it.
``--scale`` multiplies every workload's size: operation counts and the
applications' inputs (ssca2's log2 size stays as given).

Sweeps fan out over ``--jobs`` worker processes (default: ``REPRO_JOBS``,
else the machine's CPU count; capped at the CPUs this process may use)
and reuse previously simulated points from the on-disk cache
(``--cache-dir``, default ``~/.cache/repro-commtm``; disable with
``--no-cache``). Every sweep of two or more uncached points goes to the
pool, whose workers are forks of this process where the platform offers
``fork``, so they start in milliseconds. Parallel and cached runs produce
output identical to ``--jobs 1 --no-cache``. ``--profile`` runs the
experiment under :mod:`cProfile` and prints the top 25 functions by
cumulative time to stderr (``--profile-out FILE`` additionally dumps the
raw stats for ``pstats``/``snakeviz``); pool workers run unprofiled.

A request the harness cannot honour (a ``--threads`` that is not a list
of positive integers, a thread count above the chip's cores, a
``--scale`` that is not a finite positive number) is refused with a
one-line error and exit status 2, before anything is simulated; so is an
unknown experiment. A simulator error ends the run with exit status 1.
When a sweep point raised it (a failed ``verify()``, a sanitizer
finding, the livelock guard), the error is followed by the point
(builder, threads, seed, backend) and a ``replay:`` command that re-runs
that point alone.

``--trace-out`` and ``--report-json`` export the structured observability
artifacts: a Perfetto trace, and the versioned run report with
address-level abort attribution, hot lines and host wall-clock phase
accounting (see :mod:`repro.obs`). Either implies ``REPRO_OBS=1`` and
``--no-cache``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from ..errors import ReproError, RequestError, SimulationError
from . import artifacts
from .cache import ResultCache
from .experiments import REGISTRY, list_experiments, run_experiment
from .parallel import describe_point, replay_command, resolve_jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", nargs="?",
                        help="experiment name (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--threads", default=None,
                        help="comma-separated thread ladder (default: "
                             "the experiment's own)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload-size multiplier")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes for sweeps, at most one "
                             "per usable CPU (default: $REPRO_JOBS, else "
                             "CPU count; 1: no pool)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory "
                             "(default: $REPRO_CACHE_DIR, else "
                             "~/.cache/repro-commtm)")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write a Chrome/Perfetto trace-event JSON of "
                             "every simulated point (open in "
                             "ui.perfetto.dev). Implies REPRO_OBS=1 and "
                             "--no-cache")
    parser.add_argument("--report-json", metavar="FILE", default=None,
                        help="write the versioned run report "
                             "(repro-obs-report/2: per-point stats, "
                             "per-label table, abort attribution, hot "
                             "lines, host phases, harness phases). "
                             "Implies REPRO_OBS=1 and --no-cache")
    parser.add_argument("--backend", choices=["interp", "vector"],
                        default=None,
                        help="engine backend: the per-op interpreted "
                             "engine (interp, default) or the epoch "
                             "engine (vector). Equivalent to "
                             "REPRO_BACKEND. Cached results are "
                             "per-backend, so the cache stays usable")
    parser.add_argument("--sanitize", action="store_true",
                        help="check MESI+U coherence invariants after "
                             "every memory operation (slow; equivalent "
                             "to REPRO_SANITIZE=1). Implies --no-cache "
                             "so every point is actually simulated")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile; print the top 25 "
                             "functions by cumulative time to stderr")
    parser.add_argument("--profile-out", metavar="FILE", default=None,
                        help="also dump raw cProfile stats to FILE "
                             "(implies --profile)")
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        print("\n".join(list_experiments()))
        return 0

    # Make the harness's operational messages (e.g. the one-CPU
    # serial-fallback note) visible without configuring global logging.
    harness_log = logging.getLogger("repro.harness")
    if not harness_log.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("[harness] %(message)s"))
        harness_log.addHandler(handler)
        harness_log.setLevel(logging.INFO)

    if args.backend:
        # Resolved into every PointSpec by make_spec (and therefore into
        # dedupe keys and cache fingerprints), so unlike --sanitize the
        # cache stays valid: vector and interp points are distinct entries.
        # Setting the env var (rather than threading an argument through
        # the experiment registry) also covers any Machine an experiment
        # builds directly.
        from ..sim.vector import BACKEND_ENV

        os.environ[BACKEND_ENV] = args.backend

    if args.sanitize:
        # Sweeps hand the run-option variables to their pool workers, so
        # the flag reaches every point; cached results were never
        # sanitized, so skip them.
        from ..analysis.sanitizer import SANITIZE_ENV

        os.environ[SANITIZE_ENV] = "1"
        args.no_cache = True

    sink = None
    if args.trace_out or args.report_json:
        # Same propagation as --sanitize: the env var reaches sweep
        # workers, and cached results carry no obs payload, so skip them.
        from ..obs import OBS_ENV

        os.environ[OBS_ENV] = "1"
        args.no_cache = True
        sink = artifacts.install_sink()

    try:
        threads = None if args.threads is None else \
            [int(x) for x in args.threads.split(",") if x]
    except ValueError:
        print(f"error: --threads {args.threads!r} is not a comma-separated "
              f"list of integers", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    try:
        jobs = resolve_jobs(args.jobs)
    except SimulationError as exc:
        print(exc, file=sys.stderr)
        return 2

    profiler = None
    if args.profile or args.profile_out:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    from ..obs.hostprof import HARNESS_PROF

    t0 = HARNESS_PROF.start()
    try:
        report = run_experiment(args.experiment, threads=threads,
                                scale=args.scale, jobs=jobs, cache=cache)
    except Exception as exc:
        # run_points names the sweep point that raised (a failed verify,
        # a sanitizer finding, the livelock guard) as ``point_spec``.
        spec = getattr(exc, "point_spec", None)
        if isinstance(exc, KeyError) and spec is None:
            print(exc.args[0], file=sys.stderr)  # unknown experiment
            return 2
        if isinstance(exc, RequestError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if spec is None and not isinstance(exc, ReproError):
            raise
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if spec is not None:
            print(f"point: {describe_point(spec)}", file=sys.stderr)
            print(f"replay: {replay_command(spec)}", file=sys.stderr)
        return 1
    finally:
        HARNESS_PROF.stop("experiment", t0)
        if profiler is not None:
            import pstats

            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(25)
            if args.profile_out:
                stats.dump_stats(args.profile_out)
                print(f"[profile] raw stats written to {args.profile_out}",
                      file=sys.stderr)
    print(report)
    if sink is not None:
        try:
            if threads is None:
                threads = list(REGISTRY[args.experiment].threads)
            written = artifacts.write_outputs(
                args.experiment, sink.results, trace_out=args.trace_out,
                report_json=args.report_json, threads=threads,
                scale=args.scale)
            for path in written:
                print(f"[obs] wrote {path}", file=sys.stderr)
        finally:
            artifacts.clear_sink()
    if cache is not None:
        print(f"[cache] {cache.hits} hit(s), {cache.misses} miss(es) "
              f"in {cache.directory}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

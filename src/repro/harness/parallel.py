"""Parallel sweep execution.

Experiments are sweeps: the same workload builder simulated at many
(thread-count, system-flag) points, each on a fresh machine. The points are
fully independent, so the harness describes each one as a self-contained,
picklable :class:`PointSpec` and fans the specs over a persistent process
pool. Results are merged back *in spec order*, so a parallel sweep
produces byte-identical reports to a serial one — parallelism only changes
wall-clock time, never output.

Key design points:

* **Builders travel by reference.** A spec stores the workload builder as a
  ``"module:qualname"`` path, not a function object, so specs pickle
  cheaply and identically across processes. All registry builders
  (``repro.workloads.*.build``) are module-level and resolvable this way.
* **Dedupe before dispatch.** Identical specs (same canonical form) are
  simulated once and the result is shared between all requesting positions.
  This is what makes the 1-thread baseline of a speedup curve free when it
  also appears as a swept point.
* **Deterministic merge.** ``pool.map`` preserves input order; combined
  with the canonical dedupe the merge is a pure function of the spec list.
* **The pool is persistent and pays for itself.** Workers are created once
  per host process (``forkserver`` with the simulator preloaded, falling
  back to ``fork``, then ``spawn``) and reused across sweeps, so repeated
  sweeps never pay interpreter + import startup per task. Every worker
  runs a warmup initializer that imports the simulator stack at creation,
  so even ``spawn`` workers are hot before the first spec arrives;
  :func:`warm_pool` lets callers pay the whole pool startup outside any
  timed region. Sweeps smaller than :data:`SERIAL_THRESHOLD` points run
  serially instead — small sweeps never regress behind pool dispatch.
* **Adaptive chunk sizing.** Spec costs within one sweep routinely differ
  by an order of magnitude (an 8-thread contended point vs its 1-thread
  baseline), so fixed-size chunks leave workers idle behind the worst
  chunk. Specs are instead packed into one bucket per worker by
  longest-processing-time greedy assignment over a cost estimate
  (:func:`estimate_cost`), so each worker gets one balanced batch and the
  per-task dispatch/pickle overhead is paid ``jobs`` times, not once per
  point.
"""

from __future__ import annotations

import atexit
import dataclasses
import importlib
import logging
import os
import shlex
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..params import SystemConfig

log = logging.getLogger("repro.harness")

#: Environment variable consulted when ``jobs`` is not given explicitly.
JOBS_ENV = "REPRO_JOBS"

#: Sweeps with fewer uncached unique points than this run serially even
#: when ``jobs > 1``: dispatching a handful of points through the pool
#: costs more than it saves (on a single-CPU host an 8-point sweep took
#: 0.37s serial vs 0.93s under a cold 4-worker pool).
SERIAL_THRESHOLD = 10

#: Modules the forkserver imports *once* before any worker forks from it;
#: workers then inherit the fully-imported simulator for free. The list is
#: deliberately the harness entry point (which pulls in the whole
#: ``repro`` package transitively) rather than an exhaustive enumeration.
POOL_PRELOAD_MODULES = ["repro.harness.runner"]


def build_path(build: Callable) -> str:
    """``"module:qualname"`` path of a module-level workload builder.

    Raises :class:`SimulationError` for lambdas, closures, or anything else
    that does not round-trip through :func:`resolve_build` — those can still
    be run, just not through the parallel/cached layer.
    """
    module = getattr(build, "__module__", None)
    qualname = getattr(build, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise SimulationError(
            f"workload builder {build!r} is not addressable as "
            f"module:qualname (lambda or closure?)"
        )
    path = f"{module}:{qualname}"
    if resolve_build(path) is not build:
        raise SimulationError(
            f"workload builder {build!r} does not resolve back from {path!r}"
        )
    return path


def resolve_build(path: str) -> Callable:
    """Inverse of :func:`build_path`."""
    module, _, qualname = path.partition(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


@dataclass(frozen=True)
class PointSpec:
    """One experiment point, self-describing and picklable.

    Mirrors the keyword surface of :func:`repro.harness.runner.run_workload`;
    ``params`` holds the workload builder's keyword arguments as a sorted
    tuple of pairs so equal specs compare (and hash) equal.
    """

    build: str                      # "module:qualname" of the builder
    num_threads: int
    num_cores: int = 128
    commtm: Optional[bool] = None
    gather: Optional[bool] = None
    seed: int = 1
    base_config: Optional[SystemConfig] = None
    verify: bool = True
    params: Tuple[Tuple[str, object], ...] = ()
    #: Effective engine backend ("interp" or "vector"). Always resolved at
    #: spec creation (:func:`make_spec`), never None in a built spec, so an
    #: env-selected backend lands in the canonical form — and therefore in
    #: the result-cache fingerprint — and so pool workers run the backend
    #: the parent resolved, whatever their own environment says.
    backend: str = "interp"

    def canonical(self) -> str:
        """Deterministic textual form: dedupe key and cache-fingerprint
        input. Two specs with the same canonical form simulate the same
        point."""
        if self.base_config is None:
            config_repr = "None"
        else:
            config_repr = repr(dataclasses.asdict(self.base_config))
        param_repr = ";".join(f"{k}={v!r}" for k, v in self.params)
        return (
            f"build={self.build}|threads={self.num_threads}"
            f"|cores={self.num_cores}|commtm={self.commtm}"
            f"|gather={self.gather}|seed={self.seed}"
            f"|verify={self.verify}|config={config_repr}"
            f"|params={param_repr}|backend={self.backend}"
        )


def make_spec(build: Callable, num_threads: int, *,
              num_cores: int = 128, commtm: Optional[bool] = None,
              gather: Optional[bool] = None, seed: int = 1,
              base_config: Optional[SystemConfig] = None,
              verify: bool = True, backend: Optional[str] = None,
              **params) -> PointSpec:
    """Spec for one :func:`run_workload`-style invocation.

    The backend is resolved *here*, as a ``Machine`` resolves it
    (explicit argument beats ``REPRO_BACKEND`` beats the interpreted
    default), so the spec — and with it the dedupe key and the
    result-cache fingerprint — always names the engine that will actually
    run the point.
    """
    from ..core.machine import resolve_backend

    return PointSpec(
        build=build_path(build),
        num_threads=num_threads,
        num_cores=num_cores,
        commtm=commtm,
        gather=gather,
        seed=seed,
        base_config=base_config,
        verify=verify,
        params=tuple(sorted(params.items())),
        backend=resolve_backend(backend),
    )


def run_point(spec: PointSpec):
    """Simulate one point. Top-level so pool workers can import it."""
    from .runner import run_workload  # deferred: runner imports us

    return run_workload(
        resolve_build(spec.build), spec.num_threads,
        num_cores=spec.num_cores, commtm=spec.commtm, gather=spec.gather,
        seed=spec.seed, base_config=spec.base_config, verify=spec.verify,
        backend=spec.backend,
        **dict(spec.params),
    )


def _run_named(spec: PointSpec):
    """:func:`run_point`, naming the point in whatever it raises: the spec
    is attached to the exception as ``point_spec``. The type is kept, so
    callers' ``except`` clauses still match, and the attribute survives
    the pickling that carries a pool worker's exception to the parent."""
    try:
        return run_point(spec)
    except Exception as exc:
        if getattr(exc, "point_spec", None) is None:
            exc.point_spec = spec
        raise


def describe_point(spec: PointSpec) -> str:
    """One line naming a point: builder, threads, seed and backend."""
    return (f"{spec.build} threads={spec.num_threads} seed={spec.seed} "
            f"backend={spec.backend}")


def replay_command(spec: PointSpec) -> str:
    """A shell line that re-runs ``spec`` alone from the repository root.
    ``PointSpec``'s repr evaluates under the line's two imports."""
    code = ("from repro.params import *; "
            "from repro.harness.parallel import PointSpec, run_point; "
            f"run_point({spec!r})")
    if set(code) & set('"$`\\!'):
        return f"PYTHONPATH=src python -c {shlex.quote(code)}"
    return f'PYTHONPATH=src python -c "{code}"'


def estimate_cost(spec: PointSpec) -> int:
    """Relative cost estimate for one spec, for load balancing only.

    Simulated work scales with how many ops each thread issues times how
    many threads issue them, so ``total_ops * num_threads`` (with the
    micro default of 1000 when the builder has no such knob) tracks the
    real wall-clock ordering well enough for bucket packing. Estimates
    only need to get the *ranking* roughly right — the LPT packing in
    :func:`partition_specs` is what turns them into balanced buckets.
    """
    params = dict(spec.params)
    total_ops = params.get("total_ops") or 1000
    return max(1, int(total_ops) * max(1, spec.num_threads))


def partition_specs(specs: Sequence[PointSpec],
                    buckets: int) -> List[List[int]]:
    """Pack spec indices into at most ``buckets`` cost-balanced buckets.

    Longest-processing-time greedy: visit specs in descending estimated
    cost, always appending to the currently lightest bucket. Returns the
    non-empty buckets; each inner list holds indices into ``specs`` in
    descending-cost order, so every worker starts with its heaviest point
    while the others are still being dispatched.
    """
    buckets = max(1, min(buckets, len(specs)))
    loads = [0] * buckets
    out: List[List[int]] = [[] for _ in range(buckets)]
    order = sorted(range(len(specs)),
                   key=lambda i: estimate_cost(specs[i]), reverse=True)
    for i in order:
        b = loads.index(min(loads))
        out[b].append(i)
        loads[b] += estimate_cost(specs[i])
    return [bucket for bucket in out if bucket]


def run_bucket(specs: Sequence[PointSpec]) -> List:
    """Simulate a bucket of specs in order. Top-level for pool pickling."""
    return [_run_named(spec) for spec in specs]


def _available_cpus() -> int:
    """CPUs this process may actually run on — the scheduler affinity
    mask where the platform exposes one (containers and cgroup quotas
    shrink it below ``os.cpu_count()``), else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else
    ``os.cpu_count()``. Always at least 1."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise SimulationError(
                    f"{JOBS_ENV}={env!r} is not an integer"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    return max(1, int(jobs))


# --- persistent worker pool -------------------------------------------------
#
# One pool per host process, created on first parallel sweep and reused for
# every later one (rebuilt only if a different ``jobs`` is requested).
# ``forkserver`` + preload means worker startup is a bare fork of an
# already-imported interpreter; cold spawn startup is paid at most once.

_pool = None
_pool_jobs = 0


def _main_reimport_safe() -> bool:
    """Can ``forkserver``/``spawn`` workers re-import ``__main__``?

    Both start methods replay the parent's ``__main__`` in the worker
    (``multiprocessing.spawn.prepare``). That replay crashes — and the
    pool hangs — when the parent was fed from stdin or another
    non-importable pseudo-file, so those parents must use ``fork``.
    """
    import sys

    main = sys.modules.get("__main__")
    if main is None or getattr(main, "__spec__", None) is not None:
        return True  # ``python -m ...``: re-imported by module name
    path = getattr(main, "__file__", None)
    if path is None:
        return True  # interactive: no main replay is attempted
    return os.path.exists(path)


def _pool_context():
    """Best multiprocessing context available on this platform."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    reimport_ok = _main_reimport_safe()
    if "forkserver" in methods and reimport_ok:
        ctx = multiprocessing.get_context("forkserver")
        ctx.set_forkserver_preload(list(POOL_PRELOAD_MODULES))
        return ctx
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    if not reimport_ok:
        raise SimulationError(
            "parallel sweeps need an importable __main__ module on "
            "platforms without fork; run with jobs=1"
        )
    return multiprocessing.get_context("spawn")


def _worker_warmup() -> None:
    """Pool initializer: import the simulator stack in the worker at
    creation time, so the first real spec never pays import cost. A no-op
    under ``fork``/``forkserver`` (the modules arrive pre-imported); under
    ``spawn`` this moves the cold import out of the first sweep."""
    for module in POOL_PRELOAD_MODULES:
        importlib.import_module(module)


def get_pool(jobs: int):
    """The persistent worker pool, (re)built for ``jobs`` workers."""
    global _pool, _pool_jobs
    if _pool is not None and _pool_jobs != jobs:
        shutdown_pool()
    if _pool is None:
        _pool = _pool_context().Pool(processes=jobs,
                                     initializer=_worker_warmup)
        _pool_jobs = jobs
    return _pool


def warm_pool(jobs: Optional[int] = None) -> None:
    """Create the pool for ``jobs`` workers and wait until every worker
    is alive and warm. Benchmarks and interactive callers use this to pay
    the whole one-time pool startup outside their timed region; sweeps
    after it observe only steady-state dispatch cost. Each warmup task
    blocks briefly on a rendezvous so one worker cannot drain them all
    while its siblings are still booting."""
    workers = min(resolve_jobs(jobs), _available_cpus())
    if workers <= 1:
        return  # sweeps will run serially; there is nothing to warm
    pool = get_pool(workers)
    pool.map(_warm_task, [0.02] * workers, 1)


def _warm_task(hold_seconds: float) -> int:
    """Warmup task: hold the worker just long enough that the remaining
    warmup tasks land on its siblings. Top-level for pool pickling."""
    import time

    time.sleep(hold_seconds)
    return os.getpid()


def shutdown_pool() -> None:
    """Tear down the persistent pool (no-op when none exists)."""
    global _pool, _pool_jobs
    if _pool is not None:
        _pool.terminate()
        _pool.join()
        _pool = None
        _pool_jobs = 0


atexit.register(shutdown_pool)


def run_points(specs: Sequence[PointSpec], *, jobs: Optional[int] = None,
               cache=None) -> List:
    """Simulate every spec; return results aligned with ``specs``.

    Identical specs are simulated once. With ``cache`` (a
    :class:`~repro.harness.cache.ResultCache`), previously simulated points
    are loaded from disk and fresh ones are stored. ``jobs > 1`` fans the
    uncached unique specs over the persistent worker pool in chunks —
    unless fewer than :data:`SERIAL_THRESHOLD` points remain, in which
    case they run serially. The output is identical to ``jobs=1`` by
    construction.
    """
    jobs = resolve_jobs(jobs)

    # Dedupe while preserving first-seen order.
    unique: Dict[str, PointSpec] = {}
    positions: List[str] = []
    for spec in specs:
        key = spec.canonical()
        positions.append(key)
        if key not in unique:
            unique[key] = spec

    results: Dict[str, object] = {}
    todo: List[Tuple[str, PointSpec]] = []
    for key, spec in unique.items():
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            results[key] = hit
        else:
            todo.append((key, spec))

    if todo:
        todo_specs = [spec for _, spec in todo]
        n = len(todo_specs)
        # Dispatch width adapts to the CPUs this process can actually
        # use: ``jobs`` is a ceiling, not a promise to oversubscribe.
        # Fanning simulator processes out past the affinity mask only
        # adds context-switch and IPC cost on top of the same serial
        # work (the recorded sweep16 regression was exactly that — a
        # 4-worker pool on a one-CPU host losing to the serial loop).
        workers = min(jobs, _available_cpus())
        if workers > 1 and n > 1 and n >= SERIAL_THRESHOLD:
            pool = get_pool(workers)
            # Adaptive chunk sizing: one cost-balanced bucket per worker
            # (LPT over the spec cost estimates) instead of fixed-size
            # chunks — per-task dispatch overhead is paid ``workers``
            # times, not once per point, and no worker idles behind a
            # chunk that happened to collect the expensive points. The
            # dispatching process is a worker too: it simulates the
            # heaviest bucket itself while the pool drains the rest, so
            # that bucket's specs and results never cross a process
            # boundary at all and an otherwise-idle parent core joins
            # the sweep.
            buckets = partition_specs(todo_specs, workers)
            async_out = pool.map_async(
                run_bucket,
                [[todo_specs[i] for i in bucket] for bucket in buckets[1:]],
                1)
            local_out = run_bucket([todo_specs[i] for i in buckets[0]])
            nested = [local_out] + (async_out.get() if buckets[1:] else [])
            outputs = [None] * n
            for bucket, bucket_out in zip(buckets, nested):
                for i, result in zip(bucket, bucket_out):
                    outputs[i] = result
        else:
            if jobs > 1 and workers == 1 and n > 1:
                log.info(
                    "jobs=%d requested but only one CPU is available to "
                    "this process: running serially (an oversubscribed "
                    "pool re-runs the same serial work plus dispatch "
                    "overhead)", jobs,
                )
            elif jobs > 1 and n > 1:
                log.info(
                    "sweep has %d uncached point(s), below the serial "
                    "threshold of %d: running serially (pool dispatch "
                    "would cost more than it saves)", n, SERIAL_THRESHOLD,
                )
            outputs = [_run_named(spec) for spec in todo_specs]
        for (key, spec), result in zip(todo, outputs):
            results[key] = result
            if cache is not None:
                cache.put(spec, result)

    ordered = [results[key] for key in positions]
    # Offer every produced/loaded result to the artifact sink (a no-op
    # unless the CLI armed one for --trace-out/--report-json).
    from . import artifacts
    artifacts.notify(ordered)
    return ordered


__all__ = [
    "JOBS_ENV",
    "SERIAL_THRESHOLD",
    "POOL_PRELOAD_MODULES",
    "PointSpec",
    "build_path",
    "resolve_build",
    "make_spec",
    "run_point",
    "describe_point",
    "replay_command",
    "estimate_cost",
    "partition_specs",
    "run_bucket",
    "resolve_jobs",
    "get_pool",
    "warm_pool",
    "shutdown_pool",
    "run_points",
]

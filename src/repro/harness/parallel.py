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
* **Deterministic merge.** Results are placed back by position, whatever
  order the workers finish in; combined with the canonical dedupe the
  merge is a pure function of the spec list.
* **The pool is persistent.** Workers are created once per host process
  and reused across sweeps. Where the platform offers ``fork`` they are
  forks of the dispatching process, which has already imported the
  simulator and the sweep's builder modules, so a new pool returns its
  first result milliseconds after it is created and a driver script needs
  no ``if __name__ == "__main__":`` guard. Elsewhere they are ``spawn``
  workers, which boot an interpreter, import the simulator with their
  first task and replay ``__main__``, so a script there needs the guard.
  :func:`warm_pool` lets callers pay the pool's start-up outside any
  timed region.
* **Self-scheduled dispatch.** Every sweep of two or more uncached points
  goes to the pool when two or more CPUs are usable, heaviest estimate
  (:func:`estimate_cost`) first, as tasks of ``ceil(n / (4 * workers))``
  consecutive points. Each worker takes the next task from the pool's
  shared queue as soon as it finishes one, so a wrong estimate costs at
  most one task of imbalance. The dispatching process only waits.
* **Run options travel with the tasks.** A worker keeps the environment
  the dispatcher had when the pool started, so every task carries the
  dispatching process's :data:`~repro.core.machine.OPTION_ENVS` as they
  are now, and the worker applies them before it builds the machine.
* **A dead worker fails the sweep.** A worker killed outright (the OOM
  killer, a signal) breaks the pool; the sweep raises
  :class:`SimulationError` naming every point whose result had not come
  back, and the next sweep builds a fresh pool.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import importlib
import logging
import os
import shlex
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import RequestError, SimulationError
from ..params import SystemConfig

log = logging.getLogger("repro.harness")

#: Environment variable consulted when ``jobs`` is not given explicitly.
JOBS_ENV = "REPRO_JOBS"


def build_path(build: Callable) -> str:
    """``"module:qualname"`` path of a module-level workload builder.

    Raises :class:`SimulationError` for lambdas, closures, or anything else
    that does not round-trip through :func:`resolve_build`: a sweep cannot
    run them, though :func:`~repro.harness.runner.run_workload` can run
    one point of any builder.
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

    A point runs 1 to ``num_cores`` threads (the base config's cores when
    one is given); any other count raises :class:`RequestError` here,
    before a sweep that holds the point simulates anything.
    """
    from ..core.machine import resolve_backend

    cores = num_cores if base_config is None else base_config.num_cores
    if not 1 <= num_threads <= cores:
        raise RequestError(
            f"{num_threads} threads on a {cores}-core machine: a point "
            f"runs 1 to {cores} threads")
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
    """Relative cost estimate for one spec, for ordering the pool's queue.

    Simulated work scales with how many ops each thread issues times how
    many threads issue them, so ``total_ops * num_threads`` (with the
    micro default of 1000 when the builder has no such knob) ranks the
    heavy points first. The ranking only decides which points start
    first; workers pull the rest as they free up.
    """
    params = dict(spec.params)
    total_ops = params.get("total_ops") or 1000
    return max(1, int(total_ops) * max(1, spec.num_threads))


def _run_under(env: Tuple[Tuple[str, Optional[str]], ...],
               spec: PointSpec):
    """:func:`_run_named` under the dispatching process's run options.
    ``env`` pairs each of :data:`~repro.core.machine.OPTION_ENVS` with its
    value there, None for unset; a worker applies it first, since it
    otherwise keeps the environment the dispatcher had when the pool
    started."""
    for name, value in env:
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    return _run_named(spec)


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
# every later one (rebuilt only if a different ``jobs`` is requested or a
# worker died).

_pool = None
_pool_jobs = 0


def _main_reimport_safe() -> bool:
    """Can ``spawn`` workers re-import ``__main__``?

    A spawned worker replays the parent's ``__main__``
    (``multiprocessing.spawn.prepare``). That replay crashes — and the
    pool hangs — when the parent was fed from stdin or another
    non-importable pseudo-file.
    """
    main = sys.modules.get("__main__")
    if main is None or getattr(main, "__spec__", None) is not None:
        return True  # ``python -m ...``: re-imported by module name
    path = getattr(main, "__file__", None)
    if path is None:
        return True  # interactive: no main replay is attempted
    return os.path.exists(path)


def _pool_context():
    """``fork`` where the platform offers it, else ``spawn``.

    A forked worker starts with everything the dispatcher has imported,
    so it runs its first task without booting an interpreter. The fork
    happens while the harness runs no thread: a fork-context
    ``ProcessPoolExecutor`` forks all of its workers before it starts its
    manager thread, the harness starts no thread of its own, and a pool
    is rebuilt only after :func:`shutdown_pool` has joined the old one's
    manager thread.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    if not _main_reimport_safe():
        raise SimulationError(
            "parallel sweeps need an importable __main__ module on "
            "platforms without fork; run with jobs=1"
        )
    return multiprocessing.get_context("spawn")


def get_pool(jobs: int):
    """The persistent worker pool, (re)built for ``jobs`` workers."""
    global _pool, _pool_jobs
    if _pool is not None and _pool_jobs != jobs:
        shutdown_pool()
    if _pool is None:
        from concurrent.futures import ProcessPoolExecutor

        # A forked worker inherits the dispatcher's profiler hook (the
        # CLI's --profile); clearing it keeps workers at full speed.
        _pool = ProcessPoolExecutor(jobs, mp_context=_pool_context(),
                                    initializer=sys.setprofile,
                                    initargs=(None,))
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
    list(get_pool(workers).map(_warm_task, [0.02] * workers))


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
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None
        _pool_jobs = 0


atexit.register(shutdown_pool)


def run_points(specs: Sequence[PointSpec], *, jobs: Optional[int] = None,
               cache=None) -> List:
    """Simulate every spec; return results aligned with ``specs``.

    Identical specs are simulated once. With ``cache`` (a
    :class:`~repro.harness.cache.ResultCache`), previously simulated points
    are loaded from disk and fresh ones are stored. Two or more uncached
    unique specs run on the persistent worker pool (:func:`_run_pooled`)
    when ``jobs`` and the usable CPUs both exceed one. The output is
    identical to ``jobs=1`` by construction.
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
        if workers > 1 and n > 1:
            outputs = _run_pooled(todo_specs, workers)
        else:
            if jobs > 1 and workers == 1 and n > 1:
                log.info(
                    "jobs=%d requested but only one CPU is available to "
                    "this process: running serially (an oversubscribed "
                    "pool re-runs the same serial work plus dispatch "
                    "overhead)", jobs,
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


def _run_pooled(specs: Sequence[PointSpec], workers: int) -> List:
    """Simulate ``specs`` on the pool; return results aligned with them.

    The specs go out heaviest estimate first (ties in spec order) as tasks
    of ``ceil(n / (4 * workers))`` consecutive points, the chunk size
    ``multiprocessing.Pool.map`` picks by default: one point per task for
    a figure's sweep, a dozen for 96 four-millisecond seed points, whose
    task round trip would otherwise cost a quarter of their run.
    """
    from concurrent.futures.process import BrokenProcessPool

    from ..core.machine import OPTION_ENVS

    order = sorted(range(len(specs)), key=lambda i: estimate_cost(specs[i]),
                   reverse=True)
    env = tuple((name, os.environ.get(name)) for name in OPTION_ENVS)
    outputs: List = [None] * len(specs)
    done = 0
    try:
        for result in get_pool(workers).map(
                functools.partial(_run_under, env),
                [specs[i] for i in order],
                chunksize=-(-len(specs) // (4 * workers))):
            outputs[order[done]] = result
            done += 1
    except BrokenProcessPool as exc:
        shutdown_pool()  # unusable now; the next sweep builds a fresh one
        missing = [specs[i] for i in order[done:]]
        error = SimulationError(
            f"a pool worker died (killed by a signal or out of memory) "
            f"before {len(missing)} point(s) came back: "
            + "; ".join(describe_point(spec) for spec in missing))
        if len(missing) == 1:
            error.point_spec = missing[0]
        raise error from exc
    return outputs


__all__ = [
    "JOBS_ENV",
    "PointSpec",
    "build_path",
    "resolve_build",
    "make_spec",
    "run_point",
    "describe_point",
    "replay_command",
    "estimate_cost",
    "resolve_jobs",
    "get_pool",
    "warm_pool",
    "shutdown_pool",
    "run_points",
]

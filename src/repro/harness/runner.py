"""Experiment runner.

The paper's figures report speedups relative to the single-thread runtime
of the *baseline* HTM, at thread counts 1-128 on the Table I system.
:func:`speedup_curve` reproduces that protocol: one baseline single-thread
run fixes the denominator, then each (system, thread-count) point is a
fresh machine running the same workload builder.

Sweeps (:func:`speedup_curve`, :func:`collect_points`) accept ``jobs`` and
``cache`` and route through :mod:`repro.harness.parallel`: points are
described as picklable specs, deduplicated, optionally loaded from the
on-disk :class:`~repro.harness.cache.ResultCache`, and fanned over a
process pool. The merge is deterministic — serial and parallel runs of the
same sweep produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional

from ..core.machine import Machine, MachineResult
from ..errors import SimulationError
from ..params import SystemConfig
from ..sim.stats import Stats
from . import artifacts
from .parallel import make_spec, run_points


@dataclass
class ExperimentResult:
    """One simulated data point."""

    name: str
    num_threads: int
    commtm: bool
    cycles: int
    stats: Stats
    info: dict = field(default_factory=dict)


def _make_config(num_cores: int, commtm: Optional[bool],
                 gather: Optional[bool], seed: int,
                 base_config: Optional[SystemConfig]) -> SystemConfig:
    """Build the run's config. ``commtm``/``gather`` of None inherit the
    base config's setting (or the defaults, True, without one)."""
    if base_config is not None:
        overrides = {"seed": seed}
        if commtm is not None:
            overrides["commtm_enabled"] = commtm
        if gather is not None:
            overrides["gather_enabled"] = gather
        return base_config.replace(**overrides)
    return SystemConfig(
        num_cores=num_cores,
        commtm_enabled=True if commtm is None else commtm,
        gather_enabled=True if gather is None else gather,
        seed=seed,
    )


def run_built(machine: Machine, built, verify: bool = True) -> ExperimentResult:
    """Run an instantiated workload on its machine."""
    prof = machine.obs.hostprof if machine.obs is not None else None
    t0 = prof.start() if prof is not None else 0
    result: MachineResult = machine.run(built.bodies)
    if prof is not None:
        prof.stop("simulate", t0)
        t0 = prof.start()
    if verify and built.verify is not None:
        built.verify(machine)
    info = dict(built.info)
    if machine.obs is not None:
        prof.stop("verify", t0)
        # Plain-dict snapshot: it must survive pickling through the sweep
        # worker pool back to the parent (see harness.artifacts).
        info["obs"] = machine.obs.payload()
    return ExperimentResult(
        name=built.name,
        num_threads=len(built.bodies),
        commtm=machine.config.commtm_enabled,
        cycles=result.cycles,
        stats=machine.stats,
        info=info,
    )


def run_workload(build: Callable, num_threads: int, *,
                 num_cores: int = 128, commtm: Optional[bool] = None,
                 gather: Optional[bool] = None, seed: int = 1,
                 base_config: Optional[SystemConfig] = None,
                 verify: bool = True, backend: Optional[str] = None,
                 **params) -> ExperimentResult:
    """Build and run one workload configuration on a fresh machine.

    ``backend`` of None defers to ``REPRO_BACKEND``, then the interpreted
    default (see :func:`repro.core.machine.resolve_backend`)."""
    config = _make_config(num_cores, commtm, gather, seed, base_config)
    b0 = perf_counter_ns()
    machine = Machine(config, backend=backend)
    b1 = perf_counter_ns()
    built = build(machine, num_threads, **params)
    if machine.obs is not None:
        # Construction phases predate the machine's profiler only in
        # spirit — the Observer (and its HostProfiler) is created inside
        # Machine.__init__, so both deltas are accountable after the fact.
        prof = machine.obs.hostprof
        prof.add("build_machine", b1 - b0)
        prof.add("build_workload", perf_counter_ns() - b1)
    return run_built(machine, built, verify=verify)


def _run_calls(build: Callable, calls: List[dict], jobs, cache) \
        -> List[ExperimentResult]:
    """Run many ``run_workload``-style calls (dicts of its keyword
    arguments, ``num_threads`` included) through the parallel layer.

    Builders that cannot be addressed as ``module:qualname`` (closures,
    lambdas) fall back to in-process serial execution — still deduplicating
    identical calls, so e.g. the reference run is never repeated.
    """
    try:
        specs = [make_spec(build, **call) for call in calls]
    except SimulationError:
        memo: Dict[str, ExperimentResult] = {}
        results = []
        for call in calls:
            key = repr(sorted(call.items(), key=lambda kv: kv[0]))
            if key not in memo:
                memo[key] = run_workload(build, **call)
            results.append(memo[key])
        artifacts.notify(results)
        return results
    return run_points(specs, jobs=jobs, cache=cache)


def speedup_curve(build: Callable, thread_counts: Iterable[int], *,
                  num_cores: int = 128, systems: Dict[str, dict] = None,
                  seed: int = 1, base_config: Optional[SystemConfig] = None,
                  verify: bool = True, jobs: Optional[int] = None,
                  cache=None, **params) -> Dict[str, Dict[int, float]]:
    """Speedup series per system, normalized to 1-thread baseline cycles.

    ``systems`` maps a series name to flags for :func:`run_workload`
    (default: the paper's two systems, CommTM and the baseline HTM).
    Returns ``{series: {threads: speedup}}``.

    The reference run and every (series, thread-count) point go through one
    deduplicated batch: when the baseline series itself contains the
    1-thread point, it is simulated once and reused as the denominator.
    ``jobs``/``cache`` control parallelism and on-disk caching.
    """
    if systems is None:
        systems = {
            "CommTM": {"commtm": True},
            "Baseline": {"commtm": False},
        }
    thread_counts = list(thread_counts)
    common = dict(num_cores=num_cores, seed=seed, base_config=base_config,
                  verify=verify)

    calls = [dict(common, num_threads=1, commtm=False, gather=None,
                  **params)]
    for flags in systems.values():
        merged = {**flags, **params}
        commtm = merged.pop("commtm", None)
        gather = merged.pop("gather", None)
        for threads in thread_counts:
            calls.append(dict(common, num_threads=threads, commtm=commtm,
                              gather=gather, **merged))

    results = _run_calls(build, calls, jobs, cache)
    base_cycles = results[0].cycles

    curves: Dict[str, Dict[int, float]] = {}
    it = iter(results[1:])
    for series in systems:
        curves[series] = {}
        for threads in thread_counts:
            curves[series][threads] = base_cycles / next(it).cycles
    return curves


def collect_points(build: Callable, thread_counts: Iterable[int], *,
                   num_cores: int = 128, commtm: Optional[bool] = None,
                   gather: Optional[bool] = None, seed: int = 1,
                   base_config: Optional[SystemConfig] = None,
                   verify: bool = True, jobs: Optional[int] = None,
                   cache=None, **params) -> List[ExperimentResult]:
    """Full :class:`ExperimentResult` per thread count (for breakdowns)."""
    calls = [
        dict(num_threads=threads, num_cores=num_cores, commtm=commtm,
             gather=gather, seed=seed, base_config=base_config,
             verify=verify, **params)
        for threads in thread_counts
    ]
    return _run_calls(build, calls, jobs, cache)

"""Experiment runner.

The paper's figures report speedups relative to the single-thread runtime
of the *baseline* HTM, at thread counts 1-128 on the Table I system.
:func:`speedup_curve` reproduces that protocol: one baseline single-thread
run fixes the denominator, then each (system, thread-count) point is a
fresh machine running the same workload builder.

:func:`speedup_curve` accepts ``jobs`` and ``cache`` and routes through
:mod:`repro.harness.parallel`: points are described as picklable specs,
deduplicated, optionally loaded from the on-disk
:class:`~repro.harness.cache.ResultCache`, and fanned over a process pool.
The merge is deterministic — serial and parallel runs of the same sweep
produce identical reports. Its builder must therefore be addressable as
``module:qualname``: a lambda or closure raises ``build_path``'s
:class:`~repro.errors.SimulationError` (:func:`run_workload` runs one
point of any builder).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, Optional

from ..core.machine import Machine, MachineResult
from ..params import SystemConfig
from ..sim.stats import Stats
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
    An empty ``thread_counts`` simulates nothing, not even the reference.
    ``jobs``/``cache`` control parallelism and on-disk caching.
    """
    if systems is None:
        systems = {
            "CommTM": {"commtm": True},
            "Baseline": {"commtm": False},
        }
    thread_counts = list(thread_counts)
    if not thread_counts:
        return {series: {} for series in systems}
    common = dict(num_cores=num_cores, seed=seed, base_config=base_config,
                  verify=verify)

    specs = [make_spec(build, 1, commtm=False, gather=None, **common,
                       **params)]
    for flags in systems.values():
        merged = {**flags, **params}
        commtm = merged.pop("commtm", None)
        gather = merged.pop("gather", None)
        specs += [make_spec(build, threads, commtm=commtm, gather=gather,
                            **common, **merged)
                  for threads in thread_counts]

    results = run_points(specs, jobs=jobs, cache=cache)
    base_cycles = results[0].cycles

    curves: Dict[str, Dict[int, float]] = {}
    it = iter(results[1:])
    for series in systems:
        curves[series] = {}
        for threads in thread_counts:
            curves[series][threads] = base_cycles / next(it).cycles
    return curves

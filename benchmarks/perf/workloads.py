"""The benchmark's four workloads, driven through the harness's public API.

``micro`` and ``apps`` regenerate the paper's figures the way
``python -m repro.harness FIG`` does: one ``run_experiment`` call per
registered figure, with the registry's parameters, against the pass's
fresh :class:`PassCache`. The seed reaches them through :func:`seeded`,
which replaces the two names the registry calls through (``speedup_curve``
and ``make_spec``) for the length of one figure. Every point's result is
read back from the cache afterwards, so the benchmark keeps no copy of the
figures' protocol. ``checks`` and ``seeds`` build their own points with
``make_spec`` and run them through ``run_point`` and ``run_points``.

``run_pass(name, ctx)`` regenerates a workload once and returns an
:class:`Outcome` for the driver to score; ``setup(specs)`` constructs the
points a pass simulated without running them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional

from repro.analysis.sanitizer import SANITIZE_ENV
from repro.core.machine import Machine
from repro.harness import experiments, parallel
from repro.harness.cache import ResultCache
from repro.harness.confidence import confidence_interval
from repro.obs import OBS_ENV
from repro.params import SystemConfig
from repro.sim.stats import WastedCause
from repro.workloads.apps import boruvka, genome, kmeans, ssca2, vacation
from repro.workloads.micro import counter, linked_list, refcount, topk

APPS = {"boruvka": boruvka, "kmeans": kmeans, "ssca2": ssca2,
        "genome": genome, "vacation": vacation}
_APP_OF_BUILD = {module.build: app for app, module in APPS.items()}


def app_build(machine, num_threads, app, input_seed=1, **params):
    """Builder for one application with its input generator seeded.

    ``make_spec`` reserves ``seed`` for ``SystemConfig.seed``, so the input
    seed travels as its own builder parameter."""
    return APPS[app].build(machine, num_threads, seed=input_seed, **params)


def seed_point(build, seed: int, kwargs: dict):
    """``(build, kwargs)`` for one point at ``seed``: the seed goes to
    ``SystemConfig.seed`` and, for an application, to its input
    generator (through :func:`app_build`)."""
    kwargs = dict(kwargs, seed=seed)
    app = _APP_OF_BUILD.get(build)
    if app is not None:
        kwargs.update(app=app, input_seed=seed)
        build = app_build
    return build, kwargs


# --- the pass's cache and outcome ---------------------------------------------

def point_key(spec) -> str:
    """Backend-independent identity of a point, for cross-pass parity."""
    canonical = replace(spec, backend="any").canonical()
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def digest(result) -> str:
    """Hash of everything simulated about a point: cycles and
    ``Stats.comparable()``."""
    payload = json.dumps([result.cycles, result.stats.comparable()],
                         sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def label(spec) -> str:
    params = dict(spec.params)
    name = params.get("app") or spec.build.rpartition(":")[0].split(".")[-1]
    system = "commtm" if spec.commtm is not False else "baseline"
    return f"{name} t={spec.num_threads} {system} seed={spec.seed}"


def known_divergence(spec) -> bool:
    """Whether a point's interp/vector mismatch is the known kmeans bug.

    From its second iteration on, CommTM kmeans under the vector backend
    is not always bit-identical to the interpreted engine: with the
    registry's parameters, ``run_workload(kmeans.build, 32, commtm=True,
    seed=4, num_points=512, clusters=8, iterations=3)`` simulates 26903
    cycles interpreted and 26783 vectorized (seeds 4, 6 and 7 of 1-10
    diverge at 8, 32 or 128 threads). Until the simulator is fixed, the
    parity gate reports such a mismatch as a known failure (``xfail``)
    instead of failing the run; every other mismatch fails it."""
    return (dict(spec.params).get("app") == "kmeans"
            and spec.commtm is not False)


class PassCache(ResultCache):
    """The pass's fresh result cache. It keeps every result it stores, so
    the pass reads each simulated point back from it, and checks every
    hit against the point it stored."""

    def __init__(self, directory):
        super().__init__(directory)
        #: canonical form -> (spec, result), in store order
        self.stored: Dict[str, tuple] = {}
        self.hit_checks = 0
        self.bad_hits: List[str] = []

    def put(self, spec, result) -> None:
        super().put(spec, result)
        self.stored[spec.canonical()] = (spec, result)

    def get(self, spec):
        result = super().get(spec)
        if result is not None:
            self.hit_checks += 1
            stored = self.stored.get(spec.canonical())
            if stored is None or digest(stored[1]) != digest(result):
                self.bad_hits.append(label(spec))
        return result

    def result(self, spec):
        return self.stored[spec.canonical()][1]


@dataclass
class PassContext:
    seed: int
    quick: bool
    jobs: int
    cache: PassCache


@dataclass
class Outcome:
    """What one pass did: attempted points and checks, failures, and the
    simulated points' specs, digests and statistics."""

    points: int = 0
    checks: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    #: keys of points whose interp/vector parity is a known bug
    known: List[str] = field(default_factory=list)
    #: failed checks that are the known bug (see ``known_divergence``)
    xfail: List[str] = field(default_factory=list)
    specs: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def record(self, spec, result) -> None:
        key = point_key(spec)
        if key in self.digests:
            return
        self.digests[key] = digest(result)
        self.specs.append(spec)
        self.stats.append(result.stats)
        if known_divergence(spec):
            self.known.append(key)

    def check(self, name: str, ok: bool, known: bool = False) -> None:
        """Count a check; a failed one fails the pass, or with ``known``
        is listed in ``xfail``."""
        self.checks += 1
        if ok:
            return
        if known:
            self.xfail.append(name)
        else:
            self.fail(name)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def absorb(self, cache: PassCache) -> None:
        """Count the points the pass simulated into the cache, and its
        hits, each checked against the point it re-reads."""
        for spec, result in cache.stored.values():
            self.points += 1
            self.record(spec, result)
        self.checks += cache.hit_checks
        for name in cache.bad_hits:
            self.fail(f"cache hit differs from the simulated point: {name}")


# --- registered figures --------------------------------------------------------

@dataclass
class Drawn:
    """What one registered figure drew: its speedup curves, or the points
    of its breakdown."""

    curves: Optional[dict] = None
    specs: list = field(default_factory=list)


@contextmanager
def seeded(seed: int):
    """Make the experiment registry draw its figures at ``seed``.

    The registry's figures call ``speedup_curve`` and ``make_spec`` through
    their module's globals; both are replaced, for the length of the
    block, by versions that seed every point (:func:`seed_point`) and
    record what the figure drew."""
    drawn = Drawn()
    real_curve = experiments.speedup_curve
    real_spec = experiments.make_spec

    def speedup_curve(build, thread_counts, **kwargs):
        build, kwargs = seed_point(build, seed, kwargs)
        drawn.curves = real_curve(build, thread_counts, **kwargs)
        return drawn.curves

    def make_spec(build, num_threads, **kwargs):
        build, kwargs = seed_point(build, seed, kwargs)
        spec = real_spec(build, num_threads, **kwargs)
        drawn.specs.append(spec)
        return spec

    experiments.speedup_curve = speedup_curve
    experiments.make_spec = make_spec
    try:
        yield drawn
    finally:
        experiments.speedup_curve = real_curve
        experiments.make_spec = real_spec


def regenerate(ctx: PassContext, out: Outcome, name: str, threads,
               scale: float = 1.0) -> Optional[Drawn]:
    """Run one registered figure at the pass's seed, as the harness CLI
    does. A figure that raises counts as one failed operation."""
    with seeded(ctx.seed) as drawn:
        try:
            experiments.run_experiment(name, threads=list(threads),
                                       scale=scale, jobs=ctx.jobs,
                                       cache=ctx.cache)
        except Exception as exc:  # a failed figure is a measured outcome
            out.points += 1
            out.fail(f"{name}: {exc!r}")
            return None
    return drawn


# --- micro ---------------------------------------------------------------------

MICRO_FIGURES = ("fig09", "fig10", "fig12b", "fig13", "fig14")
MICRO_LADDER = (1, 8, 32, 128)
#: Refcount's 128-thread points vary with the seed: at MICRO_SCALE, CommTM
#: with gathers simulates 4.8k-5.7k cycles on seeds 1-4 and 9-10, 7.3k-8.5k
#: on seeds 5-7 and 13.8k on seed 8, and its host time follows. Fig. 10
#: stops at 32 threads. The costly 128-thread points of the other figures
#: (the counter, linked-list and top-K baselines' abort storms) vary by at
#: most 16% in cycles over those seeds.
FIG10_LADDER = (1, 8, 32)
#: Share of the registry's operation counts (``run_experiment``'s scale).
MICRO_SCALE = 0.1
QUICK_MICRO_SCALE = 0.01
QUICK_LADDER = (1, 4)


def _micro_ladder(fig: str, quick: bool):
    if quick:
        return QUICK_LADDER
    return FIG10_LADDER if fig == "fig10" else MICRO_LADDER


#: The shape assertions of ``benchmarks/test_fig*.py``, at the ladder top.
MICRO_SHAPES = {
    "fig09": lambda c, top: [
        ("CommTM > 0.6*top", c["CommTM"][top] > 0.6 * top),
        ("Baseline < 2", c["Baseline"][top] < 2.0)],
    "fig10": lambda c, top: [
        ("w/ gather > 2x w/o gather",
         c["CommTM w/ gather"][top] > 2 * c["CommTM w/o gather"][top]),
        ("w/ gather > 3x Baseline",
         c["CommTM w/ gather"][top] > 3 * c["Baseline"][top]),
        ("Baseline < 3", c["Baseline"][top] < 3.0)],
    "fig12b": lambda c, top: [
        ("CommTM > 5x Baseline", c["CommTM"][top] > 5 * c["Baseline"][top]),
        ("Baseline < 2", c["Baseline"][top] < 2.0)],
    "fig13": lambda c, top: [
        ("CommTM > 0.6*top", c["CommTM"][top] > 0.6 * top),
        ("Baseline > 1", c["Baseline"][top] > 1.0),
        ("CommTM > 3x Baseline", c["CommTM"][top] > 3 * c["Baseline"][top])],
    "fig14": lambda c, top: [
        ("CommTM > 0.5*top", c["CommTM"][top] > 0.5 * top),
        ("Baseline < 3", c["Baseline"][top] < 3.0)],
}
#: Assertions that describe the registry's full operation counts and fail
#: at MICRO_SCALE on some seeds (1-40): fig10's baseline reaches 3.2 at 32
#: threads (7 seeds), and fig13's baseline at 128 threads, with about 8
#: operations per thread, stays below 1 (32 seeds). Every check kept held
#: on seeds 1-40 with at least 50% to spare.
MICRO_SKIPPED = {("fig10", "Baseline < 3"), ("fig13", "Baseline > 1")}


def micro_shapes(fig: str, curves: dict, top: int, full: bool):
    """``(name, ok)`` of the figure's shape assertions; ``full`` keeps the
    ones that only hold at the registry's operation counts."""
    return [(name, ok) for name, ok in MICRO_SHAPES[fig](curves, top)
            if full or (fig, name) not in MICRO_SKIPPED]


def micro_pass(ctx: PassContext, out: Outcome) -> None:
    scale = QUICK_MICRO_SCALE if ctx.quick else MICRO_SCALE
    for fig in MICRO_FIGURES:
        ladder = _micro_ladder(fig, ctx.quick)
        drawn = regenerate(ctx, out, fig, ladder, scale)
        if drawn is None or ctx.quick:
            continue
        for name, ok in micro_shapes(fig, drawn.curves, max(ladder), False):
            out.check(f"{fig}: {name}", ok)


# --- apps ----------------------------------------------------------------------

#: Figs. 16-19 as the registry lists them (every app, Fig. 19 for boruvka
#: and kmeans), at the registry's input sizes.
APP_FIGURES = tuple(name for name in experiments.REGISTRY
                    if name.split("-")[0] in ("fig16", "fig17", "fig18",
                                              "fig19"))
#: At the registry's input sizes a 32-thread rung costs about as much as
#: the rest of the figures together, so the ladder stops at 8 threads.
APP_LADDER = (1, 8)
QUICK_APPS = ("kmeans", "ssca2")
QUICK_APP_LADDER = (1,)

#: Breakdown figure -> its view of a point's Stats.
BREAKDOWNS = {
    "fig17": lambda s: s.cycle_breakdown_totals(),
    "fig18": lambda s: s.wasted_breakdown(),
    "fig19": lambda s: s.get_breakdown(),
}
RAW = WastedCause.READ_AFTER_WRITE.value


def fig16_shapes(app: str, curves: dict, top: int, full: bool):
    """test_fig16's assertions. At the benchmark's 8-thread top kmeans'
    gap spans 1.34-1.70 over seeds 1-40, so its "gap > 1.5" is left to the
    full regeneration (``full``); every other assertion held on those
    seeds, genome's "gap > 1.5" with the least to spare (1.56)."""
    gap = curves["CommTM"][top] / curves["Baseline"][top]
    if app == "ssca2":
        checks = [("gap in (0.9, 2)", 0.9 < gap < 2.0)]
    else:
        checks = [("CommTM >= Baseline", gap >= 1.0)]
    if app == "genome" or (full and app == "kmeans"):
        checks.append(("gap > 1.5", gap > 1.5))
    return checks


def breakdown_shapes(fig: str, base: dict, comm: dict):
    """test_fig17-19's assertions on the top-rung rows; at 8 threads they
    held for every app on seeds 1-40."""
    if fig == "fig17":
        return [("CommTM aborted <= Baseline",
                 comm["tx_aborted"] <= base["tx_aborted"])]
    if fig == "fig18":
        total = sum(base.values())
        return [("Baseline waste mostly RaW",
                 total == 0 or base[RAW] >= 0.5 * total),
                ("CommTM wastes less", sum(comm.values()) <= total)]
    return [("CommTM fewer L3 GETs", sum(comm.values()) < sum(base.values())),
            ("GETU only under CommTM", base["GETU"] == 0 and comm["GETU"] > 0)]


def apps_pass(ctx: PassContext, out: Outcome) -> None:
    ladder = QUICK_APP_LADDER if ctx.quick else APP_LADDER
    top = max(ladder)
    for name in APP_FIGURES:
        fig, _, app = name.partition("-")
        if ctx.quick and app not in QUICK_APPS:
            continue
        drawn = regenerate(ctx, out, name, ladder)
        if drawn is None or ctx.quick:
            continue
        if fig == "fig16":
            checks = fig16_shapes(app, drawn.curves, top, False)
        else:
            rows = {(s.commtm, s.num_threads):
                    BREAKDOWNS[fig](ctx.cache.result(s).stats)
                    for s in drawn.specs}
            checks = breakdown_shapes(fig, rows[False, top], rows[True, top])
        for check, ok in checks:
            out.check(f"{name}: {check}", ok)


# --- checks --------------------------------------------------------------------

#: {counter, refcount, linked list 50/50, kmeans} x {CommTM, baseline}.
CHECK_POINTS = (
    (counter.build, dict(total_ops=200)),
    (refcount.build, dict(total_ops=200)),
    (linked_list.build, dict(total_ops=100, enqueue_fraction=0.5,
                             prefill=160)),
    (kmeans.build, dict(num_points=32, clusters=8, iterations=3)),
)
CHECK_THREADS = 8
QUICK_CHECK_THREADS = 2
#: Each point runs plain, sanitized and observed, interleaved per point.
LEGS = (("plain", None), ("sanitized", SANITIZE_ENV), ("observed", OBS_ENV))


@contextmanager
def _env(name):
    if name is None:
        yield
        return
    os.environ[name] = "1"
    try:
        yield
    finally:
        del os.environ[name]


def _check_specs(seed: int, quick: bool):
    threads = QUICK_CHECK_THREADS if quick else CHECK_THREADS
    specs = []
    for build, params in CHECK_POINTS:
        for commtm in (True, False):
            point_build, kwargs = seed_point(build, seed,
                                             dict(params, commtm=commtm))
            specs.append(parallel.make_spec(point_build, threads, **kwargs))
    return specs


def checks_pass(ctx: PassContext, out: Outcome) -> None:
    walls = {leg: 0.0 for leg, _ in LEGS}
    for spec in _check_specs(ctx.seed, ctx.quick):
        results = {}
        for leg, env in LEGS:
            out.points += 1
            t0 = perf_counter()
            try:
                with _env(env):
                    results[leg] = parallel.run_point(spec)
            except Exception as exc:  # verify/sanitizer failures land here
                out.fail(f"{label(spec)} {leg}: {exc!r}")
            walls[leg] += perf_counter() - t0
        if "plain" not in results:
            continue
        out.record(spec, results["plain"])
        plain = digest(results["plain"])
        # The sanitizer delegates each operation to the interpreted
        # engine, so under the vector backend it meets the known bug too.
        known = spec.backend == "vector" and known_divergence(spec)
        for leg in ("sanitized", "observed"):
            if leg in results:
                out.check(f"{label(spec)}: {leg} equals plain",
                          digest(results[leg]) == plain, known)
    out.extra["sanitize_x"] = walls["sanitized"] / walls["plain"]
    out.extra["obs_x"] = walls["observed"] / walls["plain"]


# --- seeds ---------------------------------------------------------------------

#: Six small configurations swept over many seeds at 16 threads, the
#: paper's multi-seed protocol (Sec. V). kmeans keeps the registry's
#: clusters and iterations on fewer points.
SEED_CONFIGS = (
    ("counter CommTM", counter.build, True, dict(total_ops=160)),
    ("counter Baseline", counter.build, False, dict(total_ops=160)),
    ("refcount CommTM", refcount.build, True, dict(total_ops=160)),
    ("kmeans CommTM", kmeans.build, True,
     dict(num_points=32, clusters=8, iterations=3)),
    ("kmeans Baseline", kmeans.build, False,
     dict(num_points=32, clusters=8, iterations=3)),
    ("topk CommTM", topk.build, True, dict(total_ops=160, k=16)),
)
SEEDS_PER_CONFIG = 16
QUICK_SEEDS_PER_CONFIG = 3
SEED_THREADS = 16


def _sub_seeds(seed: int, quick: bool):
    n = QUICK_SEEDS_PER_CONFIG if quick else SEEDS_PER_CONFIG
    return [n * (seed - 1) + j + 1 for j in range(n)]


def seeds_pass(ctx: PassContext, out: Outcome) -> None:
    sub_seeds = _sub_seeds(ctx.seed, ctx.quick)
    specs = []
    for _, build, commtm, params in SEED_CONFIGS:
        for s in sub_seeds:
            point_build, kwargs = seed_point(build, s,
                                             dict(params, commtm=commtm))
            specs.append(parallel.make_spec(point_build, SEED_THREADS,
                                            **kwargs))
    if ctx.jobs > 1:
        parallel.warm_pool(ctx.jobs)
    try:
        results = parallel.run_points(specs, jobs=ctx.jobs, cache=ctx.cache)
    except Exception as exc:  # a failed batch is a measured outcome
        out.points += 1
        out.fail(f"seeds batch: {exc!r}")
        return
    n = len(sub_seeds)
    out.extra["ci"] = {
        name: str(confidence_interval([r.cycles
                                       for r in results[i * n:(i + 1) * n]]))
        for i, (name, *_) in enumerate(SEED_CONFIGS)}


# --- entry points ----------------------------------------------------------------

PASSES = {"micro": micro_pass, "apps": apps_pass, "checks": checks_pass,
          "seeds": seeds_pass}


def run_pass(name: str, ctx: PassContext) -> Outcome:
    out = Outcome()
    PASSES[name](ctx, out)
    out.absorb(ctx.cache)
    return out


def setup(specs) -> float:
    """Seconds to construct every point's machine and workload, never
    running one."""
    t0 = perf_counter()
    for spec in specs:
        machine = Machine(SystemConfig(
            num_cores=spec.num_cores,
            commtm_enabled=spec.commtm is not False,
            gather_enabled=spec.gather is not False,
            seed=spec.seed), backend=spec.backend)
        parallel.resolve_build(spec.build)(machine, spec.num_threads,
                                           **dict(spec.params))
    return perf_counter() - t0


def spec_to_json(spec) -> dict:
    return dict(build=spec.build, num_threads=spec.num_threads,
                num_cores=spec.num_cores, commtm=spec.commtm,
                gather=spec.gather, seed=spec.seed,
                params=[list(kv) for kv in spec.params],
                backend=spec.backend)


def spec_from_json(data: dict):
    data = dict(data, params=tuple(tuple(kv) for kv in data["params"]))
    return parallel.PointSpec(**data)


# --- the paper's 128-thread values -----------------------------------------------

#: CommTM speedup at 128 threads (the first series of each figure).
PAPER_MICRO = {"fig09": 115, "fig10": 39, "fig12b": 55, "fig13": 116,
               "fig14": 124}
#: CommTM / baseline speedup at 128 threads.
PAPER_APPS = {"boruvka": 1.35, "kmeans": 3.4, "ssca2": 1.002, "genome": 3.0,
              "vacation": 1.45}
PAPER_LADDER = (1, 8, 32, 128)


def paper_logerr(measured: dict, paper: dict) -> float:
    """Mean ``|ln(measured / paper)|`` over the paper's values."""
    return statistics.fmean(abs(math.log(measured[k] / paper[k]))
                            for k in paper)


def micro_at(curves: dict, top: int) -> float:
    return next(iter(curves.values()))[top]


def gap_at(curves: dict, top: int) -> float:
    return curves["CommTM"][top] / curves["Baseline"][top]


def paper_pass(ctx: PassContext, out: Outcome) -> None:
    """The micro figures and Fig. 16 at the registry's full sizes and
    ladder, with test_fig*.py's assertions, scored against the paper."""
    top = max(PAPER_LADDER)
    micro, apps = {}, {}
    for fig in PAPER_MICRO:
        drawn = regenerate(ctx, out, fig, PAPER_LADDER)
        if drawn is not None:
            micro[fig] = micro_at(drawn.curves, top)
            for name, ok in micro_shapes(fig, drawn.curves, top, True):
                out.check(f"{fig}: {name}", ok)
    for app in PAPER_APPS:
        drawn = regenerate(ctx, out, f"fig16-{app}", PAPER_LADDER)
        if drawn is not None:
            apps[app] = gap_at(drawn.curves, top)
            for name, ok in fig16_shapes(app, drawn.curves, top, True):
                out.check(f"fig16-{app}: {name}", ok)
    out.extra.update(micro_speedup_128=micro, apps_gap_128=apps)
    if len(micro) == len(PAPER_MICRO):
        out.extra["micro_paper_logerr"] = paper_logerr(micro, PAPER_MICRO)
    if len(apps) == len(PAPER_APPS):
        out.extra["apps_paper_logerr"] = paper_logerr(apps, PAPER_APPS)

"""Experiment registry: every table and figure, runnable by name.

``python -m repro.harness fig09`` regenerates one experiment;
``python -m repro.harness --list`` enumerates them. The pytest-benchmark
suite in ``benchmarks/`` wraps the same definitions with shape assertions;
this module is the direct, human-driven entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..sim.stats import WastedCause
from ..workloads.micro import counter, linked_list, ordered_put, refcount, topk
from ..workloads.apps import boruvka, genome, kmeans, ssca2, vacation
from .parallel import make_spec, run_points
from .runner import speedup_curve
from .report import render_speedup_chart, render_stacked_bars


@dataclass
class Experiment:
    name: str
    description: str
    #: (threads, scale, jobs, cache) -> report
    run: Callable[..., str]


def _speedup_experiment(build, title, systems=None, **params):
    def run(threads: List[int], scale: float, jobs=None, cache=None) -> str:
        kwargs = dict(params)
        if "total_ops" in kwargs:
            kwargs["total_ops"] = max(1, int(kwargs["total_ops"] * scale))
        curves = speedup_curve(build, threads, num_cores=128,
                               systems=systems, jobs=jobs, cache=cache,
                               **kwargs)
        return render_speedup_chart(curves, title)
    return run


def _app_speedup(build, title, **params):
    # Same protocol as the microbenchmark figures: speedup_curve shares
    # the 1-thread baseline run between the denominator and the swept
    # Baseline series instead of simulating it twice.
    def run(threads: List[int], scale: float, jobs=None, cache=None) -> str:
        curves = speedup_curve(build, threads, num_cores=128, jobs=jobs,
                               cache=cache, **params)
        return render_speedup_chart(curves, title)
    return run


#: Stacked-bar column sets per breakdown kind. Fixed up front (not derived
#: from the first simulated row) so an empty thread ladder still renders.
_BREAKDOWN_COLUMNS = {
    "cycles": ("non_tx", "tx_committed", "tx_aborted"),
    "wasted": tuple(cause.value for cause in WastedCause),
    "gets": ("GETS", "GETX", "GETU"),
}


def _breakdown_experiment(build, title, kind, **params):
    def run(threads: List[int], scale: float, jobs=None, cache=None) -> str:
        columns = _BREAKDOWN_COLUMNS[kind]
        specs, labels = [], []
        for t in threads:
            for commtm in (False, True):
                labels.append(f"{'CommTM' if commtm else 'Base'}@{t}")
                specs.append(make_spec(build, t, num_cores=128,
                                       commtm=commtm, **params))
        results = run_points(specs, jobs=jobs, cache=cache)
        rows = {}
        for label, result in zip(labels, results):
            if kind == "cycles":
                rows[label] = result.stats.cycle_breakdown_totals()
            elif kind == "wasted":
                rows[label] = result.stats.wasted_breakdown()
            else:
                rows[label] = result.stats.get_breakdown()
        return render_stacked_bars(rows, columns, title)
    return run


REGISTRY: Dict[str, Experiment] = {}


def _register(name: str, description: str, run: Callable) -> None:
    REGISTRY[name] = Experiment(name, description, run)


_register("fig09", "counter increments speedup",
          _speedup_experiment(counter.build, "Fig. 9 — counter",
                              total_ops=10_000))
_register("fig10", "reference counting speedup (gather ablated)",
          _speedup_experiment(
              refcount.build, "Fig. 10 — refcount",
              systems={
                  "CommTM w/ gather": {"commtm": True},
                  "CommTM w/o gather": {"commtm": True, "use_gather": False},
                  "Baseline": {"commtm": False},
              },
              total_ops=16_000))
_register("fig12a", "linked list, 100% enqueues",
          _speedup_experiment(linked_list.build, "Fig. 12a — enqueues",
                              total_ops=2_000, enqueue_fraction=1.0))
_register("fig12b", "linked list, 50/50 mix",
          _speedup_experiment(linked_list.build, "Fig. 12b — mixed",
                              total_ops=2_000, enqueue_fraction=0.5,
                              prefill=5_120))
_register("fig13", "ordered puts",
          _speedup_experiment(ordered_put.build, "Fig. 13 — ordered puts",
                              total_ops=10_000))
_register("fig14", "top-K insertion",
          _speedup_experiment(topk.build, "Fig. 14 — top-K",
                              total_ops=10_000, k=100))

_APP_PARAMS = {
    "boruvka": (boruvka.build, dict(num_nodes=192)),
    "kmeans": (kmeans.build, dict(num_points=512, clusters=8, iterations=3)),
    "ssca2": (ssca2.build, dict(scale=8, edge_factor=4)),
    "genome": (genome.build, dict(num_segments=2048, gene_length=1024)),
    "vacation": (vacation.build, dict(num_tasks=1536, relations=128)),
}

for _app, (_build, _params) in _APP_PARAMS.items():
    _register(f"fig16-{_app}", f"{_app} speedup",
              _app_speedup(_build, f"Fig. 16 — {_app}", **_params))
    _register(f"fig17-{_app}", f"{_app} cycle breakdown",
              _breakdown_experiment(_build, f"Fig. 17 — {_app}", "cycles",
                                    **_params))
    _register(f"fig18-{_app}", f"{_app} wasted-cycle breakdown",
              _breakdown_experiment(_build, f"Fig. 18 — {_app}", "wasted",
                                    **_params))

for _app in ("boruvka", "kmeans"):
    _build, _params = _APP_PARAMS[_app]
    _register(f"fig19-{_app}", f"{_app} GET-request breakdown",
              _breakdown_experiment(_build, f"Fig. 19 — {_app}", "gets",
                                    **_params))


def run_experiment(name: str, threads: List[int] = None,
                   scale: float = 1.0, jobs: int = None,
                   cache=None) -> str:
    """Run one registered experiment.

    ``jobs`` (worker processes) and ``cache`` (a
    :class:`~repro.harness.cache.ResultCache`) are forwarded to the sweep
    layer: ``jobs`` defaults to ``REPRO_JOBS``, else the CPU count, and
    ``cache`` to none.
    """
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown experiment {name!r}; known: {known}")
    threads = threads if threads is not None else [1, 8, 32, 128]
    return REGISTRY[name].run(threads, scale, jobs=jobs, cache=cache)


def list_experiments() -> List[str]:
    return [f"{e.name:<16} {e.description}" for e in REGISTRY.values()]

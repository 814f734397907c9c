"""Per-layer attribution for traced passes: boundary spans and a sampler.

Spans are recorded from the benchmark's side of each layer boundary, by
replacing the attribute the harness calls through (``install_spans``);
nothing in ``src/`` changes. They stay in memory and are written as Chrome
trace-event JSON when the run ends. A span's self time is its duration
minus the time its child spans cover.

The sampler is a stdlib thread that reads the main thread's stack at about
1 kHz and charges the interval since its last sample to the layer of the
innermost ``repro`` frame, so builtins, stdlib and numpy count against the
repro code that called them. Time with no repro frame on the stack (the
benchmark itself, interpreter start-up) goes to ``bench``.

Importing this module imports nothing from ``repro``, so a traced child can
start the sampler before the simulator loads.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter, perf_counter_ns
from typing import Dict, List, NamedTuple, Optional

#: The repository's layers, and the bucket for time outside all of them.
LAYERS = ("harness", "core", "labels", "workloads", "sim", "vector",
          "coherence", "htm", "analysis", "obs")
BENCH = "bench"

#: Module prefix -> layer; the first matching prefix wins.
_PREFIXES = (
    ("repro.harness", "harness"),
    ("repro.core.labels", "labels"),
    ("repro.core", "core"),
    ("repro.params", "core"),
    ("repro.errors", "core"),
    ("repro.workloads", "workloads"),
    ("repro.datatypes", "workloads"),
    ("repro.runtime", "workloads"),
    ("repro.sim.vector", "vector"),
    ("repro.sim", "sim"),
    ("repro.coherence", "coherence"),
    ("repro.mem", "coherence"),
    ("repro.htm", "htm"),
    ("repro.analysis", "analysis"),
    ("repro.obs", "obs"),
    ("repro", "core"),
)

#: Switch interval while sampling, so the sampler thread gets the
#: interpreter lock about as often as it asks for it.
SWITCH_INTERVAL = 5e-4


def layer_of(module: str) -> Optional[str]:
    """Layer of a module name, or None outside ``repro``."""
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def frame_layer(frame) -> str:
    """Layer charged for a stack: its innermost ``repro`` frame's."""
    while frame is not None:
        layer = layer_of(frame.f_globals.get("__name__", ""))
        if layer is not None:
            return layer
        frame = frame.f_back
    return BENCH


class Span(NamedTuple):
    name: str
    layer: str
    start_ns: int
    end_ns: int
    id: int
    parent: int      # 0 for a root span
    point: int       # machine constructed most recently, 0 before any


class SpanRecorder:
    """Nested spans of one thread, kept in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self.point = 0
        self._stack: List[tuple] = []   # (id, name) of open spans
        self._next = 1

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append((sid, name))
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(name, layer, start, end, sid, parent,
                                   self.point))

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)
        return traced

    def open_span(self) -> str:
        """Name of the innermost open span ("" when none); safe to call
        from the sampler thread."""
        try:
            return self._stack[-1][1]
        except IndexError:
            return ""


def self_times(spans: List[Span]) -> Dict[int, int]:
    """Span id -> duration minus the durations of its direct children."""
    covered: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent:
            covered[span.parent] += span.end_ns - span.start_ns
    return {span.id: span.end_ns - span.start_ns - covered[span.id]
            for span in spans}


def span_totals(spans: List[Span], *, self_time=False) -> Dict[str, float]:
    """Seconds per span name: total duration, or self time."""
    own = self_times(spans) if self_time else None
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        ns = own[span.id] if own else span.end_ns - span.start_ns
        out[span.name] += ns / 1e9
    return dict(out)


def chrome_events(spans: List[Span], pid: int, process: str) -> List[dict]:
    """Spans as Chrome trace events (microseconds from the first span)."""
    origin = min((s.start_ns for s in spans), default=0)
    events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
               "args": {"name": process}}]
    for s in spans:
        events.append({
            "name": s.name, "cat": s.layer, "ph": "X", "pid": pid, "tid": 1,
            "ts": (s.start_ns - origin) / 1000,
            "dur": (s.end_ns - s.start_ns) / 1000,
            "args": {"id": s.id, "parent": s.parent, "point": s.point},
        })
    return events


class Sampler:
    """Charges host time to layers by sampling one thread's stack."""

    def __init__(self, recorder: SpanRecorder, interval: float = 1e-3):
        self.recorder = recorder
        self.interval = interval
        #: layer -> seconds
        self.seconds: Dict[str, float] = defaultdict(float)
        #: "span/layer" -> seconds, each sample tagged with the open span
        self.by_span: Dict[str, float] = defaultdict(float)
        self.samples = 0
        self._target = threading.get_ident()
        self._stop = threading.Event()
        self._thread = None
        self._last = 0.0
        self._switch = sys.getswitchinterval()

    def start(self) -> None:
        sys.setswitchinterval(SWITCH_INTERVAL)
        self._last = perf_counter()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perf-sampler")
        self._thread.start()

    def _charge(self, layer: str, now: float) -> None:
        dt = now - self._last
        self._last = now
        self.seconds[layer] += dt
        self.by_span[f"{self.recorder.open_span()}/{layer}"] += dt

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._target)
            self._charge(frame_layer(frame), perf_counter())
            self.samples += 1

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch)
        self._charge(BENCH, perf_counter())


#: Spans that start the worker pool; ``harness.pool_start_s`` is their
#: outermost total.
POOL_SPANS = ("warm_pool", "get_pool")


def install_spans(recorder: SpanRecorder) -> None:
    """Record a span at every layer boundary the harness crosses: machine
    construction, workload build, ``Machine.run``, ``verify``, the result
    cache, ``run_points``, ``speedup_curve``, the report renderers and the
    worker pool's start. Each name is replaced where the harness looks it
    up: the experiment registry imported several by name."""
    from repro.core import machine
    from repro.harness import cache, experiments, parallel, report, runner

    base = machine.Machine

    class TracedMachine(base):
        def __init__(self, *args, **kwargs):
            recorder.point += 1
            recorder.call("Machine", "core", super().__init__, *args,
                          **kwargs)

    runner.Machine = TracedMachine
    base.run = recorder.wrap(base.run, "Machine.run", "sim")
    run_workload = runner.run_workload

    # run_point imports run_workload from the runner at call time.
    def traced_run_workload(build, *args, **kwargs):
        return run_workload(_traced_builder(recorder, build), *args,
                            **kwargs)
    runner.run_workload = traced_run_workload
    for method in ("get", "put"):
        setattr(cache.ResultCache, method,
                recorder.wrap(getattr(cache.ResultCache, method),
                              f"ResultCache.{method}", "harness"))
    traced = recorder.wrap(parallel.run_points, "run_points", "harness")
    parallel.run_points = runner.run_points = experiments.run_points = traced
    runner.speedup_curve = experiments.speedup_curve = recorder.wrap(
        runner.speedup_curve, "speedup_curve", "harness")
    for name in ("render_speedup_chart", "render_stacked_bars"):
        traced = recorder.wrap(getattr(report, name), "render", "harness")
        setattr(report, name, traced)
        setattr(experiments, name, traced)
    for name in POOL_SPANS:
        setattr(parallel, name, recorder.wrap(getattr(parallel, name), name,
                                              "harness"))


def _traced_builder(recorder: SpanRecorder, build):
    def traced(machine, *args, **kwargs):
        built = recorder.call("build", "workloads", build, machine, *args,
                              **kwargs)
        if built.verify is not None:
            built.verify = recorder.wrap(built.verify, "verify", "workloads")
        return built
    return traced

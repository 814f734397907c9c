"""Measure one workload as a series of child processes, then score it.

Each pass runs in a fresh child (``child.py``) spawned by this driver, one
at a time, with the ``REPRO_*`` knobs scrubbed from its environment and a
fresh result cache under ``.perf/tmp``. Its wall time runs from spawn to
exit. A round is one child of each kind. After the first, children
follow in the same order while the ``--seconds`` budget leaves room for
the next, and each metric is the median over its kind's children, so
that a stretch of a few seconds in which the host runs slow moves one
child and not the metric.

Host times are reported in reference seconds. On a shared host the speed
of interpreted code drifts with the neighbours' load, by up to 2x for
seconds to hours, and that drift, not the simulator, would set the spread
between runs. So while a child runs, a canary thread of the driver, on
the child's CPU, times a fixed unit of interpreted work every 20 ms, and
the child's times are scaled by ``REFERENCE_CANARY_S`` over the canary's
mean. The timed unit runs right after an untimed one, so its time does
not depend on how much of the cache the child it shares the CPU with has
taken (``canary_unit``). Records keep the raw walls and the scale
factors, and print the raw medians next to the metrics.

Untraced runs give the end-to-end metrics; ``--trace 1`` runs give the
per-layer ones. The metric names, units and bounds are those declared in
``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

from . import tracing

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".perf"
SCHEMA = "repro-perf/2"

#: A run must end within 180 s; leave room to score and print.
CAP_SECONDS = 165

#: About what ``canary_unit()`` takes on an idle 2-vCPU Xeon VM under
#: CPython 3.11, so that reference seconds read close to the wall seconds
#: measured there while the host is quiet.
REFERENCE_CANARY_S = 2.2e-4

#: Knobs that change what a pass measures. No child inherits them.
SCRUBBED = ("REPRO_BACKEND", "REPRO_OBS", "REPRO_SANITIZE",
            "REPRO_NO_FASTPATH", "REPRO_NO_RUNAHEAD", "REPRO_JOBS",
            "REPRO_SERIAL_THRESHOLD", "REPRO_CACHE_DIR")


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed point)."""


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


JOBS = min(2, available_cpus())


@dataclass(frozen=True)
class Kind:
    """One kind of child process."""

    name: str
    child: str = "pass"          # child --kind: warm, setup, pass or paper
    backend: str = "interp"
    jobs: int = 1
    traced: bool = False


WARM = Kind("warm", child="warm")
SETUP = Kind("setup", child="setup")
INTERP = Kind("interp")
VECTOR = Kind("vector", backend="vector")
JOBS2 = Kind("jobs2", jobs=JOBS)
INTERP_T = Kind("interp+trace", traced=True)
VECTOR_T = Kind("vector+trace", backend="vector", traced=True)
JOBS2_T = Kind("jobs2+trace", jobs=JOBS, traced=True)
PAPER = Kind("paper", child="paper")

#: The setup child constructs the points the run's first pass reported.
RUN_KINDS = (INTERP, SETUP, JOBS2, VECTOR)
TRACE_KINDS = (INTERP, INTERP_T, VECTOR_T, JOBS2_T)

#: Diagnostics kept in the result record but not declared in
#: BENCHMARK.json: each exists on one workload only or is 0 on a correct
#: run. name -> (unit, better, bound); a bound of None compares exactly.
EXTRA_METRICS = {
    "fail_frac": ("ratio", "lower", None),
    "sanitize_x": ("ratio", "lower", 0.10),
    "obs_x": ("ratio", "lower", 0.10),
}

#: Per-layer boundary spans: metric -> span name (total duration).
BOUNDARY_SPANS = {
    "core.machine_init_s": "Machine",
    "workloads.build_s": "build",
    "sim.run_s": "Machine.run",
    "workloads.verify_s": "verify",
    "harness.cache_get_s": "ResultCache.get",
    "harness.cache_put_s": "ResultCache.put",
    "harness.render_s": "render",
}


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(backend: str, tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in SCRUBBED and not k.startswith("REPRO_BENCH_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Anything that falls back to the default cache directory lands in the
    # pass's own directory, never in ~/.cache/repro-commtm.
    env["XDG_CACHE_HOME"] = str(tmp)
    if backend == "vector":
        env["REPRO_BACKEND"] = "vector"
    return env


def _group_alive(pgid: int) -> bool:
    """Whether a process group has a member that has not exited (zombies
    waiting for init to reap them have)."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _reap_group(pgid: int) -> None:
    """Wait for every process left in a child's session (the forkserver,
    the resource tracker) to end; kill them if they linger."""
    for sig in (None, signal.SIGKILL):
        if sig is not None:
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                return
        for _ in range(100):
            if not _group_alive(pgid):
                return
            time.sleep(0.02)
    raise BenchError(f"processes of group {pgid} survived SIGKILL")


def _unit() -> None:
    """A fixed unit of interpreted work: integer arithmetic on locals, then
    a few hundred small lists allocated and freed, on a working set of a
    few kilobytes."""
    x = acc = 0
    for _ in range(1000):
        x = (x * 1103515245 + 12345) & 0x7FFF
        acc += x & 255
    keep = []
    for i in range(400):
        keep.append([i, i + 1, (i, i)])
        if len(keep) > 32:
            keep.pop(0)


def canary_unit() -> float:
    """CPU seconds of one ``_unit`` on the calling thread (waiting for the
    CPU does not count). An untimed unit runs first and brings back into
    the cache what the child sharing the CPU evicted, so the child's
    footprint does not reach the timed one: next to a child alternating
    every 0.25 s between a loop on locals and random reads over a list of
    8M integers, the timed unit took 0.98-0.99 times as long in the
    second phase, an unwarmed one 1.02-1.06 times."""
    _unit()
    t0 = time.thread_time()
    _unit()
    return time.thread_time() - t0


def busy_jiffies() -> dict:
    """CPU -> clock ticks it has spent busy so far (user, nice, system,
    irq and softirq time in /proc/stat); empty where there is none."""
    busy = {}
    try:
        lines = Path("/proc/stat").read_text().splitlines()
    except OSError:
        return busy
    for fields in map(str.split, lines):
        if fields and fields[0].startswith("cpu") and fields[0][3:].isdigit():
            user, nice, system, _, _, irq, softirq = map(int, fields[1:8])
            busy[int(fields[0][3:])] = user + nice + system + irq + softirq
    return busy


class Canary:
    """Times ``canary_unit`` every PERIOD seconds on each of ``cpus``
    while a child runs, to measure how fast the host ran meanwhile."""

    PERIOD = 0.02

    def __init__(self, cpus):
        #: cpu -> unit times
        self.samples = {cpu: [] for cpu in cpus}
        #: cpu -> ticks it was busy while the canary ran
        self.busy = {}
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._run, args=(cpu,),
                                          daemon=True) for cpu in cpus]

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})     # this thread only
        while not self._stop.wait(self.PERIOD):
            self.samples[cpu].append(canary_unit())

    def __enter__(self):
        self._busy0 = busy_jiffies()
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for thread in self._threads:
            thread.join()
        busy = busy_jiffies()
        self.busy = {cpu: busy.get(cpu, 0) - self._busy0.get(cpu, 0)
                     for cpu in self.samples}
        for samples in self.samples.values():
            if not samples:
                samples.append(canary_unit())

    def speed(self) -> float:
        """Reference seconds per second measured meanwhile. Per CPU the
        mean, not the median: a slow stretch lengthens the child in
        proportion to its duration, and the mean of evenly spaced samples
        does too. Each CPU's speed counts in proportion to the time it was
        busy, so that a pooled child that runs serially is timed at the
        speed of the CPU it ran on, not of the idle one."""
        weights = {cpu: max(self.busy.get(cpu, 0), 0) for cpu in self.samples}
        if not any(weights.values()):
            weights = dict.fromkeys(self.samples, 1)
        return sum(w * REFERENCE_CANARY_S / statistics.fmean(self.samples[c])
                   for c, w in weights.items()) / sum(weights.values())


class Runner:
    """Spawns the children of one benchmark run under a shared deadline."""

    def __init__(self, workload: str, seed: int, quick: bool):
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.deadline = perf_counter() + CAP_SECONDS
        self.work = WORK / "tmp" / str(os.getpid())
        #: the points of the run's first pass, for the setup children
        self.specs = self.work / "specs.json"
        self._n = 0

    def child(self, kind: Kind) -> dict:
        """Run one child; returns its report with the driver's ``wall``
        (spawn to exit, seconds) and ``speed`` (the canary's reference
        seconds per second meanwhile) added. A single-process child is
        pinned to its canary's CPU; a pooled one gets a canary on every
        CPU."""
        self._n += 1
        tmp = self.work / str(self._n)
        tmp.mkdir(parents=True, exist_ok=True)
        out = tmp / "report.json"
        cmd = [sys.executable, "-m", "benchmarks.perf", "child",
               "--workload", self.workload, "--seed", str(self.seed),
               "--kind", kind.child, "--jobs", str(kind.jobs),
               "--out", str(out), "--specs", str(self.specs)]
        if kind.traced:
            cmd.append("--trace")
        if self.quick:
            cmd.append("--quick")
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise BenchError(f"time cap of {CAP_SECONDS}s reached")
        cpus = sorted(os.sched_getaffinity(0))
        if kind.jobs == 1:
            cpus = cpus[:1]
        try:
            cmd += ["--spawned", repr(time.time())]
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT,
                                    env=child_env(kind.backend, tmp),
                                    stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE,
                                    start_new_session=True)
            try:
                with contextlib.suppress(ProcessLookupError):
                    os.sched_setaffinity(proc.pid, set(cpus))
                with Canary(cpus) as canary:
                    _, err = proc.communicate(timeout=timeout)
                    wall = perf_counter() - t0
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"{kind.name} pass exceeded the time cap")
            finally:
                _reap_group(proc.pid)
            if proc.returncode != 0:
                tail = err.decode(errors="replace").strip()[-2000:]
                raise BenchError(f"{kind.name} pass exited with "
                                 f"{proc.returncode}:\n{tail}")
            report = json.loads(out.read_text())
            if "specs" in report:
                if not self.specs.exists():
                    self.specs.write_text(json.dumps(report["specs"]))
                del report["specs"]
            return dict(report, wall=wall, speed=canary.speed())
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def environment(seed: int) -> dict:
    nproc = available_cpus()
    load = os.getloadavg()[0]
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": nproc, "loadavg_start": load,
            "python": platform.python_version(), "numpy": numpy,
            "git_commit": commit, "seed": seed, "noisy": load > nproc}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    """Run the rounds and return the scored result record."""
    runner = Runner(workload, seed, quick)
    env = environment(seed)
    if quick:
        kinds = RUN_KINDS + TRACE_KINDS[1:]
    else:
        kinds = TRACE_KINDS if trace else RUN_KINDS
    runs = {kind.name: [] for kind in kinds}
    last = {}
    try:
        start = perf_counter()
        if not quick:
            runner.child(WARM)
        for i in itertools.count():
            kind = kinds[i % len(kinds)]
            # After the first round, the next child only if one as long as
            # the last of its kind still fits.
            if i >= len(kinds) and (quick or perf_counter() - start
                                    + last[kind.name] > seconds):
                break
            t0 = perf_counter()
            runs[kind.name].append(runner.child(kind))
            last[kind.name] = perf_counter() - t0
    finally:
        runner.close()
    env["loadavg_end"] = os.getloadavg()[0]
    record = score(runs)
    record.update(schema=SCHEMA, workload=workload, seed=seed,
                  mode="trace" if trace else "run", quick=quick,
                  seconds=seconds, rounds=min(len(v) for v in runs.values()),
                  env=env,
                  walls={k: [r["wall"] for r in v] for k, v in runs.items()},
                  speeds={k: [r["speed"] for r in v] for k, v in runs.items()})
    if any(kind.traced for kind in kinds):
        record["chrome_trace"] = chrome_trace(runs)
    return record


def _median(values):
    return statistics.median(list(values))


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _ref_s(report, seconds: float) -> float:
    """Host seconds measured in or around a child, in reference seconds."""
    return seconds * report["speed"]


def _wall(reports) -> float:
    return _median(_ref_s(r, r["wall"]) for r in reports)


def _spans(report):
    return [tracing.Span(*span) for span in report["spans"]]


#: Child kind -> suffix of its wall metrics.
WALLS = {"interp": "", "vector": "_vector", "jobs2": "_jobs2"}


def score(reports: dict) -> dict:
    """Score one run: ``reports`` maps each kind to its children's
    reports, in round order."""
    values = {}
    extra = {}
    if "setup" in reports:
        values["setup_s"] = _median(_ref_s(r, r["setup_s"])
                                    for r in reports["setup"])
        extra["raw_setup_s"] = _median(r["setup_s"] for r in reports["setup"])
    for kind, suffix in WALLS.items():
        if kind not in reports:
            continue
        wall = _wall(reports[kind])
        values[f"wall{suffix}_s"] = wall
        extra[f"raw_wall{suffix}_s"] = _median(r["wall"]
                                               for r in reports[kind])
        if kind != "jobs2":
            instructions = reports[kind][0]["counts"]["instructions"]
            values["minstr_per_s" + suffix] = instructions / 1e6 / wall
            values["peak_rss" + suffix + "_mb"] = _median(
                r["rss_mb"] for r in reports[kind])
    if "interp+trace" in reports:
        values.update(per_layer(reports))

    attempted, failed, failures, xfail = verify(reports)
    values["fail_frac"] = _ratio(failed, attempted)
    for name in ("sanitize_x", "obs_x"):
        found = [r["extra"][name] for r in reports.get("interp", ())
                 if name in r["extra"]]
        if found:
            values[name] = _median(found)
    for r in reports.get("interp", ())[:1]:
        if "ci" in r["extra"]:
            extra["ci_cycles"] = r["extra"]["ci"]
    return {"values": values, "extra": extra, "attempted": attempted,
            "failed": failed, "failures": failures, "xfail": xfail,
            "correct": failed == 0}


def _outer_total(spans, names) -> float:
    """Seconds in spans named ``names`` that no such span encloses."""
    by_id = {span.id: span for span in spans}

    def enclosed(span):
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name in names:
                return True
            parent = by_id.get(parent.parent)
        return False

    return sum(span.end_ns - span.start_ns for span in spans
               if span.name in names and not enclosed(span)) / 1e9


def per_layer(reports: dict) -> dict:
    values = {}
    traced = reports["interp+trace"]
    for layer in tracing.LAYERS + (tracing.BENCH,):
        values[f"{layer}.self_s"] = _median(
            _ref_s(r, r["samples"].get(layer, 0.0)) for r in traced)
        values[f"{layer}.share"] = _median(
            _ratio(r["samples"].get(layer, 0.0), sum(r["samples"].values()))
            for r in traced)
        values[f"{layer}.self_s_vector"] = _median(
            _ref_s(r, r["samples"].get(layer, 0.0))
            for r in reports["vector+trace"])
    for metric, span in BOUNDARY_SPANS.items():
        values[metric] = _median(
            _ref_s(r, tracing.span_totals(_spans(r)).get(span, 0.0))
            for r in traced)
    pooled = reports["jobs2+trace"]
    values["harness.dispatch_s"] = _median(
        _ref_s(r, tracing.span_totals(_spans(r), self_time=True)
               .get("run_points", 0.0))
        for r in pooled)
    values["harness.pool_start_s"] = _median(
        _ref_s(r, _outer_total(_spans(r), tracing.POOL_SPANS))
        for r in pooled)

    c = traced[0]["counts"]
    values.update({
        "sim.points": c["points"],
        "sim.instructions": c["instructions"],
        "sim.cycles": c["cycles"],
        "sim.runahead_ops_per_batch": _ratio(c["runahead_ops"],
                                             c["runahead_batches"]),
        "coherence.l3_gets": c["l3_gets"],
        "coherence.getu": c["getu"],
        "coherence.invalidations": c["invalidations"],
        "coherence.forwards": c["forwards"],
        "coherence.noc_hops": c["noc_hops"],
        "coherence.fastpath_hit_rate": _ratio(
            c["fastpath_hits"], c["fastpath_hits"] + c["fastpath_misses"]),
        "htm.commits": c["commits"],
        "htm.aborts": c["aborts"],
        "htm.commit_ratio": _ratio(c["commits"], c["commits"] + c["aborts"]),
        "htm.nacks": c["nacks"],
        "htm.aborted_cycle_frac": _ratio(c["tx_aborted_cycles"],
                                         c["core_cycles"]),
        "labels.reductions": c["reductions"],
        "labels.gathers": c["gathers"],
        "labels.splits": c["splits"],
        "labels.shadow_cycles": c["shadow_cycles"],
        "harness.cache_hits": c["cache_hits"],
    })
    v = reports["vector+trace"][0]["counts"]
    values.update({
        "vector.epochs": v["vector_epochs"],
        "vector.epoch_op_frac": _ratio(
            v["vector_epoch_ops"], v["vector_epoch_ops"] + v["runahead_ops"]),
        "vector.fused_txs": v["vector_fused_txs"],
        "vector.gated_points": v["vector_gated"],
        "vector.proto_ops": v["vector_proto_ops"],
        "vector.miss_mispredicts": v["vector_mispredicts"],
    })
    values["trace.overhead_x"] = _wall(traced) / _wall(reports["interp"])
    values["trace.coverage"] = _median(
        sum(r["samples"].values()) / r["wall"] for r in traced)
    return values


def verify(reports: dict):
    """Attempted and failed operations across every pass of the run: each
    pass's own points and checks, plus every point's parity with the first
    pass (interp vs vector vs jobs2, traced vs untraced). A vector pass's
    mismatch on a point the pass reports as a known divergence, and the
    checks a pass reports as known failures, are listed in ``xfail``
    instead of failing."""
    attempted = failed = 0
    failures, xfail = [], []
    reference = None
    for kind, kind_reports in reports.items():
        for r in kind_reports:
            if "digests" not in r:
                continue
            attempted += r["points"] + r["checks"]
            failed += r["failed"]
            failures += [f"{kind}: {f}" for f in r["failures"]]
            xfail += [f"{kind}: {x}" for x in r["xfail"]]
            if reference is None:
                reference = (kind, r["digests"])
                continue
            ref_kind, ref = reference
            known = set(r["known"]) if kind.startswith("vector") else set()
            for key in ref.keys() | r["digests"].keys():
                attempted += 1
                if ref.get(key) == r["digests"].get(key):
                    continue
                message = f"{kind}: point {key} differs from {ref_kind}"
                if key in known:
                    xfail.append(message)
                else:
                    failed += 1
                    failures.append(message)
    return attempted, failed, failures, xfail


def chrome_trace(runs: dict) -> dict:
    events = []
    pid = 0
    for kind, reports in runs.items():
        for i, report in enumerate(reports):
            if "spans" in report:
                pid += 1
                events += tracing.chrome_events(_spans(report), pid,
                                                f"{kind} #{i + 1}")
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def units() -> dict:
    """name -> (unit, better, bound) of every metric the record may hold."""
    bench = declared()
    out = {m["name"]: (m["unit"], m["better"], m.get("bound"))
           for m in bench["end_to_end"] + bench["per_layer"]}
    out.update(EXTRA_METRICS)
    return out


def contract_line(records, trace: bool) -> dict:
    """The final JSON line: every declared metric of the mode."""
    names = [m["name"] for m in declared()["per_layer" if trace
                                           else "end_to_end"]]
    table = units()
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}/" if len(records) > 1 else ""
        for name in names:
            if name not in record["values"]:
                raise BenchError(f"metric {name} was not measured")
            metrics[prefix + name] = {"value": record["values"][name],
                                      "unit": table[name][0]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_record(record: dict, results: Path) -> Path:
    results.mkdir(parents=True, exist_ok=True)
    trace = record.pop("chrome_trace", None)
    stem = (f"{record['workload']}-{record['mode']}-s{record['seed']}"
            f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    if trace is not None:
        path = results / f"{stem}.trace.json"
        path.write_text(json.dumps(trace))
        record["chrome_trace_file"] = str(path.relative_to(ROOT)) \
            if path.is_relative_to(ROOT) else str(path)
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def print_record(record: dict, table: dict) -> None:
    env = record["env"]
    print(f"== {record['workload']} seed={record['seed']} "
          f"mode={record['mode']} rounds={record['rounds']} "
          f"nproc={env['nproc']} load={env['loadavg_start']:.2f}"
          f"{' NOISY' if env['noisy'] else ''}")
    for name, value in record["values"].items():
        unit = table.get(name, ("",))[0]
        print(f"  {name:<32} {value:>14.6g} {unit}")
    for name, value in record["extra"].items():
        print(f"  {name}: {value}")
    print(f"  attempted={record['attempted']} failed={record['failed']} "
          f"xfail={len(record['xfail'])}")
    for failure in record["failures"][:10]:
        print(f"  FAIL {failure}")
    for known in record["xfail"][:10]:
        print(f"  XFAIL {known} (known kmeans interp/vector divergence)")


def _check_sources() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")


def run(workloads, seed: int, seconds: float, trace: bool, quick: bool,
        results: Path) -> int:
    _check_sources()
    table = units()
    records = []
    for workload in workloads:
        record = measure(workload, seed, seconds, trace, quick)
        path = write_record(record, results)
        print_record(record, table)
        print(f"  record: {path}")
        records.append(record)
    if quick:
        line = contract_line(records, False)
        line["metrics"].update(contract_line(records, True)["metrics"])
        line["quick"] = True
    else:
        line = contract_line(records, trace)
    print(json.dumps(line))
    return 0


def paper(seed: int) -> int:
    """Regenerate the micro figures and Fig. 16 at the registry's full
    sizes and ladder in one hermetic child, and score them against the
    paper's 128-thread values."""
    _check_sources()
    runner = Runner("micro", seed, quick=False)
    try:
        report = runner.child(PAPER)
    finally:
        runner.close()
    for name, value in report["extra"].items():
        print(f"  {name}: {value}")
    for failure in report["failures"]:
        print(f"  FAIL {failure}")
    attempted = report["points"] + report["checks"]
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": attempted, "failed": report["failed"],
                      "wall_s": report["wall"], **report["extra"]}))
    return 0

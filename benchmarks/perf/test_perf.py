"""Tests of the benchmark's own logic, and one ``--quick`` run.

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from time import perf_counter
from types import SimpleNamespace

import pytest

from benchmarks.perf import WORKLOADS, compare, driver, tracing, workloads


def test_self_time_subtracts_direct_children_only():
    Span = tracing.Span
    spans = [Span("run_points", "harness", 0, 100, 1, 0, 0),
             Span("Machine", "core", 10, 40, 2, 1, 1),
             Span("Machine.run", "sim", 50, 90, 3, 1, 1),
             Span("verify", "workloads", 60, 70, 4, 3, 1)]
    assert tracing.self_times(spans) == {1: 30, 2: 30, 3: 30, 4: 10}
    totals = tracing.span_totals(spans, self_time=True)
    assert totals["run_points"] == pytest.approx(30e-9)
    assert tracing.span_totals(spans)["run_points"] == pytest.approx(100e-9)


def test_recorder_links_nested_spans():
    rec = tracing.SpanRecorder()
    inner = rec.wrap(rec.open_span, "inner", "sim")
    assert rec.call("outer", "harness", inner) == "inner"
    inner_span, outer_span = rec.spans
    assert inner_span.parent == outer_span.id
    assert outer_span.parent == 0
    assert rec.open_span() == ""


@pytest.mark.parametrize("module, layer", [
    ("repro.harness.runner", "harness"),
    ("repro.core.labels", "labels"),
    ("repro.core.machine", "core"),
    ("repro.params", "core"),
    ("repro.errors", "core"),
    ("repro", "core"),
    ("repro.workloads.apps.kmeans", "workloads"),
    ("repro.datatypes.counter", "workloads"),
    ("repro.runtime.ops", "workloads"),
    ("repro.sim.engine", "sim"),
    ("repro.sim.vector.engine", "vector"),
    ("repro.coherence.protocol", "coherence"),
    ("repro.mem.memory", "coherence"),
    ("repro.htm.htm", "htm"),
    ("repro.analysis.sanitizer", "analysis"),
    ("repro.obs.hostprof", "obs"),
    ("reprox", None),
    ("numpy.core.fromnumeric", None),
    ("heapq", None),
])
def test_modules_bucket_into_layers(module, layer):
    assert tracing.layer_of(module) == layer


def _frame(module, back=None):
    return SimpleNamespace(f_globals={"__name__": module}, f_back=back)


def test_non_repro_frames_charge_their_repro_caller():
    caller = _frame("repro.coherence.protocol",
                    _frame("repro.sim.engine", _frame("benchmarks.perf.child")))
    stack = _frame("numpy.core.fromnumeric", _frame("heapq", caller))
    assert tracing.frame_layer(stack) == "coherence"
    assert tracing.frame_layer(_frame("json.encoder",
                                      _frame("benchmarks.perf.child"))) \
        == tracing.BENCH
    assert tracing.frame_layer(None) == tracing.BENCH


def test_sampler_charges_the_running_layer():
    from repro.harness.confidence import confidence_interval

    rec = tracing.SpanRecorder()
    sampler = tracing.Sampler(rec)
    sampler.start()
    try:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            rec.call("ci", "harness", confidence_interval,
                     [float(i) for i in range(20_000)])
    finally:
        sampler.stop()
    total = sum(sampler.seconds.values())
    assert sampler.samples > 50
    assert total == pytest.approx(perf_counter() - t0, rel=0.2)
    assert sampler.seconds["harness"] > 0.5 * total
    assert any(key.startswith("ci/") for key in sampler.by_span)


PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]


@pytest.mark.parametrize("factor, better, expected", [
    (0.8, "lower", "improved"),
    (1.2, "lower", "worse"),
    (1.05, "lower", "within bound"),
    (1.01, "lower", "within bound"),
    (1.2, "higher", "improved"),
    (0.8, "higher", "worse"),
])
def test_verdicts_on_steady_samples(factor, better, expected):
    change = [v * factor for v in PARENT]
    pairs = list(zip(PARENT, change))
    assert compare.verdict(PARENT, change, pairs, better, 0.10) == expected


def test_wide_parent_spread_is_unresolved_unless_every_run_wins():
    parent = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    similar = [v + 0.5 for v in parent]
    assert compare.verdict(parent, similar, list(zip(parent, similar)),
                           "lower", 0.10) == "unresolved"
    # Every change run beats every parent run, but by less than the
    # parent's quartile spread: no gain, and not unresolved either.
    beats_all = [4.9] * len(parent)
    pairs = list(zip(parent, beats_all))
    assert compare.verdict(parent, beats_all, pairs, "lower", 0.10) \
        == "within bound"


def test_pair_wins_ignore_ties():
    assert compare.pair_wins([(1, 1), (2, 1), (1, 2), (3, 1)], "lower") \
        == 0.5
    nine_of_ten = [(10, 9)] * 9 + [(10, 10)]
    assert compare.pair_wins(nine_of_ten, "lower") == 0.9


def test_unbounded_counts_compare_exactly():
    assert compare.verdict([3, 4], [3, 4], [(3, 3), (4, 4)], "lower",
                           None) == "identical"
    assert compare.verdict([3, 4], [3, 5], [(3, 3), (4, 5)], "lower",
                           None) == "changed"
    table = driver.units()
    assert compare.rule("sim.instructions", table) == ("lower", None)
    assert compare.rule("fail_frac", table) == ("lower", None)
    assert compare.rule("sim.self_s", table) == ("lower", "info")
    assert compare.rule("wall_s", table) == ("lower", 0.10)


def _pass_report(wall, digests, known=(), speed=1.0):
    return {"wall": wall, "speed": speed, "rss_mb": 30.0,
            "counts": {"instructions": 2e6},
            "points": len(digests), "checks": 1, "failed": 0, "failures": [],
            "digests": digests, "known": list(known), "xfail": [],
            "extra": {}}


def test_score_takes_round_medians_in_reference_seconds():
    reports = {
        "setup": [{"wall": 9.0, "speed": sp, "setup_s": s, "rss_mb": 20.0}
                  for s, sp in ((0.3, 1.0), (0.2, 1.0), (0.8, 0.5))],
        "interp": [_pass_report(w, {"a": "1", "b": "2"})
                   for w in (2.0, 1.0, 4.0)],
        # A host running at half the reference speed: each child's times
        # count half.
        "vector": [_pass_report(w, {"a": "1", "b": "2"}, speed=0.5)
                   for w in (1.5, 3.0, 2.5)],
        "jobs2": [_pass_report(w, {"a": "1", "b": "x"})
                  for w in (1.0, 1.0, 1.0)],
    }
    record = driver.score(reports)
    values = record["values"]
    assert values["setup_s"] == 0.3
    assert values["wall_s"] == 2.0 and values["wall_vector_s"] == 1.25
    assert record["extra"]["raw_wall_vector_s"] == 2.5
    assert values["minstr_per_s"] == 1.0
    # 9 passes x (2 points + 1 check), plus 8 parity comparisons x 2
    # points against the first pass; point "b" differs in all 3 jobs2.
    assert (record["attempted"], record["failed"]) == (27 + 16, 3)
    assert values["fail_frac"] == 3 / 43
    assert not record["correct"]


def test_known_divergence_is_listed_not_failed_on_vector_only():
    reports = {
        "interp": [_pass_report(1.0, {"a": "1", "k": "2"}, known=["k"])],
        "vector": [_pass_report(1.0, {"a": "1", "k": "3"}, known=["k"])],
        "jobs2": [_pass_report(1.0, {"a": "1", "k": "3"}, known=["k"])],
    }
    record = driver.score(reports)
    assert record["failed"] == 1 and len(record["xfail"]) == 1
    assert record["failures"][0].startswith("jobs2: point k")
    assert record["xfail"][0].startswith("vector: point k")


def test_known_failed_check_is_listed_not_failed():
    out = workloads.Outcome()
    out.check("ok", True)
    out.check("known", False, known=True)
    out.check("bad", False)
    assert (out.checks, out.failed) == (3, 1)
    assert out.xfail == ["known"] and out.failures == ["bad"]


def test_paper_logerr_on_known_curves():
    paper = {"a": 100.0, "b": 2.0}
    assert workloads.paper_logerr(dict(paper), paper) == 0.0
    off = {"a": 100.0 * math.e, "b": 2.0 / math.e ** 3}
    assert workloads.paper_logerr(off, paper) == pytest.approx(2.0)
    curves = {"CommTM": {1: 1.0, 128: 30.0}, "Baseline": {1: 1.0, 128: 2.0}}
    assert workloads.micro_at(curves, 128) == 30.0
    assert workloads.gap_at(curves, 128) == 15.0


def test_canary_samples_while_open_and_scales_by_their_mean():
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    with driver.Canary([cpu]) as canary:
        time.sleep(10 * driver.Canary.PERIOD)
    samples = canary.samples[cpu]
    assert len(samples) >= 3 and all(s > 0 for s in samples)
    assert canary.speed() == pytest.approx(
        driver.REFERENCE_CANARY_S / statistics.fmean(samples))
    # The canary pins its own thread, not its caller's.
    assert os.sched_getaffinity(0) == cpus


def test_canary_weighs_each_cpu_by_its_busy_time():
    canary = driver.Canary([0, 1])
    ref = driver.REFERENCE_CANARY_S
    canary.samples = {0: [ref, ref], 1: [2 * ref]}
    # A child that ran serially on CPU 1 runs at CPU 1's half speed.
    canary.busy = {0: 0, 1: 300}
    assert canary.speed() == pytest.approx(0.5)
    canary.busy = {0: 100, 1: 100}
    assert canary.speed() == pytest.approx(0.75)
    # Nothing counted (no /proc/stat): every CPU weighs the same.
    canary.busy = {}
    assert canary.speed() == pytest.approx(0.75)


def test_compare_refuses_quick_records(tmp_path):
    record = {"schema": driver.SCHEMA, "quick": True, "workload": "micro",
              "mode": "run", "seed": 1, "values": {"wall_s": 1.0}}
    (tmp_path / "r.json").write_text(json.dumps(record))
    with pytest.raises(SystemExit, match="quick"):
        compare.load(tmp_path)


def test_benchmark_json_declares_every_workload_and_bound():
    bench = driver.declared()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_quick_run_reports_every_declared_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "run", "--quick",
         "--results", str(tmp_path)],
        cwd=driver.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["quick"] is True
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    bench = driver.declared()
    for workload in WORKLOADS:
        for metric in bench["end_to_end"] + bench["per_layer"]:
            assert f"{workload}/{metric['name']}" in line["metrics"]
    records = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")
               if not p.name.endswith(".trace.json")]
    assert len(records) == len(WORKLOADS)
    for record in records:
        assert record["quick"] and record["values"]["fail_frac"] == 0
        assert record["env"]["seed"] == 1
        trace = json.loads((driver.ROOT / record["chrome_trace_file"])
                           .read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans and all({"name", "cat", "ts", "dur", "pid", "tid"}
                             <= e.keys() for e in spans)

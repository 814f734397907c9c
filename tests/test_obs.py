"""Structured observability layer (``repro.obs``).

Three contracts, in roughly increasing strength:

1. the Perfetto/Chrome trace export is schema-valid (required keys,
   monotonic per-lane timestamps, matched B/E span trees) and JSON
   round-trips;
2. transaction lifecycle records and hot-line metrics answer the
   attribution questions the aggregate Stats cannot ("which core aborted
   whom, on which line, under which label");
3. observing never disturbs: an obs-on run is bit-identical in cycles and
   ``Stats.comparable()`` to the obs-off run, across every micro workload
   on both systems (the obs-on engine takes the full-handler path, already
   proven equivalent by ``test_fastpath_equivalence.py``).
"""

import json
import pickle
import runpy
from pathlib import Path

import pytest

from repro.core.machine import Machine, resolve_options
from repro.datatypes import SharedCounter
from repro.harness.runner import run_workload
from repro.obs import (
    OBS_ENV,
    REPORT_SCHEMA,
    TRACE_SCHEMA,
    MetricsRegistry,
    TraceRecorder,
    chrome_trace,
    merge_traces,
    per_label_table,
    point_report,
)
from repro.params import SystemConfig, small_config
from repro.runtime.ops import Atomic
from repro.sim.engine import NO_FASTPATH_ENV, NO_RUNAHEAD_ENV

from .test_fastpath_equivalence import _l1_eviction_abort, _two_line_l1_machine
from .test_golden_stats import MICROS


def _run(build, *, commtm, seed=1, observe=False, monkeypatch):
    if observe:
        monkeypatch.setenv(OBS_ENV, "1")
    else:
        monkeypatch.delenv(OBS_ENV, raising=False)
    # Pinned to the interpreted engine: these tests assert its host-side
    # instrumentation (fast-path hit rates, run-ahead batching), which
    # under the vector backend counts only its strict phases. The vector
    # x obs composition — identical payloads across backends — is covered by
    # tests/test_vector_obs_parity.py.
    return run_workload(build, 4, num_cores=16, commtm=commtm, seed=seed,
                        total_ops=240, backend="interp")


def _observed_machine(build=None, *, commtm=True, threads=8, total_ops=400,
                      seed=3):
    """A completed counter-micro run with the Observer installed."""
    build = build or MICROS["counter"]
    machine = Machine(small_config(num_cores=16, seed=seed,
                                   commtm_enabled=commtm), observe=True)
    built = build(machine, threads, total_ops=total_ops)
    machine.run(built.bodies)
    return machine


# ---------------------------------------------------------------------------
# Perfetto export: schema validation and round-trip
# ---------------------------------------------------------------------------

REQUIRED_BY_PH = {
    "B": ("name", "cat", "tid", "ts"),
    "E": ("tid", "ts"),
    "X": ("name", "tid", "ts", "dur"),
    "i": ("name", "tid", "ts", "s"),
    "C": ("name", "ts", "args"),
    "M": ("name", "args"),
}


def validate_chrome_trace(trace: dict) -> None:
    assert trace["schema"] == TRACE_SCHEMA
    events = trace["traceEvents"]
    assert isinstance(events, list) and events
    last_ts = {}
    depth = {}
    for event in events:
        ph = event["ph"]
        assert ph in REQUIRED_BY_PH, f"unknown phase {ph!r}"
        assert "pid" in event
        for key in REQUIRED_BY_PH[ph]:
            assert key in event, f"{ph} event missing {key}: {event}"
        if ph == "M":
            continue
        lane = (event["pid"], event["tid"])
        assert event["ts"] >= last_ts.get(lane, 0), \
            f"non-monotonic ts in lane {lane}"
        last_ts[lane] = event["ts"]
        if ph == "B":
            depth[lane] = depth.get(lane, 0) + 1
        elif ph == "E":
            depth[lane] = depth.get(lane, 0) - 1
            assert depth[lane] >= 0, f"E without B in lane {lane}"
    assert all(d == 0 for d in depth.values()), f"unclosed spans: {depth}"


@pytest.mark.parametrize("commtm", [True, False], ids=["commtm", "baseline"])
def test_counter_trace_is_schema_valid(commtm):
    machine = _observed_machine(commtm=commtm)
    trace = chrome_trace(machine.obs, point="counter")
    validate_chrome_trace(trace)
    counts = trace["otherData"]["event_counts"]
    assert counts["tx"] == counts["E"] > 0
    if not commtm:  # contended unlabeled counter: aborts guaranteed
        assert counts["backoff"] > 0


def test_trace_json_round_trip(tmp_path):
    machine = _observed_machine()
    trace = chrome_trace(machine.obs, point="counter")
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    validate_chrome_trace(json.loads(path.read_text()))


def test_merge_traces_assigns_one_pid_per_point():
    machines = [_observed_machine(threads=2, total_ops=60, seed=s)
                for s in (1, 2)]
    payloads = [(f"point{i}", m.obs.payload()["trace"])
                for i, m in enumerate(machines)]
    merged = merge_traces(payloads)
    validate_chrome_trace(merged)
    pids = {e["pid"] for e in merged["traceEvents"]}
    assert pids == {0, 1}
    names = {e["args"]["name"] for e in merged["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert names == {"point0", "point1"}


class TestTraceRecorder:
    def test_dropped_counted_and_spans_stay_matched(self):
        rec = TraceRecorder(limit=3)
        rec.begin_span(0, 0, "tx")
        rec.begin_span(1, 1, "tx")
        rec.instant(0, 2, "nack")      # hits the limit exactly
        rec.instant(0, 3, "nack")      # dropped
        rec.begin_span(2, 4, "tx")     # dropped: no E may follow
        rec.end_span(0, 5)             # open span: E forced past the limit
        rec.end_span(2, 6)             # B was dropped: must not emit
        assert rec.dropped == 2
        assert rec.counts()["dropped"] == 2
        phases = [e["ph"] for e in rec.events]
        assert phases.count("B") == phases.count("E") + 1  # core 1 open
        assert rec.close_open_spans() == 1

    def test_close_open_spans_uses_max_ts(self):
        rec = TraceRecorder()
        rec.begin_span(0, 10, "tx")
        rec.instant(1, 99, "nack")
        rec.close_open_spans()
        assert rec.events[-1]["ph"] == "E"
        assert rec.events[-1]["ts"] == 99
        assert rec.events[-1]["args"]["outcome"] == "unfinished"


# ---------------------------------------------------------------------------
# Lifecycle records and abort attribution
# ---------------------------------------------------------------------------

def test_lifecycle_records_and_attribution():
    # Contended unlabeled counter: every abort is a conflict on the one
    # counter line, so attribution must name it, with attacker cores.
    machine = _observed_machine(commtm=False)
    payload = machine.obs.payload()
    summary = payload["lifecycle"]["summary"]
    assert summary["transactions"] == summary["committed"] == 400
    assert summary["aborted_attempts"] > 0
    assert summary["wasted_cycles"] > 0

    attribution = payload["lifecycle"]["abort_attribution"]
    assert attribution, "contended run must produce attribution rows"
    top = attribution[0]
    assert top["line"] is not None
    assert top["cause"]
    assert top["aborts"] > 0
    assert top["attackers"], "attacker cores must be attributed"
    # Rows are sorted most-aborting first.
    aborts = [row["aborts"] for row in attribution]
    assert aborts == sorted(aborts, reverse=True)
    # Per-event detail: every abort carries its cycle, attempt and sizes.
    aborted = [t for t in payload["lifecycle"]["transactions"] if t["aborts"]]
    assert aborted
    event = aborted[0]["aborts"][0]
    assert event["attempt"] >= 1
    assert event["read_set"] + event["write_set"] + event["labeled_set"] > 0

    assert sum(len(t["aborts"]) for t in payload["lifecycle"]["transactions"]
               ) == summary["aborted_attempts"]


def _l1_eviction_self_abort(monkeypatch):
    # A transactional load hit whose L1 insert evicts the transaction's
    # own speculative line (Sec. III-B1).
    machine = _two_line_l1_machine(False, monkeypatch, observe=True)
    _l1_eviction_abort(machine)
    return machine


def _own_u_line_self_abort(monkeypatch):
    # A transaction labeled-updates a counter line held in U by cores 0
    # and 1, then loads it unlabeled: a non-commutative access to its own
    # speculatively modified U line, which aborts the transaction and
    # reduces the line (Sec. III-B4).
    machine = Machine(SystemConfig(num_cores=16, seed=1), backend="interp",
                      sanitize=False, observe=True)
    shared = SharedCounter(machine)
    machine.seed_reducible(shared.addr, shared.label, {0: 5, 1: 7})

    def add_then_read(ctx):
        yield from shared.add(ctx, 1)
        yield from shared.read(ctx)

    def body(ctx):
        yield Atomic(add_then_read)

    machine.run([body])
    assert machine.read_word(shared.addr) == 13
    return machine


@pytest.mark.parametrize("self_abort", [_l1_eviction_self_abort,
                                        _own_u_line_self_abort],
                         ids=["l1_eviction", "own_u_line"])
def test_abort_attribution_sums_to_fig18(self_abort, monkeypatch):
    # The op that dooms these attempts finishes after the abort, and its
    # cycles are wasted too: the attribution must count them as the
    # Fig. 18 breakdown does.
    machine = self_abort(monkeypatch)
    stats = machine.stats
    assert stats.aborts == stats.commits == 1
    lifecycle = machine.obs.payload()["lifecycle"]
    attributed = sum(row["wasted_cycles"]
                     for row in lifecycle["abort_attribution"])
    assert attributed == sum(stats.wasted_by_cause.values())
    summary = lifecycle["summary"]
    assert (summary["wasted_cycles"] + summary["backoff_cycles"]
            == stats.tx_aborted_cycles)


def test_committed_lifecycle_has_labeled_sets():
    machine = _observed_machine(commtm=True)
    payload = machine.obs.payload()
    assert payload["lifecycle"]["summary"]["max_labeled_set"] >= 1
    committed = [t for t in payload["lifecycle"]["transactions"]
                 if t["outcome"] == "committed"]
    assert committed and all(t["end_cycle"] is not None for t in committed)


def test_payload_is_picklable():
    machine = _observed_machine(threads=2, total_ops=60)
    payload = machine.obs.payload()
    assert pickle.loads(pickle.dumps(payload)) == payload


# ---------------------------------------------------------------------------
# Hot-line metrics
# ---------------------------------------------------------------------------

def test_hot_line_metrics_surface_via_stats():
    machine = _observed_machine(commtm=True)
    hot = machine.stats.host_hot_lines
    assert hot, "an observed run must publish hot lines"
    assert hot == machine.obs.metrics.top()
    touches = [m["touches"] for m in hot]
    assert touches == sorted(touches, reverse=True)
    # The counter line dominates and is labeled.
    assert hot[0]["labeled_touches"] > 0
    assert "ADD" in hot[0]["by_label"]


def test_metrics_registry_top_k():
    reg = MetricsRegistry()
    for _ in range(3):
        reg.touch(7, "ADD")
    reg.touch(9)
    reg.nack(9)
    reg.invalidation(7, 4)
    top = reg.top(1)
    assert len(top) == 1 and top[0]["line"] == 7
    assert top[0]["touches"] == 3
    assert top[0]["invalidations"] == 4
    assert reg.top()[1] == {
        "line": 9, "touches": 1, "labeled_touches": 0, "reductions": 0,
        "gathers": 0, "invalidations": 0, "nacks": 1, "by_label": {},
    }
    assert reg.per_label() == {"ADD": 3}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_per_label_table_covers_gathers(monkeypatch):
    res = _run(MICROS["topk"], commtm=True, monkeypatch=monkeypatch)
    table = per_label_table(res.stats)
    assert table, "topk exercises labeled ops"
    name, row = next(iter(table.items()))
    assert set(row) == {"labeled_instructions", "reductions", "gathers"}
    assert sum(r["labeled_instructions"] for r in table.values()) == \
        res.stats.labeled_instructions
    assert sum(r["gathers"] for r in table.values()) == res.stats.gathers


def test_point_report_includes_obs_sections(monkeypatch):
    # Pinned: the host section below reports the fast path and run-ahead
    # batching, which the escape hatches turn off.
    for env in (NO_FASTPATH_ENV, NO_RUNAHEAD_ENV):
        monkeypatch.delenv(env, raising=False)
    res = _run(MICROS["counter"], commtm=False, observe=True,
               monkeypatch=monkeypatch)
    report = point_report(res)
    assert report["name"] == "counter"
    assert report["cycles"] == res.cycles
    for key in ("lifecycle", "abort_attribution", "hot_lines", "per_label"):
        assert key in report
    assert report["abort_attribution"]
    # Observed runs never attempt the coherence fast path, and the host
    # section spells the resulting None hit rate as "disabled".
    assert report["host"]["fastpath_hit_rate"] == "disabled"
    assert report["host"]["runahead_batches"] > 0
    assert report["host"]["runahead_ops_per_batch"] >= 1.0
    # Without obs the report still renders, minus the obs sections.
    plain = _run(MICROS["counter"], commtm=False, monkeypatch=monkeypatch)
    bare = point_report(plain)
    assert "abort_attribution" not in bare
    assert bare["cycles"] == report["cycles"]  # obs never disturbs
    assert bare["host"]["fastpath_hit_rate"] != "disabled"


def test_cli_writes_versioned_artifacts(tmp_path, monkeypatch):
    # main() mutates OBS_ENV directly; seed it so monkeypatch restores it.
    monkeypatch.setenv(OBS_ENV, "0")
    from repro.harness.__main__ import main

    trace_out = tmp_path / "trace.json"
    report_out = tmp_path / "report.json"
    rc = main(["fig09", "--threads", "1", "--scale", "0.02", "--jobs", "1",
               "--no-cache",
               "--trace-out", str(trace_out),
               "--report-json", str(report_out)])
    assert rc == 0
    trace = json.loads(trace_out.read_text())
    validate_chrome_trace(trace)
    report = json.loads(report_out.read_text())
    assert report["schema"] == REPORT_SCHEMA == "repro-obs-report/2"
    assert report["experiment"] == "fig09"
    assert report["harness"]["phases"]["experiment"]["calls"] >= 1
    points = report["points"]
    assert points
    assert all("per_label" in p and "lifecycle" in p for p in points)
    assert any(p["hot_lines"] for p in points)
    for point in points:
        assert point["trace_event_counts"]["tx"] > 0
        assert set(point["hostprof"]["phases"]) >= {"simulate", "verify"}
        assert "schema" not in point["hostprof"]
    # The CI job summary renders the same document, and checks that each
    # point's abort attribution sums to its Fig. 18 wasted cycles.
    tool = runpy.run_path(str(Path(__file__).resolve().parents[1]
                              / "tools" / "obs_summary.py"))
    summary = "\n".join(tool["render"](report))
    assert "### Harness" in summary
    assert "### counter t=1 commtm" in summary
    assert "| simulate |" in summary
    for point in points:
        fig18 = sum(point["wasted_by_cause"].values())
        assert (f"Fig. 18 wasted cycles: abort attribution {fig18} == "
                f"wasted_by_cause {fig18}") in summary
    # main() appends to the job summary when this variable is set.
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    assert tool["main"]([str(report_out)]) == 0
    forged = tmp_path / "forged.json"
    report["points"][0]["wasted_by_cause"]["Others"] += 1
    forged.write_text(json.dumps(report))
    assert tool["main"]([str(forged)]) == 1


# ---------------------------------------------------------------------------
# Equivalence: observing never disturbs the simulation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("commtm", [True, False], ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(MICROS))
def test_obs_is_bit_identical(name, commtm, monkeypatch):
    # Interpreted engine only; tests/test_vector_obs_parity.py holds the
    # vector backend to the same bar plus payload equality.
    build = MICROS[name]
    plain = _run(build, commtm=commtm, monkeypatch=monkeypatch)
    observed = _run(build, commtm=commtm, observe=True,
                    monkeypatch=monkeypatch)
    assert observed.cycles == plain.cycles
    assert observed.stats.comparable() == plain.stats.comparable()
    # The observed run really took the full-handler path and collected.
    assert observed.stats.host_fastpath_hits == 0
    assert observed.info.get("obs") is not None
    assert plain.info.get("obs") is None


def test_obs_enabled_env_parsing(monkeypatch):
    monkeypatch.delenv(OBS_ENV, raising=False)
    assert not resolve_options().observe
    assert resolve_options(observe=True).observe
    for on in ("1", "true", "yes", " 1 "):
        monkeypatch.setenv(OBS_ENV, on)
        assert resolve_options().observe
        assert not resolve_options(observe=False).observe
    for off in ("", "0", "false", " NO "):
        monkeypatch.setenv(OBS_ENV, off)
        assert not resolve_options().observe


def test_machine_without_obs_installs_nothing(monkeypatch):
    monkeypatch.delenv(OBS_ENV, raising=False)
    machine = Machine(small_config(num_cores=4))
    assert machine.obs is None
    assert machine.msys.obs is None
    assert machine.conflicts.obs is None

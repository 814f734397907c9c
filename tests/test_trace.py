"""Timeline rendering from the Observer's recording."""


from repro import Atomic, LabeledLoad, LabeledStore, Load, Machine, Work
from repro.core.labels import add_label
from repro.obs import TraceRecorder, render_timeline
from repro.params import small_config
from repro.runtime.ops import Barrier


def observed_machine(**kw):
    machine = Machine(small_config(num_cores=4, **kw), observe=True)
    machine.register_label(add_label())
    return machine


def span_ends(machine, outcome):
    return [e for e in machine.obs.recorder.events
            if e["ph"] == "E" and e["args"].get("outcome") == outcome]


class TestEngineTracing:
    def test_commits_and_begins_recorded(self):
        machine = observed_machine()

        def txn(ctx):
            yield Work(5)

        def body(ctx):
            for _ in range(3):
                yield Atomic(txn)

        machine.run_spmd(body, 2)
        assert machine.obs.recorder.counts()["tx"] == 6
        assert len(span_ends(machine, "commit")) == 6
        assert not span_ends(machine, "abort")

    def test_aborts_recorded_with_cause(self):
        machine = observed_machine()
        addr = machine.alloc.alloc_line()

        from repro.runtime.ops import Store

        def txn2(ctx):
            v = yield Load(addr)
            yield Work(50)
            yield Store(addr, v + 1)

        def body(ctx):
            for _ in range(10):
                yield Atomic(txn2)

        machine.run_spmd(body, 4)
        aborts = span_ends(machine, "abort")
        assert aborts and all(e["args"]["cause"] for e in aborts)
        # A begin per attempt: every abort is followed by a retry.
        assert machine.obs.recorder.counts()["tx"] == 40 + len(aborts)

    def test_reductions_and_gathers_recorded(self):
        machine = observed_machine()
        add = machine.labels.get("ADD")
        addr = machine.alloc.alloc_line()
        machine.seed_word(addr, 8)
        from repro.runtime.ops import LoadGather

        def holder(ctx):
            v = yield LabeledLoad(addr, add)
            yield LabeledStore(addr, add, v + 0)

        def gatherer(ctx):
            v = yield LoadGather(addr, add)
            return v

        def reader(ctx):
            v = yield Load(addr)
            return v

        def body(ctx):
            if ctx.tid < 2:
                yield Atomic(holder)
                yield Work(1000)
            elif ctx.tid == 2:
                yield Work(300)
                yield Atomic(gatherer)
                yield Work(700)
            else:
                yield Work(600)
                yield Atomic(reader)

        machine.run_spmd(body, 4)
        counts = machine.obs.recorder.counts()
        assert counts.get("gather", 0) >= 1
        assert counts.get("reduction", 0) >= 1

    def test_barrier_recorded(self):
        machine = observed_machine()

        def body(ctx):
            yield Work(1)
            yield Barrier()

        machine.run_spmd(body, 3)
        barriers = [e for e in machine.obs.recorder.events
                    if e.get("name") == "barrier"]
        assert sorted(e["tid"] for e in barriers) == [0, 1, 2]
        assert all(e["ph"] == "i" for e in barriers)


def _attempt(rec, core, begin, end, outcome):
    rec.begin_span(core, begin, "tx")
    rec.end_span(core, end, args={"outcome": outcome})


class TestRenderTimeline:
    def test_render_contains_lanes_and_legend(self):
        rec = TraceRecorder()
        _attempt(rec, 0, 0, 100, "commit")
        _attempt(rec, 1, 20, 50, "abort")
        out = render_timeline(rec, title="T")
        assert out.startswith("T")
        assert "core   0 |" in out
        assert "core   1 |" in out
        assert "legend:" in out
        assert "C" in out and "x" in out

    def test_empty_tracer(self):
        assert render_timeline(TraceRecorder()) == "(no events)"

    def test_severity_wins_in_shared_column(self):
        rec = TraceRecorder()
        _attempt(rec, 0, 0, 0, "abort")  # same column
        out = render_timeline(rec, width=10)
        lane = next(l for l in out.splitlines() if l.startswith("core"))
        body = lane.split("|")[1]
        assert "x" in body and "(" not in body

    def test_lane_totals_count_shadowed_events(self):
        # The begin shares a column with (and loses to) the abort; the
        # lane annotation must still report it.
        rec = TraceRecorder()
        _attempt(rec, 0, 0, 0, "abort")
        out = render_timeline(rec, width=10)
        lane = next(l for l in out.splitlines() if l.startswith("core"))
        annot = lane.split("|")[2]
        assert "(:1" in annot and "x:1" in annot

    def test_dropped_events_warned_in_timeline(self):
        rec = TraceRecorder(limit=2)
        for i in range(5):
            rec.instant(0, i, "barrier")
        out = render_timeline(rec)
        assert "warning: 3 event(s) dropped" in out

    def test_non_timeline_events_are_skipped(self):
        # Counters (lane 0), conflicts and backoff intervals are trace
        # events, not timeline marks.
        rec = TraceRecorder()
        rec.counter(500, "u_lines", 3)
        rec.instant(1, 5, "conflict")
        rec.complete(1, 5, 40, "backoff")
        rec.instant(1, 10, "reduction")
        out = render_timeline(rec)
        lanes = [l for l in out.splitlines() if l.startswith("core")]
        assert [lane[:8] for lane in lanes] == ["core   1"]
        assert lanes[0].endswith("R:1")
        assert "10 .. 10 cycles" in out

    def test_renders_an_observed_run(self):
        machine = observed_machine()
        addr = machine.alloc.alloc_line()

        from repro.runtime.ops import Store

        def txn(ctx):
            v = yield Load(addr)
            yield Work(30)
            yield Store(addr, v + 1)

        def body(ctx):
            for _ in range(3):
                yield Atomic(txn)
            yield Barrier()

        machine.run_spmd(body, 3)
        out = render_timeline(machine.obs, title="run")
        lanes = [l for l in out.splitlines() if l.startswith("core")]
        assert len(lanes) == 3
        totals = [dict(item.split(":") for item in
                       lane.rsplit("|  ", 1)[1].split()) for lane in lanes]
        for lane in totals:
            assert lane["C"] == "3" and lane["|"] == "1"
            assert int(lane["("]) == 3 + int(lane.get("x", 0))
        assert sum(int(lane.get("x", 0)) for lane in totals) \
            == machine.stats.aborts > 0


class TestDroppedCounting:
    def test_no_drops_reports_zero(self):
        rec = TraceRecorder()
        _attempt(rec, 0, 0, 10, "commit")
        assert rec.dropped == 0
        assert "dropped" not in rec.counts()
        assert "warning" not in render_timeline(rec)

"""RNG streams, core clocks, stats accounting."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import CoreClocks
from repro.sim.rng import RngStreams, randbelow
from repro.sim.stats import Stats, WastedCause


class TestRng:
    def test_same_seed_same_sequence(self):
        a = RngStreams(1).stream("x")
        b = RngStreams(1).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x")
        b = RngStreams(2).stream("x")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_streams_independent(self):
        rngs = RngStreams(1)
        before = RngStreams(1).stream("b").random()
        rngs.stream("a").random()  # draw from another stream
        assert rngs.stream("b").random() == before

    def test_stream_identity_cached(self):
        rngs = RngStreams(1)
        assert rngs.stream("x") is rngs.stream("x")

    @pytest.mark.parametrize("n", [0, -1, -8])
    def test_randbelow_refuses_an_empty_range(self, n):
        # As randrange does; tests/test_properties.py checks its draws.
        rng = RngStreams(1).stream("x")
        with pytest.raises(ValueError):
            rng.randrange(n)
        with pytest.raises(ValueError, match="empty range"):
            randbelow(rng, n)

    def test_named_helpers(self):
        rngs = RngStreams(1)
        assert rngs.backoff() is rngs.stream("backoff")
        assert rngs.eviction() is rngs.stream("eviction")


class TestCoreClocks:
    def test_min_clock_order(self):
        clocks = CoreClocks(3)
        order = []
        for _ in range(3):
            core = clocks.next_core()
            order.append(core)
            clocks.advance(core, 10 + core)
            clocks.reschedule(core)
        assert sorted(order) == [0, 1, 2]
        # Next scheduled should be the one with smallest clock (core 0).
        assert clocks.next_core() == 0

    def test_advance_negative_rejected(self):
        clocks = CoreClocks(1)
        with pytest.raises(SimulationError):
            clocks.advance(0, -1)

    def test_finish_excludes_core(self):
        clocks = CoreClocks(2)
        clocks.finish(0)
        assert clocks.next_core() == 1
        clocks.finish(1)
        assert clocks.next_core() is None

    def test_stale_heap_entries_requeued(self):
        clocks = CoreClocks(2)
        clocks.advance(0, 100)  # stale entry for core 0 in the heap
        assert clocks.next_core() == 1
        clocks.advance(1, 200)
        clocks.reschedule(1)
        assert clocks.next_core() == 0  # requeued at its true time

    def test_max_cycle(self):
        clocks = CoreClocks(3)
        clocks.advance(1, 42)
        assert clocks.max_cycle >= 42

    def test_jitter_bounded(self):
        import random
        clocks = CoreClocks(16, jitter=random.Random(1), max_jitter=8)
        assert all(0 <= c < 8 for c in clocks.cycles)


class TestStats:
    def test_get_breakdown(self):
        s = Stats(num_cores=1)
        s.gets, s.getx, s.getu = 3, 2, 1
        assert s.l3_get_requests == 6
        assert s.get_breakdown() == {"GETS": 3, "GETX": 2, "GETU": 1}

    def test_labeled_fraction(self):
        s = Stats(num_cores=1)
        assert s.labeled_fraction == 0.0
        s.instructions = 200
        s.labeled_instructions = 2
        assert s.labeled_fraction == 0.01

    def test_abort_rate(self):
        s = Stats(num_cores=1)
        assert s.abort_rate == 0.0
        s.commits, s.aborts = 3, 1
        assert s.abort_rate == 0.25

    def test_wasted_breakdown_has_all_causes(self):
        s = Stats(num_cores=1)
        wb = s.wasted_breakdown()
        assert set(wb) == {c.value for c in WastedCause}

    def test_summary_keys(self):
        s = Stats(num_cores=1)
        summary = s.summary()
        for key in ("cycles", "commits", "aborts", "l3_gets",
                    "labeled_fraction"):
            assert key in summary

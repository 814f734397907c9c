"""Coherence building blocks: states, NoC, cache lines, private cache,
directory."""

import pytest

from repro import Machine
from repro.analysis.modelcheck.checker import bounded_config
from repro.coherence.cache import PrivateCache
from repro.coherence.directory import Directory, DirEntry
from repro.coherence.line import CacheLine
from repro.coherence.messages import Requester
from repro.coherence.noc import Mesh
from repro.coherence.states import State
from repro.core.labels import add_label
from repro.errors import ProtocolError
from repro.mem.memory import MainMemory
from repro.params import CacheGeometry, NocConfig, SystemConfig, small_config

ADD = add_label()

#: Every NoC the repo builds: Table I's 4x4, small_config's 2x2, the model
#: checker's 1x1, the router latencies of the ``sensitivity-noc-latency``
#: experiment (its 2 is Table I's), and one non-square mesh.
NOCS = [
    NocConfig(),
    small_config().noc,
    bounded_config().noc,
    *(NocConfig(router_cycles=r) for r in (1, 6, 12)),
    NocConfig(mesh_width=4, mesh_height=2),
]


class TestStates:
    def test_can_read(self):
        assert State.M.readable and State.E.readable and State.S.readable
        assert not State.U.readable and not State.I.readable

    def test_can_write(self):
        assert State.M.writable and State.E.writable
        assert not State.S.writable
        assert not State.U.writable

    def test_exclusive(self):
        # M and E are the exclusive states: the only ones a store hits in.
        assert {state for state in State if state.writable} == \
            {State.M, State.E}


class TestMesh:
    def setup_method(self):
        self.mesh = Mesh(NocConfig(mesh_width=4, mesh_height=4,
                                   router_cycles=2, link_cycles=1))

    def test_coords(self):
        assert self.mesh.coords(0) == (0, 0)
        assert self.mesh.coords(5) == (1, 1)
        assert self.mesh.coords(15) == (3, 3)

    def test_hops_manhattan(self):
        assert self.mesh.hops(0, 0) == 0
        assert self.mesh.hops(0, 3) == 3
        assert self.mesh.hops(0, 15) == 6

    def test_hops_symmetric(self):
        for a in range(16):
            for b in range(16):
                assert self.mesh.hops(a, b) == self.mesh.hops(b, a)

    def test_latency_formula(self):
        # h links + (h+1) routers
        assert self.mesh.latency(0, 0) == 2
        assert self.mesh.latency(0, 1) == 1 + 4

    def test_round_trip(self):
        assert self.mesh.round_trip(0, 5) == 2 * self.mesh.latency(0, 5)

    def test_max_latency_from(self):
        assert self.mesh.max_latency_from(0, []) == 0
        worst = self.mesh.max_latency_from(0, [1, 15])
        assert worst == self.mesh.latency(0, 15)

    @pytest.mark.parametrize("noc", NOCS, ids=repr)
    def test_tables_match_closed_form(self, noc):
        mesh = Mesh(noc)
        width = noc.mesh_width
        for a in range(noc.num_tiles):
            for b in range(noc.num_tiles):
                h = abs(a % width - b % width) + abs(a // width - b // width)
                assert mesh.hops(a, b) == h
                assert mesh.latency(a, b) == \
                    h * noc.link_cycles + (h + 1) * noc.router_cycles
                assert mesh.round_trip(a, b) == 2 * mesh.latency(a, b)


class TestNocCharges:
    """The memory system's per-tile tables charge exactly what the mesh
    geometry says, for every core and bank."""

    @pytest.mark.parametrize("config", [SystemConfig(), small_config()],
                             ids=["tableI", "small"])
    def test_every_core_and_bank(self, config):
        msys = Machine(config).msys
        mesh, stats = msys.mesh, msys.stats
        tiles, cores = config.noc.num_tiles, config.num_cores
        tile = config.tile_of_core
        for c in range(cores):
            for b in range(config.l3_banks):
                assert msys._dir_rt[c][b] == \
                    2 * mesh.latency(tile(c), b % tiles)
                assert msys._dir_hops2[c][b] == \
                    2 * mesh.hops(tile(c), b % tiles)
        for src in range(cores):
            for dst in range(cores):
                hops, forwards = stats.noc_hops, stats.forwards
                assert msys._forward_latency(src, dst) == \
                    mesh.latency(tile(src), tile(dst))
                assert stats.noc_hops - hops == mesh.hops(tile(src), tile(dst))
                assert stats.forwards == forwards + 1
        hops = stats.noc_hops
        for line_no in range(2 * config.l3_banks):
            home = line_no % config.l3_banks % tiles
            assert msys._fanout_cycles(line_no, []) == 0
            for c in range(cores):
                assert msys._fanout_cycles(line_no, [c]) == \
                    2 * mesh.latency(home, tile(c))
            assert msys._fanout_cycles(line_no, range(cores)) == 2 * max(
                mesh.latency(home, tile(c)) for c in range(cores))
        assert stats.noc_hops == hops  # fan-outs record no traffic

    def test_out_of_range_cores_raise(self, msys):
        # SYSTEM's -1 must not wrap to the last tile.
        with pytest.raises(KeyError):
            msys._forward_latency(-1, 0)
        with pytest.raises(KeyError):
            msys._forward_latency(0, msys.config.num_cores)
        with pytest.raises(KeyError):
            msys._fanout_cycles(0, [0, -1])


class TestCacheLine:
    def test_u_state_requires_label(self):
        with pytest.raises(ProtocolError):
            CacheLine(line=0, state=State.U, words=[0] * 8)

    def test_snapshot_and_rollback(self):
        entry = CacheLine(line=0, state=State.M, words=[1] * 8)
        entry.snapshot_before_write()
        entry.spec_written = True
        entry.words = [2] * 8
        assert entry.spec_modified
        entry.rollback()
        assert entry.words == [1] * 8
        assert not entry.speculative

    def test_snapshot_once(self):
        entry = CacheLine(line=0, state=State.M, words=[1] * 8)
        entry.snapshot_before_write()
        entry.words = [2] * 8
        entry.snapshot_before_write()  # must keep the ORIGINAL value
        entry.words = [3] * 8
        entry.rollback()
        assert entry.words == [1] * 8

    def test_commit_clears_spec(self):
        entry = CacheLine(line=0, state=State.M, words=[1] * 8)
        entry.snapshot_before_write()
        entry.spec_written = True
        entry.words = [2] * 8
        entry.commit()
        assert entry.words == [2] * 8
        assert not entry.speculative
        assert entry.clean_words is None

    def test_nonspec_words(self):
        entry = CacheLine(line=0, state=State.M, words=[1] * 8)
        entry.snapshot_before_write()
        entry.words = [2] * 8
        assert entry.nonspec_words() == [1] * 8


def _small_cache(l1_lines=2, l2_lines=4):
    return PrivateCache(
        0,
        CacheGeometry(size_bytes=l1_lines * 64, ways=1, latency=1),
        CacheGeometry(size_bytes=l2_lines * 64, ways=1, latency=6),
    )


class TestPrivateCache:
    def test_lookup_miss(self):
        cache = _small_cache()
        assert cache.lookup(0) is None

    def test_install_and_lookup(self):
        cache = _small_cache()
        cache.install(CacheLine(line=3, state=State.S, words=[0] * 8))
        assert cache.lookup(3).state is State.S

    def test_l1_tracker_hits(self):
        cache = _small_cache(l1_lines=2)
        cache.install(CacheLine(line=0, state=State.S, words=[0] * 8))
        assert cache.touch(0)  # just installed -> L1 hit
        cache.install(CacheLine(line=1, state=State.S, words=[0] * 8))
        cache.install(CacheLine(line=2, state=State.S, words=[0] * 8))
        # line 0 fell out of the 2-line L1 but is still in the L2.
        assert not cache.touch(0)
        assert cache.lookup(0) is not None

    def test_l2_capacity_evicts_lru(self):
        evicted = []
        cache = _small_cache(l2_lines=2)
        cache.eviction_hook = evicted.append
        for line in range(3):
            cache.install(CacheLine(line=line, state=State.S, words=[0] * 8))
        assert [e.line for e in evicted] == [0]
        assert cache.lookup(0) is None

    def test_spec_eviction_hook_fires(self):
        events = []
        cache = _small_cache(l1_lines=1, l2_lines=8)
        cache.spec_eviction_hook = lambda core, why: events.append(why)
        entry = CacheLine(line=0, state=State.M, words=[0] * 8)
        entry.spec_written = True
        cache.install(entry)
        cache.install(CacheLine(line=1, state=State.S, words=[0] * 8))
        assert events == ["l1-capacity"]

    def test_rollback_and_commit_all(self):
        cache = _small_cache(l2_lines=8)
        entry = CacheLine(line=0, state=State.M, words=[1] * 8)
        cache.install(entry)
        cache.mark_store(entry, False)
        entry.words = [9] * 8
        cache.rollback_all()
        assert cache.lookup(0).words == [1] * 8
        entry2 = cache.lookup(0)
        cache.mark_store(entry2, False)
        entry2.words = [5] * 8
        cache.commit_all()
        assert cache.lookup(0).words == [5] * 8
        assert not cache.lookup(0).speculative

    def test_drop(self):
        cache = _small_cache()
        cache.install(CacheLine(line=0, state=State.S, words=[0] * 8))
        cache.drop(0)
        assert cache.lookup(0) is None

    def test_spec_lines(self):
        cache = _small_cache(l2_lines=8)
        a = CacheLine(line=0, state=State.M, words=[0] * 8)
        cache.install(a)
        cache.mark_read(a)
        cache.install(CacheLine(line=1, state=State.S, words=[0] * 8))
        assert [e.line for e in cache.spec_lines()] == [0]

    def test_each_line_recorded_once(self):
        cache = _small_cache(l2_lines=8)
        a = CacheLine(line=0, state=State.M, words=[0] * 8)
        cache.install(a)
        cache.mark_read(a)
        cache.mark_labeled(a)
        cache.mark_store(a, False)
        cache.mark_store(a, True)
        assert cache.spec_lines() == [a]
        assert a.spec_read and a.spec_written and a.spec_labeled

    def test_dropped_or_replaced_line_leaves_spec_lines(self):
        cache = _small_cache(l2_lines=8)
        dropped = CacheLine(line=0, state=State.S, words=[0] * 8)
        replaced = CacheLine(line=1, state=State.U, label=ADD,
                             words=[0] * 8)
        kept = CacheLine(line=2, state=State.M, words=[0] * 8)
        for entry in (dropped, replaced, kept):
            cache.install(entry)
        cache.mark_read(dropped)
        cache.mark_labeled(replaced)
        cache.mark_store(kept, False)
        cache.drop(0)
        successor = CacheLine(line=1, state=State.M, words=[7] * 8)
        cache.install(successor)
        assert cache.spec_lines() == [kept]
        # Committing the dead entries along with the live one is harmless.
        cache.commit_all()
        assert cache.spec_lines() == []
        assert not successor.speculative
        assert cache.lookup(1).words == [7] * 8

    @pytest.mark.parametrize("finish", ["commit_all", "rollback_all"])
    def test_finish_leaves_unmarked_lines_untouched(self, finish):
        cache = _small_cache(l1_lines=64, l2_lines=64)
        unmarked = []
        for line in range(40):
            entry = CacheLine(line=line, state=(State.M, State.S)[line % 2],
                              words=[line] * 8)
            cache.install(entry)
            unmarked.append(entry)
        marked = CacheLine(line=40, state=State.M, words=[1] * 8)
        cache.install(marked)
        cache.mark_store(marked, False)
        marked.words = [2] * 8
        # Commit or rollback of this line would drop its clean copy.
        unmarked[0].clean_words = [99] * 8
        words = [e.words for e in unmarked]
        before = [(list(e.words), e.clean_words, e.state) for e in unmarked]
        getattr(cache, finish)()
        assert [(list(e.words), e.clean_words, e.state)
                for e in unmarked] == before
        assert all(e.words is w for e, w in zip(unmarked, words))
        assert marked.words == ([2] * 8 if finish == "commit_all"
                                else [1] * 8)
        assert not marked.speculative and marked.clean_words is None


class TestDirectory:
    def test_entry_fills_from_memory(self):
        mem = MainMemory()
        mem.write_word(0, 42)
        directory = Directory(mem, num_lines=0)
        ent = directory.entry(0)
        assert ent.words[0] == 42

    def test_l3_miss_pays_memory_latency(self):
        # The same first load, with the line cold and already in the L3:
        # only the L3 miss counts one and pays the main-memory latency.
        cold, warm = Machine(small_config()).msys, Machine(small_config()).msys
        warm.directory.entry(0x1000 // 64)
        assert warm.stats.l3_misses == 1
        miss = cold.load(0, 0x1000, Requester(0, None, 0)).cycles
        hit = warm.load(0, 0x1000, Requester(0, None, 0)).cycles
        assert miss - hit == cold.config.mem_latency
        assert cold.stats.l3_misses == warm.stats.l3_misses == 1

    def test_direntry_incompatible_sharers(self):
        ent = DirEntry(line=0, words=[0] * 8)
        ent.owner = 1
        ent.sharers = {2}
        with pytest.raises(ProtocolError):
            ent.check()

    def test_direntry_u_without_label(self):
        ent = DirEntry(line=0, words=[0] * 8)
        ent.u_sharers = {1}
        with pytest.raises(ProtocolError):
            ent.check()

    def test_drop_sharer(self):
        ent = DirEntry(line=0, words=[0] * 8)
        ent.u_sharers = {1, 2}
        ent.u_label = ADD
        directory = Directory(MainMemory(), num_lines=0)
        directory.drop_sharer(ent, 1)
        assert ent.u_sharers == {2}
        directory.drop_sharer(ent, 2)
        assert ent.u_label is None  # cleared with the last sharer

    def test_private_state_of(self):
        ent = DirEntry(line=0, words=[0] * 8, owner=3)
        assert ent.private_state_of(3) is State.M
        assert ent.private_state_of(1) is State.I

    def test_capacity_eviction_writes_back(self):
        mem = MainMemory()
        directory = Directory(mem, num_lines=2)
        e0 = directory.entry(0)
        e0.words = [7] * 8
        e0.dirty = True
        directory.entry(1)
        directory.entry(2)  # evicts line 0
        assert directory.peek(0) is None
        assert mem.read_word(0) == 7

    def test_eviction_with_sharers_requires_hook(self):
        directory = Directory(MainMemory(), num_lines=1)
        ent = directory.entry(0)
        ent.owner = 1
        with pytest.raises(ProtocolError):
            directory.entry(1)  # would evict line 0 with a live owner

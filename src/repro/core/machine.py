"""The machine facade: one simulated chip, ready to run workloads.

This is the main entry point of the public API::

    from repro import Machine, SystemConfig
    from repro.core.labels import add_label

    machine = Machine(SystemConfig(num_cores=128))
    ADD = machine.register_label(add_label())
    counter = machine.alloc.alloc_words(1)

    def body(ctx):
        def txn(ctx):
            v = yield LabeledLoad(counter, ADD)
            yield LabeledStore(counter, ADD, v + 1)
        for _ in range(1000):
            yield Atomic(txn)

    result = machine.run_spmd(body, num_threads=64)
    print(result.cycles, result.stats.aborts)

Setting ``config.commtm_enabled = False`` turns the same machine into the
paper's baseline eager-lazy HTM: labeled operations execute as conventional
loads and stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..coherence.protocol import MemorySystem
from ..errors import SimulationError
from ..htm.conflict import ConflictManager
from ..htm.htm import HtmRuntime
from ..mem.layout import Allocator
from ..mem.memory import MainMemory
from ..params import SystemConfig
from ..sim.engine import Engine
from ..sim.rng import RngStreams
from ..sim.stats import Stats
from .labels import Label, LabelRegistry


@dataclass
class MachineResult:
    """Outcome of one simulated run."""

    stats: Stats
    machine: "Machine"

    @property
    def cycles(self) -> int:
        """Simulated completion time of the parallel region."""
        return self.stats.parallel_cycles


class Machine:
    """One simulated multicore chip (Table I system + CommTM extensions)."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 virtualize_labels: bool = False,
                 sanitize: Optional[bool] = None,
                 observe: Optional[bool] = None,
                 backend: Optional[str] = None):
        self.config = config if config is not None else SystemConfig()
        # Engine backend ("interp" or "vector"). Like ``sanitize`` and
        # ``observe`` this is not a SystemConfig field — backends are
        # bit-identical in simulated behaviour, so the backend must not
        # perturb config fingerprints; the harness carries it on PointSpec
        # instead (where it *is* part of the cache fingerprint, because
        # cached results record which backend produced them). None defers
        # to REPRO_BACKEND, then to the interpreted default.
        from ..sim import vector
        self.backend = vector.resolve_backend(backend)
        self.stats = Stats(num_cores=self.config.num_cores)
        self.stats.host_backend = self.backend
        from ..sim.trace import Tracer
        self.tracer = Tracer(enabled=self.config.trace_enabled)
        self.rng = RngStreams(self.config.seed)
        self.memory = MainMemory()
        self.alloc = Allocator()
        self.labels = LabelRegistry(self.config.num_labels,
                                    virtualize=virtualize_labels)
        self.msys = MemorySystem(self.config, self.memory, self.labels,
                                 self.stats, self.rng)
        self.msys.tracer = self.tracer
        # Opt-in coherence-invariant checking (repro.analysis.sanitizer).
        # ``sanitize`` is kept out of SystemConfig on purpose: it cannot
        # change simulated results, so it must not perturb the result
        # cache's config fingerprints. None defers to REPRO_SANITIZE.
        from ..analysis import sanitizer
        self.sanitizer: Optional[sanitizer.CoherenceSanitizer] = None
        if sanitize if sanitize is not None else sanitizer.sanitize_enabled():
            sanitizer.install(self)
        self.conflicts = ConflictManager(self.msys.caches, self.stats,
                                         policy=self.config.conflict_policy)
        self.msys.attach_conflict_manager(self.conflicts)
        self.htm = HtmRuntime(self.config.num_cores, self.conflicts,
                              self.msys.caches, self.stats)
        # Opt-in structured observability (repro.obs). Like ``sanitize``,
        # ``observe`` is deliberately not a SystemConfig field: it cannot
        # change simulated results, so it must not perturb the result
        # cache's config fingerprints. None defers to REPRO_OBS.
        from ..obs import Observer, obs_enabled
        self.obs: Optional[Observer] = None
        if observe if observe is not None else obs_enabled():
            self.obs = Observer(self)
            self.msys.obs = self.obs
            self.conflicts.obs = self.obs
        self._ran = False

    # ------------------------------------------------------------------

    def register_label(self, label: Label) -> Label:
        return self.labels.register(label)

    def seed_word(self, addr: int, value: object) -> None:
        """Initialize memory before the simulation (no cycles charged)."""
        self.memory.write_word(addr, value)

    def read_word(self, addr: int) -> object:
        """Read the globally-reduced value at ``addr`` (for verification)."""
        return self.msys.peek_word(addr)

    def seed_reducible(self, addr: int, label: Label,
                       per_core_values: dict) -> None:
        """Pre-install a line in U state with given per-core partial values.

        Scaled-down-run methodology: the paper's runs are long enough that
        the initial distribution of reducible state across caches (the
        "warmup" of one GETU + gather per core and object) is amortized
        away; our runs are shorter, so workloads may start in steady state
        by seeding each running core's U-state line directly. The invariant
        — reducing all private copies yields the logical value — holds by
        construction. No cycles are charged.
        """
        from ..coherence.line import CacheLine
        from ..coherence.states import State
        from ..mem.address import line_of, word_index

        if self.config.commtm_enabled:
            line_no = line_of(addr)
            idx = word_index(addr)
            ent = self.msys.directory.entry(line_no)
            if not ent.unshared or ent.u_sharers:
                raise SimulationError(
                    f"seed_reducible on already-shared line {line_no}"
                )
            for core, value in per_core_values.items():
                words = label.identity_line()
                words[idx] = value
                self.msys.caches[core].install(
                    CacheLine(line=line_no, state=State.U, label=label,
                              words=words, dirty=True)
                )
                ent.u_sharers.add(core)
            ent.u_label = label
            ent.check()
        else:
            # Baseline machine: reduce the partials host-side (handler
            # memory accesses go straight to main memory) and store the
            # logical value.
            from .labels import HandlerContext

            hctx = HandlerContext(self.memory.read_word,
                                  self.memory.write_word)
            idx = word_index(addr)
            merged = None
            for value in per_core_values.values():
                words = label.identity_line()
                words[idx] = value
                merged = words if merged is None else label.reduce(
                    hctx, merged, words
                )
            if merged is not None:
                self.memory.write_word(addr, merged[idx])

    def flush_reducible(self) -> None:
        """Force a real reduction of every line still in U state.

        Post-run verification helper: line-level reduction handlers (linked
        lists, top-K) perform real memory writes, so distributed partial
        state must be collapsed through the protocol — not peeked — before
        reading structures out of simulated memory.
        """
        from ..coherence.messages import SYSTEM
        from ..mem.address import line_base

        pending = True
        while pending:
            pending = False
            for line_no, ent in list(self.msys.directory._entries.items()):
                if ent.u_sharers:
                    home = sorted(ent.u_sharers)[0]
                    self.msys.load(home, line_base(line_no), SYSTEM)
                    pending = True

    # ------------------------------------------------------------------

    def run(self, bodies: List[Callable]) -> MachineResult:
        """Run one generator function per thread to completion."""
        if self._ran:
            raise SimulationError(
                "a Machine can only run once; build a fresh one per run"
            )
        self._ran = True
        if self.backend == "vector":
            from ..sim.vector.engine import VectorEngine
            engine = VectorEngine(self, bodies)
        else:
            engine = Engine(self, bodies)
        # A sanitized run checks only dirty lines per op; these full
        # sweeps cover state seeded before the run and close it out.
        if self.sanitizer is not None:
            self.sanitizer.check("run start")
        engine.run()
        if self.sanitizer is not None:
            self.sanitizer.check("run end")
        if self.obs is not None:
            self.obs.recorder.close_open_spans()
            self.stats.host_hot_lines = self.obs.hot_lines()
        return MachineResult(stats=self.stats, machine=self)

    def run_spmd(self, body: Callable, num_threads: int) -> MachineResult:
        """Run the same body on ``num_threads`` threads (SPMD)."""
        if num_threads <= 0:
            raise SimulationError("need at least one thread")
        return self.run([body] * num_threads)

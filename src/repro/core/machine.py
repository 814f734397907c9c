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

How the machine runs — engine backend, coherence sanitizer, observer, and
the fast-path and run-ahead escape hatches — is resolved once, when it is
built, into ``machine.options`` (:class:`RunOptions`); the environment is
not read again, so a machine runs with the options it was built with.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..analysis.sanitizer import SANITIZE_ENV
from ..coherence.protocol import MemorySystem
from ..errors import ConfigError, SimulationError
from ..htm.conflict import ConflictManager
from ..htm.htm import HtmRuntime
from ..mem.layout import Allocator
from ..mem.memory import MainMemory
from ..obs.observer import OBS_ENV
from ..params import SystemConfig
from ..sim.engine import NO_FASTPATH_ENV, NO_RUNAHEAD_ENV, Engine
from ..sim.rng import RngStreams
from ..sim.stats import Stats
from ..sim.vector import BACKEND_ENV, BACKENDS, INTERP
from .labels import Label, LabelRegistry


def env_flag(name: str) -> bool:
    """Whether the variable ``name`` is set on: anything but unset, "",
    ``0``, ``false`` or ``no`` (any case, surrounding blanks ignored)."""
    return os.environ.get(name, "").strip().lower() not in (
        "", "0", "false", "no")


def resolve_backend(explicit: Optional[str] = None) -> str:
    """The engine backend, ``"interp"`` or ``"vector"``: ``explicit``
    (the ``Machine(backend=...)`` or CLI argument), else
    :data:`~repro.sim.vector.BACKEND_ENV`, else the interpreted default.
    Unknown names raise :class:`ConfigError`."""
    if explicit is None:
        explicit = os.environ.get(BACKEND_ENV, "").strip() or INTERP
    name = str(explicit).strip().lower()
    if name not in BACKENDS:
        raise ConfigError(
            f"unknown engine backend {name!r}; choose one of {BACKENDS}"
        )
    return name


@dataclass(frozen=True)
class RunOptions:
    """How one machine runs, resolved once when it is built.

    None of these can change a simulated number, which is why they are
    kept out of :class:`SystemConfig` and so out of the result cache's
    config fingerprints. ``fastpath`` and ``runahead`` are the reference
    escape hatches ``REPRO_NO_FASTPATH`` and ``REPRO_NO_RUNAHEAD``."""

    backend: str
    sanitize: bool
    observe: bool
    fastpath: bool
    runahead: bool


#: The variables :func:`resolve_options` reads. A sweep's pool workers
#: apply the dispatching process's values of these before each point.
OPTION_ENVS = (BACKEND_ENV, SANITIZE_ENV, OBS_ENV, NO_FASTPATH_ENV,
               NO_RUNAHEAD_ENV)


def resolve_options(backend: Optional[str] = None,
                    sanitize: Optional[bool] = None,
                    observe: Optional[bool] = None) -> RunOptions:
    """Each option from its explicit argument, else its ``REPRO_*``
    variable, else its default."""
    return RunOptions(
        backend=resolve_backend(backend),
        sanitize=env_flag(SANITIZE_ENV) if sanitize is None else sanitize,
        observe=env_flag(OBS_ENV) if observe is None else observe,
        fastpath=not env_flag(NO_FASTPATH_ENV),
        runahead=not env_flag(NO_RUNAHEAD_ENV),
    )


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
                 sanitize: Optional[bool] = None,
                 observe: Optional[bool] = None,
                 backend: Optional[str] = None):
        self.config = config if config is not None else SystemConfig()
        # Backend, sanitizer and observer are run options, not config:
        # backends are bit-identical in simulated behaviour (the harness
        # carries the backend on PointSpec, where it is part of the cache
        # fingerprint because cached results record which backend
        # produced them).
        self.options = resolve_options(backend, sanitize, observe)
        self.stats = Stats(num_cores=self.config.num_cores)
        self.stats.host_backend = self.options.backend
        self.rng = RngStreams(self.config.seed)
        self.memory = MainMemory()
        self.alloc = Allocator()
        self.labels = LabelRegistry(self.config.num_labels,
                                    virtualize=self.config.virtualize_labels)
        self.msys = MemorySystem(self.config, self.memory, self.labels,
                                 self.stats, self.rng)
        # Opt-in coherence-invariant checking (repro.analysis.sanitizer).
        from ..analysis import sanitizer
        self.sanitizer: Optional[sanitizer.CoherenceSanitizer] = None
        if self.options.sanitize:
            sanitizer.install(self)
        self.conflicts = ConflictManager(self.msys.caches, self.stats,
                                         policy=self.config.conflict_policy)
        self.msys.attach_conflict_manager(self.conflicts)
        self.htm = HtmRuntime(self.config.num_cores, self.conflicts,
                              self.msys.caches, self.stats)
        # Opt-in structured observability (repro.obs).
        from ..obs import Observer
        self.obs: Optional[Observer] = None
        if self.options.observe:
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
        if self.options.backend == "vector":
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

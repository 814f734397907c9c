"""System configuration (the paper's Table I).

The defaults reproduce the simulated 16-tile, 128-core chip of Sec. V:

========== ==========================================================
Cores      128 cores, x86-64, 2.4 GHz, IPC-1 except on L1 misses
L1 caches  32 KB private, 8-way, split D/I (we model the D side)
L2 caches  128 KB private, 8-way, inclusive, 6-cycle latency
L3 cache   64 MB shared, 16 banks x 4 MB, 16-way, inclusive,
           15-cycle bank latency, in-cache directory
Coherence  MESI / CommTM, 64 B lines, no silent drops
NoC        4x4 mesh, 2-cycle routers, 1-cycle 256-bit links
Main mem   4 controllers, 136-cycle latency
========== ==========================================================

All knobs are plain dataclass fields so experiments can sweep them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import ConfigError

#: Bytes per cache line (fixed by the paper; changing it is supported but
#: every benchmark assumes 64-byte lines / 8 words).
LINE_BYTES = 64

#: Bytes per word. The paper's examples use 8-byte (64-bit) values.
WORD_BYTES = 8

#: Words per cache line.
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES


@dataclass
class CacheGeometry:
    """Size/associativity of one cache level.

    ``size_bytes`` of 0 disables capacity modelling for that level (infinite
    cache); the default geometries are finite, per Table I.
    """

    size_bytes: int
    ways: int
    latency: int  # access latency in cycles

    @property
    def num_lines(self) -> int:
        return self.size_bytes // LINE_BYTES

    @property
    def num_sets(self) -> int:
        if self.size_bytes == 0:
            return 0
        return max(1, self.num_lines // self.ways)

    def validate(self) -> None:
        if self.size_bytes < 0 or self.ways <= 0 or self.latency < 0:
            raise ConfigError(f"invalid cache geometry: {self}")
        if self.size_bytes and self.num_lines < self.ways:
            raise ConfigError(f"cache smaller than one set: {self}")


@dataclass
class NocConfig:
    """4x4 mesh with 2-cycle routers and 1-cycle links (Table I)."""

    mesh_width: int = 4
    mesh_height: int = 4
    router_cycles: int = 2
    link_cycles: int = 1

    @property
    def num_tiles(self) -> int:
        return self.mesh_width * self.mesh_height

    def validate(self) -> None:
        if self.mesh_width <= 0 or self.mesh_height <= 0:
            raise ConfigError(f"invalid mesh: {self}")


@dataclass
class SystemConfig:
    """Full simulated-system configuration (Table I defaults)."""

    num_cores: int = 128
    freq_ghz: float = 2.4

    l1: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(size_bytes=32 * 1024, ways=8, latency=1)
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(size_bytes=128 * 1024, ways=8, latency=6)
    )
    l3: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            size_bytes=64 * 1024 * 1024, ways=16, latency=15
        )
    )
    l3_banks: int = 16

    noc: NocConfig = field(default_factory=NocConfig)
    mem_latency: int = 136
    mem_controllers: int = 4

    #: Number of hardware labels CommTM supports (Sec. III-A suggests 8).
    num_labels: int = 8

    #: When True, registering more labels than ``num_labels`` shares
    #: hardware ids round-robin (Sec. III-D label virtualization) instead
    #: of raising; shared ids change which U lines may coexist.
    virtualize_labels: bool = False

    #: When False, labeled operations execute as conventional loads/stores
    #: and gathers as conventional loads: this *is* the baseline eager-lazy
    #: HTM the paper compares against (same workload code, no U state).
    commtm_enabled: bool = True

    #: When False, ``load_gather`` behaves as a plain labeled load (no
    #: redistribution) — the "CommTM w/o gather" configuration of Fig. 10.
    gather_enabled: bool = True

    #: HTM begin/commit fixed overheads (cycles), in the ballpark of
    #: TSX-style implementations.
    tx_begin_cycles: int = 8
    tx_commit_cycles: int = 12

    #: Cycles charged per word merged by a reduction handler, on top of the
    #: handler's own simulated memory accesses (models the shadow thread's
    #: arithmetic).
    reduction_cycles_per_word: int = 2

    #: Conflict resolution policy: "timestamp" (paper default: older wins,
    #: younger aborts / requester NACKed) or "requester_wins".
    conflict_policy: str = "timestamp"

    #: Conflict detection for conventional accesses: "eager" (the paper's
    #: baseline: conflicts detected through coherence as they happen) or
    #: "lazy" (Sec. III-D generalization, TCC/Bulk-style: speculative
    #: stores buffer in S state without coherence actions; commit publishes
    #: the write set and aborts conflicting transactions). Labeled (U-state)
    #: operations behave identically in both modes — commutative updates
    #: never conflict either way.
    conflict_detection: str = "eager"

    #: Randomized-backoff parameters (cycles). Aborted transactions wait
    #: uniform(0, min(base << aborts, max)) before retrying.
    backoff_base: int = 32
    backoff_max: int = 8192

    #: Engine guard: abort the simulation if a single transaction restarts
    #: more than this many times (livelock would otherwise hang the host).
    max_restarts: int = 100_000

    #: RNG seed for the run (backoff jitter, initial clock skew, workloads
    #: draw from derived streams).
    seed: int = 1

    # Observation (``repro.obs``: timelines, Perfetto traces, lifecycle
    # records, hot-line metrics) is deliberately NOT a config field: it
    # cannot change simulated results, so enabling it must not perturb
    # the result cache's config fingerprints. It is a run option instead
    # (``Machine(..., observe=True)`` or ``REPRO_OBS=1``).

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError("num_cores must be positive")
        if self.num_labels <= 0:
            raise ConfigError("num_labels must be positive")
        if self.conflict_policy not in ("timestamp", "requester_wins"):
            raise ConfigError(f"unknown conflict policy {self.conflict_policy!r}")
        if self.conflict_detection not in ("eager", "lazy"):
            raise ConfigError(
                f"unknown conflict detection {self.conflict_detection!r}"
            )
        for geom in (self.l1, self.l2, self.l3):
            geom.validate()
        self.noc.validate()
        if self.num_cores % self.noc.num_tiles != 0:
            raise ConfigError(
                f"num_cores ({self.num_cores}) must be a multiple of the tile "
                f"count ({self.noc.num_tiles})"
            )

    @property
    def cores_per_tile(self) -> int:
        return self.num_cores // self.noc.num_tiles

    def tile_of_core(self, core_id: int) -> int:
        if not 0 <= core_id < self.num_cores:
            raise ConfigError(f"core id {core_id} out of range")
        return core_id // self.cores_per_tile

    def replace(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced (validated)."""
        return dataclasses.replace(self, **kwargs)

    def describe(self) -> str:
        """Render the configuration as a Table I-style block."""
        rows = [
            ("Cores", f"{self.num_cores} cores, IPC-1 except on L1 misses, "
                      f"{self.freq_ghz} GHz"),
            ("L1 caches", f"{self.l1.size_bytes // 1024} KB private, "
                          f"{self.l1.ways}-way, {self.l1.latency}-cycle"),
            ("L2 caches", f"{self.l2.size_bytes // 1024} KB private, "
                          f"{self.l2.ways}-way, inclusive, "
                          f"{self.l2.latency}-cycle"),
            ("L3 cache", f"{self.l3.size_bytes // (1024 * 1024)} MB shared, "
                         f"{self.l3_banks} banks, {self.l3.ways}-way, "
                         f"inclusive, {self.l3.latency}-cycle bank latency, "
                         f"in-cache directory"),
            ("Coherence", f"MESI/CommTM, {LINE_BYTES} B lines, "
                          f"{self.num_labels} labels, no silent drops"),
            ("NoC", f"{self.noc.mesh_width}x{self.noc.mesh_height} mesh, "
                    f"{self.noc.router_cycles}-cycle routers, "
                    f"{self.noc.link_cycles}-cycle links"),
            ("Main mem", f"{self.mem_controllers} controllers, "
                         f"{self.mem_latency}-cycle latency"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {desc}" for name, desc in rows)


def small_config(num_cores: int = 8, seed: int = 1, **kwargs) -> SystemConfig:
    """A scaled-down configuration for tests: 2x2 mesh, small caches.

    Keeps Table I latencies so timing behaviour matches the full system.
    """
    defaults = dict(
        num_cores=num_cores,
        noc=NocConfig(mesh_width=2, mesh_height=2),
        l3_banks=4,
        seed=seed,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)

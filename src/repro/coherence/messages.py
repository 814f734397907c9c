"""Request descriptors and access results exchanged between the runtime,
the HTM layer, and the memory system."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional


class AccessKind(enum.Enum):
    """The protocol-level operation a core issues."""

    LOAD = "load"
    STORE = "store"
    LABELED_LOAD = "labeled_load"
    LABELED_STORE = "labeled_store"
    GATHER = "gather"

    @property
    def is_labeled(self) -> bool:
        return self in (AccessKind.LABELED_LOAD, AccessKind.LABELED_STORE,
                        AccessKind.GATHER)


class Requester:
    """Identity of a memory request's issuer.

    ``ts`` is the issuing transaction's timestamp, or ``None`` for
    non-speculative requests — which, per Sec. III-B4, carry no timestamp
    and cannot be NACKed (they always win conflicts).

    ``now`` is the issuer's local cycle count at issue, used to model
    queueing at the line's home directory bank (contended lines serialize
    their directory transactions). ``None`` (verification/flush accesses)
    skips occupancy modelling.

    A plain slotted class rather than a (frozen) dataclass: one is built
    per memory operation, and the dataclass ``object.__setattr__`` path
    shows up in profiles. Treat instances as immutable.
    """

    __slots__ = ("core", "ts", "now")

    def __init__(self, core: int, ts: Optional[int] = None,
                 now: Optional[int] = None):
        self.core = core
        self.ts = ts
        self.now = now

    @property
    def speculative(self) -> bool:
        return self.ts is not None

    def __repr__(self) -> str:
        return f"Requester(core={self.core}, ts={self.ts}, now={self.now})"


#: Sentinel requester for actions initiated by the memory system itself
#: (evictions, handler accesses). Non-speculative, wins all conflicts.
SYSTEM = Requester(core=-1, ts=None)


@dataclass(slots=True)
class AccessResult:
    """Outcome of one memory operation.

    ``value`` is meaningful for loads/gathers. ``cycles`` is the operation's
    total latency, charged to the issuing core. ``abort_requester`` is set
    when the issuing transaction must abort (it was NACKed, or it performed
    an unlabeled access to its own speculatively-modified labeled data);
    ``abort_cause`` carries the Fig. 18 attribution.
    """

    value: object = None
    cycles: int = 0
    abort_requester: bool = False
    abort_cause: Optional[object] = None  # sim.stats.WastedCause
    #: Victim cores whose transactions were aborted by this access
    #: (already rolled back by the conflict manager; informational).
    #: None until the first aborted victim.
    aborted_victims: Optional[List[int]] = None
    #: Line whose home directory this access transacted with (None for
    #: pure private-cache hits); drives occupancy/queueing modelling.
    dir_line: Optional[int] = None
    #: Portion of ``cycles`` that does NOT occupy the home directory (e.g.
    #: gather donations and merges, which flow core-to-core after the
    #: directory has forwarded the request; the line stays in U meanwhile).
    overlap_cycles: int = 0

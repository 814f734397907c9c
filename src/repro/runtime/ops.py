"""Operations a workload coroutine can yield.

Workloads are generator functions over a :class:`~repro.runtime.ThreadCtx`.
Each ``yield``ed operation executes atomically at the protocol level and
resumes the generator with its result:

=================================== =======================================
``value = yield Load(addr)``        conventional load
``yield Store(addr, value)``        conventional store
``value = yield LabeledLoad(a, L)`` labeled load (CommTM ISA, Sec. III-A)
``yield LabeledStore(a, L, v)``     labeled store
``value = yield LoadGather(a, L)``  gather request (Sec. IV)
``yield Work(n)``                   n cycles of local computation
``ret = yield Atomic(fn, *args)``   run ``fn(ctx, *args)`` as a transaction
=================================== =======================================

``Atomic`` is the transaction boundary: the engine begins a transaction,
drives ``fn``'s generator, and commits at its return. On abort the generator
is discarded and re-created after randomized backoff — exactly the replay
semantics of hardware restart. A nested ``Atomic`` is flattened into its
parent (closed nesting via subsumption, as in the paper's baseline).

Consume-before-resume contract
------------------------------
The engine fully consumes every yielded op — reads its fields, performs the
access, charges cycles — *before* resuming the generator that yielded it.
Nothing on the engine side retains a memory/``Work``/``Barrier`` op past the
handler call (``Atomic`` is the one exception: it is held for abort replay).
Workload code may therefore reuse op objects across yields instead of
allocating a fresh one per operation: the :class:`~repro.runtime.ThreadCtx`
shuttle methods (``ctx.load`` / ``ctx.store`` / labeled variants /
``ctx.work``) mutate-and-return one cached instance per context, and
:data:`BARRIER` interns the payload-free barrier. The flip side of
the contract is that a yielded op must not be *held* by the workload either
— yield the shuttle call directly, never store its result (the
label-discipline lint flags held shuttles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from ..core.labels import Label


# The op classes are allocated once per simulated memory operation — the
# hottest allocation site in the simulator — so they are slotted, and they
# are deliberately *not* frozen: the ThreadCtx shuttles mutate one cached
# instance per op kind (see the consume-before-resume contract above).

@dataclass(slots=True)
class Load:
    addr: int


@dataclass(slots=True)
class Store:
    addr: int
    value: object


@dataclass(slots=True)
class LabeledLoad:
    addr: int
    label: Label


@dataclass(slots=True)
class LabeledStore:
    addr: int
    label: Label
    value: object


@dataclass(slots=True)
class LoadGather:
    addr: int
    label: Label


@dataclass(slots=True)
class Work:
    cycles: int


@dataclass(slots=True)
class Barrier:
    """SPMD barrier: blocks until every live thread reaches one.

    Not allowed inside a transaction (a blocked transaction could deadlock
    conflict resolution). Used by round-synchronous applications (boruvka's
    rounds, kmeans iterations).
    """


class Atomic:
    """Transaction boundary: run ``fn(ctx, *args)`` atomically."""

    __slots__ = ("fn", "args")

    #: Explicit conflict-priority timestamp; ``None`` means allocate one at
    #: begin. Overridden by OrderedAtomic (order == priority).
    ts = None

    def __init__(self, fn: Callable, *args):
        self.fn = fn
        self.args: Tuple = args

    def make_generator(self, ctx):
        return self.fn(ctx, *self.args)

    def __repr__(self) -> str:
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"Atomic({name}, args={self.args!r})"


MEMORY_OPS = (Load, Store, LabeledLoad, LabeledStore, LoadGather)


#: Interned barrier. ``Barrier`` carries no payload and the engine never
#: retains one, so a single module-level instance serves every yield site.
BARRIER = Barrier()


__all__ = [
    "Load",
    "Store",
    "LabeledLoad",
    "LabeledStore",
    "LoadGather",
    "Work",
    "Barrier",
    "Atomic",
    "MEMORY_OPS",
    "BARRIER",
]

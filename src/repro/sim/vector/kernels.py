"""Transaction lowering registry for the vector backend's epoch path.

A *lowering* turns one :class:`~repro.runtime.ops.Atomic` into a
:class:`FusedPlan`: a contiguous run of labeled commutative adds on a
single cache line, plus the transaction's declared return value. When the
epoch engine validates the plan against the core's private cache (line
present and L1-resident, state M/E or U with a matching label, no
speculative residue), the whole transaction — begin, labeled loads/stores,
commit — executes as one closed-form update whose effects and charged
cycles are exactly those of replaying the generator through the private-hit
fast path:

* each word gets ``words[i] += delta`` on a freshly copied words list
  (the fast-path store's copy-on-write), the line is marked dirty, and an
  E line silently upgrades to M;
* one LRU touch per line stands in for the per-op touches (consecutive
  ``move_to_end`` of the same key is idempotent, so the final LRU order is
  identical);
* the charged latency is ``tx_begin_cycles + 2 * rows * l1_latency +
  tx_commit_cycles`` — every access L1-hits because L1 residency is part
  of plan validation;
* the HTM timestamp counter advances by one (a committed transaction's
  timestamp is unobservable to the *simulation*, only the counter's final
  value matters; the observer, when installed, reads the pre-bump value as
  the synthesized begin span's ``ts`` — exactly what ``htm.begin`` would
  have drawn).

Speculative read/write bits are *not* set: commit would clear them in the
same closed-form step, and during an epoch no other core can observe them
(epochs only run while every live core's next operation is local).

Lowerings are registered per transaction *function* (``Atomic.fn`` is
usually a bound method; the registry keys on ``__func__``). Only
transactions that return ``None`` and touch a single line with plain
``+`` updates are lowered here; everything else parks the epoch and runs
through the interpreted path, which is always correct.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Optional

from ...params import LINE_BYTES, WORD_BYTES


class FusedPlan:
    """One Atomic lowered to contiguous labeled adds on a single line."""

    __slots__ = ("line", "idx0", "deltas", "label", "value")

    def __init__(self, line: int, idx0: int, deltas: tuple, label,
                 value=None):
        self.line = line
        self.idx0 = idx0      # first word index within the line
        self.deltas = deltas  # one addend per consecutive word
        self.label = label
        self.value = value    # the transaction's return value


#: transaction function -> (Atomic) -> Optional[FusedPlan]
_LOWERINGS: dict = {}


def register_lowering(fn, lower) -> None:
    """Register ``lower`` for transactions whose ``Atomic.fn`` is ``fn``
    (or a bound method of it). ``lower(atomic)`` returns a FusedPlan, or
    None to decline (the transaction then runs interpreted)."""
    _LOWERINGS[getattr(fn, "__func__", fn)] = lower


def lower_atomic(op) -> Optional[FusedPlan]:
    """Look up and apply the lowering for one Atomic, if any."""
    fn = op.fn
    lower = _LOWERINGS.get(getattr(fn, "__func__", fn))
    if lower is None:
        return None
    return lower(op)


# ---------------------------------------------------------------------------
# Built-in lowerings
# ---------------------------------------------------------------------------

def _lower_shared_counter_add(op) -> Optional[FusedPlan]:
    """``SharedCounter.add``: one labeled load + store = one-word add."""
    counter = op.fn.__self__
    delta = op.args[0] if op.args else 1
    addr = counter.addr
    return FusedPlan(addr // LINE_BYTES, addr % LINE_BYTES // WORD_BYTES,
                     (delta,), counter.label)


def _lower_kmeans_accumulate(op) -> Optional[FusedPlan]:
    """``_KMeans._accumulate``: dims coordinate adds plus a count add,
    contiguous on the cluster's accumulator line."""
    app = op.fn.__self__
    cluster, point = op.args
    base = app.accum[cluster]
    return FusedPlan(base // LINE_BYTES, base % LINE_BYTES // WORD_BYTES,
                     (*point, 1), app.ADD)


def _register_builtins() -> None:
    from ...datatypes.counter import SharedCounter
    from ...workloads.apps.kmeans import _KMeans

    register_lowering(SharedCounter.add, _lower_shared_counter_add)
    register_lowering(_KMeans._accumulate, _lower_kmeans_accumulate)


_register_builtins()


# ---------------------------------------------------------------------------
# Batched reduction kernels
#
# A reduction folds the U sharers' partial lines one merge at a time on the
# shadow thread. For word-wise pure labels the fold never consults the
# HandlerContext, so the whole sharer vector can be folded column by column
# in one pass — provided the result is *identical* to the sequential fold.
# That holds when the label's word reducer is associative and commutative
# on the data actually present. The registry below therefore keys on a
# per-label ``vector_reduce`` tag set by the label factories that satisfy
# this on plain ints — ADD, MIN, MAX, OR (Python ints are exact at any
# magnitude) — and :func:`reduce_lines` declines (returns None, sequential
# fallback) any line set holding other words: OPUT tuples, MIN/MAX
# ``None`` identities, floats.
# ---------------------------------------------------------------------------

#: tag -> fold of one word column.
_REDUCERS = {
    "add": sum,
    "min": min,
    "max": max,
    "or": lambda column: reduce(or_, column),
}

#: ``vector_reduce`` tags with a registered column kernel. The
#: ``missing-lowering`` lint checks every word-wise datatype label
#: against this vocabulary.
SUPPORTED_REDUCE_TAGS = frozenset(_REDUCERS)


def reduce_lines(label, rows):
    """Fold ``rows`` (full-line word lists) under ``label`` column by
    column. Returns the merged word list, or None to decline — unknown
    label, fewer than two rows, or non-int words."""
    fold = _REDUCERS.get(getattr(label, "vector_reduce", None))
    if fold is None or len(rows) < 2:
        return None
    for row in rows:
        for v in row:
            if type(v) is not int:
                return None
    return [fold(column) for column in zip(*rows)]

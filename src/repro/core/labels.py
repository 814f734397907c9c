"""User-defined labels: identity values, reduction handlers, splitters.

A *label* names one set of semantically-commutative operations
(Sec. III-A). Each label carries:

* an **identity value** used to initialize lines that enter U without data
  (GETU cases 4 and 5) — ``reduce(x, identity) == x`` must hold;
* a **reduction handler** that merges an incoming partial line into the
  local line (Sec. III-B4);
* optionally a **splitter** that donates part of the local line to a
  gather requester (Sec. IV).

Handlers come in two shapes:

* *word-wise pure* handlers (``reduce_word``/``split_word``) are applied to
  each of the line's 8 words independently. This covers ADD, MIN, MAX,
  ordered put, and every other flat value type. Cost: a fixed per-word
  charge on the shadow thread.
* *line-level* handlers (``reduce_line``/``split_line``) receive a
  :class:`HandlerContext` and may perform non-speculative memory accesses
  (charged to the shadow thread), which descriptor-based structures such as
  linked lists and top-K heaps need. Per the paper's deadlock rules, these
  accesses must not touch lines held in U state — the context enforces it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import LabelError
from ..params import WORDS_PER_LINE


class HandlerContext:
    """Restricted memory interface handed to line-level handlers.

    Backed by the coherence layer; reads and writes are non-speculative and
    raise :class:`~repro.errors.ReductionError` if they would touch a line
    in U state (which would require a nested reduction — forbidden by
    Sec. III-B4).
    """

    def __init__(self, read_fn, write_fn):
        self._read = read_fn
        self._write = write_fn

    def read(self, addr: int) -> object:
        return self._read(addr)

    def write(self, addr: int, value: object) -> None:
        self._write(addr, value)


ReduceWordFn = Callable[[object, object], object]
SplitWordFn = Callable[[object, int], Tuple[object, object]]
ReduceLineFn = Callable[[HandlerContext, List[object], List[object]], List[object]]
SplitLineFn = Callable[
    [HandlerContext, List[object], int], Tuple[List[object], List[object]]
]


class Label:
    """One user-defined reducible label."""

    def __init__(
        self,
        name: str,
        identity: object,
        reduce_word: Optional[ReduceWordFn] = None,
        split_word: Optional[SplitWordFn] = None,
        reduce_line: Optional[ReduceLineFn] = None,
        split_line: Optional[SplitLineFn] = None,
        is_identity_word: Optional[Callable[[object], bool]] = None,
    ):
        if (reduce_word is None) == (reduce_line is None):
            raise LabelError(
                f"label {name!r}: exactly one of reduce_word/reduce_line required"
            )
        if split_word is not None and reduce_word is None:
            raise LabelError(f"label {name!r}: split_word requires reduce_word")
        if split_line is not None and reduce_line is None:
            raise LabelError(f"label {name!r}: split_line requires reduce_line")
        self.name = name
        self.identity = identity
        self._reduce_word = reduce_word
        self._split_word = split_word
        self._reduce_line = reduce_line
        self._split_line = split_line
        self._is_identity_word = is_identity_word
        #: Assigned by the registry.
        self.label_id: Optional[int] = None

    @property
    def supports_gather(self) -> bool:
        return self._split_word is not None or self._split_line is not None

    def identity_line(self) -> List[object]:
        return [self.identity] * WORDS_PER_LINE

    def is_identity_line(self, words: List[object]) -> bool:
        """True if ``words`` carries no information under this label.

        Routes through the label's own ``is_identity_word`` predicate when
        one is supplied: descriptor-based (line-level) labels often admit
        several encodings of "empty" — e.g. untouched memory words read as
        ``0`` while the declared identity is ``None`` or ``()`` — and plain
        word equality with the identity would misclassify them. The
        protocol uses this test to drop empty gather donations, so a wrong
        answer costs a needless (or a missed) reduction call.
        """
        pred = self._is_identity_word
        if pred is not None:
            return all(pred(w) for w in words)
        return all(w == self.identity for w in words)

    def reduce(self, ctx: HandlerContext, dst: List[object],
               src: List[object]) -> List[object]:
        """Merge partial line ``src`` into ``dst``, returning the result."""
        if self._reduce_word is not None:
            return [self._reduce_word(a, b) for a, b in zip(dst, src)]
        return self._reduce_line(ctx, list(dst), list(src))

    def split(self, ctx: HandlerContext, words: List[object],
              num_sharers: int) -> Tuple[List[object], List[object]]:
        """Split ``words`` into (kept, donated) for a gather request."""
        if not self.supports_gather:
            raise LabelError(f"label {self.name!r} has no splitter")
        if self._split_word is not None:
            kept, donated = [], []
            for w in words:
                k, d = self._split_word(w, num_sharers)
                kept.append(k)
                donated.append(d)
            return kept, donated
        return self._split_line(ctx, list(words), num_sharers)

    def __repr__(self) -> str:
        return f"Label({self.name!r}, id={self.label_id})"


def wordwise_label(name: str, identity: object, reduce_word: ReduceWordFn,
                   split_word: Optional[SplitWordFn] = None,
                   is_identity_word: Optional[Callable[[object], bool]] = None,
                   ) -> Label:
    """Convenience constructor for flat-value labels."""
    return Label(name, identity, reduce_word=reduce_word,
                 split_word=split_word, is_identity_word=is_identity_word)


class LabelRegistry:
    """Maps labels to the hardware label budget.

    The architecture supports ``num_hw_labels`` labels (Sec. III-A suggests
    8). Sec. III-D's *label virtualization* lets a toolchain map more
    program-level labels onto the budget; we model the link-time mapping:
    registering beyond the budget either raises (``virtualize=False``) or
    assigns hardware ids round-robin (``virtualize=True``) — sharing is safe
    only if the sharing operations never touch the same data, which is the
    workload author's contract, exactly as in the paper.
    """

    def __init__(self, num_hw_labels: int = 8, virtualize: bool = False):
        if num_hw_labels <= 0:
            raise LabelError("need at least one hardware label")
        self.num_hw_labels = num_hw_labels
        self.virtualize = virtualize
        self._labels: Dict[str, Label] = {}
        self._order: List[Label] = []

    def register(self, label: Label) -> Label:
        if label.name in self._labels:
            raise LabelError(f"label {label.name!r} already registered")
        index = len(self._order)
        if index >= self.num_hw_labels and not self.virtualize:
            raise LabelError(
                f"hardware label budget ({self.num_hw_labels}) exhausted; "
                f"enable virtualization or use fewer labels"
            )
        label.label_id = index % self.num_hw_labels
        self._labels[label.name] = label
        self._order.append(label)
        return label

    def get(self, name: str) -> Label:
        try:
            return self._labels[name]
        except KeyError:
            raise LabelError(f"unknown label {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._labels

    def __len__(self) -> int:
        return len(self._order)

    def names(self) -> List[str]:
        return [label.name for label in self._order]


# ---------------------------------------------------------------------------
# Standard labels used throughout the paper's benchmarks (Table II).
# ---------------------------------------------------------------------------

def add_label(name: str = "ADD") -> Label:
    """Commutative addition: deltas to shared counters (Sec. III-A)."""

    def split(value: object, num_sharers: int) -> Tuple[object, object]:
        # Donate ceil(value / numSharers), per the paper's add_split.
        if not isinstance(value, (int, float)) or value <= 0:
            return value, 0
        donation = -(-value // num_sharers) if isinstance(value, int) \
            else value / num_sharers
        return value - donation, donation

    return wordwise_label(name, identity=0,
                          reduce_word=lambda a, b: a + b,
                          split_word=split)


def min_label(name: str = "MIN") -> Label:
    """Keep the minimum (boruvka component union key, Table II).

    Identity is ``None`` (no value yet): reduce(x, None) == x.
    """

    def reduce(a: object, b: object) -> object:
        if a is None:
            return b
        if b is None:
            return a
        return a if a <= b else b

    return wordwise_label(name, identity=None, reduce_word=reduce,
                          is_identity_word=lambda w: w is None)


def max_label(name: str = "MAX") -> Label:
    """Keep the maximum (boruvka edge marking, Table II)."""

    def reduce(a: object, b: object) -> object:
        if a is None:
            return b
        if b is None:
            return a
        return a if a >= b else b

    return wordwise_label(name, identity=None, reduce_word=reduce,
                          is_identity_word=lambda w: w is None)


def oput_label(name: str = "OPUT") -> Label:
    """Ordered put / priority update: keep the (key, value) pair with the
    lowest key (Sec. VI). Words hold ``(key, value)`` tuples or ``None``."""

    def reduce(a: object, b: object) -> object:
        # Untouched memory words read as 0; treat them as empty as well, so
        # identity padding holds for lines never explicitly initialized.
        if a is None or a == 0:
            return b
        if b is None or b == 0:
            return a
        return a if a[0] <= b[0] else b

    # Both None and 0 encode "no pair yet" (see reduce above), so the
    # identity test must accept both — otherwise gathers would forward
    # all-zero donated lines as if they carried data.
    return wordwise_label(name, identity=None, reduce_word=reduce,
                          is_identity_word=lambda w: w is None or w == 0)

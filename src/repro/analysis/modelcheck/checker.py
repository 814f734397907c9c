"""Explicit-state model checker for the MESI+U protocol.

The checker drives the *actual* transition handlers of
:class:`~repro.coherence.protocol.MemorySystem` — not a
re-specification — over a small bounded configuration: 2-3 cores on a
single tile, 1-2 tracked lines, infinite caches (no evictions, so the
rng is never drawn), non-speculative requesters at ``now=0`` (no HTM,
no NACKs, no occupancy stalls).  Within that box exploration is
*exhaustive up to a depth bound*: datatype values grow without bound
(``ADD`` reaches a fresh sum at every depth), so a depth-bounded BFS is
what makes the frontier finite — every coherence *shape* (directory
sharer sets, private states, label bindings, GETU cases 1-5, reductions,
gathers, owner downgrades) is reached within a handful of ops, and the
explored-state count plus the ``exhausted`` flag report exactly what was
covered.

**States and symmetry.**  A state is a full
:meth:`~repro.coherence.protocol.MemorySystem.snapshot_state` capture
(caches + directory + memory; ``_line_busy`` is cleared between ops
because occupancy is latency-only metadata).  Cores on one tile are
interchangeable, so each state is canonicalized to the minimum encoding
over all core permutations (cache vectors reordered, directory
owner/sharer sets relabeled) — the classic symmetry reduction.  Traces
are sequences of ``(core, op)`` against canonical representatives;
:func:`replay` re-executes them deterministically.

**Obligations**, discharged on every reachable canonical state:

1. *Invariants* — the shared suite of
   :func:`~repro.analysis.invariants.check_invariants`, the same
   definition the runtime sanitizer enforces.
2. *Commutativity as reachability* (Koskinen & Bansal's reduction of
   commutativity checking to reachability): for all pairs of labeled
   ops on distinct cores, both orderings must reach the same state
   under the *differencing abstraction* that replaces each line's
   per-core partial values with the globally-reduced value
   (:meth:`~repro.coherence.protocol.MemorySystem.peek_word`).  Raw
   partials are never semantically observed — any read that would
   observe them first triggers a reduction — so equal abstract states
   mean the orderings are indistinguishable to every future observer.
3. *Quiescence* — no reachable state deadlocks or strands a partial:
   every op either completes or is a finding (a non-speculative
   requester can never be NACKed, and the bounded config never invokes
   the conflict manager), and from every state a sweep of plain loads
   drains all U lines back to conventional MESI with clean invariants.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...core.labels import LabelRegistry
from ...errors import (LabelError, ProtocolError, ReductionError,
                       TransactionError)
from ...mem.memory import MainMemory
from ...params import CacheGeometry, LINE_BYTES, NocConfig, SystemConfig
from ...sim.rng import RngStreams
from ...sim.stats import Stats
from ..findings import ERROR, Finding
from ..invariants import check_invariants
from .ops import Op, alphabet, apply_op

#: Exceptions that mean "the protocol wedged itself" rather than "the
#: checker is broken". TransactionError/ProtocolError from the
#: NoTransactions conflict manager = a non-speculative run tried to
#: resolve a conflict, which is itself a quiescence violation.
_PROTOCOL_ERRORS = (ProtocolError, ReductionError, LabelError,
                    TransactionError)

DEFAULT_CORES = 2
DEFAULT_LINES = 1
DEFAULT_DEPTH = 6
DEFAULT_MAX_STATES = 20_000

#: Max findings reported per (obligation, check) pair per label; the
#: rest are counted as suppressed (one corrupted transition tends to
#: trip the same check in thousands of states).
_FINDING_CAP = 3


def bounded_config(num_cores: int = DEFAULT_CORES) -> SystemConfig:
    """The model-check box: ``num_cores`` cores on one tile (exact core
    symmetry — every inter-tile latency is identical), one L3 bank,
    infinite caches (``size_bytes=0``: no private or L3 evictions, so
    the eviction rng is never drawn and exploration is deterministic),
    Table-I latencies."""
    return SystemConfig(
        num_cores=num_cores,
        noc=NocConfig(mesh_width=1, mesh_height=1),
        l3_banks=1,
        l1=CacheGeometry(size_bytes=0, ways=1, latency=1),
        l2=CacheGeometry(size_bytes=0, ways=1, latency=6),
        l3=CacheGeometry(size_bytes=0, ways=1, latency=15),
    )


def registered_labels():
    """Every distinct label the built-in datatype suites register, in
    suite order (deduplicated by name — several suites share ADD)."""
    from ...datatypes.contracts import builtin_suites
    labels = []
    seen = set()
    for suite in builtin_suites():
        label = suite.make_label()
        if label.name not in seen:
            seen.add(label.name)
            labels.append(label)
    return labels


Trace = Tuple[Tuple[int, str], ...]


@dataclass
class Counterexample:
    """A finding plus the op sequence that reaches it from reset."""

    obligation: str   # "invariants" | "commutativity" | "quiescence"
    check: str
    label: str
    trace: Trace      # ((core, op.text), ...) from the initial state
    detail: str

    def format(self) -> str:
        steps = " ; ".join(f"c{c}:{text}" for c, text in self.trace) \
            or "<initial state>"
        return (f"[{self.obligation}:{self.check}] label {self.label}: "
                f"{self.detail}\n    trace: {steps}")


@dataclass
class LabelReport:
    """Exploration result for one label's bounded config."""

    label: str
    states: int = 0
    transitions: int = 0
    exhausted: bool = True
    elapsed: float = 0.0
    suppressed: int = 0
    findings: List[Finding] = field(default_factory=list)
    counterexamples: List[Counterexample] = field(default_factory=list)


@dataclass
class ModelCheckReport:
    """Aggregated result over all checked labels."""

    per_label: List[LabelReport]
    cores: int = DEFAULT_CORES
    lines: int = DEFAULT_LINES
    depth: int = DEFAULT_DEPTH

    @property
    def states(self) -> int:
        return sum(r.states for r in self.per_label)

    @property
    def transitions(self) -> int:
        return sum(r.transitions for r in self.per_label)

    @property
    def exhausted(self) -> bool:
        return all(r.exhausted for r in self.per_label)

    @property
    def findings(self) -> List[Finding]:
        return [f for r in self.per_label for f in r.findings]

    @property
    def counterexamples(self) -> List[Counterexample]:
        return [c for r in self.per_label for c in r.counterexamples]


class Explorer:
    """BFS over one label's bounded config, with obligations inline."""

    def __init__(self, label, cores: int = DEFAULT_CORES,
                 lines: int = DEFAULT_LINES, depth: int = DEFAULT_DEPTH):
        self.label = label
        self.cores = cores
        self.lines = lines
        self.depth = depth
        registry = LabelRegistry(num_hw_labels=8, virtualize=True)
        registry.register(label)
        # The default NoTransactions conflict manager raises
        # ProtocolError if any transition ever consults it — in a
        # non-speculative exploration that *is* a quiescence finding.
        from ...coherence.protocol import MemorySystem
        self.msys = MemorySystem(bounded_config(cores), MainMemory(),
                                 registry, Stats(), RngStreams(0))
        self.ops = alphabet(label, lines)
        self.ops_by_text = {op.text: op for op in self.ops}
        self.labeled_ops = [op for op in self.ops if op.is_labeled]
        self._perms = list(itertools.permutations(range(cores)))
        self._identity = tuple(range(cores))
        self._caps: Dict[Tuple[str, str], int] = {}

    # --- state plumbing ----------------------------------------------------

    def _snapshot(self):
        return self.msys.snapshot_state()

    def _restore(self, snap) -> None:
        self.msys.restore_state(snap)

    def _permute(self, snap, perm):
        """Relabel cores of a snapshot: cache vector reordered, directory
        owner/sharer sets mapped. Busy is empty by construction and
        memory is core-agnostic."""
        caches, dirsnap, busy, mem = snap
        new_caches = [None] * len(caches)
        for old, csnap in enumerate(caches):
            new_caches[perm[old]] = csnap
        newdir = []
        for no, ent in dirsnap:
            c = ent.clone()
            c.owner = None if ent.owner is None else perm[ent.owner]
            c.sharers = {perm[s] for s in ent.sharers}
            c.u_sharers = {perm[s] for s in ent.u_sharers}
            newdir.append((no, c))
        return (tuple(new_caches), tuple(newdir), busy, mem)

    def _encode(self, snap) -> str:
        """Deterministic string fingerprint of a snapshot.  Word values
        are heterogeneous (ints, tuples, None), so the encoding is a
        repr string — total ordering over permutation candidates comes
        from string comparison."""
        caches, dirsnap, busy, mem = snap
        cparts = []
        for csnap in caches:
            lines, l1 = csnap
            cparts.append((
                tuple(sorted(
                    (no, cl.state.name,
                     getattr(cl.label, "name", None),
                     repr(cl.words), repr(cl.clean_words), cl.dirty,
                     cl.spec_read, cl.spec_written, cl.spec_labeled)
                    for no, cl in lines)),
                tuple(sorted(l1))))
        dparts = tuple(sorted(
            (no, -1 if ent.owner is None else ent.owner,
             tuple(sorted(ent.sharers)), tuple(sorted(ent.u_sharers)),
             getattr(ent.u_label, "name", None), repr(ent.words),
             ent.dirty)
            for no, ent in dirsnap))
        mparts = tuple(sorted((no, repr(words)) for no, words in mem))
        return repr((cparts, dparts, mparts, busy))

    def _canonical(self, snap):
        """Minimum encoding over all core permutations, plus the
        permuted snapshot realizing it."""
        best_enc = None
        best_snap = snap
        for perm in self._perms:
            cand = snap if perm == self._identity \
                else self._permute(snap, perm)
            enc = self._encode(cand)
            if best_enc is None or enc < best_enc:
                best_enc, best_snap = enc, cand
        return best_enc, best_snap

    # --- op application ----------------------------------------------------

    def _apply(self, core: int, op: Op, trace: Trace,
               report: Optional[LabelReport]):
        """Apply one op to the *current* (already restored) machine.
        Returns the AccessResult, or None when the op wedged — in which
        case a quiescence finding was recorded on ``report``."""
        try:
            res = apply_op(self.msys, self.label, core, op)
        except _PROTOCOL_ERRORS as exc:
            if report is not None:
                self._record(report, "quiescence", "op-wedged", trace,
                             f"applying c{core}:{op.text} raised "
                             f"{type(exc).__name__}: {exc}")
            return None
        # Occupancy is latency-only metadata; clearing it between ops
        # keeps the state space closed under time-shifting (every op
        # notionally starts a fresh quiescent cycle 0).
        self.msys._line_busy.clear()
        if res is not None and res.abort_requester:
            if report is not None:
                self._record(report, "quiescence", "nonspec-abort", trace,
                             f"c{core}:{op.text} aborted a non-speculative "
                             f"requester (cause {res.abort_cause!r})")
            return None
        return res

    # --- findings ----------------------------------------------------------

    def _record(self, report: LabelReport, obligation: str, check: str,
                trace: Trace, detail: str) -> None:
        key = (obligation, check)
        n = self._caps.get(key, 0)
        self._caps[key] = n + 1
        if n >= _FINDING_CAP:
            report.suppressed += 1
            return
        ce = Counterexample(obligation=obligation, check=check,
                            label=self.label.name, trace=trace,
                            detail=detail)
        report.counterexamples.append(ce)
        report.findings.append(Finding(
            pass_name="modelcheck", check=f"{obligation}:{check}",
            severity=ERROR, label=self.label.name,
            message=ce.format()))

    # --- obligations -------------------------------------------------------

    def _check_invariants(self, snap, trace: Trace,
                          report: LabelReport) -> None:
        self._restore(snap)
        for f in check_invariants(self.msys, pass_name="modelcheck"):
            self._record(report, "invariants", f.check, trace, f.message)

    def _abs_word(self, w):
        """Observe one reduced word through the label's identity
        predicate: every encoding of "empty" (``None``, untouched-memory
        ``0`` — see ``Label.is_identity_line``) collapses to one token,
        the same observation discipline the law suites use for
        descriptor labels."""
        pred = self.label._is_identity_word
        if pred is not None:
            try:
                if pred(w):
                    return "<id>"
            except (TypeError, IndexError):
                pass
        elif w == self.label.identity:
            return "<id>"
        return w

    def _abstract_encode(self) -> str:
        """The differencing abstraction of the *current* machine state:
        per-line coherence shape (private states, label bindings,
        directory sets) plus the globally-reduced line value observed
        through :meth:`_abs_word`.  Raw per-core partials and dirty bits
        are deliberately excluded — they are representation, not
        meaning."""
        msys = self.msys
        parts = []
        for line_no in range(self.lines):
            shape = []
            for core in range(self.cores):
                entry = msys.caches[core].lookup(line_no)
                shape.append(
                    "I" if entry is None else
                    (entry.state.name, getattr(entry.label, "name", None)))
            ent = msys.directory.peek(line_no)
            dshape = None if ent is None else (
                -1 if ent.owner is None else ent.owner,
                tuple(sorted(ent.sharers)), tuple(sorted(ent.u_sharers)),
                getattr(ent.u_label, "name", None))
            value = tuple(
                self._abs_word(msys.peek_word(line_no * LINE_BYTES + 8 * i))
                for i in range(8))
            parts.append((tuple(shape), dshape, repr(value)))
        return repr(parts)

    def _check_commutativity(self, snap, trace: Trace,
                             report: LabelReport) -> None:
        """All pairs of labeled ops on distinct cores, both orders, must
        reach the same abstract state."""
        lops = self.labeled_ops
        if not lops or self.cores < 2:
            return
        for c1, c2 in itertools.combinations(range(self.cores), 2):
            for op1 in lops:
                for op2 in lops:
                    first = ((c1, op1), (c2, op2))
                    second = ((c2, op2), (c1, op1))
                    enc_a = self._pair_result(snap, first, trace, report)
                    enc_b = self._pair_result(snap, second, trace, report)
                    if enc_a is None or enc_b is None:
                        continue  # wedge already reported as quiescence
                    if enc_a != enc_b:
                        self._record(
                            report, "commutativity", "order-divergence",
                            trace,
                            f"c{c1}:{op1.text} / c{c2}:{op2.text} diverge: "
                            f"order A reaches {enc_a} but order B "
                            f"reaches {enc_b}")

    def _pair_result(self, snap, pair, trace: Trace,
                     report: LabelReport) -> Optional[str]:
        self._restore(snap)
        for core, op in pair:
            ext = trace + ((core, op.text),)
            if self._apply(core, op, ext, report) is None:
                return None
        return self._abstract_encode()

    def _check_quiescence(self, snap, trace: Trace,
                          report: LabelReport) -> None:
        """From every state, a sweep of plain loads must drain all U
        lines back to conventional MESI with clean invariants."""
        self._restore(snap)
        for line_no in range(self.lines):
            drain = Op("load", line_no)
            ext = trace + ((0, f"<drain:{drain.text}>"),)
            if self._apply(0, drain, ext, report) is None:
                return  # the wedge was recorded
        from ...coherence.states import State
        for cache in self.msys.caches:
            for line_no, cl in cache._lines.items():
                if cl.state is State.U:
                    self._record(
                        report, "quiescence", "undrained-u", trace,
                        f"core {cache.core} still holds L{line_no} in U "
                        f"after a plain-load drain sweep")
        for f in check_invariants(self.msys, pass_name="modelcheck"):
            self._record(report, "quiescence", f"drained-{f.check}",
                         trace, f"after drain sweep: {f.message}")

    def _check_state(self, snap, trace: Trace,
                     report: LabelReport) -> None:
        self._check_invariants(snap, trace, report)
        self._check_commutativity(snap, trace, report)
        self._check_quiescence(snap, trace, report)

    # --- exploration -------------------------------------------------------

    def run(self, max_states: int = DEFAULT_MAX_STATES,
            deadline: Optional[float] = None) -> LabelReport:
        """Depth-bounded BFS from reset. Returns the report; the
        ``exhausted`` flag is False when a budget cut exploration
        short."""
        report = LabelReport(label=self.label.name)
        started = time.monotonic()
        enc, snap = self._canonical(self._snapshot())
        seen = {enc}
        queue = [(snap, (), 0)]
        head = 0
        while head < len(queue):
            if report.states >= max_states or (
                    deadline is not None
                    and time.monotonic() > deadline):
                report.exhausted = False
                break
            snap, trace, depth = queue[head]
            head += 1
            report.states += 1
            self._check_state(snap, trace, report)
            if depth >= self.depth:
                continue
            for core in range(self.cores):
                for op in self.ops:
                    self._restore(snap)
                    ext = trace + ((core, op.text),)
                    if self._apply(core, op, ext, report) is None:
                        continue
                    report.transitions += 1
                    child = self._snapshot()
                    cenc, csnap = self._canonical(child)
                    if cenc not in seen:
                        seen.add(cenc)
                        queue.append((csnap, ext, depth + 1))
        report.elapsed = time.monotonic() - started
        return report

    def replay(self, trace: Sequence[Tuple[int, str]]) -> LabelReport:
        """Re-execute a counterexample trace from reset — restoring the
        per-step canonicalization BFS applied — and re-discharge every
        obligation on the final state.  Deterministic: the same trace
        always reproduces the same findings."""
        report = LabelReport(label=self.label.name)
        enc, snap = self._canonical(self._snapshot())
        applied: Trace = ()
        for core, text in trace:
            op = self.ops_by_text.get(text)
            if op is None:
                # Synthetic probe steps (<drain:...>) mark where
                # an obligation probe, not BFS, applied the op; the
                # final _check_state re-runs those probes.
                break
            self._restore(snap)
            applied = applied + ((core, text),)
            if self._apply(core, op, applied, report) is None:
                return report  # the wedge finding is the reproduction
            enc, snap = self._canonical(self._snapshot())
        self._check_state(snap, applied, report)
        report.elapsed = 0.0
        report.states = 1
        return report


def run_modelcheck(label_names: Optional[Sequence[str]] = None,
                   cores: int = DEFAULT_CORES, lines: int = DEFAULT_LINES,
                   depth: int = DEFAULT_DEPTH,
                   max_states: int = DEFAULT_MAX_STATES,
                   time_budget: Optional[float] = None) -> ModelCheckReport:
    """Explore every registered label's bounded config.

    ``time_budget`` (seconds) is shared across labels; a label whose
    exploration is cut short reports ``exhausted=False`` (surfaced as a
    warning finding by the CLI, not an error)."""
    deadline = None if time_budget is None \
        else time.monotonic() + time_budget
    labels = registered_labels()
    if label_names is not None:
        wanted = set(label_names)
        unknown = wanted - {lb.name for lb in labels}
        if unknown:
            raise ValueError(f"unknown label(s): {sorted(unknown)}; "
                             f"registered: {[lb.name for lb in labels]}")
        labels = [lb for lb in labels if lb.name in wanted]
    reports = []
    for label in labels:
        explorer = Explorer(label, cores=cores, lines=lines, depth=depth)
        reports.append(explorer.run(max_states=max_states,
                                    deadline=deadline))
    return ModelCheckReport(per_label=reports, cores=cores, lines=lines,
                            depth=depth)


def replay(label_name: str, trace: Sequence[Tuple[int, str]],
           cores: int = DEFAULT_CORES, lines: int = DEFAULT_LINES,
           depth: int = DEFAULT_DEPTH) -> LabelReport:
    """Replay one counterexample trace for ``label_name``."""
    for label in registered_labels():
        if label.name == label_name:
            explorer = Explorer(label, cores=cores, lines=lines,
                                depth=depth)
            return explorer.replay(trace)
    raise ValueError(f"unknown label {label_name!r}")

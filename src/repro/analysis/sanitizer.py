"""Runtime coherence-invariant sanitizer (opt-in, zero cost when off).

CommTM extends MESI with the U state, and every protocol transition —
plus the private-hit fast path — must preserve the MESI+U invariants
(Sec. III-B, Fig. 6):

* at most one M/E holder per line, and no other copies while one exists;
* S and U never coexist with M/E, and S never coexists with U;
* every U sharer of a line holds it under the same label, which is the
  directory's ``u_label``;
* the directory's owner/sharer/U-sharer sets exactly match the lines the
  private caches actually hold (directory inclusion, both directions).

The checks themselves live in :mod:`repro.analysis.invariants`, shared
with the exhaustive model checker; this module owns the runtime
discipline. Enable it with ``--sanitize`` or ``REPRO_SANITIZE=1``.

**Dirty-line checkpoints.** Every check reads one line: its private
copies and its directory entry. An operation changes the coherence
state of at most a few lines, so after each memory operation the
sanitizer re-checks, in every cache, only the lines that may have
changed since the previous checkpoint (the *dirty* set):

* the operation's own line, on the fast and the slow path alike;
* every line passed to ``Directory.entry`` or ``Directory.peek`` — every
  protocol transition that changes a copy's state or a directory entry
  first looks the entry up, including the accesses that reduction and
  splitter handlers make;
* every victim of a private-cache eviction or an L3 eviction (an L3
  victim leaves through the eviction hook, not through ``entry``).

*Completeness.* A line's copies and directory entry change only inside
the protocol handlers (spec-bit clears and rollbacks at commit and abort
rewrite words and speculation bits, which no check reads). Each handler
reaches a line's directory entry through ``entry``/``peek`` before it
installs, drops, or re-labels a copy of that line or edits its entry,
and capacity victims are marked by the eviction hooks. So every line
whose check result can differ from the last checkpoint is in the dirty
set, and checking the dirty set is as strong as a full sweep.
``tests/test_sanitizer_incremental.py`` holds the argument to account
with a shadow oracle that diffs the whole machine's per-line projection
between checkpoints.

**Run-boundary sweeps.** A sanitized ``Machine.run`` also sweeps the
whole machine at run start (covering state seeded before the run) and
at run end; :meth:`CoherenceSanitizer.check` is that full sweep, and
code outside a run may call it at any time.

A violation raises :class:`~repro.errors.SanitizerError` naming the
line, cores and states, and where it tripped: the operation class, core
and simulated cycle of the checkpoint, or the sweep. The checkpoint
receives those as plain values and formats them only on failure.

**Zero cost when off.** Every hook is installed at install time: the
directory's ``entry``/``peek`` and eviction hooks are wrapped here
(:func:`install`), and the engine wraps its memory-op handlers when it
finds a sanitizer (``Engine._sanitize_handlers``). With sanitizing off
nothing is installed; the hot paths keep only the ``sanitizer is None``
test that ``MemorySystem._finish`` always made.

**No reference cycles.** The sanitizer holds the caches and the
directory it reads, not the memory system that holds it, and the
``entry``/``peek`` wrappers call the directory through a weak proxy, so
a sanitized machine is freed as soon as its last user drops it, like a
plain one (``tests/test_lifetime.py``).
"""

from __future__ import annotations

import weakref
from typing import List, Optional

from ..errors import SanitizerError
from .findings import ERROR, Finding
from .invariants import check_invariants, check_line, line_holders

#: Set on (anything but "", 0, false or no) to sanitize every run (CLI,
#: tests, benchmarks) without plumbing a flag through. Resolved into
#: ``Machine.options.sanitize``.
SANITIZE_ENV = "REPRO_SANITIZE"


class CoherenceSanitizer:
    """Checks one machine's caches + directory for invariant violations.

    :meth:`checkpoint` checks the dirty lines after one operation;
    :meth:`check` sweeps the whole machine. Both raise on the first
    violation and count as one checkpoint in ``checks_run``.

    Built from a memory system, it keeps that system's ``caches`` and
    ``directory`` (and so can stand in for it wherever only those two
    are read, as :func:`~repro.analysis.invariants.check_invariants`
    does), but not the memory system itself, which holds the sanitizer.
    """

    def __init__(self, msys):
        self.caches = msys.caches
        self.directory = msys.directory
        self.checks_run = 0
        self.violations = 0
        #: Lines whose copies or directory entry may have changed since
        #: the last checkpoint (filled by the hooks :func:`install` sets).
        self.dirty: set = set()
        #: True while a sanitized engine handler owns the current op's
        #: checkpoint, so MemorySystem's public ops do not take a second.
        self.in_op = False
        #: Every cache's line map, indexed by core, bound once: the maps
        #: are mutated in place and never replaced.
        self._maps = [cache._lines for cache in self.caches]
        self._entries = self.directory._entries
        #: Violations found by the current checkpoint, as
        #: ``(check, line, message)``; almost always empty.
        self._found: list = []

    def checkpoint(self, line_no: int, core: int, cycle: Optional[int],
                   op) -> None:
        """Check ``line_no`` (the operation's own line) and every dirty
        line. ``core``, ``cycle`` and ``op`` (the op class) locate the
        operation in the error message."""
        self.dirty.add(line_no)
        self.check_dirty(core, cycle, op)

    def protocol_checkpoint(self, core: int, cycle: Optional[int],
                            op: str) -> None:
        """Checkpoint for a MemorySystem public op ``op`` (its name),
        unless a sanitized engine handler is running it and takes the
        checkpoint itself."""
        if not self.in_op:
            self.check_dirty(core, cycle, op)

    def check_dirty(self, core: Optional[int], cycle: Optional[int],
                    op) -> None:
        """Check every dirty line, then clear the dirty set; on a
        violation, raise naming ``op`` on ``core`` at ``cycle``."""
        dirty = self.dirty
        self.checks_run += 1
        maps = self._maps
        entry_of = self._entries.get
        fail = self._record
        for line in dirty:
            check_line(line, line_holders(line, maps), entry_of(line), fail)
        dirty.clear()
        found = self._found
        if found:
            check, line, message = found[0]
            found.clear()
            where = f"after {getattr(op, '__name__', op)} on core {core}"
            if cycle is not None:  # None: a call outside a simulated run
                where += f" at cycle {cycle}"
            self._raise(Finding(pass_name="sanitizer", check=check,
                                severity=ERROR, message=message,
                                label=hex(line)), where)

    def check(self, where: Optional[str] = None) -> None:
        """Assert every MESI+U invariant over the whole machine.

        Delegates to :func:`~repro.analysis.invariants.check_invariants`
        and raises :class:`~repro.errors.SanitizerError` with the first
        finding's formatted message (a run stops at the first corrupted
        checkpoint; the full list is only meaningful to the offline
        checker). ``where`` labels the sweep in the message, e.g.
        ``"run start"``. Clears the dirty set: the sweep covers it."""
        self.checks_run += 1
        self.dirty.clear()
        findings = check_invariants(self, pass_name="sanitizer")
        if findings:
            self._raise(findings[0],
                        None if where is None else f"{where} sweep")

    def _record(self, check: str, line_no: int, message: str) -> None:
        self._found.append((check, line_no, message))

    def _raise(self, finding: Finding, where: Optional[str]) -> None:
        self.violations += 1
        message = finding.format()
        if where is not None:
            message = f"{message} ({where})"
        raise SanitizerError(message)

    def report(self) -> List[Finding]:
        """Summary finding list (empty when no violation ever tripped)."""
        if self.violations == 0:
            return []
        return [Finding(pass_name="sanitizer", check="summary",
                        severity=ERROR,
                        message=f"{self.violations} violation(s) over "
                                f"{self.checks_run} checkpoints")]


def install(machine, cls=CoherenceSanitizer) -> CoherenceSanitizer:
    """Attach a sanitizer to ``machine`` and return it.

    Sets ``machine.sanitizer`` and the memory system's hook slot
    (``MemorySystem.sanitizer``; None, the default, keeps every op on its
    original path) and wraps the directory's ``entry``/``peek`` and the
    private and L3 eviction hooks so that they mark lines dirty. The
    wrappers are instance attributes: an uninstalled machine keeps the
    class methods and the protocol's own hooks. ``cls`` lets tests
    install an instrumented subclass."""
    msys = machine.msys
    sanitizer = cls(msys)
    machine.sanitizer = sanitizer
    msys.sanitizer = sanitizer
    mark = sanitizer.dirty.add
    directory = msys.directory
    owner = weakref.proxy(directory)
    directory.entry = _marks_line(mark, type(directory).entry, owner)
    directory.peek = _marks_line(mark, type(directory).peek, owner)
    directory.eviction_hook = _marks_victim(mark, directory.eviction_hook)
    for cache in msys.caches:
        cache.eviction_hook = _marks_victim(mark, cache.eviction_hook)
    return sanitizer


def _marks_line(mark, lookup, directory):
    """``lookup`` (the class function ``Directory.entry`` or ``peek``)
    on ``directory``, marking its line. ``directory`` is a weak proxy:
    the wrapper is stored on the directory it calls."""
    def marked(line: int):
        mark(line)
        return lookup(directory, line)
    return marked


def _marks_victim(mark, hook):
    """Eviction ``hook`` (private or L3), marking the victim's line."""
    def marked(victim) -> None:
        mark(victim.line)
        hook(victim)
    return marked

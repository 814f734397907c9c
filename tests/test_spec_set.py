"""The private cache's speculative set is exactly the marked lines.

Commit and abort walk only the lines the transaction marked
(``PrivateCache.commit_all``/``rollback_all``), so a line whose spec bit
was set without recording it would keep its marks, and its speculative
words, past the transaction's end. These tests hold the set to account:

* an oracle wraps ``commit_all`` and ``rollback_all``: on entry the set
  (``spec_lines()``) must hold exactly the held lines that have a spec
  bit, compared by identity; on exit no held line may have one — over
  all ten workloads x both systems x eager and lazy detection x default
  and tiny caches x both backends;
* a ``_write_word`` that sets its bit without recording the line makes
  the oracle fail;
* no module under ``src/`` other than the cache and the line assigns a
  spec bit.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.coherence.cache import PrivateCache
from repro.coherence.protocol import MemorySystem
from repro.core.machine import Machine
from repro.errors import ProtocolError
from repro.harness.runner import run_built
from repro.params import LINE_BYTES, WORD_BYTES, SystemConfig

from .test_sanitizer_incremental import TINY, WORKLOADS

SPEC_BITS = ("spec_read", "spec_written", "spec_labeled")


class SpecSetOracle:
    """Wraps ``commit_all``/``rollback_all`` on the class and records
    every disagreement between the set and the held lines' bits."""

    def __init__(self, monkeypatch):
        self.findings = []
        self.calls = {"commit_all": 0, "rollback_all": 0}
        for name in self.calls:
            monkeypatch.setattr(PrivateCache, name,
                                self._checked(getattr(PrivateCache, name)))

    def _checked(self, finish):
        where = finish.__name__

        def wrapper(cache):
            self.calls[where] += 1
            self._check_entry(cache, where)
            finish(cache)
            self._check_exit(cache, where)
        return wrapper

    def _check_entry(self, cache, where):
        marked = {id(e) for e in cache._lines.values() if e.speculative}
        recorded = [id(e) for e in cache.spec_lines()]
        if len(recorded) != len(set(recorded)) or set(recorded) != marked:
            self.findings.append(
                (where, "entry", cache.core,
                 sorted(e.line for e in cache._lines.values()
                        if e.speculative),
                 sorted(e.line for e in cache.spec_lines())))

    def _check_exit(self, cache, where):
        left = sorted(e.line for e in cache._lines.values() if e.speculative)
        if left:
            self.findings.append((where, "exit", cache.core, left))


def _run(name, commtm, detection, tiny, backend):
    build, params = WORKLOADS[name]
    caches = TINY[name] if tiny else {}
    machine = Machine(SystemConfig(num_cores=16, commtm_enabled=commtm,
                                   conflict_detection=detection, seed=1,
                                   **caches),
                      sanitize=False, observe=False, backend=backend)
    run_built(machine, build(machine, 4, **params))
    return machine


@pytest.mark.parametrize("backend", ["interp", "vector"])
@pytest.mark.parametrize("caches", ["default", "tiny"])
@pytest.mark.parametrize("detection", ["eager", "lazy"])
@pytest.mark.parametrize("commtm", [True, False], ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spec_set_is_exactly_the_marked_lines(name, commtm, detection,
                                              caches, backend, monkeypatch):
    oracle = SpecSetOracle(monkeypatch)
    machine = _run(name, commtm, detection, caches == "tiny", backend)
    assert oracle.findings == []
    assert oracle.calls["rollback_all"] == machine.stats.aborts
    if backend == "interp":
        assert oracle.calls["commit_all"] == machine.stats.commits > 0
    else:
        # Fused transactions on a held line commit closed form, marking
        # nothing and skipping commit_all.
        assert oracle.calls["commit_all"] <= machine.stats.commits


def test_oracle_catches_an_unrecorded_mark(monkeypatch):
    """A store that sets its bit by assignment, bypassing the set."""
    def unrecorded(self, cache, entry, addr, value, requester, labeled):
        if requester.ts is not None:
            entry.snapshot_before_write()
            if labeled:
                entry.spec_labeled = True
            else:
                entry.spec_written = True
        entry.words = words = list(entry.words)
        words[addr % LINE_BYTES // WORD_BYTES] = value
        entry.dirty = True

    monkeypatch.setattr(MemorySystem, "_write_word", unrecorded)
    oracle = SpecSetOracle(monkeypatch)
    # linked_list's enqueues store to freshly allocated nodes, so a store
    # is a line's first mark: the line escapes commit with its bits set,
    # and a later request finds it speculative with no transaction.
    with pytest.raises(ProtocolError, match="no active transaction"):
        _run("linked_list", True, "eager", False, "interp")
    assert {kind for _, kind, *_ in oracle.findings} == {"entry", "exit"}


def _spec_bit_assignments(path):
    """(line, bit) of every assignment to a spec bit in one module:
    attribute targets of (augmented) assignments and ``setattr`` calls
    with a literal bit name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in SPEC_BITS):
            found.append((node.lineno, node.args[1].value))
            continue
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr in SPEC_BITS:
                    found.append((sub.lineno, sub.attr))
    return found


def test_only_the_cache_and_the_line_assign_spec_bits():
    root = Path(repro.__file__).resolve().parent
    allowed = {root / "coherence" / "cache.py", root / "coherence" / "line.py"}
    offenders = {str(path.relative_to(root)): hits
                 for path in sorted(root.rglob("*.py"))
                 if path not in allowed
                 and (hits := _spec_bit_assignments(path))}
    assert offenders == {}
    # The scan sees the assignments it is meant to forbid.
    assert _spec_bit_assignments(root / "coherence" / "cache.py")

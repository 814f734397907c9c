"""Tests for the analysis subsystem: laws, lint, sanitizer, CLI.

The positive direction (built-in datatypes and workloads come out clean)
and the negative direction (injected faults are detected, with enough
context to locate them) are both covered — a checker that never fires is
indistinguishable from one that works.
"""

import pytest

from repro.analysis import (ERROR, WARNING, check_laws, check_paths,
                            check_registry, check_source)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.laws import check_suite
from repro.analysis.sanitizer import SANITIZE_ENV
from repro.coherence.states import State
from repro.core.labels import LabelRegistry, add_label, min_label, \
    wordwise_label
from repro.core.machine import Machine, resolve_options
from repro.datatypes import SharedCounter
from repro.datatypes.contracts import LawSuite, builtin_suites, wordwise_gen
from repro.errors import SanitizerError
from repro.params import SystemConfig
from repro.runtime.ops import Atomic


# ---------------------------------------------------------------------------
# Law checker
# ---------------------------------------------------------------------------

class TestLawChecker:
    def test_builtin_suites_cover_every_datatype(self):
        names = {s.name.split("/")[0] for s in builtin_suites()}
        assert names == {"counter", "bounded_counter", "histogram",
                         "hash_table", "minmax", "ordered_put", "topk",
                         "linked_list", "bloom_filter"}

    def test_builtin_labels_satisfy_all_laws(self):
        assert check_laws(trials=48, seed=0) == []

    def test_deterministic_across_runs(self):
        # Same seed, same verdicts — counterexamples are reproducible.
        assert check_laws(trials=8, seed=3) == check_laws(trials=8, seed=3)

    def test_noncommutative_reducer_detected(self):
        suite = LawSuite(
            name="fault/SUB",
            make_label=lambda: wordwise_label("SUB", 0,
                                             reduce_word=lambda a, b: a - b),
            gen=wordwise_gen(lambda rng: rng.randint(1, 9)))
        checks = {f.check for f in check_suite(suite)}
        assert "commutativity" in checks

    def test_lossy_splitter_detected(self):
        # Keeps v//2 and donates v//2: loses one unit for every odd word.
        suite = LawSuite(
            name="fault/LOSSY",
            make_label=lambda: wordwise_label(
                "LOSSY", 0, reduce_word=lambda a, b: a + b,
                split_word=lambda v, n: (v // 2, v // 2)),
            gen=wordwise_gen(lambda rng: rng.randint(1, 99)))
        findings = check_suite(suite)
        assert any(f.check == "splitter" for f in findings)
        # The finding names the suite and points into this test file.
        bad = next(f for f in findings if f.check == "splitter")
        assert bad.label == "fault/LOSSY"
        assert bad.file and bad.file.endswith("test_analysis.py")
        assert bad.line and bad.line > 0

    def test_wrong_identity_detected(self):
        suite = LawSuite(
            name="fault/WID",
            make_label=lambda: wordwise_label("WID", 1,
                                             reduce_word=lambda a, b: a + b),
            gen=wordwise_gen(lambda rng: rng.randint(1, 9)))
        checks = {f.check for f in check_suite(suite)}
        assert "identity" in checks
        # identity_line() of identity 1 also fails the structural check
        # unless reduce treats 1 as absorbing — it does not.
        assert checks <= {"identity", "identity-detection"}

    def test_crashing_handler_reported_not_raised(self):
        def boom(a, b):
            raise ValueError("no")

        suite = LawSuite(
            name="fault/BOOM",
            make_label=lambda: wordwise_label("BOOM", 0, reduce_word=boom),
            gen=wordwise_gen(lambda rng: 1))
        findings = check_suite(suite)
        assert any(f.check == "handler-crash" for f in findings)


# ---------------------------------------------------------------------------
# Lint
# ---------------------------------------------------------------------------

LINT_HEADER = """
from repro.core.labels import add_label, min_label
from repro.runtime.ops import (Load, Store, LabeledLoad, LabeledStore,
                               LoadGather)
"""


class TestLint:
    def _checks(self, body):
        return [(f.check, f.severity)
                for f in check_source(LINT_HEADER + body, "snippet.py")]

    def test_mixed_store_is_error(self):
        checks = self._checks("""
def txn(ctx, obj):
    v = yield LabeledLoad(obj.addr, obj.label)
    yield Store(obj.addr, v + 1)
""")
        assert ("mixed-store", ERROR) in checks

    def test_load_after_labeled_is_allowed(self):
        # The paper's reduction fallback (bounded counter at zero).
        checks = self._checks("""
def txn(ctx, obj):
    v = yield LabeledLoad(obj.addr, obj.label)
    if v == 0:
        v = yield Load(obj.addr)
    yield LabeledStore(obj.addr, obj.label, v - 1)
""")
        assert checks == []

    def test_load_before_labeled_is_warning(self):
        checks = self._checks("""
def txn(ctx, obj):
    v = yield Load(obj.addr)
    yield LabeledStore(obj.addr, obj.label, v)
""")
        assert ("mixed-load-before", WARNING) in checks

    def test_two_labels_same_address_is_error(self):
        checks = self._checks("""
def txn(ctx, obj):
    v = yield LabeledLoad(obj.addr, obj.label_a)
    yield LabeledStore(obj.addr, obj.label_b, v)
""")
        assert ("label-conflict", ERROR) in checks

    def test_gather_without_splitter_local_var(self):
        checks = self._checks("""
def txn(ctx, obj):
    m = min_label()
    v = yield LoadGather(obj.addr, m)
""")
        assert ("gather-without-splitter", ERROR) in checks

    def test_gather_without_splitter_self_attr(self):
        checks = self._checks("""
class Holder:
    def __init__(self, machine):
        self.label = machine.register_label(min_label())

    def txn(self, ctx):
        v = yield LoadGather(self.addr, self.label)
""")
        assert ("gather-without-splitter", ERROR) in checks

    def test_gather_with_splitter_is_clean(self):
        checks = self._checks("""
class Holder:
    def __init__(self, machine):
        self.label = machine.register_label(add_label())

    def txn(self, ctx):
        v = yield LoadGather(self.addr, self.label)
""")
        assert checks == []

    def test_unregistered_label_is_error(self):
        checks = self._checks("""
lbl = add_label()

def txn(ctx, obj):
    v = yield LabeledLoad(obj.addr, lbl)
""")
        assert ("label-unregistered", ERROR) in checks

    def test_registered_label_is_clean(self):
        checks = self._checks("""
def setup(machine):
    lbl = add_label()
    machine.register_label(lbl)
    return lbl
""")
        assert checks == []

    def test_suppression_comment(self):
        checks = self._checks("""
def txn(ctx, obj):
    v = yield LabeledLoad(obj.addr, obj.label)
    yield Store(obj.addr, 7)  # commtm: allow-mixed
""")
        assert checks == []

    def test_different_functions_do_not_mix(self):
        # bloom_filter pattern: labeled insert, unlabeled membership test.
        checks = self._checks("""
def insert(ctx, obj):
    yield LabeledStore(obj.addr, obj.label, 1)

def contains(ctx, obj):
    v = yield Load(obj.addr)
""")
        assert checks == []

    def test_mixed_store_in_shuttle_form(self):
        # ctx.<method> shuttle calls map onto the same op kinds.
        checks = self._checks("""
def txn(ctx, obj):
    v = yield ctx.labeled_load(obj.addr, obj.label)
    yield ctx.store(obj.addr, v + 1)
""")
        assert ("mixed-store", ERROR) in checks

    def test_load_before_labeled_in_shuttle_form(self):
        checks = self._checks("""
def txn(ctx, obj):
    v = yield ctx.load(obj.addr)
    yield ctx.labeled_store(obj.addr, obj.label, v)
""")
        assert ("mixed-load-before", WARNING) in checks

    def test_shuttle_and_constructor_forms_mix(self):
        # The two spellings of the same address must still collide.
        checks = self._checks("""
def txn(ctx, obj):
    v = yield LabeledLoad(obj.addr, obj.label)
    yield ctx.store(obj.addr, v + 1)
""")
        assert ("mixed-store", ERROR) in checks

    def test_shuttle_held_is_error(self):
        checks = self._checks("""
def txn(ctx, obj):
    op = ctx.load(obj.addr)
    v = yield op
""")
        assert ("shuttle-held", ERROR) in checks

    def test_shuttle_work_held_is_error(self):
        checks = self._checks("""
def txn(ctx):
    ops = [ctx.work(10)]
    for op in ops:
        yield op
""")
        assert ("shuttle-held", ERROR) in checks

    def test_shuttle_yielded_directly_is_clean(self):
        checks = self._checks("""
def txn(ctx, obj):
    v = yield ctx.labeled_load(obj.addr, obj.label)
    yield ctx.labeled_store(obj.addr, obj.label, v + 1)
    yield ctx.work(5)
""")
        assert checks == []

    def test_builtin_datatypes_and_workloads_are_clean(self):
        import repro

        root = __import__("pathlib").Path(repro.__file__).parent
        findings = check_paths([root / "datatypes", root / "workloads"])
        assert findings == []

    def test_registry_aliasing_flagged(self):
        registry = LabelRegistry(num_hw_labels=1, virtualize=True)
        registry.register(add_label())
        registry.register(min_label())
        findings = check_registry(registry)
        assert len(findings) == 1
        assert findings[0].check == "label-aliasing"
        assert findings[0].severity == WARNING
        assert "ADD" in findings[0].message and "MIN" in findings[0].message

    def test_registry_without_aliasing_clean(self):
        registry = LabelRegistry(num_hw_labels=8)
        registry.register(add_label())
        registry.register(min_label())
        assert check_registry(registry) == []


# ---------------------------------------------------------------------------
# Sanitizer
# ---------------------------------------------------------------------------

def _counter_machine(sanitize):
    machine = Machine(SystemConfig(num_cores=16, commtm_enabled=True),
                      sanitize=sanitize)
    counter = SharedCounter(machine)

    def body(ctx):
        for _ in range(10):
            yield Atomic(counter.add, 1)

    result = machine.run_spmd(body, 8)
    machine.flush_reducible()
    return machine, counter, result


class TestSanitizer:
    def test_env_parsing(self, monkeypatch):
        for on in ("1", "true", "YES", " 1 "):
            monkeypatch.setenv(SANITIZE_ENV, on)
            assert resolve_options().sanitize
            assert not resolve_options(sanitize=False).sanitize
        for off in ("", "0", "false", "no"):
            monkeypatch.setenv(SANITIZE_ENV, off)
            assert not resolve_options().sanitize
            assert resolve_options(sanitize=True).sanitize
        monkeypatch.delenv(SANITIZE_ENV)
        assert not resolve_options().sanitize

    def test_off_by_default_installs_nothing(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        machine = Machine(SystemConfig(num_cores=16, commtm_enabled=True))
        assert machine.sanitizer is None
        assert machine.msys.sanitizer is None

    def test_clean_run_checks_and_passes(self):
        machine, counter, _ = _counter_machine(sanitize=True)
        assert machine.read_word(counter.addr) == 80
        assert machine.sanitizer.checks_run > 0
        assert machine.sanitizer.violations == 0
        assert machine.sanitizer.report() == []

    def test_does_not_change_results(self):
        plain_machine, plain_counter, plain = _counter_machine(
            sanitize=False)
        checked_machine, checked_counter, checked = _counter_machine(
            sanitize=True)
        assert plain_machine.read_word(plain_counter.addr) \
            == checked_machine.read_word(checked_counter.addr)
        assert plain.stats.comparable() == checked.stats.comparable()

    def test_stale_owner_trips(self):
        machine, _, _ = _counter_machine(sanitize=True)
        ent = next(iter(machine.msys.directory._entries.values()))
        ent.owner, ent.sharers, ent.u_sharers = 5, set(), set()
        with pytest.raises(SanitizerError, match="directory"):
            machine.sanitizer.check()
        assert machine.sanitizer.violations == 1
        assert machine.sanitizer.report() != []

    def test_multiple_owners_trip(self):
        machine, counter, _ = _counter_machine(sanitize=True)
        # Forge a second M copy of a line some cache legitimately holds.
        src_cache = next(c for c in machine.msys.caches if c._lines)
        line_no, line = next(iter(src_cache._lines.items()))
        line.state = State.M
        other = machine.msys.caches[(src_cache.core + 1)
                                    % len(machine.msys.caches)]
        import copy

        forged = copy.copy(line)
        other._lines[line_no] = forged
        with pytest.raises(SanitizerError):
            machine.sanitizer.check()

    def test_u_label_disagreement_trips(self):
        machine, counter, _ = _counter_machine(sanitize=True)
        machine2 = Machine(SystemConfig(num_cores=16, commtm_enabled=True),
                           sanitize=True)
        counter2 = SharedCounter(machine2)

        def body(ctx):
            for _ in range(5):
                yield Atomic(counter2.add, 1)

        machine2.run_spmd(body, 4)  # leave U lines resident (no flush)
        u_lines = [(c, no, cl) for c in machine2.msys.caches
                   for no, cl in c._lines.items() if cl.state is State.U]
        assert u_lines, "expected resident U lines before flush"
        _, _, cl = u_lines[0]
        cl.label = min_label()  # label swap the directory knows nothing of
        with pytest.raises(SanitizerError, match="label"):
            machine2.sanitizer.check()

    def test_direct_memory_system_ops_checkpoint(self):
        # Hooks live in MemorySystem's public ops too, not just the engine.
        machine, _, _ = _counter_machine(sanitize=True)
        before = machine.sanitizer.checks_run
        from repro.coherence.protocol import Requester

        machine.msys.load(0, 0x9000, Requester(core=0, ts=None, now=0))
        assert machine.sanitizer.checks_run == before + 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_clean_on_builtins(self, capsys):
        assert analysis_main(["--trials", "16"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_bad_user_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "workload.py"
        bad.write_text(LINT_HEADER + """
def txn(ctx, obj):
    v = yield LabeledLoad(obj.addr, obj.label)
    yield Store(obj.addr, v)
""")
        assert analysis_main(["--skip-laws", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "mixed-store" in out
        assert str(bad) in out

    def test_json_output_clean(self, capsys):
        import json

        assert analysis_main(["--trials", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-analysis/1"
        assert payload["errors"] == 0
        assert payload["findings"] == []

    def test_json_output_carries_findings(self, tmp_path, capsys):
        import json

        bad = tmp_path / "workload.py"
        bad.write_text(LINT_HEADER + """
def txn(ctx, obj):
    v = yield LabeledLoad(obj.addr, obj.label)
    yield Store(obj.addr, v)
""")
        assert analysis_main(["--skip-laws", "--json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] >= 1
        checks = {f["check"] for f in payload["findings"]}
        assert "mixed-store" in checks
        # Every finding locates its evidence for mechanical consumers.
        flagged = [f for f in payload["findings"]
                   if f["check"] == "mixed-store"]
        assert flagged[0]["file"] == str(bad)
        assert flagged[0]["line"] is not None
        assert flagged[0]["pass"] == "lint"

    def test_internal_error_exits_2(self, monkeypatch, capsys):
        from repro.analysis import __main__ as cli

        def boom(**kwargs):
            raise RuntimeError("law checker exploded")

        monkeypatch.setattr(cli, "check_laws", boom)
        assert analysis_main(["--trials", "8"]) == 2
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "law checker exploded" in err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            analysis_main(["--trials", "not-a-number"])
        assert exc.value.code == 2

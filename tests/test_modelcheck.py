"""Tests for the exhaustive MESI+U model checker.

Three layers:

* plumbing — snapshot/restore round-trips through the real protocol,
  and the simulator imports and runs without numpy;
* the acceptance obligation — the unmutated protocol passes every
  obligation (invariants, commutativity, quiescence) with zero
  findings, exhausting the 2-core/1-line config for every registered
  label;
* fault injection — each seeded protocol mutation is detected and its
  counterexample trace replays to the same finding.
"""

import subprocess
import sys

from repro.analysis.modelcheck import (Explorer, registered_labels,
                                       replay, run_modelcheck)
from repro.analysis.modelcheck.checker import bounded_config
from repro.coherence.cache import PrivateCache
from repro.coherence.messages import Requester
from repro.coherence.protocol import MemorySystem
from repro.coherence.states import State
from repro.core.labels import LabelRegistry, add_label
from repro.mem.memory import MainMemory
from repro.sim.rng import RngStreams
from repro.sim.stats import Stats

ALL_LABELS = ("ADD", "MIN", "MAX", "OPUT", "TOPK", "LIST", "OR")


def _machine(num_cores=2):
    registry = LabelRegistry(num_hw_labels=8, virtualize=True)
    registry.register(add_label("ADD"))
    return MemorySystem(bounded_config(num_cores), MainMemory(),
                        registry, Stats(), RngStreams(0))


def _req(core):
    return Requester(core=core, ts=None, now=0)


class TestSnapshotRestore:
    def test_roundtrip_restores_exact_state(self):
        msys = _machine()
        label = msys.labels._order[0]
        msys.labeled_store(0, 0, label, 5, _req(0))
        msys.labeled_store(1, 0, label, 7, _req(1))
        snap = msys.snapshot_state()
        before = (msys.state_of(0, 0), msys.state_of(1, 0),
                  msys.peek_word(0))
        # Mutate heavily, then restore.
        msys.load(0, 0, _req(0))
        msys.store(1, 64, 9, _req(1))
        assert msys.state_of(1, 0) is not State.U
        msys.restore_state(snap)
        assert (msys.state_of(0, 0), msys.state_of(1, 0),
                msys.peek_word(0)) == before
        assert msys.state_of(0, 0) is State.U
        assert msys.peek_word(64) == 0

    def test_snapshot_is_reusable_and_isolated(self):
        msys = _machine()
        msys.store(0, 0, 3, _req(0))
        snap = msys.snapshot_state()
        for _ in range(3):
            msys.restore_state(snap)
            msys.store(0, 0, 99, _req(0))
        msys.restore_state(snap)
        # Mutations after restore never leak back into the snapshot.
        assert msys.peek_word(0) == 3

    def test_directory_entry_identity_not_shared(self):
        msys = _machine()
        msys.store(0, 0, 3, _req(0))
        snap = msys.snapshot_state()
        ent_before = msys.directory.peek(0)
        msys.restore_state(snap)
        assert msys.directory.peek(0) is not ent_before
        assert msys.directory.peek(0).owner == 0


class TestCertifyPurity:
    def test_certify_module_does_not_import_numpy(self):
        # The simulator is pure Python: the whole vector engine imports
        # and runs with numpy blocked, and a counter run really fuses
        # transactions inside epochs.
        code = ("import sys; sys.modules['numpy'] = None; "
                "import repro.sim.vector.engine; "
                "from repro.harness.runner import run_workload; "
                "from repro.workloads.micro import counter; "
                "s = run_workload(counter.build, 8, commtm=True, "
                "backend='vector', total_ops=200).stats; "
                "print('ok', s.host_vector_epochs, s.host_vector_fused_txs)")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True,
                             env={"PYTHONPATH": "src"})
        assert out.returncode == 0, out.stderr
        ok, epochs, fused = out.stdout.split()
        assert ok == "ok"
        assert int(epochs) > 0
        assert int(fused) >= 1


class TestCleanProtocol:
    def test_every_label_exhausts_clean(self):
        # The acceptance obligation: zero findings, every label
        # exhausted, on the 2-core/1-line bounded config.
        report = run_modelcheck(depth=4)
        assert [r.label for r in report.per_label] == list(ALL_LABELS)
        assert report.exhausted
        assert report.findings == []
        assert all(r.suppressed == 0 for r in report.per_label)
        assert report.states > 100
        assert report.transitions > report.states

    def test_registered_labels_cover_every_suite_label(self):
        assert [lb.name for lb in registered_labels()] == list(ALL_LABELS)

    def test_three_cores_clean_at_shallow_depth(self):
        report = run_modelcheck(label_names=["ADD"], cores=3, depth=3)
        assert report.findings == []
        assert report.exhausted

    def test_budget_cut_reports_not_exhausted(self):
        report = run_modelcheck(label_names=["ADD"], depth=6,
                                max_states=5)
        assert not report.exhausted
        assert report.per_label[0].states == 5

    def test_symmetry_reduction_halves_the_frontier(self):
        # With 2 symmetric cores, mirrored states collapse: exploring
        # with symmetry must visit fewer states than the op tree would
        # without it (sanity check that canonicalization does work).
        label = registered_labels()[0]
        ex = Explorer(label, cores=2, lines=1, depth=2)
        rep = ex.run()
        # Mirror states (only c0 acted vs only c1 acted) are merged, so
        # depth-1 already dedups: 5 ops x 2 cores -> at most 5 states.
        assert rep.states < 1 + 10 + 100


def _detected(monkeypatch_done, label="ADD", depth=3):
    report = run_modelcheck(label_names=[label], depth=depth)
    ces = report.counterexamples
    assert ces, "mutation not detected"
    return report, ces


class TestFaultInjection:
    """Each seeded mutation is detected with a replayable trace."""

    def _assert_replayable(self, ce, depth=3):
        rep = replay(ce.label, ce.trace, depth=depth)
        found = {(c.obligation, c.check) for c in rep.counterexamples}
        assert (ce.obligation, ce.check) in found, (
            f"replay of {ce.trace} did not reproduce "
            f"{ce.obligation}:{ce.check}; got {found}")

    def test_forged_m_grant_detected(self, monkeypatch):
        # Mutation: after a read downgrade the old owner's private copy
        # is forged back to M — two cores now believe they may write.
        orig = MemorySystem._downgrade_owner_for_read

        def forged(self, core, line_no, ent, requester, res):
            ok = orig(self, core, line_no, ent, requester, res)
            for cache in self.caches:
                cl = cache.peek_line(line_no)
                if cl is not None and cl.state is State.S \
                        and cache.core != core:
                    cl.state = State.M
                    break
            return ok

        monkeypatch.setattr(MemorySystem, "_downgrade_owner_for_read",
                            forged)
        report, ces = _detected(monkeypatch)
        checks = {(c.obligation, c.check) for c in ces}
        assert ("invariants", "owner-with-sharers") in checks \
            or ("invariants", "multiple-owners") in checks
        self._assert_replayable(ces[0])

    def test_dropped_invalidation_detected(self, monkeypatch):
        # Mutation: invalidations are dropped on the floor — stale
        # copies survive every GETX/GETU fan-out.
        monkeypatch.setattr(PrivateCache, "drop",
                            lambda self, line: None)
        report, ces = _detected(monkeypatch)
        checks = {(c.obligation, c.check) for c in ces}
        assert any(ob == "invariants" for ob, _ in checks)
        self._assert_replayable(ces[0])

    def test_wrong_u_reduction_target_detected(self, monkeypatch):
        # Mutation: a reduction installs M at the requester but records
        # the wrong core as directory owner.
        orig = MemorySystem._install_reduced

        def wrong_target(self, core, line_no, ent, merged, own,
                         as_state, label):
            orig(self, core, line_no, ent, merged, own, as_state, label)
            if as_state is State.M:
                ent.owner = (core + 1) % len(self.caches)

        monkeypatch.setattr(MemorySystem, "_install_reduced",
                            wrong_target)
        report, ces = _detected(monkeypatch)
        checks = {c.check for c in ces}
        assert checks & {"stale-owner", "directory-mismatch",
                         "drained-stale-owner",
                         "drained-directory-mismatch"}
        self._assert_replayable(ces[0])

    def test_clean_after_unpatching(self):
        # The monkeypatches above were scoped; the real protocol is
        # still clean (guards against patch leakage between tests).
        report = run_modelcheck(label_names=["ADD"], depth=2)
        assert report.findings == []


class TestCli:
    def test_modelcheck_subcommand_clean(self, capsys):
        from repro.analysis.__main__ import main
        rc = main(["modelcheck", "--label", "ADD", "--depth", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "explored" in out
        assert "0 error(s)" in out

    def test_modelcheck_json_payload(self, capsys):
        import json
        from repro.analysis.__main__ import main
        rc = main(["modelcheck", "--label", "ADD", "--depth", "2",
                   "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["schema"] == "repro-analysis/1"
        assert payload["errors"] == 0
        mc = payload["modelcheck"]
        assert mc["exhausted"] is True
        assert mc["states"] > 0
        assert mc["per_label"][0]["label"] == "ADD"

    def test_budget_cut_is_warning_not_error(self, capsys):
        from repro.analysis.__main__ import main
        rc = main(["modelcheck", "--label", "ADD", "--depth", "6",
                   "--max-states", "3"])
        out = capsys.readouterr().out
        assert rc == 0  # warnings do not gate
        assert "BUDGET CUT" in out
        assert "1 warning(s)" in out

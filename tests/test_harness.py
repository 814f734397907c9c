"""Experiment harness: runner plumbing and speedup-curve protocol."""

import pytest

from repro.errors import SimulationError
from repro.harness import run_workload, speedup_curve
from repro.params import small_config
from repro.workloads.micro import counter


def test_run_workload_returns_result():
    r = run_workload(counter.build, 2, num_cores=16, total_ops=40)
    assert r.name == "counter"
    assert r.num_threads == 2
    assert r.commtm
    assert r.cycles > 0


def test_commtm_flag_propagates():
    r = run_workload(counter.build, 2, num_cores=16, commtm=False,
                     total_ops=40)
    assert not r.commtm
    assert r.stats.getu == 0


def test_base_config_respected():
    cfg = small_config(num_cores=16, backoff_base=1)
    r = run_workload(counter.build, 2, base_config=cfg, total_ops=40)
    assert r.cycles > 0


def test_speedup_curve_default_systems():
    curves = speedup_curve(counter.build, [1, 4], num_cores=16,
                           total_ops=200)
    assert set(curves) == {"CommTM", "Baseline"}
    assert set(curves["CommTM"]) == {1, 4}
    # 1-thread points sit near 1.0 (CommTM == baseline with no sharing).
    assert curves["Baseline"][1] == pytest.approx(1.0, abs=0.05)
    assert curves["CommTM"][1] == pytest.approx(1.0, rel=0.15)


def test_speedup_curve_shape_counter():
    curves = speedup_curve(counter.build, [1, 8], num_cores=16,
                           total_ops=800)
    assert curves["CommTM"][8] > 4          # near-linear
    assert curves["Baseline"][8] < 1.5      # serialized


def test_speedup_curve_custom_systems():
    curves = speedup_curve(
        counter.build, [2], num_cores=16, total_ops=100,
        systems={"only": {"commtm": True}},
    )
    assert list(curves) == ["only"]


def test_speedup_curve_needs_an_addressable_builder():
    # A sweep's points are specs naming their builder as module:qualname,
    # so a lambda cannot be swept (run_workload runs one point of it).
    with pytest.raises(SimulationError, match="not addressable"):
        speedup_curve(lambda machine, n: counter.build(machine, n, 40),
                      [1, 2], num_cores=16)


def test_verification_can_be_disabled():
    # verify=False must not call the checker (same run, no assertion risk).
    r = run_workload(counter.build, 2, num_cores=16, total_ops=20,
                     verify=False)
    assert r.cycles > 0


def test_seed_changes_timing_slightly():
    results = [
        run_workload(counter.build, 4, num_cores=16, total_ops=100,
                     seed=seed, commtm=False)
        for seed in range(4)
    ]
    assert all(r.stats.commits == 100 for r in results)
    # Jitter injects non-determinism across seeds (Sec. V): at least one
    # seed must produce a different timing.
    assert len({r.cycles for r in results}) > 1

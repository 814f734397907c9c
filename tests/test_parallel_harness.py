"""Parallel sweep layer: spec round-trips, dedupe, pool determinism, and
the on-disk result cache."""

import os
import pickle
import random
import shlex
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.errors import SanitizerError, SimulationError
from repro.harness import (ResultCache, fingerprint, make_spec, run_point,
                           run_points, resolve_build, resolve_jobs,
                           speedup_curve)
from repro.harness.experiments import run_experiment
from repro.harness.parallel import (JOBS_ENV, PointSpec, build_path,
                                    describe_point, replay_command)
from repro.params import small_config
from repro.workloads.micro import counter

REPO_ROOT = Path(__file__).resolve().parents[1]


def _counter_spec(threads=2, *, commtm=True, seed=1, total_ops=60,
                  base_config=None):
    return make_spec(counter.build, threads, num_cores=16, commtm=commtm,
                     seed=seed, base_config=base_config,
                     total_ops=total_ops)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

def test_build_path_roundtrip():
    path = build_path(counter.build)
    assert path == "repro.workloads.micro.counter:build"
    assert resolve_build(path) is counter.build


def test_build_path_rejects_closures():
    def closure(machine, threads):
        return counter.build(machine, threads, total_ops=10)

    with pytest.raises(SimulationError):
        build_path(closure)
    with pytest.raises(SimulationError):
        build_path(lambda machine, threads: None)


def test_spec_canonical_distinguishes_configuration():
    base = _counter_spec()
    assert base.canonical() == _counter_spec().canonical()
    assert base.canonical() != _counter_spec(seed=2).canonical()
    assert base.canonical() != _counter_spec(commtm=False).canonical()
    assert base.canonical() != _counter_spec(total_ops=61).canonical()
    assert base.canonical() != _counter_spec(
        base_config=small_config(num_cores=8, seed=1)).canonical()


def test_spec_pickles():
    spec = _counter_spec(base_config=small_config(num_cores=8, seed=1))
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.canonical() == spec.canonical()


def test_run_point_matches_run_workload():
    from repro.harness import run_workload

    direct = run_workload(counter.build, 2, num_cores=16, commtm=True,
                          seed=1, total_ops=60)
    via_spec = run_point(_counter_spec())
    assert via_spec.cycles == direct.cycles
    assert via_spec.stats.summary() == direct.stats.summary()


# ---------------------------------------------------------------------------
# run_points: dedupe + determinism
# ---------------------------------------------------------------------------

def test_run_points_dedupes_identical_specs():
    a, b = _counter_spec(), _counter_spec()
    first, second, other = run_points([a, b, _counter_spec(commtm=False)])
    assert first is second  # simulated once, shared
    assert other.cycles != 0


def test_serial_and_parallel_sweeps_identical(monkeypatch):
    from repro.harness import parallel as par

    specs = [_counter_spec(t, commtm=c, total_ops=40)
             for t in (1, 2) for c in (False, True)]
    serial = run_points(specs, jobs=1)
    # The pinned CPU count keeps the worker path exercised on single-CPU
    # hosts (where the affinity clamp would otherwise fall back to the
    # serial loop).
    monkeypatch.setattr(par, "_available_cpus", lambda: 4)
    parallel = run_points(specs, jobs=4)
    assert [r.cycles for r in serial] == [r.cycles for r in parallel]
    assert [r.stats.summary() for r in serial] \
        == [r.stats.summary() for r in parallel]


def test_pool_persists_across_sweeps(monkeypatch):
    from repro.harness import parallel as par

    monkeypatch.setattr(par, "_available_cpus", lambda: 4)
    specs = [_counter_spec(t, commtm=c, total_ops=40)
             for t in (1, 2) for c in (False, True)]
    run_points(specs, jobs=2)
    pool = par._pool
    assert pool is not None and par._pool_jobs == 2
    run_points([_counter_spec(t, total_ops=41) for t in (1, 2)],
               jobs=2)
    assert par._pool is pool  # reused, not rebuilt
    # A different worker count rebuilds; shutdown clears.
    run_points(specs, jobs=3)
    assert par._pool is not pool and par._pool_jobs == 3
    par.shutdown_pool()
    assert par._pool is None


def test_oversubscribed_jobs_run_serially(caplog, monkeypatch):
    """More workers than available CPUs is a strict loss (same serial
    work plus dispatch): the clamp must keep the pool out of it and say
    so once."""
    from repro.harness import parallel as par

    monkeypatch.setattr(par, "_available_cpus", lambda: 1)

    def boom(jobs):
        raise AssertionError("pool used despite a one-CPU affinity mask")

    monkeypatch.setattr(par, "get_pool", boom)
    specs = [_counter_spec(t, commtm=c, total_ops=40)
             for t in (1, 2) for c in (False, True)]
    with caplog.at_level("INFO", logger="repro.harness"):
        results = run_points(specs, jobs=4)
    assert len(results) == 4
    assert any("one CPU" in r.message for r in caplog.records)


def test_small_sweep_runs_on_the_pool(monkeypatch):
    """Two uncached points and two usable CPUs are enough for the pool: a
    figure's 8-point sweep gains from it as a 96-point one does."""
    from repro.harness import parallel as par

    real_get_pool, sizes = par.get_pool, []

    def spy(jobs):
        sizes.append(jobs)
        return real_get_pool(jobs)

    monkeypatch.setattr(par, "_available_cpus", lambda: 4)
    monkeypatch.setattr(par, "get_pool", spy)
    specs = [_counter_spec(t, commtm=c, total_ops=40)
             for t in (1, 2) for c in (False, True)]
    assert len(run_points(specs, jobs=2)) == 4
    assert sizes == [2]


def test_pool_workers_take_the_sweeps_run_options(monkeypatch):
    """A pool worker keeps the environment the dispatcher had when the
    pool started, yet every pooled point must run under the options the
    dispatching process has now, whichever way they changed since."""
    from repro.harness import parallel as par
    from repro.obs import OBS_ENV

    monkeypatch.setattr(par, "_available_cpus", lambda: 4)
    specs = [_counter_spec(t, seed=seed, total_ops=40)
             for t in (1, 2) for seed in range(1, 6)]
    run_points(specs, jobs=2)  # the pool exists before the change
    monkeypatch.setenv(OBS_ENV, "1")
    assert all("obs" in r.info for r in run_points(specs, jobs=2))
    monkeypatch.delenv(OBS_ENV)
    assert not any("obs" in r.info for r in run_points(specs, jobs=2))


def _small_sweep():
    return [_counter_spec(t, commtm=c, total_ops=40)
            for t in (1, 2) for c in (False, True)]


def _digest(results):
    return [(r.cycles, r.stats.comparable()) for r in results]


def _run_isolated(args, timeout=60):
    """Run ``python *args`` from the repository root in a session of its
    own, so that a hang is killed whole and fails the test rather than
    hanging the suite; returns the completed process's (code, out, err)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.Popen([sys.executable, *args], cwd=REPO_ROOT, env=env,
                            text=True, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"python {' '.join(args)} did not return")
    return proc.returncode, out, err


#: A driver script with no ``if __name__ == "__main__":`` guard that runs
#: a pooled sweep at module level.
UNGUARDED_SCRIPT = """
from repro.harness import make_spec, parallel, run_points
from repro.workloads.micro import counter

parallel._available_cpus = lambda: 2
specs = [make_spec(counter.build, t, num_cores=16, commtm=True, seed=1,
                   total_ops=60) for t in (1, 2)]
print([r.cycles for r in run_points(specs, jobs=2)])
"""


def test_unguarded_script_runs_a_pooled_sweep(tmp_path):
    """Pool workers are forks of the dispatching process, so they never
    replay ``__main__``: a script without the guard runs its sweep once
    and prints what the serial sweep gives."""
    script = tmp_path / "sweep.py"
    script.write_text(UNGUARDED_SCRIPT)
    code, out, err = _run_isolated([str(script)])
    assert code == 0, err
    serial = run_points([_counter_spec(t) for t in (1, 2)], jobs=1)
    assert out.strip() == str([r.cycles for r in serial])


def test_pool_starts_with_no_thread_running(monkeypatch):
    """A fresh pool forks its workers before any thread of the dispatcher
    starts. From 3.12 CPython warns when a multi-threaded process forks,
    and the warning is an error here."""
    from repro.harness import parallel as par

    monkeypatch.setattr(par, "_available_cpus", lambda: 4)
    par.shutdown_pool()
    specs = _small_sweep()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pooled = run_points(specs, jobs=2)
    assert _digest(pooled) == _digest(run_points(specs, jobs=1))


def unprofiled_build(machine, num_threads, total_ops=40):
    """The counter micro, except that it fails in a process whose thread
    runs under a profiler hook."""
    if sys.getprofile() is not None:
        raise SimulationError("the point ran under a profiler hook")
    return counter.build(machine, num_threads, total_ops=total_ops)


def test_pool_workers_drop_the_profiler_hook(monkeypatch):
    """A worker forked while the dispatcher runs under a profiler (the
    CLI's ``--profile``) does not simulate under it."""
    from repro.harness import parallel as par

    monkeypatch.setattr(par, "_available_cpus", lambda: 4)
    specs = [make_spec(unprofiled_build, t, num_cores=16, seed=seed)
             for t in (1, 2) for seed in (1, 2)]
    par.shutdown_pool()
    sys.setprofile(lambda frame, event, arg: None)
    try:
        pooled = run_points(specs, jobs=2)
    finally:
        sys.setprofile(None)
    assert _digest(pooled) == _digest(run_points(specs, jobs=1))


def test_spawn_fallback_matches_serial(monkeypatch):
    """Where the platform offers no ``fork``, the pool spawns its workers,
    and a sweep on them returns the serial results."""
    import multiprocessing

    from repro.harness import parallel as par

    monkeypatch.setattr(par, "_available_cpus", lambda: 4)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    specs = _small_sweep()
    par.shutdown_pool()
    try:
        assert par._pool_context().get_start_method() == "spawn"
        pooled = run_points(specs, jobs=2)
    finally:
        par.shutdown_pool()
    assert _digest(pooled) == _digest(run_points(specs, jobs=1))


# ---------------------------------------------------------------------------
# A failing point names itself
# ---------------------------------------------------------------------------

FAILING_SEED = 13


def failing_build(machine, num_threads, total_ops=40):
    """The counter micro, except that it raises at one seed, as a failed
    verify or a sanitizer finding would."""
    if machine.config.seed == FAILING_SEED:
        raise SanitizerError(f"injected fault at seed {FAILING_SEED}")
    return counter.build(machine, num_threads, total_ops=total_ops)


def _failing_sweep():
    return [make_spec(failing_build, 2, num_cores=16, seed=seed)
            for seed in (1, FAILING_SEED, 2)]


def dying_build(machine, num_threads, total_ops=40):
    """The counter micro, except that at one seed its process is killed
    outright, as the OOM killer would kill it. The kill waits a moment, so
    that the sweep's other points come back first. Never run in the test
    process: it would kill it."""
    if machine.config.seed == FAILING_SEED:
        time.sleep(0.2)
        os.kill(os.getpid(), signal.SIGKILL)
    return counter.build(machine, num_threads, total_ops=total_ops)


#: Two sweeps that each lose a pool worker, then one that must succeed on
#: a fresh pool. The first has ten points, the second loses exactly one.
DYING_SWEEPS = f"""
from repro.errors import SimulationError
from repro.harness import make_spec, parallel, run_points
from tests.test_parallel_harness import dying_build

parallel._available_cpus = lambda: 2
sweeps = [(1, {FAILING_SEED}, *range(2, 10)), (1, 2, {FAILING_SEED}), (1, 2)]
for seeds in sweeps:
    specs = [make_spec(dying_build, 2, num_cores=16, seed=seed)
             for seed in seeds]
    try:
        print(len(run_points(specs, jobs=2)), "results")
    except SimulationError as exc:
        print(getattr(exc, "point_spec", None), "|", exc)
"""


def test_dead_worker_fails_the_sweep():
    """A sweep whose pool worker dies raises an error naming the points
    that did not come back, instead of waiting for them forever; a lone
    lost point is attached for the CLI's replay line."""
    code, out, err = _run_isolated(["-c", DYING_SWEEPS])
    assert code == 0, err
    ten, one, after = out.splitlines()
    lost = make_spec(dying_build, 2, num_cores=16, seed=FAILING_SEED)
    assert ten.startswith("None | a pool worker died")
    assert describe_point(lost) in ten
    assert one == f"{lost!r} | a pool worker died (killed by a signal or " \
        f"out of memory) before 1 point(s) came back: {describe_point(lost)}"
    assert after == "2 results"


@pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
def test_failing_point_is_attached_to_its_exception(pool, monkeypatch):
    from repro.harness import parallel as par

    specs = _failing_sweep()
    if pool:
        monkeypatch.setattr(par, "_available_cpus", lambda: 4)
    with pytest.raises(SanitizerError) as info:
        run_points(specs, jobs=4 if pool else 1)
    assert info.value.point_spec == specs[1]
    # Every point of a pooled sweep runs in a worker, so the failing
    # point's exception was pickled back with the worker's traceback.
    if pool:
        remote = str(info.value.__cause__)
        assert "Traceback (most recent call last)" in remote
        assert f"injected fault at seed {FAILING_SEED}" in remote
    else:
        assert info.value.__cause__ is None


def test_replay_line_reraises_in_a_subprocess():
    spec = _failing_sweep()[1]
    assert describe_point(spec) == (
        f"tests.test_parallel_harness:failing_build threads=2 "
        f"seed={FAILING_SEED} backend={spec.backend}")
    line = replay_command(spec)
    assert line.startswith('PYTHONPATH=src python -c "from repro.params')
    env = dict(os.environ, PATH=os.pathsep.join(
        [str(Path(sys.executable).parent), os.environ.get("PATH", "")]))
    proc = subprocess.run(line, shell=True, cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stderr.rstrip().splitlines()[-1] == (
        f"repro.errors.SanitizerError: injected fault at seed "
        f"{FAILING_SEED}")


@pytest.mark.parametrize("tag", ["plain", 'quote" dollar$ tick` bang!'])
def test_replay_line_quotes_the_spec_for_the_shell(tag):
    """The line splits back into the command and a program whose
    ``run_point`` argument evaluates to the spec, ``base_config`` and
    shell-special characters included."""
    spec = PointSpec(build="tests.test_parallel_harness:failing_build",
                     num_threads=2, base_config=small_config(num_cores=8),
                     params=(("tag", tag),))
    env, python, flag, code = shlex.split(replay_command(spec))
    assert (env, python, flag) == ("PYTHONPATH=src", "python", "-c")
    imports, _, call = code.rpartition("; ")
    namespace = {}
    exec(imports, namespace)
    assert call.startswith("run_point(") and call.endswith(")")
    assert eval(call[len("run_point("):-1], namespace) == spec


def test_cli_names_the_failing_point(capsys, monkeypatch):
    from repro.harness import __main__ as cli

    spec = _failing_sweep()[1]
    monkeypatch.setattr(cli, "run_experiment",
                        lambda name, **kw: run_points([spec], jobs=1))
    assert cli.main(["fig09", "--no-cache", "--jobs", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-3:] == [
        f"error: SanitizerError: injected fault at seed {FAILING_SEED}",
        f"point: {describe_point(spec)}",
        f"replay: {replay_command(spec)}",
    ]


def test_cli_reports_errors_outside_points(capsys, monkeypatch):
    """A simulator error no point raised gets the error line alone; any
    other exception without a point propagates unchanged."""
    from repro.errors import ConfigError
    from repro.harness import __main__ as cli

    def raising(exc):
        def run_experiment(name, **kw):
            raise exc
        return run_experiment

    monkeypatch.setattr(cli, "run_experiment",
                        raising(ConfigError("bad machine")))
    assert cli.main(["fig09", "--no-cache", "--jobs", "1"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] \
        == "error: ConfigError: bad machine"
    monkeypatch.setattr(cli, "run_experiment", raising(ValueError("bug")))
    with pytest.raises(ValueError, match="bug"):
        cli.main(["fig09", "--no-cache", "--jobs", "1"])


def test_resolve_jobs(monkeypatch):
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == 1
    monkeypatch.setenv(JOBS_ENV, "7")
    assert resolve_jobs() == 7
    monkeypatch.setenv(JOBS_ENV, "seven")
    with pytest.raises(SimulationError):
        resolve_jobs()
    monkeypatch.delenv(JOBS_ENV)
    assert resolve_jobs() >= 1


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _counter_spec()
    assert cache.get(spec) is None
    (result,) = run_points([spec], cache=cache)
    # Two misses: the probing get above plus run_points' own lookup.
    assert cache.misses == 2 and cache.stores == 1

    warm = ResultCache(tmp_path)
    (again,) = run_points([spec], cache=warm)
    assert warm.hits == 1 and warm.misses == 0
    assert again.cycles == result.cycles
    assert again.stats.summary() == result.stats.summary()


def test_cache_invalidates_on_config_change(tmp_path):
    cache = ResultCache(tmp_path)
    run_points([_counter_spec()], cache=cache)

    probe = ResultCache(tmp_path)
    assert probe.get(_counter_spec(seed=9)) is None
    assert probe.get(_counter_spec(commtm=False)) is None
    assert probe.get(
        _counter_spec(base_config=small_config(num_cores=8, seed=1))) is None
    assert probe.get(_counter_spec()) is not None


def test_cache_tolerates_corrupt_entry(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _counter_spec()
    (stored,) = run_points([spec], cache=cache)
    entry = tmp_path / f"{fingerprint(spec)}.pkl"
    good = entry.read_bytes()

    # A flipped bit anywhere in the entry, digest or payload, is a miss:
    # never an exception, never a hit with different numbers.
    probe = ResultCache(tmp_path)
    rng = random.Random(2016)
    flips = 1000
    for _ in range(flips):
        bit = rng.randrange(8 * len(good))
        corrupt = bytearray(good)
        corrupt[bit // 8] ^= 1 << (bit % 8)
        entry.write_bytes(bytes(corrupt))
        assert probe.get(spec) is None
    for bad in (b"not a pickle", good[:len(good) // 2], b""):
        entry.write_bytes(bad)
        assert probe.get(spec) is None
    assert (probe.hits, probe.misses) == (0, flips + 3)

    (result,) = run_points([spec], cache=probe)
    assert probe.stores == 1  # recomputed and stored again
    assert result.cycles == stored.cycles
    again = probe.get(spec)
    assert again.cycles == stored.cycles
    assert again.stats.comparable() == stored.stats.comparable()


def test_cache_clear_and_len(tmp_path):
    cache = ResultCache(tmp_path)
    run_points([_counter_spec(), _counter_spec(commtm=False)], cache=cache)
    assert len(cache) == 2
    assert cache.clear() == 2
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# Harness integration
# ---------------------------------------------------------------------------

def test_speedup_curve_shares_baseline_run(tmp_path):
    cache = ResultCache(tmp_path)
    curves = speedup_curve(counter.build, [1], num_cores=16, total_ops=40,
                           cache=cache)
    # Three requested points (reference, CommTM@1, Baseline@1) but the
    # reference IS Baseline@1: only two simulations hit the cache.
    assert cache.stores == 2
    assert curves["Baseline"][1] == pytest.approx(1.0)


def test_experiment_report_identical_serial_vs_parallel():
    serial = run_experiment("fig09", threads=[1, 2], scale=0.01, jobs=1)
    parallel = run_experiment("fig09", threads=[1, 2], scale=0.01, jobs=4)
    assert serial == parallel


def test_breakdown_experiment_empty_threads():
    # Regression: used to raise UnboundLocalError (columns bound only
    # inside the per-thread loop). An empty ladder renders a bare title.
    report = run_experiment("fig17-kmeans", threads=[])
    assert report == "Fig. 17 — kmeans"
    report = run_experiment("fig18-kmeans", threads=[])
    assert report == "Fig. 18 — kmeans"


def test_cli_smoke(tmp_path, capsys, monkeypatch):
    from repro.harness.__main__ import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["--list"]) == 0
    assert "fig09" in capsys.readouterr().out

    assert main(["fig09", "--threads", "1", "--scale", "0.01",
                 "--jobs", "1"]) == 0
    out = capsys.readouterr()
    assert "Fig. 9" in out.out
    assert "0 hit(s)" in out.err

    assert main(["fig09", "--threads", "1", "--scale", "0.01",
                 "--jobs", "1"]) == 0
    assert "2 hit(s), 0 miss(es)" in capsys.readouterr().err

    assert main(["nope"]) == 2

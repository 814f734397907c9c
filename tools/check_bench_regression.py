"""Non-gating perf-regression check for CI's bench-smoke job.

Compares a freshly measured ``BENCH_sim_throughput.json`` against the
committed baseline copy and emits a GitHub Actions ``::warning::``
annotation for every single-run throughput entry that dropped by more
than the threshold. Baselines are per backend: the interpreted engine's
``single_run_ops_per_sec`` and the vector backend's
``single_run_ops_per_sec_vector`` are each compared like-for-like. Always exits 0: CI runners are far too noisy
for wall-clock numbers to gate a merge — the warnings exist so a real
hot-loop regression shows up on the PR instead of three PRs later.

Usage::

    python tools/check_bench_regression.py BASELINE.json FRESH.json

The committed baseline is measured with the full benchmark config while
CI measures with ``REPRO_BENCH_SMOKE=1`` (smaller runs, fewer reps).
Ops-per-second is a rate, so the two configs land in the same ballpark
and the comparison is still worth making — but when the documents
disagree on ``smoke`` the check says so up front, so a warning can be
read with the config difference (and the runner's speed) in mind.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Fractional drop in ops/sec that triggers a warning annotation.
THRESHOLD = 0.20


#: Per-backend single-run maps, checked against the like-for-like
#: baseline map: interp vs interp, vector vs vector. Throughputs differ
#: by design between backends, so cross-backend comparison would be
#: noise.
RUN_MAPS = (
    ("single_run_ops_per_sec", "interp"),
    ("single_run_ops_per_sec_vector", "vector"),
)

#: Per-workload floors for the interleaved interp-vs-vector speedup
#: (``backend_ab[name].speedup``). Unlike the ops/sec comparison these
#: are absolute: the ratio interleaves both backends in one process, so
#: host speed cancels and the floor holds across machines. kmeans and
#: the CommTM counter must keep their epoch-path wins; the baseline
#: counter never engages epochs, so its floor asserts the adaptive gate
#: keeps the backend within noise of the interpreted engine rather than
#: regressing behind it.
VECTOR_SPEEDUP_FLOORS = {
    "counter_commtm": 5.0,
    "counter_baseline": 0.98,
    "kmeans_commtm": 1.3,
}

#: Smoke configs run points too short for the ratios to stabilize (the
#: epoch path amortizes per-run setup); floors are held with this slack.
SMOKE_FLOOR_SLACK = 0.5


def check(baseline: dict, fresh: dict) -> list:
    """Warning strings for every entry that regressed past THRESHOLD."""
    warnings = []
    if bool(baseline.get("smoke")) != bool(fresh.get("smoke")):
        print(f"note: bench configs differ (baseline "
              f"smoke={baseline.get('smoke')}, fresh "
              f"smoke={fresh.get('smoke')}); ops/sec is a rate, so the "
              f"comparison holds approximately, but read warnings with "
              f"the config difference in mind")
    for map_key, backend in RUN_MAPS:
        base_runs = baseline.get(map_key, {})
        fresh_runs = fresh.get(map_key, {})
        if base_runs and not fresh_runs:
            # The whole map is absent (say, a fresh run that skipped a
            # backend); one missing warning beats one per entry.
            warnings.append(
                f"[{backend}] baseline has entries but none were measured")
            continue
        for name, base_ops in sorted(base_runs.items()):
            fresh_ops = fresh_runs.get(name)
            if fresh_ops is None:
                warnings.append(
                    f"[{backend}] {name}: present in baseline but not "
                    f"measured")
                continue
            if base_ops <= 0:
                continue
            drop = 1.0 - fresh_ops / base_ops
            if drop > THRESHOLD:
                warnings.append(
                    f"[{backend}] {name}: {fresh_ops:,} ops/s is {drop:.0%} "
                    f"below the baseline {base_ops:,} ops/s "
                    f"(threshold {THRESHOLD:.0%})")

    ab = fresh.get("backend_ab", {})
    if ab:
        slack = SMOKE_FLOOR_SLACK if fresh.get("smoke") else 1.0
        for name, floor in sorted(VECTOR_SPEEDUP_FLOORS.items()):
            entry = ab.get(name)
            if entry is None:
                warnings.append(
                    f"[vector] {name}: no backend_ab speedup measured "
                    f"(floor {floor}x)")
                continue
            speedup = entry.get("speedup", 0)
            if speedup < floor * slack:
                warnings.append(
                    f"[vector] {name}: interp-vs-vector speedup "
                    f"{speedup}x is below the floor {floor}x"
                    + (f" (smoke slack {slack})" if slack != 1.0 else ""))
    return warnings


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: check_bench_regression.py BASELINE.json FRESH.json")
        return 0  # non-gating even on misuse
    baseline_path, fresh_path = Path(args[0]), Path(args[1])
    try:
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(fresh_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"::warning::bench regression check skipped: {exc}")
        return 0
    warnings = check(baseline, fresh)
    for message in warnings:
        print(f"::warning::bench: {message}")
    if not warnings:
        print(f"bench regression check: no entry dropped more than "
              f"{THRESHOLD:.0%} vs {baseline_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Judge a change against its parent from two directories of records.

For every (workload, mode, metric) it prints each side's sample count,
median and quartiles, the fraction of seed-matched pairs the change wins,
and a verdict:

* ``improved``: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  spread;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: the parent's own spread is wider than the bound, unless
  every change run beats every parent run;
* ``within bound``: otherwise.

Metrics without a bound that count simulated events, or are ratios of
such counts (``fail_frac`` too), compare exactly: ``identical`` or
``changed``. Per-layer host times have no bound and get a verdict only
when improved.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from . import driver

#: A change must win at least this share of the pairs to claim a gain.
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def pair_wins(pairs, better: str) -> float:
    """Share of (parent, change) pairs the change wins; ties win nothing."""
    if not pairs:
        return 0.0
    sign = 1 if better == "lower" else -1
    return sum((p - c) * sign > 0 for p, c in pairs) / len(pairs)


def verdict(parent, change, pairs, better: str, bound) -> str:
    if bound is None:
        same = (all(p == c for p, c in pairs) if pairs
                else sorted(parent) == sorted(change))
        return "identical" if same else "changed"
    sign = 1 if better == "lower" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = (p_med - c_med) * sign
    if pair_wins(pairs, better) >= WIN_SHARE and gain > q3 - q1:
        return "improved"
    if bound == "info":
        return ""
    scale = abs(p_med) or 1.0
    if (q3 - q1) / scale > bound:
        beats_all = (max(change) < min(parent) if better == "lower"
                     else min(change) > max(parent))
        return "within bound" if beats_all else "unresolved"
    return "worse" if -gain / scale > bound else "within bound"


def load(directory: Path):
    records = []
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("schema") != driver.SCHEMA:
            continue
        if record.get("quick"):
            raise SystemExit(f"{path}: quick records cannot be compared")
        records.append(record)
    if not records:
        raise SystemExit(f"{directory}: no result records")
    return records


def _by_metric(records):
    """(workload, mode, metric) -> {seed: [values in run order]}."""
    out = defaultdict(lambda: defaultdict(list))
    for record in records:
        for name, value in record["values"].items():
            key = (record["workload"], record["mode"], name)
            out[key][record["seed"]].append(value)
    return out


def rule(name: str, table: dict):
    """(better, bound) for a metric. Without a declared bound, ratios and
    counts of simulated events compare exactly (None); host-time metrics
    get no bound ("info")."""
    unit, better, bound = table.get(name, ("", "lower", None))
    if bound is None and unit not in ("count", "ratio"):
        bound = "info"
    return better, bound


def main(parent_dir: Path, change_dir: Path) -> int:
    parent = _by_metric(load(parent_dir))
    change = _by_metric(load(change_dir))
    table = driver.units()
    print(f"{'workload':<8} {'mode':<5} {'metric':<30} {'n':>5} "
          f"{'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
          f"{'wins':>5}  verdict")
    for key in sorted(parent.keys() & change.keys()):
        workload, mode, name = key
        better, bound = rule(name, table)
        pairs = [pc for seed in parent[key].keys() & change[key].keys()
                 for pc in zip(parent[key][seed], change[key][seed])]
        p = [v for vs in parent[key].values() for v in vs]
        c = [v for vs in change[key].values() for v in vs]
        cells = []
        for values in (p, c):
            q1, q3 = quartiles(values)
            cells.append(f"{statistics.median(values):.5g} "
                         f"[{q1:.5g}, {q3:.5g}]")
        print(f"{workload:<8} {mode:<5} {name:<30} {len(p):>2}/{len(c):<2} "
              f"{cells[0]:>32} {cells[1]:>32} "
              f"{pair_wins(pairs, better):>5.2f}  "
              f"{verdict(p, c, pairs, better, bound)}")
    return 0

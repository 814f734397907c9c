"""Export a Perfetto trace and an abort-attribution report.

The same contended counter as ``fig1_timeline.py``, whose ASCII lanes
come from the same observer, exported here in full. Runs it on both
systems and writes:

* ``trace_baseline.json`` / ``trace_commtm.json`` — Chrome/Perfetto
  traces (``repro-obs-trace/2``): one lane per core, transaction spans
  with attempt and outcome, conflict/NACK/reduction/gather/barrier instants,
  backoff intervals, and counter tracks for outstanding U lines and the
  abort rate. Open either file at https://ui.perfetto.dev (or
  chrome://tracing).
* A printed abort-attribution table — the paper's Fig. 18 wasted-cycle
  causes, refined to address/label level: which line, under which label,
  aborted whom, blamed on which attacking cores.

Observation never changes a simulated number (``tests/test_obs.py``
asserts bit-identical cycles and stats across all micro workloads), so
what you see in the trace is exactly what an unobserved run does. An
observed run is the interpreted engine's on either backend.

Run:  python examples/trace_viewer.py
"""

import json

from repro import Atomic, LabeledLoad, LabeledStore, Load, Machine, Work
from repro.core.labels import add_label
from repro.obs import chrome_trace
from repro.params import small_config

WRITERS = 7
INCREMENTS = 12


def run(commtm: bool) -> None:
    config = small_config(num_cores=8, commtm_enabled=commtm)
    machine = Machine(config, observe=True)
    add = machine.register_label(add_label())
    counter = machine.alloc.alloc_line()

    def increment(ctx):
        value = yield LabeledLoad(counter, add)
        yield Work(20)
        yield LabeledStore(counter, add, value + 1)

    def read(ctx):
        value = yield Load(counter)
        return value

    def body(ctx):
        if ctx.tid < WRITERS:
            for _ in range(INCREMENTS):
                yield Atomic(increment)
        else:
            yield Work(400)
            yield Atomic(read)

    machine.run_spmd(body, WRITERS + 1)
    machine.flush_reducible()

    name = "commtm" if commtm else "baseline"
    path = f"trace_{name}.json"
    with open(path, "w") as fh:
        json.dump(chrome_trace(machine.obs, point=name), fh)

    payload = machine.obs.payload()
    summary = payload["lifecycle"]["summary"]
    print(f"--- {name}: {WRITERS} incrementers + 1 reader ---")
    print(f"wrote {path} (open at https://ui.perfetto.dev)")
    print(f"transactions = {summary['transactions']}, "
          f"aborted attempts = {summary['aborted_attempts']}, "
          f"wasted cycles = {summary['wasted_cycles']}")

    rows = payload["lifecycle"]["abort_attribution"]
    if rows:
        print("abort attribution (line, label, cause -> aborts, wasted, "
              "attackers):")
        for row in rows[:5]:
            attackers = ", ".join(f"core {c}×{n}"
                                  for c, n in row["attackers"].items())
            print(f"  line {row['line']} label={row['label']} "
                  f"{row['cause']!r}: {row['aborts']} aborts, "
                  f"{row['wasted_cycles']} cycles [{attackers}]")
    else:
        print("abort attribution: no aborts — commutative updates "
              "ran conflict-free in U state")
    hot = payload["metrics"]["hot_lines"][0]
    print(f"hottest line: {hot['line']} ({hot['touches']} touches, "
          f"{hot['labeled_touches']} labeled)")
    print()


if __name__ == "__main__":
    run(commtm=False)
    run(commtm=True)

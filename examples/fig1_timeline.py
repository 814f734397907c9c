"""Reproduce the paper's Fig. 1 as an execution timeline.

Transactions X0-X4 increment a shared counter and X5 reads it. On a
conventional HTM the increments serialize (a chain of aborts and
retries); with CommTM they run concurrently in U state, and only the
reader triggers a reduction. The lanes are drawn from the observer's
recording: ``(`` marks every attempt, retries included.

Run:  python examples/fig1_timeline.py
"""

from repro import Atomic, LabeledLoad, LabeledStore, Load, Machine, Work
from repro.core.labels import add_label
from repro.obs import render_timeline
from repro.params import small_config

WRITERS = 5


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
            for _ in range(2):
                yield Atomic(increment)   # X0..X4
        else:
            yield Work(150)
            value = yield Atomic(read)    # X5
            assert value <= 2 * WRITERS

    machine.run_spmd(body, WRITERS + 1)
    machine.flush_reducible()

    name = "CommTM" if commtm else "Conventional HTM"
    print(render_timeline(
        machine.obs,
        title=f"--- {name}: X0-X4 increment, X5 reads ---",
    ))
    print(f"final counter = {machine.read_word(counter)}, "
          f"aborts = {machine.stats.aborts}, "
          f"reductions = {machine.stats.reductions}\n")


if __name__ == "__main__":
    run(commtm=False)
    run(commtm=True)

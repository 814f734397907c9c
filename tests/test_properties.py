"""Property-based tests (hypothesis) on core invariants.

Two families:

* algebraic properties of labels and their handlers (reduction order
  independence, identity, split conservation);
* end-to-end serializability/conservation properties of randomly-generated
  workloads on small machines (CommTM vs the sequential model).
"""

import functools
import random

from hypothesis import given, settings, strategies as st

from repro import Atomic, Machine, Work
from repro.core.labels import (
    HandlerContext,
    add_label,
    max_label,
    min_label,
    oput_label,
)
from repro.datatypes import BoundedCounter, SharedCounter, TopKSet
from repro.htm.backoff import backoff_cycles
from repro.mem.layout import Allocator, _align_up, _next_pow2
from repro.params import WORD_BYTES, NocConfig, SystemConfig, small_config
from repro.coherence.noc import Mesh
from repro.sim.clock import CoreClocks

DUMMY = HandlerContext(lambda a: 0, lambda a, v: None)


# ---------------------------------------------------------------------------
# Label algebra
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=8))
def test_add_reduction_order_independent(values):
    """Reducing partials in any order yields the same total (commutative +
    associative merge)."""
    label = add_label()
    lines = [[v] * 8 for v in values]
    forward = functools.reduce(lambda a, b: label.reduce(DUMMY, a, b), lines)
    backward = functools.reduce(lambda a, b: label.reduce(DUMMY, a, b),
                                reversed(lines))
    assert forward == backward == [sum(values)] * 8


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=8))
def test_min_max_reduction_order_independent(values):
    for label, fn in ((min_label(), min), (max_label(), max)):
        lines = [[v] * 8 for v in values]
        out = functools.reduce(lambda a, b: label.reduce(DUMMY, a, b), lines)
        out_r = functools.reduce(lambda a, b: label.reduce(DUMMY, a, b),
                                 reversed(lines))
        assert out == out_r == [fn(values)] * 8


@given(st.lists(st.tuples(st.integers(0, 1000), st.integers()),
                min_size=1, max_size=8))
def test_oput_reduction_keeps_global_min_key(pairs):
    label = oput_label()
    lines = [[p] * 8 for p in pairs]
    out = functools.reduce(lambda a, b: label.reduce(DUMMY, a, b), lines)
    assert out[0][0] == min(k for k, _v in pairs)


@given(st.integers(0, 10**9), st.integers(1, 256))
def test_add_split_conserves_and_terminates(value, sharers):
    label = add_label()
    kept, donated = label.split(DUMMY, [value] * 8, sharers)
    assert kept[0] + donated[0] == value
    assert kept[0] >= 0 and donated[0] >= 0
    if value > 0:
        assert donated[0] >= 1  # a positive sharer always donates


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=6))
def test_identity_is_neutral(values):
    label = add_label()
    line = [values[0]] * 8
    assert label.reduce(DUMMY, line, label.identity_line()) == line
    assert label.reduce(DUMMY, label.identity_line(), line) == line


# ---------------------------------------------------------------------------
# Allocator / mesh arithmetic
# ---------------------------------------------------------------------------

@given(st.integers(0, 2**32), st.sampled_from([1, 2, 4, 8, 16, 64]))
def test_align_up(addr, align):
    out = _align_up(addr, align)
    assert out >= addr
    assert out % align == 0
    assert out - addr < align


@given(st.integers(1, 2**20))
def test_next_pow2(n):
    p = _next_pow2(n)
    assert p >= n and p & (p - 1) == 0
    assert p < 2 * n or n == 1


@given(st.lists(st.integers(1, 64), min_size=1, max_size=30))
def test_allocator_never_overlaps(sizes):
    alloc = Allocator()
    spans = []
    for nwords in sizes:
        a = alloc.alloc_words(nwords)
        spans.append((a, a + nwords * WORD_BYTES))
    spans.sort()
    for (_s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_mesh_triangle_inequality(a, b, c):
    mesh = Mesh(NocConfig())
    assert mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c)
    assert mesh.hops(a, a) == 0


# ---------------------------------------------------------------------------
# End-to-end workload properties
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(
    deltas=st.lists(st.integers(-5, 10), min_size=4, max_size=24),
    seed=st.integers(0, 5),
    commtm=st.booleans(),
)
def test_counter_sum_invariant(deltas, seed, commtm):
    """Any interleaving of commutative adds totals the arithmetic sum."""
    machine = Machine(small_config(num_cores=4, seed=seed,
                                   commtm_enabled=commtm))
    counter = SharedCounter(machine, initial=7)
    chunks = [deltas[t::4] for t in range(4)]

    def make_body(chunk):
        def body(ctx):
            for d in chunk:
                yield Atomic(counter.add, d)
        return body

    machine.run([make_body(c) for c in chunks])
    machine.flush_reducible()
    assert machine.read_word(counter.addr) == 7 + sum(deltas)


@settings(max_examples=10, deadline=None)
@given(
    ops=st.lists(st.booleans(), min_size=4, max_size=30),
    initial=st.integers(0, 6),
    seed=st.integers(0, 3),
    gather=st.booleans(),
)
def test_bounded_counter_never_negative(ops, initial, seed, gather):
    """Whatever the interleaving, the counter stays non-negative, and the
    final value equals initial + successful increments - successful
    decrements."""
    machine = Machine(small_config(num_cores=4, seed=seed))
    counter = BoundedCounter(machine, initial=initial, use_gather=gather)
    results = []

    def make_body(chunk):
        def body(ctx):
            for is_inc in chunk:
                if is_inc:
                    ok = yield Atomic(counter.increment, 1)
                else:
                    ok = yield Atomic(counter.decrement)
                results.append((is_inc, ok))
        return body

    machine.run([make_body(ops[t::4]) for t in range(4)])
    machine.flush_reducible()
    value = machine.read_word(counter.addr)
    incs = sum(1 for is_inc, ok in results if is_inc and ok)
    decs = sum(1 for is_inc, ok in results if not is_inc and ok)
    assert value == initial + incs - decs
    assert value >= 0


@settings(max_examples=8, deadline=None)
@given(
    values=st.lists(st.integers(0, 10**6), min_size=1, max_size=40,
                    unique=True),
    k=st.integers(1, 10),
    seed=st.integers(0, 3),
)
def test_topk_matches_sorted_tail(values, k, seed):
    machine = Machine(small_config(num_cores=4, seed=seed))
    topk = TopKSet(machine, k=k)

    def make_body(chunk):
        def body(ctx):
            for v in chunk:
                yield Atomic(topk.insert, v)
        return body

    machine.run([make_body(values[t::4]) for t in range(4)])
    machine.flush_reducible()
    final = machine.read_word(topk.addr)
    final = () if final == 0 else final
    assert tuple(final) == tuple(sorted(values)[-k:])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_runs_are_deterministic_per_seed(seed):
    """Two machines with the same seed produce identical cycle counts and
    stats; the seed is the only source of non-determinism."""

    def run_once():
        machine = Machine(small_config(num_cores=4, seed=seed))
        counter = SharedCounter(machine)

        def body(ctx):
            for _ in range(5):
                yield Atomic(counter.add, 1)
                yield Work(3)

        machine.run_spmd(body, 4)
        return (machine.stats.parallel_cycles, machine.stats.commits,
                machine.stats.aborts, machine.stats.getu)

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# Random draws
# ---------------------------------------------------------------------------

_TABLE_I = SystemConfig()
#: Every window at and next to a power of two, up to Table I's backoff_max.
_WINDOWS = sorted({w for k in range(_TABLE_I.backoff_max.bit_length())
                   for w in (2**k - 1, 2**k, 2**k + 1)
                   if 1 <= w <= _TABLE_I.backoff_max})


@given(st.integers(0, 2**64 - 1))
def test_draws_are_randranges(seed):
    """The backoff and the clock jitter draw exactly what ``randrange``
    draws from the same stream (they reimplement its
    ``_randbelow_with_getrandbits``). An interpreter whose randrange draws
    differently fails here instead of silently moving simulated
    results."""
    for window in _WINDOWS:
        ref = random.Random(seed)
        rng = random.Random(seed)
        assert [backoff_cycles(rng, 1, window, _TABLE_I.backoff_max)
                for _ in range(3)] == [ref.randrange(window) + 1
                                       for _ in range(3)]
        assert rng.random() == ref.random()  # the streams stay in step
        ref = random.Random(seed)
        clocks = CoreClocks(16, jitter=random.Random(seed),
                            max_jitter=window)
        assert clocks.cycles == [ref.randrange(window) for _ in range(16)]
    base, maximum = _TABLE_I.backoff_base, _TABLE_I.backoff_max
    ref = random.Random(seed)
    rng = random.Random(seed)
    for attempts in range(1, 26):
        window = min(base << min(attempts - 1, 20), maximum)
        assert backoff_cycles(rng, attempts, base, maximum) \
            == ref.randrange(window) + 1

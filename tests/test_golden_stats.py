"""Golden pins: simulated results held fixed across commits.

Every parity suite compares two engines *on the same commit*, so a change
that moves cycles equally on both backends — an off-by-one in a NoC
latency table, say — passes all of them. These pins catch it: each point
records its ``cycles`` and the repo benchmark's digest (sha256 of
``json.dumps([cycles, stats.comparable()], sort_keys=True, default=str)``,
first 16 hex digits, as ``benchmarks/perf/workloads.py:digest``).

The matrix is the ten workloads of ``WORKLOADS`` (micros at
``total_ops=240``, apps at small inputs; the parity, sanitizer and
lifetime suites take their inputs from it too) x both systems x two
machines, at seed 1 on the interpreted engine:

* ``tableI``: the paper's Table I chip, 128 cores, 32 threads;
* ``tile16``: 16 cores at 16 threads on the same 4x4 mesh, one core per
  tile, so cache-to-cache forwards cross every pair of tiles.

A perf change must leave every pin as it is. Regenerate them only for an
intended change of simulated behaviour (a protocol fix, a new latency
model), in the commit that makes that change and says so::

    PYTHONPATH=src python tests/test_golden_stats.py

prints fresh ``GOLDEN`` and ``PREFILLED`` tables to paste over the ones
below.
"""

import hashlib
import json

import pytest

from repro.harness.runner import run_workload
from repro.workloads.apps import boruvka, genome, kmeans, ssca2, vacation
from repro.workloads.micro import (counter, linked_list, ordered_put,
                                   refcount, topk)

WORKLOADS = {
    "counter": (counter.build, dict(total_ops=240)),
    "topk": (topk.build, dict(total_ops=240)),
    "ordered_put": (ordered_put.build, dict(total_ops=240)),
    "linked_list": (linked_list.build, dict(total_ops=240)),
    "refcount": (refcount.build, dict(total_ops=240)),
    "boruvka": (boruvka.build, dict(num_nodes=48)),
    "genome": (genome.build, dict(num_segments=160, gene_length=256,
                                  initial_buckets=16)),
    "kmeans": (kmeans.build, dict(num_points=64, clusters=4, iterations=2)),
    "ssca2": (ssca2.build, dict(scale=5, edge_factor=3)),
    "vacation": (vacation.build, dict(num_tasks=96, relations=32)),
}

#: The five micro-benchmarks' builders, for suites that set ``total_ops``.
MICROS = {name: WORKLOADS[name][0] for name in
          ("counter", "linked_list", "ordered_put", "refcount", "topk")}

#: machine name -> (num_cores, num_threads)
MACHINES = {"tableI": (128, 32), "tile16": (16, 16)}

SYSTEMS = {"commtm": True, "baseline": False}


def _simulate(workload, system, machine):
    build, params = WORKLOADS[workload]
    cores, threads = MACHINES[machine]
    result = run_workload(build, threads, num_cores=cores,
                          commtm=SYSTEMS[system], seed=1, backend="interp",
                          **params)
    payload = json.dumps([result.cycles, result.stats.comparable()],
                         sort_keys=True, default=str)
    return result.cycles, hashlib.sha256(payload.encode()).hexdigest()[:16]


#: (workload, system, machine) -> (cycles, digest)
GOLDEN = {
    ('boruvka', 'baseline', 'tableI'): (82105, '0085ac500502eab2'),
    ('boruvka', 'baseline', 'tile16'): (68748, '4725eb59e79a9cbf'),
    ('boruvka', 'commtm', 'tableI'): (59851, '946c11b7f4da4d63'),
    ('boruvka', 'commtm', 'tile16'): (44080, 'cdb9fa88e48a3c3f'),
    ('counter', 'baseline', 'tableI'): (37147, '3155a49c4fc41746'),
    ('counter', 'baseline', 'tile16'): (30712, 'b5915d34f2831c7f'),
    ('counter', 'commtm', 'tableI'): (183, '74ec1cd7416198a1'),
    ('counter', 'commtm', 'tile16'): (337, '46d1b049447cf8c0'),
    ('genome', 'baseline', 'tableI'): (56332, '6444ab31835f8436'),
    ('genome', 'baseline', 'tile16'): (63598, '6c3d582c6271e851'),
    ('genome', 'commtm', 'tableI'): (51432, '608579b5151e86a0'),
    ('genome', 'commtm', 'tile16'): (41116, '60230f04a6d354ed'),
    ('kmeans', 'baseline', 'tableI'): (34197, '57cf552bed3e8a84'),
    ('kmeans', 'baseline', 'tile16'): (17927, 'cdf44c692338ff15'),
    ('kmeans', 'commtm', 'tableI'): (4919, 'ab15d0ec6fc10d72'),
    ('kmeans', 'commtm', 'tile16'): (5331, 'd1e5b5a97d365810'),
    ('linked_list', 'baseline', 'tableI'): (91546, '61349fe48f96b0fd'),
    ('linked_list', 'baseline', 'tile16'): (87249, '0f6ef4f3c13444b9'),
    ('linked_list', 'commtm', 'tableI'): (854, '43156b102e136ab8'),
    ('linked_list', 'commtm', 'tile16'): (1730, '79ceeaae81fadf62'),
    ('ordered_put', 'baseline', 'tableI'): (5900, '10e6238dc4e89728'),
    ('ordered_put', 'baseline', 'tile16'): (5691, '969d793fcfdc5977'),
    ('ordered_put', 'commtm', 'tableI'): (177, '72c6c1f65ca6b6f9'),
    ('ordered_put', 'commtm', 'tile16'): (325, 'dbe5c257eea2a577'),
    ('refcount', 'baseline', 'tableI'): (8435, 'f577346071ab5e32'),
    ('refcount', 'baseline', 'tile16'): (11036, 'db379fb7c3bb871a'),
    ('refcount', 'commtm', 'tableI'): (1962, '035724a08ce134ef'),
    ('refcount', 'commtm', 'tile16'): (2707, '235a1459cff3607a'),
    ('ssca2', 'baseline', 'tableI'): (31194, 'bafc579c05999b26'),
    ('ssca2', 'baseline', 'tile16'): (20815, 'cd6017c6cca2c700'),
    ('ssca2', 'commtm', 'tableI'): (16287, 'c0b749d5961830f0'),
    ('ssca2', 'commtm', 'tile16'): (20878, '9ea412ed76491ee1'),
    ('topk', 'baseline', 'tableI'): (39969, '44aa2721a729af28'),
    ('topk', 'baseline', 'tile16'): (38633, 'a3d2d8eb17e370ac'),
    ('topk', 'commtm', 'tableI'): (239, '0b1c8b940c6c8563'),
    ('topk', 'commtm', 'tile16'): (442, '5aa8ea922eaf0e64'),
    ('vacation', 'baseline', 'tableI'): (75973, '882176c8bdb0dbd1'),
    ('vacation', 'baseline', 'tile16'): (93178, '2cfc2cf95e735a5c'),
    ('vacation', 'commtm', 'tableI'): (51124, '96c52a60def63851'),
    ('vacation', 'commtm', 'tile16'): (36335, '30f9d613cf2261cd'),
}


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_golden_point(workload, system, machine):
    assert _simulate(workload, system, machine) == \
        GOLDEN[(workload, system, machine)]


def test_pins_cover_the_matrix():
    assert set(GOLDEN) == {(w, s, m) for w in WORKLOADS for s in SYSTEMS
                           for m in MACHINES}


#: Fig. 12b's registry point (50/50 mix over a 5,120-node prefill) at
#: 240 ops on the Table I chip, at seed 1: (system, threads) -> (cycles,
#: digest). The pins above never set ``prefill``; these hold the
#: prefilled list's layout (per-core chains in U under CommTM, one chain
#: in memory on the baseline) to the one it had when they were taken.
PREFILLED = {
    ('baseline', 1): (26505, '250cdee04133c2c7'),
    ('baseline', 8): (49288, 'c89fbb33d76a97ba'),
    ('commtm', 1): (26505, '9b7b0ba199d9818a'),
    ('commtm', 8): (6415, '08cf3efac1b28d25'),
}


def _simulate_prefilled(system, threads):
    result = run_workload(linked_list.build, threads, num_cores=128,
                          commtm=SYSTEMS[system], seed=1, backend="interp",
                          total_ops=240, enqueue_fraction=0.5,
                          prefill=5_120)
    payload = json.dumps([result.cycles, result.stats.comparable()],
                         sort_keys=True, default=str)
    return result.cycles, hashlib.sha256(payload.encode()).hexdigest()[:16]


@pytest.mark.parametrize("system, threads", sorted(PREFILLED))
def test_prefilled_linked_list_point(system, threads):
    assert _simulate_prefilled(system, threads) == \
        PREFILLED[(system, threads)]


if __name__ == "__main__":
    print("GOLDEN = {")
    for key in sorted((w, s, m) for w in WORKLOADS for s in SYSTEMS
                      for m in MACHINES):
        print(f"    {key!r}: {_simulate(*key)!r},")
    print("}")
    print("PREFILLED = {")
    for key in sorted(PREFILLED):
        print(f"    {key!r}: {_simulate_prefilled(*key)!r},")
    print("}")

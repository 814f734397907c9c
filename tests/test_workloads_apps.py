"""Full applications (Sec. VII): execution + semantic verification on both
systems at several thread counts."""

import pytest

from repro import Machine
from repro.harness import run_workload
from repro.params import small_config
from repro.workloads.apps import boruvka, genome, kmeans, ssca2, vacation

APPS = [
    ("boruvka", boruvka.build, dict(num_nodes=48)),
    ("kmeans", kmeans.build, dict(num_points=96, clusters=4, iterations=2)),
    ("ssca2", ssca2.build, dict(scale=5, edge_factor=3)),
    ("genome", genome.build,
     dict(num_segments=160, gene_length=256, initial_buckets=16)),
    ("vacation", vacation.build, dict(num_tasks=96, relations=32)),
]


@pytest.mark.parametrize("name,build,kw", APPS, ids=[a[0] for a in APPS])
@pytest.mark.parametrize("threads", [1, 4, 8])
@pytest.mark.parametrize("commtm", [True, False], ids=["commtm", "baseline"])
def test_app_verifies(name, build, kw, threads, commtm):
    # The builders' verify() raises on any semantic violation.
    result = run_workload(build, threads, num_cores=16, commtm=commtm, **kw)
    assert result.cycles > 0
    assert result.stats.commits > 0


#: Each app's commutative operations' labels (Table II).
TABLE2_LABELS = {
    "boruvka": {"OPUT", "MIN", "MAX", "ADD"},
    "kmeans": {"ADD"},
    "ssca2": {"ADD", "MAX"},
    "genome": {"ADD"},
    "vacation": {"ADD"},
}


@pytest.mark.parametrize("name,build,kw", APPS, ids=[a[0] for a in APPS])
def test_app_registers_table2_labels(name, build, kw):
    machine = Machine(small_config(num_cores=16))
    build(machine, 4, **kw)
    assert set(machine.labels.names()) == TABLE2_LABELS[name]


def test_boruvka_deterministic_inputs():
    a = run_workload(boruvka.build, 4, num_cores=16, num_nodes=48, seed=3)
    b = run_workload(boruvka.build, 4, num_cores=16, num_nodes=48, seed=3)
    assert a.info["edges"] == b.info["edges"]


def test_kmeans_commtm_reduces_aborts():
    commtm = run_workload(kmeans.build, 8, num_cores=16, num_points=96,
                          clusters=4, iterations=2)
    base = run_workload(kmeans.build, 8, num_cores=16, num_points=96,
                        clusters=4, iterations=2, commtm=False)
    assert commtm.stats.aborts < base.stats.aborts


def test_ssca2_low_labeled_fraction():
    result = run_workload(ssca2.build, 4, num_cores=16, scale=5)
    assert result.stats.labeled_fraction < 0.005


def test_genome_gather_configuration():
    with_g = run_workload(genome.build, 8, num_cores=16, num_segments=160,
                          gene_length=256, initial_buckets=16)
    without = run_workload(genome.build, 8, num_cores=16, num_segments=160,
                           gene_length=256, initial_buckets=16,
                           use_gather=False)
    assert with_g.stats.gathers >= 0
    assert without.stats.gathers == 0


def test_vacation_conservation_checked():
    # The verifier checks reservation/availability conservation; a
    # completed run that returns implies the invariant held.
    result = run_workload(vacation.build, 8, num_cores=16, num_tasks=96,
                          relations=32)
    assert result.stats.commits >= 96

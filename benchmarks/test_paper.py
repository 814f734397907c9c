"""The paper's evaluation: one test per entry of the experiment registry.

    PYTHONPATH=src python -m pytest benchmarks/test_paper.py

Each test draws its entry at the entry's default thread ladder and full
size, writes the report to ``results/<name>.txt`` and asserts the entry's
shape checks. The entries share one result cache for the session, so
Figs. 17-19 and Table II re-read the points Fig. 16 simulated.
"""

from pathlib import Path

import pytest

from repro.harness.cache import ResultCache
from repro.harness.experiments import REGISTRY

RESULTS = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def cache(tmp_path_factory):
    return ResultCache(tmp_path_factory.mktemp("points"))


@pytest.mark.parametrize("name", REGISTRY)
def test_paper(name, cache):
    experiment = REGISTRY[name]
    drawn = experiment.draw(list(experiment.threads), 1.0, None, cache)
    report = experiment.render(drawn)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}.txt").write_text(report + "\n")
    failed = [claim for claim, holds in experiment.checks(drawn) if not holds]
    assert not failed, f"{name} fails {failed}:\n{report}"

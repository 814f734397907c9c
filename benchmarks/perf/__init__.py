"""End-to-end and per-layer benchmark of the CommTM simulator.

``python -m benchmarks.perf run --workload W --seed S`` regenerates one
workload in fresh child processes per backend and prints every metric;
``trace`` adds per-layer attribution; ``compare`` judges two sets of
results. See README.md in this directory.
"""

WORKLOADS = ("micro", "apps", "checks", "seeds")

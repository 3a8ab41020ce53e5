"""Experiment harness: one module per reproduced claim (the E1–E12 battery
in the README's "Layout" section; ``python -m repro list`` names them).

Every experiment module exposes a ``run(...)`` function returning a list of
result-row dictionaries plus module-level ``COLUMNS`` describing the table
layout.  The benchmarks under ``benchmarks/`` call the same ``run``
functions with reduced parameters, so every experiment table can be
regenerated either through pytest-benchmark or through the CLI
(``python -m repro <experiment>``).
"""

from repro.experiments import (
    ablations,
    approx_rounds,
    baselines_compare,
    churn_sweep,
    exact_rounds,
    lower_bound,
    message_size,
    robustness,
    schedule_validation,
    self_rank,
    token_distribution,
    topology_sweep,
)
from repro.experiments.runner import ExperimentSpec, REGISTRY, run_experiment

__all__ = [
    "ablations",
    "approx_rounds",
    "baselines_compare",
    "churn_sweep",
    "exact_rounds",
    "lower_bound",
    "message_size",
    "robustness",
    "schedule_validation",
    "self_rank",
    "token_distribution",
    "topology_sweep",
    "ExperimentSpec",
    "REGISTRY",
    "run_experiment",
]

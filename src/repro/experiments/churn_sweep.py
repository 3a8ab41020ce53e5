"""E11 — gossip under dynamic topologies: churn and edge resampling.

The paper's model is a static complete graph; this experiment measures how
push-sum convergence degrades (or doesn't) when the graph itself changes
every round (:mod:`repro.topology.dynamic`):

* **churn** rows run a :class:`~repro.topology.dynamic.ChurnProcess` over
  each base topology: every round active nodes depart with probability
  ``churn_rate`` and departed nodes rejoin at the same rate.  Departed
  nodes neither act nor receive, so aggregate ``(s, w)`` mass is conserved
  exactly — the ``mass_rel_error`` column verifies this to float precision
  on every trial.
* **resample** rows run a newscast-style
  :class:`~repro.topology.dynamic.EdgeResamplingProcess`: every node keeps
  a ``degree``-sized uniformly random neighbor view, re-drawn every
  ``resample_every`` rounds.  Expected shape: even tiny views gossip like
  an expander when resampled often, and degrade toward the static
  random-graph behaviour as the period grows.

``--failures topology`` layers position-correlated failures
(:class:`~repro.gossip.failures.TopologyFailures`, hubs failing more) on
top of the dynamics.  All trials dispatch through the parallel trial
executor, so rows are identical for any ``workers`` count.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregates.push_sum import PushSumProtocol
from repro.datasets.generators import distinct_uniform
from repro.exceptions import ConfigurationError
from repro.gossip.engine import run_protocol
from repro.gossip.env import GossipEnv
from repro.gossip.failures import TopologyFailures
from repro.topology import ChurnProcess, EdgeResamplingProcess, build_topology
from repro.utils.rand import RandomSource

COLUMNS = [
    "n",
    "process",
    "topology",
    "churn_rate",
    "resample_every",
    "failures",
    "trials",
    "rounds",
    "converged_fraction",
    "final_spread",
    "active_fraction",
    "mass_rel_error",
]

#: Failure layers the experiment knows how to apply on top of the dynamics.
FAILURE_CHOICES = ("none", "topology")

DEFAULT_TOPOLOGIES = ("complete", "small-world")


def _run_cell(
    grid: Tuple[Tuple[int, str, str, float, int], ...],
    degree: int,
    rewire_p: float,
    max_rounds: int,
    tolerance: float,
    failures: str,
    failure_mu: float,
    trial_index: int,
    rng: RandomSource,
) -> Dict[str, float]:
    """One (n, process-config) trial; module-level for process pools."""
    n, process_kind, topo_name, churn_rate, resample_every = grid[trial_index]
    failure_model = None
    if process_kind == "churn":
        base = build_topology(
            topo_name, n, degree=degree, rewire_p=rewire_p, rng=rng.child()
        )
        process = ChurnProcess(
            topology=base, churn_rate=churn_rate, rng=rng.child()
        )
        if failures == "topology":
            failure_model = TopologyFailures(base, mu=failure_mu, mode="degree")
    else:  # resample (newscast views; the base graph is the evolving view union)
        process = EdgeResamplingProcess(
            n, view_size=degree, resample_every=resample_every, rng=rng.child()
        )
        if failures == "topology":
            # Views are degree-regular by construction of the draw; a flat
            # degree profile makes position-correlated failures uniform.
            failure_model = TopologyFailures(
                np.full(n, degree), mu=failure_mu, mode="degree"
            )

    values = distinct_uniform(n, rng=rng.child())
    protocol = PushSumProtocol(values, rounds=max_rounds, tolerance=tolerance)
    result = run_protocol(
        protocol,
        rng=rng.child(),
        raise_on_budget=False,
        max_rounds=max_rounds + 1,
        env=GossipEnv(failure_model=failure_model, topology_process=process),
    )
    spread = protocol.relative_spread()
    total = float(np.sum(values))
    mass_err = abs(protocol.total_mass - total) / max(abs(total), 1e-300)
    weight_err = abs(protocol.total_weight - n) / n
    active_fraction = (
        process.mean_active_fraction()
        if isinstance(process, ChurnProcess)
        else 1.0
    )
    return {
        "rounds": result.rounds,
        "converged": float(spread <= tolerance),
        "spread": spread,
        "active_fraction": active_fraction,
        "mass_rel_error": max(mass_err, weight_err),
    }


def run(
    sizes: Sequence[int] = (10_000,),
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    churn_rates: Sequence[float] = (0.0, 0.05, 0.2),
    resample_every: Sequence[int] = (1, 16),
    degree: int = 8,
    rewire_p: float = 0.1,
    max_rounds: int = 1_500,
    tolerance: float = 1e-3,
    failures: str = "none",
    failure_mu: float = 0.1,
    trials: int = 2,
    seed: int = 17,
    workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Run experiment E11 and return one row per dynamic-topology config.

    The grid is ``sizes x topologies x churn_rates`` churn rows plus
    ``sizes x resample_every`` newscast rows (pass an empty sequence to
    drop either family).
    """
    from repro.experiments.runner import run_trials

    if failures not in FAILURE_CHOICES:
        raise ConfigurationError(
            f"unknown failures layer {failures!r}; choose from {FAILURE_CHOICES}"
        )
    for rate in churn_rates:
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"churn rate must be in [0, 1), got {rate}")
    for period in resample_every:
        if period < 1:
            raise ConfigurationError(
                f"resample period must be >= 1, got {period}"
            )

    configs: List[Tuple[int, str, str, float, int]] = []
    for n in sizes:
        for topo in topologies:
            for rate in churn_rates:
                configs.append((n, "churn", topo, rate, 0))
        for period in resample_every:
            configs.append((n, "resample", "newscast", 0.0, period))
    grid = tuple(config for config in configs for _ in range(trials))

    task = partial(
        _run_cell, grid, degree, rewire_p, max_rounds, tolerance,
        failures, failure_mu,
    )
    outcomes = run_trials(task, len(grid), seed=seed, workers=workers)

    rows: List[Dict[str, float]] = []
    for index, (n, kind, topo, rate, period) in enumerate(configs):
        batch = outcomes[index * trials : (index + 1) * trials]
        rows.append(
            {
                "n": n,
                "process": kind,
                "topology": topo,
                "churn_rate": rate,
                "resample_every": period,
                "failures": failures,
                "trials": trials,
                "rounds": float(np.mean([b["rounds"] for b in batch])),
                "converged_fraction": float(
                    np.mean([b["converged"] for b in batch])
                ),
                "final_spread": float(np.mean([b["spread"] for b in batch])),
                "active_fraction": float(
                    np.mean([b["active_fraction"] for b in batch])
                ),
                "mass_rel_error": float(
                    np.max([b["mass_rel_error"] for b in batch])
                ),
            }
        )
    return rows

"""E1 — Theorem 1.1: exact quantile in Θ(log n) rounds vs. Kempe's Θ(log² n).

For each network size the experiment runs the tournament-based exact
algorithm and the [KDG03] selection baseline on the same inputs and reports
round counts, the normalised ratios rounds/log₂n and rounds/log₂²n, and the
speed-up of the new algorithm.  The reproduction target is the *shape*:
the tournament column grows linearly in log n (its normalised ratio stays
roughly flat), the baseline grows quadratically, and the speed-up widens
with n.

Trials dispatch through the parallel trial executor
(:func:`repro.experiments.runner.run_trials`): each (n, φ, trial) cell gets
its own deterministic child seed, so rows are identical for any ``workers``
count.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.kempe_quantile import kempe_exact_quantile
from repro.core.exact_quantile import exact_quantile
from repro.datasets.generators import distinct_uniform
from repro.utils.rand import RandomSource
from repro.utils.stats import empirical_quantile

COLUMNS = [
    "n",
    "phi",
    "trials",
    "tournament_rounds",
    "kempe_rounds",
    "tournament_per_logn",
    "kempe_per_log2n",
    "speedup",
    "tournament_correct",
    "kempe_correct",
]


def _run_one_trial(
    grid: Tuple[Tuple[int, float], ...],
    trial_index: int,
    rng: RandomSource,
) -> Dict[str, float]:
    """One (n, phi) trial; module-level so process pools can pickle it."""
    n, phi = grid[trial_index]
    values = distinct_uniform(n, rng=rng.child())
    truth = empirical_quantile(values, phi)
    ours = exact_quantile(values, phi=phi, rng=rng.child())
    base = kempe_exact_quantile(values, phi=phi, rng=rng.child())
    return {
        "tournament_rounds": ours.rounds,
        "kempe_rounds": base.rounds,
        "tournament_correct": int(ours.value == truth),
        "kempe_correct": int(base.value == truth),
    }


def run(
    sizes: Sequence[int] = (256, 512, 1024, 2048, 4096),
    phis: Sequence[float] = (0.5,),
    trials: int = 3,
    seed: int = 1,
    workers: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Run experiment E1 and return one row per (n, phi)."""
    from repro.experiments.runner import run_trials

    grid = tuple(
        (n, phi) for n in sizes for phi in phis for _ in range(trials)
    )
    outcomes = run_trials(
        partial(_run_one_trial, grid), len(grid), seed=seed,
        workers=workers,
    )

    rows: List[Dict[str, float]] = []
    cursor = 0
    for n in sizes:
        for phi in phis:
            batch = outcomes[cursor : cursor + trials]
            cursor += trials
            mean_ours = float(np.mean([b["tournament_rounds"] for b in batch]))
            mean_kempe = float(np.mean([b["kempe_rounds"] for b in batch]))
            log_n = math.log2(n)
            rows.append(
                {
                    "n": n,
                    "phi": phi,
                    "trials": trials,
                    "tournament_rounds": mean_ours,
                    "kempe_rounds": mean_kempe,
                    "tournament_per_logn": mean_ours / log_n,
                    "kempe_per_log2n": mean_kempe / (log_n * log_n),
                    "speedup": mean_kempe / mean_ours if mean_ours else float("nan"),
                    "tournament_correct": sum(
                        b["tournament_correct"] for b in batch
                    ) / trials,
                    "kempe_correct": sum(b["kempe_correct"] for b in batch) / trials,
                }
            )
    return rows

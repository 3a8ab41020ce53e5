"""E6 — Lemmas 2.2 / 2.12: the tournament schedules and their iteration bounds.

Two checks: (i) the deterministic schedule lengths respect the closed-form
bounds log_{7/4}(4/ε)+2 and log_{11/8}(1/4ε)+log₂log₄n; (ii) when the
2-TOURNAMENT phase actually runs, the measured above-band fraction tracks
the schedule's h_i trajectory (Lemma 2.5's concentration).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.schedules import (
    three_tournament_iteration_bound,
    three_tournament_schedule,
    two_tournament_iteration_bound,
    two_tournament_schedule,
)
from repro.core.two_tournament import run_two_tournament
from repro.datasets.generators import distinct_uniform
from repro.utils.rand import RandomSource

COLUMNS = [
    "n",
    "phi",
    "eps",
    "phase1_iterations",
    "phase1_bound",
    "phase2_iterations",
    "phase2_bound",
    "max_trajectory_deviation",
]


def run(
    sizes: Sequence[int] = (1024, 4096),
    phis: Sequence[float] = (0.25, 0.5, 0.75),
    eps_values: Sequence[float] = (0.2, 0.1, 0.05),
    seed: int = 6,
) -> List[Dict[str, float]]:
    """Run experiment E6 and return one row per (n, phi, eps)."""
    rng = RandomSource(seed)
    rows: List[Dict[str, float]] = []
    for n in sizes:
        for phi in phis:
            for eps in eps_values:
                schedule1 = two_tournament_schedule(phi, eps)
                schedule2 = three_tournament_schedule(eps / 4.0, n)
                values = distinct_uniform(n, rng=rng.child())
                phase = run_two_tournament(
                    values, phi=phi, eps=eps, schedule=schedule1, track_band=True,
                    rng=rng.child(),
                )
                deviations = []
                for stat, iteration in zip(phase.stats, schedule1.iterations):
                    heavy = (
                        stat.high_fraction
                        if schedule1.direction == "min"
                        else stat.low_fraction
                    )
                    deviations.append(abs(heavy - stat.predicted))
                rows.append(
                    {
                        "n": n,
                        "phi": phi,
                        "eps": eps,
                        "phase1_iterations": schedule1.num_iterations,
                        "phase1_bound": two_tournament_iteration_bound(eps),
                        "phase2_iterations": schedule2.num_iterations,
                        "phase2_bound": three_tournament_iteration_bound(eps / 4.0, n),
                        "max_trajectory_deviation": float(np.max(deviations))
                        if deviations
                        else 0.0,
                    }
                )
    return rows
